"""Gamma-family special functions used by the rate expressions.

The workhorses are two trapezoid-rule kernels: Mellin-Barnes contour
integrals (Fox H, which covers Meijer G as the case with all gamma
argument coefficients 1), and expectations
over a Gamma weight, which also give the Tricomi confluent hypergeometric
function U(a;b;z).  Everything is evaluated in log space so
that gamma-function products with large arguments neither overflow nor lose
precision before the final exponentiation.  The contour kernel reads its
gamma product chi as log|chi| on the real axis, from math.lgamma, and as log
chi up to 2 pi i on vertical lines, from the Lanczos approximation in real
arithmetic with one shift per gamma factor: no scipy is needed at run time.
Both kernels sum elementwise in numpy and form no matrix product, so nothing
here calls BLAS, and no result depends on the BLAS kernel a CPU selects.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np


def positive_grid(x, name):
    """x, a scalar or a sequence, as a 1-d float array; raises a ValueError
    naming x unless it has entries and every one is finite and > 0."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not xs.size:
        raise ValueError("%s must not be empty" % name)
    if not np.all((xs > 0) & (xs < math.inf)):
        raise ValueError("%s must be finite and > 0, got %r" % (name, x))
    return xs


def like_grid(x, values):
    """A float for a scalar x, else the array of values."""
    return float(values[0]) if np.ndim(x) == 0 else values


class ContourError(ValueError):
    """No vertical contour separates the two pole families."""


class TruncationError(ArithmeticError):
    """A contour integral or quadrature did not reach its tolerance."""


# Lanczos, SIAM J. Numer. Anal. 1 (1964), with g = 7 and nine terms (Godfrey's
# coefficients): Gamma(z) = sqrt(2 pi) t^(z - 1/2) e^-t A(z), t = z + g - 1/2,
# A(z) = c_0 + sum_k c_k / (z + k - 1), relative error about 1e-15 for Re z >= 1/2.
_LANCZOS_G = 7.0
_LANCZOS_C0 = 0.99999999999980993
_LANCZOS_C = np.array([
    676.5203681218851, -1259.1392167224028, 771.32342877765313, -176.61502916214059,
    12.507343278686905, -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
])[:, None, None]
_LANCZOS_K = np.arange(8.0)[:, None, None]
_LANCZOS_OFFSET = 0.5 * math.log(2.0 * math.pi) - _LANCZOS_G


def _lanczos(x, y, y2):
    """(Re, Im) of log Gamma(x + iy) for a column x >= 1/2 and rows y, y2 = y * y.

    Real arithmetic throughout: numpy's complex log runs many times slower
    than its real log and arctan2.
    """
    t = x + (_LANCZOS_G - 0.5)
    xk = x + _LANCZOS_K
    q = _LANCZOS_C / (xk * xk + y2)
    ar = _LANCZOS_C0 + (q * xk).sum(0)
    minus_ai = y * q.sum(0)  # A(z) = ar - i minus_ai
    # (z - 1/2) log t - t = (z - 1/2)(log t - 1) - g keeps the cancellation
    # to one constant
    log_t, arg_t = np.log(np.hypot(t, y)) - 1.0, np.arctan2(y, t)
    xm = x - 0.5
    re = _LANCZOS_OFFSET + xm * log_t - y * arg_t + np.log(np.hypot(ar, minus_ai))
    return re, xm * arg_t + y * log_t - np.arctan2(minus_ai, ar)


def _stirling_tail(x):
    """Stirling's series for log Gamma(x) past its 1/(12 x) term: the sum of
    B_2n / (2n (2n - 1) x^(2n - 1)) for n = 2..6.  From x = 12 on, the
    terms left out move a second difference by under 1e-15 of itself."""
    v = 1.0 / (x * x)
    return v / x * (-1.0 / 360 + v * (1.0 / 1260 + v * (-1.0 / 1680 + v * (
        1.0 / 1188 - v * 691.0 / 360360))))


def lgamma_second_difference(x, d):
    """lgamma(x) - 2 lgamma(x + d) + lgamma(x + 2 d) for x, d > 0, to within
    about 1e-14 of itself, where the three lgamma values nearly cancel.

    Below x = 12 the recurrence lgamma(x) = lgamma(x + 1) - log x moves x
    up, each step adding the second difference of -log x, -log1p(-e^2)
    with e = d / (x + d).  From there Stirling's series: the second
    difference of (x - 1/2) log x - x is (x - 1/2) log1p(-e^2) + 2 d log1p(e),
    that of 1/(12 x) is d^2 / (6 x (x + d) (x + 2 d)), and that of
    _stirling_tail is formed directly, or for d < 1e-3, where that would
    cancel, as d^2 times its second derivative at x + d (the sum of
    B_2n / (x + d)^(2n + 1)), which is within d^2 / x^2 of it.
    """
    total = 0.0
    while x < 12.0:
        w = (d / (x + d)) ** 2
        # 1 - w = x (x + 2 d) / (x + d)^2; the product keeps its digits as w nears 1
        total -= math.log1p(-w) if w < 0.5 else math.log(x * (x + 2.0 * d) / (x + d) ** 2)
        x += 1.0
    if d < 1e-3:
        c = x + d
        v = 1.0 / (c * c)
        tail = d * d * v * v / c * (-1.0 / 30 + v * (1.0 / 42 + v * (-1.0 / 30 + v * (
            5.0 / 66 - v * 691.0 / 2730))))
    else:
        tail = _stirling_tail(x) - 2.0 * _stirling_tail(x + d) + _stirling_tail(x + 2.0 * d)
    e = d / (x + d)
    return (total + (x - 0.5) * math.log1p(-e * e) + 2.0 * d * math.log1p(e)
            + d * d / (6.0 * x * (x + d) * (x + 2.0 * d)) + tail)


def _log1p_ratio(y):
    """log1p(y) / y, and its limit 1 where y is 0."""
    return math.log1p(y) / y if y else 1.0


def lgamma_slope(x, d):
    """(lgamma(x + d) - lgamma(x)) / d for x > 0, x + d > 0 and |d| < 1e-3,
    and its limit psi(x) at d = 0, to within about 2e-15 of max(1, |psi(x)|),
    where the two lgamma values nearly cancel or d is subnormal.

    As in lgamma_second_difference: below x = 12 the recurrence moves x up,
    each step adding -log1p(d / x) / d.  From there Stirling's series: the
    difference of (x - 1/2) log x - x is (x - 1/2) log1p(d / x) +
    d log(x + d) - d, that of 1/(12 x) is -d / (12 x (x + d)), and that of
    _stirling_tail is d times its derivative at x + d/2 (minus the sum of
    B_2n / (2n (x + d/2)^(2n))), which is within d^2 / x^2 of it.  Each
    log1p(d / x) / d is formed as _log1p_ratio(d / x) / x.
    """
    total = 0.0
    while x < 12.0:
        total -= _log1p_ratio(d / x) / x
        x += 1.0
    v = 1.0 / (x + 0.5 * d) ** 2
    tail = v * v * (1.0 / 120 + v * (-1.0 / 252 + v * (1.0 / 240 + v * (
        -1.0 / 132 + v * 691.0 / 32760))))
    return (total + (x - 0.5) / x * _log1p_ratio(d / x) + math.log(x + d) - 1.0
            - 1.0 / (12.0 * x * (x + d)) + tail)


def tricomi_u(a, b, z):
    """Tricomi confluent hypergeometric U(a;b;z) for a > 0, z > 0 and real b.

    Evaluated from the Laplace-type integral

        U(a;b;z) = z^-a E[(1 + V/z)^(b-a-1)],   V ~ Gamma(a, 1),

    which is smooth in b, so nothing special happens when b passes through
    an integer.  z is a scalar (giving a float) or a sequence (giving an
    array).  log(z^a U(a;b;z)), which keeps its digits where U under- or
    overflows, is log_mean_power(a, 1/z, 1, b - a - 1).
    """
    if not a > 0:
        raise ValueError("tricomi_u: need a > 0, got a=%r" % (a,))
    zs = positive_grid(z, "z")
    return like_grid(z, np.exp(log_mean_power(a, 1.0 / zs, 1.0, b - a - 1.0) - a * np.log(zs)))


@dataclass(frozen=True)
class FoxHSpec:
    """Order and parameter pairs of a Fox H function H^{m,n}_{p,q}.

    upper_pairs holds the p pairs (a_j, A_j), lower_pairs the q pairs
    (b_j, B_j), with the first n upper and first m lower pairs producing
    numerator gamma factors.  All coefficients A_j, B_j must be positive.
    """

    m: int
    n: int
    upper_pairs: tuple
    lower_pairs: tuple

    def __post_init__(self):
        p, q = len(self.upper_pairs), len(self.lower_pairs)
        if not (0 <= self.n <= p and 0 <= self.m <= q):
            raise ValueError("FoxHSpec: need 0 <= n <= p and 0 <= m <= q")
        for _, coef in tuple(self.upper_pairs) + tuple(self.lower_pairs):
            if coef <= 0:
                raise ValueError("FoxHSpec: gamma argument coefficients must be positive")
        # the fields fix the factor table, its columns and the strip: built once
        m, n = self.m, self.n
        factors = (
            tuple((1, b, B) for b, B in self.lower_pairs[:m])
            + tuple((1, 1.0 - a, -A) for a, A in self.upper_pairs[:n])
            + tuple((-1, 1.0 - b, -B) for b, B in self.lower_pairs[m:])
            + tuple((-1, a, A) for a, A in self.upper_pairs[n:])
        )
        # Poles of Gamma(b_j + B_j s), j <= m sit at s <= -b_j/B_j and must
        # stay left; poles of Gamma(1 - a_j - A_j s), j <= n sit at
        # s >= (1-a_j)/A_j and must stay right.
        edges = [(k > 0, -x0 / k) for sign, x0, k in factors if sign > 0]
        lo = max((e for left, e in edges if left), default=-math.inf)
        hi = min((e for left, e in edges if not left), default=math.inf)
        if not lo < hi:
            raise ContourError(
                "FoxHSpec: pole families overlap, no contour exists "
                "(strip [%g, %g] is empty)" % (lo, hi)
            )
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_columns", np.array(factors).T[:, :, None])
        object.__setattr__(self, "_strip", (lo, hi))

    def factors(self):
        """(sign, x0, k) of each factor Gamma(x0 + k s) of chi(s); sign -1 divides."""
        return self._factors

    def strip(self):
        """Open interval of contour abscissas separating the pole families."""
        return self._strip

    def contour_abscissa(self, log_z=0.0):
        """Abscissa c of the integration line for a scalar log z (giving a
        float) or for each entry of a vector (giving an array).

        Of a set of trial points in order, the first whose log|chi(c) z^-c|
        lies within a slack of the lowest, so that the integrand is not far
        larger than H.  On a finite strip the trials are the midpoint, then
        the points 1/2, 3/4, 7/8 and 15/16 of the way from it to either
        edge, nearest first, and the slack is _SADDLE_SLACK nats: the
        trapezoid sum then cancels away at most about two digits, and its
        step, which narrows toward the edges, is the widest that allows.  On
        a half-infinite strip the trials are the points 1, 2, 4, ... from
        the poles, and the slack is 0: the lowest is taken.
        """
        lo, hi = self.strip()
        slack = _SADDLE_SLACK if math.isfinite(lo) and math.isfinite(hi) else 0.0
        if slack:
            trial = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _TRIAL_FINITE
        else:
            trial = lo + _TRIAL_HALF if math.isfinite(lo) else hi - _TRIAL_HALF
        lz = np.atleast_1d(np.asarray(log_z, dtype=float))
        height = _log_abs_chi(self, trial)[:, None] - trial[:, None] * lz
        c = trial[np.argmax(height - height.min(axis=0) <= slack, axis=0)]
        return float(c[0]) if np.ndim(log_z) == 0 else c


# contour_abscissa's trials: from a finite strip's midpoint in half-widths, or from the poles
_TRIAL_FINITE = np.concatenate([[0.0], np.outer(1.0 - 0.5 ** np.arange(1, 5), [-1.0, 1.0]).ravel()])
_TRIAL_HALF = 2.0 ** np.arange(12)


def _log_abs_chi(spec, s):
    """log|chi(s)| at each point of a real vector s: math.lgamma is
    log|Gamma| at every real non-pole, and a pole gives +inf; summed in floats."""
    out = []
    for v in np.asarray(s, dtype=float).tolist():
        total = 0.0
        for sign, x0, k in spec.factors():
            x = x0 + k * v
            total += sign * (math.lgamma(x) if x > 0 or x % 1.0 else math.inf)
        out.append(total)
    return np.array(out)


def _log_chi(spec, c, t):
    """log chi(c + i t) at each t of a vector, up to 2 pi i.

    The argument of each factor has the fixed real part b = x0 + k c, so
    one integer n per factor shifts it to Re >= 1/2, by log Gamma(z) =
    log Gamma(z + n) - sum_j<n log(z + j), and one _lanczos call serves
    the stacked factors.  At t = 0, a factor with b > 0 is math.lgamma(b), the
    real value to the last bit, wherever that node sits in t.
    """
    sign, x0, k = spec._columns
    b = x0 + k * c
    n = np.fmax(np.ceil(0.5 - b), 0.0)
    y, on_axis = k * t, t == 0
    y2 = y * y
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        re, im = _lanczos(b + n, y, y2)
        for re_f, im_f, y_f, y2_f, bf, nf in zip(re, im, y, y2, b[:, 0].tolist(),
                                                 n[:, 0].tolist()):
            for x in [bf + j for j in range(int(nf))]:
                re_f -= 0.5 * np.log(x * x + y2_f)
                im_f -= np.arctan2(y_f, x)
            if bf > 0:
                re_f[on_axis], im_f[on_axis] = math.lgamma(bf), 0.0
    return (sign * (re + 1j * im)).sum(0)


_MARGIN = 10.0  # nats of accuracy the step and the cut-off aim for beyond 1e-12
_TARGET = _MARGIN - math.log(1e-12)  # nats below its peak an integrand is resolved to
_SADDLE_SLACK = 4.0  # nats the line of a finite strip may lie above its lowest trial abscissa
_BLOCK = 1 << 14  # entries per block of a (points x nodes) matrix
_MAX_NODES = 1 << 22  # node cap of gamma_expectation, 32 MB per array of nodes
_LOG_MAX = math.log(sys.float_info.max)  # the largest rise whose e^rise is a double
_MISSED = "gamma_expectation: error %g at c=%r exceeds 1e-12"


def _trapezoid_error(full, half, size, rise, tail):
    """Relative error estimate of each trapezoid sum in full, a vector.

    half is the sum on every second node (halving the step squares the
    error, which the integrand's rise, in nats, off the axis within the
    strip inflates by e^rise), size the sum of the terms' magnitudes and
    tail a bound on what the nodes leave out, both in the sum's units.
    Rounding: a sum that cancels keeps about eps size / |full| of itself.
    Where e^rise is not a double, the estimate is infinite.
    """
    mag = np.abs(full)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = ((full - 2.0 * half) ** 2 * np.exp(-rise) / size + tail) / mag + 2.2e-16 * size / mag
    return np.where(rise <= _LOG_MAX, err, math.inf)


def contour_integral(spec, c, log_z):
    """(1/2 pi i) int chi(s) z^-s ds on Re s = c, for a vector of log z.

    The trapezoid rule on t = Im s >= 0 (conjugate symmetry folds the line)
    converges geometrically: Trefethen & Weideman, SIAM Review 56, 2014.
    log chi is evaluated once; each z costs one sum over the nodes of their
    phases exp(-i t log z) (_phase_sums).  The step is 2 pi a /
    (rise + log(1/1e-12) + margin) for the half-width a = 0.9 of the pole
    gap, rise being the most, over the z, that log|chi(s) z^-s| climbs on
    the real axis at c -+ a.  Nodes stop where |chi| is that far below its
    peak and past its Stirling turning point.

    Returns (log_scale, scaled, err): the integral is exp(log_scale) *
    scaled; err estimates its relative error from the sum on every second
    node (halving the step squares the error), the tail bound and the
    rounding of the sum.  Off spec.strip(), the result differs from H by
    the residues crossed.
    """
    args = [(sign, x0 + k * c, abs(k)) for sign, x0, k in spec.factors()]
    # |Gamma(x + iy)| falls as e^(-pi |y| / 2) up to powers, so |chi(c + it)| as e^(-kappa t)
    kappa = 0.5 * math.pi * sum(sign * k for sign, _, k in args)
    if kappa <= 0:
        raise ContourError("fox_h: integrand does not decay on vertical contours")
    gap = min((x if x > 0 else min(x % 1.0, -x % 1.0)) / k for sign, x, k in args if sign > 0)
    if not gap > 0:
        raise ContourError("contour Re s = %g passes through a pole" % (c,))
    t_fall = 2.0 * max(sum(sign * (x - 0.5) for sign, x, _ in args), 0.0) / kappa
    log_z = np.atleast_1d(np.asarray(log_z, dtype=float))
    if not np.isfinite(log_z).all():
        raise ValueError("fox_h: argument must be positive and finite")
    a = 0.9 * gap
    at_c, below, above = _log_abs_chi(spec, (c, c - a, c + a)).tolist()
    rise = np.maximum(np.maximum(below - at_c + a * log_z, above - at_c - a * log_z), 0.0)
    h = 2.0 * math.pi * a / (rise.max() + _TARGET)
    log_chi, peak = np.empty(0, dtype=complex), -math.inf
    # Stirling's |chi| ~ t^sigma e^(-kappa t) falls by _TARGET near t_fall +
    # _TARGET/kappa; the first batch of nodes reaches that far, and each
    # further batch adds a quarter of the nodes made so far.  Every batch is
    # checked against the node budget before it is made; the first in floats,
    # where a first batch past the budget stands as one node past it
    t_end = t_fall + _TARGET / kappa
    more_nodes = int(t_end / h) + 16 if t_end <= h * (1 << 20) else (1 << 20) + 1
    while len(log_chi) + more_nodes <= 1 << 20:
        more = _log_chi(spec, c, h * np.arange(len(log_chi), len(log_chi) + more_nodes))
        more_nodes = (len(log_chi) + len(more)) // 4 + 16
        log_chi, peak = np.concatenate([log_chi, more]), max(peak, more.real.max())
        if h * (len(log_chi) - 1) >= t_fall and log_chi[-1].real < peak - _TARGET:
            break
    else:
        raise TruncationError("fox_h: |chi| not below the cut-off within %d nodes (t = %g)"
                              % (1 << 20, h * (len(log_chi) + more_nodes)))
    keep = max(np.flatnonzero(log_chi.real >= peak - _TARGET)[-1] + 2, int(t_fall / h) + 1)
    w = np.exp(log_chi[:keep] - peak)
    w[0] *= 0.5
    full, half = _phase_sums(w, h, log_z)
    err = _trapezoid_error(full, half, np.abs(w).sum(), rise, 2.0 * abs(w[-1]) / (kappa * h))
    return peak - c * log_z, full * (h / math.pi), err


def _powers(base, count):
    """Rows base^0, ..., base^(count - 1) of a complex vector, by repeated
    multiplication: count products instead of count exponentials."""
    out = np.empty((count, len(base)), dtype=complex)
    out[0], out[1:] = 1.0, base
    return np.multiply.accumulate(out, axis=0)


def _phase_sums(w, h, log_z):
    """Re sum_j w_j exp(-i h j log z) over all nodes j, and over the even
    ones, for every log z.

    With node j = a B + b and B even, exp(-i h j log z) = Q^a q^b for
    q = exp(-i h log z) and Q = exp(-i h B log z).  Horner's rule in a,
    m <- m Q + W[a] with W[a] = w[a B:(a + 1) B], folds the giant steps in
    place on one (B, rows) buffer; then m is weighted by the B powers of q.
    So each z costs two exponentials, about sqrt(len(w)) powers and len(w)
    multiply-adds, all elementwise in numpy: no matrix product, so no BLAS
    buffer and no dependence on the BLAS kernel.  b has the parity of j, so
    the half-step sum takes the even rows of the same buffer.  A block of
    rows holds at most _BLOCK multiply-adds, which bounds the working set.
    """
    cols = 2 * max(1, round(0.5 * math.sqrt(len(w))))
    blocks = -(-len(w) // cols)
    w_ab = np.zeros((blocks, cols, 1), dtype=complex)
    w_ab.reshape(-1)[:len(w)] = w
    full, half = np.empty(len(log_z)), np.empty(len(log_z))
    rows = max(1, _BLOCK // (blocks * cols))
    for i in range(0, len(log_z), rows):
        lz = log_z[i:i + rows]
        m = np.empty((cols, len(lz)), dtype=complex)
        m[:] = w_ab[-1]
        # Q is spread over a whole buffer once: numpy would copy a broadcast
        # row into a buffer of that size at every step
        giant = np.empty_like(m)
        giant[:] = np.exp(-1j * h * cols * lz)
        for w_a in w_ab[-2::-1]:
            m *= giant
            m += w_a
        del giant  # freed before the powers of q are made
        m *= _powers(np.exp(-1j * h * lz), cols)
        full[i:i + rows] = m.sum(axis=0).real
        half[i:i + rows] = m[::2].sum(axis=0).real
    return full, half


def gamma_expectation(mu, g, c, p=1.0, growth=0.0, decay=1.0):
    """E[g(c U^p)] for U ~ Gamma(mu, 1), for every c > 0 of a vector.

    The trapezoid rule in x = log u converges geometrically (Trefethen &
    Weideman, as above).  The weight exp(mu x - e^x - lgamma mu) and the
    nodes are set up once; each c costs one row of g over the nodes, in a
    block of rows that one buffer serves throughout.  g acts elementwise on
    t = c u^p, which it receives in that buffer and may overwrite (it may
    return the same array), is analytic for |arg t| < pi, and
    |g(t)| / t^growth does not increase, so the integrand is at most a
    multiple of u^m e^-u, m = mu + p growth, right of any point.  The
    strip half-width d keeps |arg t| <= pi/2, keeps d <= pi/4 and bounds
    the envelope's rise cos(d)^-m off the real axis by d <= acos(1 - 5/m).
    g falls no faster than (1 + t)^-decay, decay >= 1, and rises off the
    axis no more: |g(t e^(i theta))| <= cos(theta/2)^-decay |g(t)|, one
    power of which the margin absorbs, so the rise gains
    cos(p d/2)^-(decay - 1).  The step is 2 pi d / (log(1/1e-12) + margin
    + log rise).  Nodes run from 45/mu left of the knee, -log(max c)/p (or
    0) less log(decay)/p, where the weight falls as e^(mu x), to where the
    envelope is as far below its peak; more than _MAX_NODES of them raise
    TruncationError.  The sum on every second node, the two tail bounds, the
    rounding of a sum that cancels and that of node values below the normal
    doubles give an error estimate; above 1e-12 relative, TruncationError is
    raised, before any node where e^rise is not a double, and naming the
    overflow where the sum is infinite.
    Returns (E, err): the vector of expectations and that estimate of each.
    """
    if not mu > 0:
        raise ValueError("gamma_expectation: need mu > 0, got mu=%r" % (mu,))
    log_c = np.log(np.atleast_1d(np.asarray(c, dtype=float)))
    m = mu + p * growth  # |integrand| <= const u^m e^-u on the right
    d = min(0.25 * math.pi, 0.5 * math.pi / p, math.acos(max(1.0 - 5.0 / m, -1.0)))
    rise = -m * math.log(math.cos(d)) - (decay - 1.0) * math.log(math.cos(0.5 * p * d))
    h = 2.0 * math.pi * d / (_TARGET + rise)
    right = max(math.log(m), 0.0) + 1.0
    while m * right - math.exp(right) > m * math.log(m) - m - _TARGET:
        right += 1.0
    left = min(0.0, -float(log_c.max()) / p) - math.log(decay) / p - 45.0 / mu
    # a Python float, which overflows to inf silently; a step rounded to 0
    # (mu from about 4.5e16, where 1 - 5/m rounds to 1) spans inf nodes too
    steps = (right - left) / h if h > 0 else math.inf
    if not steps <= _MAX_NODES - 1:
        raise TruncationError("gamma_expectation: %g nodes needed, more than %d"
                              % (steps + 1.0, _MAX_NODES))
    if not rise <= _LOG_MAX:  # _trapezoid_error would be infinite at every c
        raise TruncationError(_MISSED % (math.inf, math.exp(log_c[0])))
    nodes = math.ceil(steps) + 1
    x = left + h * np.arange(nodes)
    w = np.exp(mu * x - np.exp(x) - math.lgamma(mu))
    px = p * x
    sums = np.empty((6, len(log_c)))
    rows = max(1, _BLOCK // len(x))
    block = np.empty((min(rows, len(log_c)), len(x)))
    for i in range(0, len(log_c), rows):
        # log c + p x, filled then added: numpy would buffer np.add.outer's
        # two broadcast operands beside the block, this add only one
        t = block[:len(log_c) - i]
        t[:] = px
        t += log_c[i:i + rows, None]
        with np.errstate(over="ignore"):  # an overflowed t is inf, the IEEE c u^p
            np.exp(t, out=t)
        f = g(t)
        f *= w
        sums[:2, i:i + rows] = f.sum(axis=1), f[:, ::2].sum(axis=1)
        np.abs(f, out=f)
        sums[2, i:i + rows] = f.sum(axis=1)
        sums[3:, i:i + rows] = f[:, [0, 1, -1]].T
    full, half, size, first, second, last = sums
    with np.errstate(divide="ignore", invalid="ignore"):
        # on the left log|f| is concave, or g rises with t, so either the
        # first secant or the weight's own slope bounds the decay
        slope = np.fmin(np.log(second / first) / h, mu - math.exp(x[0]))
        tails = np.where(slope > 0, first / slope, np.inf) + last / (math.exp(x[-1]) - m)
    # each node value below the normal doubles keeps 2^-1074 absolute, their spacing
    err = _trapezoid_error(full, half, size, rise, tails / h + nodes * 2.0 ** -1074)
    if not np.all(err <= 1e-12):
        i = int(np.argmax(~(err <= 1e-12)))
        if np.isinf(full[i]):
            raise TruncationError("gamma_expectation: the sum overflows the doubles at c=%r"
                                  % math.exp(log_c[i]))
        raise TruncationError(_MISSED % (err[i], math.exp(log_c[i])))
    return h * full, err


def log_mean_power(mu, c, p, k):
    """log E[(1 + c U^p)^k] for U ~ Gamma(mu, 1) and a vector c > 0.  Where E
    is within a factor 2 of 1 and its own sum misses 1e-12 of log E, E - 1
    is summed as well, as the mean of expm1(k log1p(c U^p)), so that a small
    logarithm keeps its digits.  The miss counts the kernel's estimate and
    the weight's rounding: its exponent mu x - e^x - lgamma(mu) near the peak
    x = log mu sums terms of size mu |log mu|, mu and |lgamma(mu)|, each off
    by eps = 2.2e-16 of itself, and its exp, the integrand and their product
    add eps each.
    """
    c = np.atleast_1d(c)
    if k == 0:
        return np.zeros(c.size)

    def integrand(last):
        # last(k log1p(t)), formed in t itself
        return lambda t: last(np.multiply(np.log1p(t, out=t), k, out=t), out=t)

    e, err = gamma_expectation(mu, integrand(np.exp), c, p, max(k, 0.0), max(-k, 1.0))
    log_e = np.log(e)
    rounding = 2.2e-16 * (3.0 + mu * abs(math.log(mu)) + mu + abs(math.lgamma(mu)))
    near = ~(np.abs(log_e) > math.log(2.0)) & ~(err + rounding <= 1e-12 * np.abs(log_e))
    if near.any():
        log_e[near] = np.log1p(gamma_expectation(
            mu, integrand(np.expm1), c[near], p, max(k, 1.0))[0])
    return log_e


def contour_integrals(spec, log_z):
    """contour_integral for each entry of a vector log z, on the line
    spec.contour_abscissa picks for it: one node set per distinct abscissa.
    Returns (log_scale, scaled, err) as contour_integral does."""
    log_z = np.atleast_1d(np.asarray(log_z, dtype=float))
    c = spec.contour_abscissa(log_z)
    out = np.empty((3, len(log_z)))
    for abscissa in set(c.tolist()):
        on = c == abscissa
        out[:, on] = contour_integral(spec, abscissa, log_z[on])
    return out


def fox_h(spec, z):
    """Fox H function: contour_integral on Re s = spec.contour_abscissa(log z),
    raising TruncationError if its error estimate exceeds 1e-12."""
    if z <= 0:
        raise ValueError("fox_h: argument must be positive, got %r" % (z,))
    log_scale, scaled, err = contour_integrals(spec, math.log(z))
    if not err[0] <= 1e-12:
        raise TruncationError("fox_h: error estimate %g exceeds 1e-12" % (err[0],))
    return math.exp(log_scale[0]) * float(scaled[0])

