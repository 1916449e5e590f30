"""Gamma-family special functions used by the rate expressions.

The workhorses are two trapezoid-rule kernels: Mellin-Barnes contour
integrals (Fox H, and Meijer G through its Fox H form), and expectations
over a Gamma weight, which also give the Tricomi confluent hypergeometric
function U(a;b;z).  Everything is evaluated in log space so
that gamma-function products with large arguments neither overflow nor lose
precision before the final exponentiation.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma as _scipy_loggamma


class ContourError(ValueError):
    """No vertical contour separates the two pole families."""


class TruncationError(ArithmeticError):
    """A contour integral or quadrature did not reach its tolerance."""


def log_gamma_complex(z):
    """Principal branch of log Gamma for complex argument.

    Accepts scalars or arrays.  Raises ValueError at the poles
    (non-positive real integers), where no finite value exists.
    """
    z = np.asarray(z, dtype=complex)
    on_pole = (z.real <= 0) & (z.imag == 0) & (z.real == np.floor(z.real))
    if np.any(on_pole):
        raise ValueError("log_gamma_complex: argument is a non-positive integer (pole)")
    out = _scipy_loggamma(z)
    if out.ndim == 0:
        return complex(out)
    return out


def tricomi_u(a, b, z, log_scaled=False):
    """Tricomi confluent hypergeometric U(a;b;z) for a > 0, z > 0 and real b.

    Evaluated from the Laplace-type integral

        U(a;b;z) = z^-a E[(1 + V/z)^(b-a-1)],   V ~ Gamma(a, 1),

    which is smooth in b, so nothing special happens when b passes through
    an integer.  z is a scalar (giving a float) or a sequence (giving an
    array).  log_scaled=True returns log(z^a U(a;b;z)), which keeps its
    digits where U under- or overflows and where z^a U is close to 1.
    """
    if not a > 0:
        raise ValueError("tricomi_u: need a > 0, got a=%r" % (a,))
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(zs > 0):
        raise ValueError("tricomi_u: need z > 0, got z=%r" % (z,))
    u = log_mean_power(a, 1.0 / zs, 1.0, b - a - 1.0)
    if not log_scaled:
        u = np.exp(u - a * np.log(zs))
    return float(u[0]) if np.ndim(z) == 0 else u


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
        lo, hi = self.strip()
        if not lo < hi:
            raise ContourError(
                "FoxHSpec: pole families overlap, no contour exists "
                "(strip [%g, %g] is empty)" % (lo, hi)
            )

    def factors(self):
        """(sign, x0, k) of each factor Gamma(x0 + k s) of chi(s); sign -1 divides."""
        m, n = self.m, self.n
        return (
            tuple((1, b, B) for b, B in self.lower_pairs[:m])
            + tuple((1, 1.0 - a, -A) for a, A in self.upper_pairs[:n])
            + tuple((-1, 1.0 - b, -B) for b, B in self.lower_pairs[m:])
            + tuple((-1, a, A) for a, A in self.upper_pairs[n:])
        )

    def strip(self):
        """Open interval of contour abscissas separating the pole families.

        Poles of Gamma(b_j + B_j s), j <= m sit at s <= -b_j/B_j and must stay
        left; poles of Gamma(1 - a_j - A_j s), j <= n sit at s >= (1-a_j)/A_j
        and must stay right.
        """
        edges = [(k > 0, -x0 / k) for sign, x0, k in self.factors() if sign > 0]
        lo = max((e for left, e in edges if left), default=-math.inf)
        hi = min((e for left, e in edges if not left), default=math.inf)
        return lo, hi

    def contour_abscissa(self, log_z=0.0):
        """Abscissa c of the integration line: the strip midpoint, or on a
        half-infinite strip the point 1, 2, 4, ... from the poles nearest the
        saddle of |chi(c) z^-c|, where the integrand is not far larger than H.
        """
        lo, hi = self.strip()
        if math.isfinite(lo) and math.isfinite(hi):
            return 0.5 * (lo + hi)
        trial = [lo + 2.0 ** j if math.isfinite(lo) else hi - 2.0 ** j for j in range(12)]
        return min(trial, key=lambda c: _log_chi(self, complex(c)).real - c * log_z)

    def decay_rate(self):
        """Exponential decay rate of |chi(c+it)| as |t| grows.

        Each gamma factor Gamma(x+iy) behaves like exp(-pi |y| / 2) up to
        powers, so the net rate is pi/2 times the signed coefficient sum.
        """
        return 0.5 * math.pi * sum(sign * abs(k) for sign, _, k in self.factors())


def _log_chi(spec, s):
    """Log of the gamma-product kernel chi(s) of the Mellin-Barnes integrand."""
    return sum(sign * _scipy_loggamma(x0 + k * s) for sign, x0, k in spec.factors())


_MARGIN = 10.0  # nats of accuracy the step and the cut-off aim for beyond rel_tol
_BLOCK = 1 << 14  # complex entries per block of the phase matrix exp(-i t log z)


def contour_integral(spec, c, log_z, rel_tol=1e-12):
    """(1/2 pi i) int chi(s) z^-s ds on Re s = c, for a vector of log z.

    The trapezoid rule on t = Im s >= 0 (conjugate symmetry folds the line)
    converges geometrically: Trefethen & Weideman, SIAM Review 56, 2014.
    log chi is evaluated once; each z costs one row of exp(-i t log z) and
    a dot product.  The step is the largest 2 pi a / (rise + log(1/rel_tol)
    + margin) over half-widths a below the pole gap, rise being how far
    log|chi(s) z^-s| climbs on the real axis at c -+ a.  Nodes stop where
    |chi| is that far below its peak and past its Stirling turning point.

    Returns (log_scale, scaled, err): the integral is exp(log_scale) *
    scaled; err estimates its relative error from the sum on every second
    node (halving the step squares the error) plus the tail bound.  Off
    spec.strip(), the result differs from H by the residues crossed.
    """
    kappa = spec.decay_rate()
    if kappa <= 0:
        raise ContourError("fox_h: integrand does not decay on vertical contours")
    args = [(sign, x0 + k * c, abs(k)) for sign, x0, k in spec.factors()]
    gap = min((x if x > 0 else min(x % 1.0, -x % 1.0)) / k for sign, x, k in args if sign > 0)
    if not gap > 0:
        raise ContourError("contour Re s = %g passes through a pole" % (c,))
    t_fall = 2.0 * max(sum(sign * (x - 0.5) for sign, x, _ in args), 0.0) / kappa
    log_z = np.atleast_1d(np.asarray(log_z, dtype=float))
    if not np.all(np.isfinite(log_z)):
        raise ValueError("fox_h: argument must be positive and finite")
    target = _MARGIN - math.log(rel_tol)
    at_c = _log_chi(spec, complex(c)).real
    h = 0.0
    for a in 0.9 * gap / 2.0 ** np.arange(5):
        below = _log_chi(spec, complex(c - a)).real - at_c + a * log_z
        above = _log_chi(spec, complex(c + a)).real - at_c - a * log_z
        rise = np.maximum(np.maximum(below, above), 0.0)
        step = 2.0 * math.pi * a / (rise.max() + target)
        if step > h:
            h, rise_at_h = step, rise
    log_chi, peak = np.empty(0, dtype=complex), -math.inf
    while len(log_chi) < 1 << 20:
        more = _log_chi(spec, c + 1j * h * np.arange(len(log_chi), 2 * len(log_chi) + 64))
        log_chi, peak = np.concatenate([log_chi, more]), max(peak, more.real.max())
        if h * (len(log_chi) - 1) >= t_fall and log_chi[-1].real < peak - target:
            break
    else:
        raise TruncationError("fox_h: |chi| still above the cut-off at t = %g" % (h * len(log_chi)))
    keep = max(np.flatnonzero(log_chi.real >= peak - target)[-1] + 2, int(t_fall / h) + 1)
    w = np.exp(log_chi[:keep] - peak)
    w[0] *= 0.5
    full, half = np.empty(len(log_z)), np.empty(len(log_z))
    rows = max(1, _BLOCK // keep)
    for i in range(0, len(log_z), rows):
        phase = np.exp(np.outer(-1j * log_z[i:i + rows], h * np.arange(keep)))
        # einsum, not matmul: BLAS threads cost more than this product
        full[i:i + rows] = np.einsum("ij,j->i", phase, w).real
        half[i:i + rows] = np.einsum("ij,j->i", phase[:, ::2], w[::2]).real
    with np.errstate(divide="ignore", invalid="ignore"):
        err = (full - 2.0 * half) ** 2 / (abs(full) * np.abs(w).sum() * np.exp(rise_at_h))
        err += 2.0 * abs(w[-1]) / (kappa * h * abs(full))
    return peak - c * log_z, full * (h / math.pi), err


def gamma_expectation(mu, g, c, p=1.0, growth=0.0):
    """E[g(c U^p)] for U ~ Gamma(mu, 1), for every c > 0 of a vector.

    The trapezoid rule in x = log u converges geometrically (Trefethen &
    Weideman, as above).  The weight exp(mu x - e^x - lgamma mu) and the
    nodes are set up once; each c costs one row of g over the nodes.  g
    acts elementwise on t = c u^p, is analytic for |arg t| < pi, and
    |g(t)| / t^growth does not increase, so the integrand is at most a
    multiple of u^m e^-u, m = mu + p growth, right of any point.  The
    strip half-width d keeps |arg t| <= pi/2, keeps d <= pi/4 and bounds
    the envelope's rise cos(d)^-m off the real axis by d <= acos(1 - 5/m);
    the step is 2 pi d / (log(1/1e-12) + margin + log rise).  Nodes run
    from 45/mu left of the knee -log(max c)/p (or of 0), where the weight
    falls as e^(mu x), to where the envelope is as far below its peak.
    The sum on every second node and the two tail bounds give an error
    estimate; above 1e-12 relative, TruncationError is raised.
    """
    if not mu > 0:
        raise ValueError("gamma_expectation: need mu > 0, got mu=%r" % (mu,))
    log_c = np.log(np.atleast_1d(np.asarray(c, dtype=float)))
    target = _MARGIN - math.log(1e-12)
    m = mu + p * growth  # |integrand| <= const u^m e^-u on the right
    d = min(0.25 * math.pi, 0.5 * math.pi / p, math.acos(max(1.0 - 5.0 / m, -1.0)))
    rise = -m * math.log(math.cos(d))
    h = 2.0 * math.pi * d / (target + rise)
    right = max(math.log(m), 0.0) + 1.0
    while m * right - math.exp(right) > m * math.log(m) - m - target:
        right += 1.0
    left = min(0.0, -log_c.max() / p) - 45.0 / mu
    x = left + h * np.arange(math.ceil((right - left) / h) + 1)
    w = np.exp(mu * x - np.exp(x) - math.lgamma(mu))
    sums = np.empty((6, len(log_c)))
    rows = max(1, _BLOCK // len(x))
    for i in range(0, len(log_c), rows):
        f = g(np.exp(log_c[i:i + rows, None] + p * x)) * w
        sums[:3, i:i + rows] = f.sum(axis=1), f[:, ::2].sum(axis=1), abs(f).sum(axis=1)
        sums[3:, i:i + rows] = abs(f[:, [0, 1, -1]]).T
    full, half, size, first, second, last = sums
    with np.errstate(divide="ignore", invalid="ignore"):
        # on the left log|f| is concave, or g rises with t, so either the
        # first secant or the weight's own slope bounds the decay
        slope = np.fmin(np.log(second / first) / h, mu - math.exp(x[0]))
        tails = np.where(slope > 0, first / slope, np.inf) + last / (math.exp(x[-1]) - m)
        err = ((full - 2.0 * half) ** 2 / (size * math.exp(rise)) + tails / h) / abs(full)
    if not np.all(err <= 1e-12):
        i = int(np.argmax(~(err <= 1e-12)))
        raise TruncationError("gamma_expectation: error %g at c=%r exceeds 1e-12"
                              % (err[i], math.exp(log_c[i])))
    return h * full


def log_mean_power(mu, c, p, k):
    """log E[(1 + c U^p)^k] for U ~ Gamma(mu, 1) and a vector c > 0.  Within
    a factor 2 of 1 the mean minus 1 is summed instead, as the mean of
    expm1(k log1p(c U^p)), so that a small logarithm keeps its digits."""
    if k == 0:
        return np.zeros(np.size(c))
    log_e = np.log(gamma_expectation(mu, lambda t: np.exp(k * np.log1p(t)), c, p, max(k, 0.0)))
    near = ~(np.abs(log_e) > math.log(2.0))
    if near.any():
        log_e[near] = np.log1p(gamma_expectation(
            mu, lambda t: np.expm1(k * np.log1p(t)), np.asarray(c)[near], p, max(k, 1.0)))
    return log_e


def fox_h(spec, z, rel_tol=1e-12):
    """Fox H function: contour_integral on Re s = spec.contour_abscissa(log z),
    raising TruncationError if its error estimate exceeds rel_tol."""
    if z <= 0:
        raise ValueError("fox_h: argument must be positive, got %r" % (z,))
    log_z = math.log(z)
    log_scale, scaled, err = contour_integral(spec, spec.contour_abscissa(log_z), log_z, rel_tol)
    if not err[0] <= rel_tol:
        raise TruncationError("fox_h: error estimate %g exceeds %g" % (err[0], rel_tol))
    return math.exp(log_scale[0]) * float(scaled[0])


@dataclass(frozen=True)
class MeijerGSpec:
    """Order and parameters of a Meijer G function G^{m,n}_{p,q}.

    The Fox H special case with all gamma argument coefficients equal to 1.
    """

    m: int
    n: int
    uppers: tuple
    lowers: tuple

    def __post_init__(self):
        # delegate validation to the H form
        self.as_fox_h()

    def as_fox_h(self):
        return FoxHSpec(
            m=self.m,
            n=self.n,
            upper_pairs=tuple((a, 1.0) for a in self.uppers),
            lower_pairs=tuple((b, 1.0) for b in self.lowers),
        )


def meijer_g(spec, z, rel_tol=1e-12):
    """Meijer G function, evaluated through its Fox H equivalent."""
    return fox_h(spec.as_fox_h(), z, rel_tol=rel_tol)
