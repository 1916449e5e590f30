"""Gamma-family special functions used by the rate expressions.

The workhorses are two Mellin-Barnes contour integrals (Fox H and Meijer G,
the latter evaluated through its Fox H form) and the Tricomi confluent
hypergeometric function U(a;b;z).  Everything is evaluated in log space so
that gamma-function products with large arguments neither overflow nor lose
precision before the final exponentiation.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
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


def tricomi_u(a, b, z):
    """Tricomi confluent hypergeometric U(a;b;z) for a > 0, z > 0.

    Evaluated from the Laplace-type integral

        U(a;b;z) = z^-a / Gamma(a) * int_0^inf e^-u u^(a-1) (1 + u/z)^(b-a-1) du

    which is smooth in b, so nothing special happens when b passes through
    an integer.  The u^(a-1) endpoint singularity for a < 1 is removed by
    substituting w = u^a on [0, 1].
    """
    if a <= 0:
        raise ValueError("tricomi_u: need a > 0, got a=%r" % (a,))
    if z <= 0:
        raise ValueError("tricomi_u: need z > 0, got z=%r" % (z,))
    c = b - a - 1.0

    def h(u):
        return (1.0 + u / z) ** c

    # [0, 1] with the singularity absorbed: u = w^(1/a)
    def head(w):
        u = w ** (1.0 / a)
        return math.exp(-u) * h(u)

    i0, _ = integrate.quad(head, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    i0 /= a

    def tail(u):
        return math.exp((a - 1.0) * math.log(u) - u) * h(u)

    i1, _ = integrate.quad(tail, 1.0, np.inf, epsabs=1e-300, epsrel=1e-13, limit=200)
    total = i0 + i1
    if total <= 0:
        raise TruncationError("tricomi_u: quadrature returned a non-positive value")
    return math.exp(-a * math.log(z) - math.lgamma(a) + math.log(total))


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
