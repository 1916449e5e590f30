"""The alpha-mu fading family, parameterized at the SNR level.

An alpha-mu envelope R with nonlinearity alpha and mu clusters gives an
instantaneous SNR gamma proportional to R^2.  With beta the power scale,

    f(gamma) = alpha * gamma^(alpha mu / 2 - 1)
               / (2 beta^(alpha mu / 2) Gamma(mu)) * exp(-(gamma/beta)^(alpha/2))

and the distribution is closed under the power transform: (gamma/beta)^(alpha/2)
is a unit-scale Gamma(mu) variate, which is how sampling and quadrature are done.
Rayleigh, Nakagami-m, Weibull and the one-sided Gaussian all live inside the
family at particular (alpha, mu) corners.
"""

import math
import os
import sys
from dataclasses import dataclass

# effrate makes no BLAS call, but OpenBLAS starts its pool threads when numpy
# loads, and they spin: on 2 cores the import took 0.108 s of CPU with two
# threads and 0.057 s with one.  So load numpy with one BLAS thread, unless the
# caller chose a count or imported numpy first, and leave os.environ as it was.
_ONE_THREAD = "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if _ONE_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _ONE_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]


@dataclass(frozen=True)
class AlphaMuParams:
    """Fading parameters of one alpha-mu SNR variate.

    mean_snr is the first moment E{gamma}; the power scale beta is always
    recomputed from it so the two can never drift apart.  Both must be normal
    doubles: a subnormal scale keeps too few digits, as a subnormal rho does.
    """

    alpha: float
    mu: float
    mean_snr: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "mu"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be finite and > 0, got %r" % (name, getattr(self, name)))
        try:
            beta = self.beta
        except OverflowError:
            beta = math.inf
        for name, scale in (("mean_snr", self.mean_snr), ("power scale beta", beta)):
            if not sys.float_info.min <= scale < math.inf:
                raise ValueError("%s = %r is not a normal double at alpha=%r, mu=%r, mean_snr=%r"
                                 % (name, scale, self.alpha, self.mu, self.mean_snr))

    @property
    def beta(self):
        """Power scale: mean_snr * Gamma(mu) / Gamma(mu + 2/alpha)."""
        return self.mean_snr * math.exp(
            math.lgamma(self.mu) - math.lgamma(self.mu + 2.0 / self.alpha)
        )


def pdf(params, gamma):
    """Density of the SNR at gamma (scalar or array), in log-space internally.

    gamma = 0 is the continuous extension, reached by IEEE arithmetic on
    log 0 = -inf: 0 when alpha*mu > 2, the finite limit
    alpha/(2 beta Gamma(mu)) when alpha*mu == 2 (the power term is dropped,
    as 0 * log 0 is nan), and +inf when alpha*mu < 2 (the density is
    integrable either way).
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("pdf: gamma must be >= 0")
    a, mu, beta = params.alpha, params.mu, params.beta
    expo = a * mu / 2.0 - 1.0
    log_norm = (
        math.log(a)
        - math.log(2.0)
        - (a * mu / 2.0) * math.log(beta)
        - math.lgamma(mu)
    )
    g1 = np.atleast_1d(g)  # array arithmetic for a scalar too: pdf(p, x) == pdf(p, [x])[0]
    with np.errstate(divide="ignore"):
        log_power = expo * np.log(g1) if expo != 0 else 0.0
        out = np.exp(log_norm + log_power - (g1 / beta) ** (a / 2.0))
    return float(out[0]) if g.ndim == 0 else out


def moment(params, n):
    """E{gamma^n} = beta^n Gamma(mu + 2n/alpha) / Gamma(mu).

    n may be any finite real number with mu + 2n/alpha > 0; outside that
    range the moment diverges.
    """
    if not math.isfinite(n):
        raise ValueError("moment: order n must be finite, got %r" % (n,))
    a, mu = params.alpha, params.mu
    arg = mu + 2.0 * n / a
    if arg <= 0:
        raise ValueError("moment: diverges, need mu + 2n/alpha > 0 (got %g)" % arg)
    try:
        return math.exp(n * math.log(params.beta) + math.lgamma(arg) - math.lgamma(mu))
    except OverflowError:
        raise ValueError("moment: E{gamma^%r} overflows the doubles at alpha=%r, mu=%r"
                         % (n, a, mu)) from None


def sample(params, rng, size=None):
    """Draw SNR realizations: beta * W^(2/alpha) with W ~ Gamma(mu, 1),
    scaled in place in the array the power makes.  rng is a numpy Generator
    (Monte Carlo draws from splitmix.standard_gamma instead)."""
    x = rng.gamma(shape=params.mu, scale=1.0, size=size) ** (2.0 / params.alpha)
    x *= params.beta
    return x
