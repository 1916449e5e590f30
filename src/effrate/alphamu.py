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
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AlphaMuParams:
    """Fading parameters of one alpha-mu SNR variate.

    mean_snr is the first moment E{gamma}; the power scale beta is always
    recomputed from it so the two can never drift apart.
    """

    alpha: float
    mu: float
    mean_snr: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0, got %r" % (self.alpha,))
        if not self.mu > 0:
            raise ValueError("mu must be > 0, got %r" % (self.mu,))
        if not self.mean_snr > 0:
            raise ValueError("mean_snr must be > 0, got %r" % (self.mean_snr,))

    @property
    def beta(self):
        """Power scale: mean_snr * Gamma(mu) / Gamma(mu + 2/alpha)."""
        return self.mean_snr * math.exp(
            math.lgamma(self.mu) - math.lgamma(self.mu + 2.0 / self.alpha)
        )

    @property
    def r_hat(self):
        """alpha-root mean of the underlying envelope, sqrt(mu^(2/alpha) beta)."""
        return math.sqrt(self.mu ** (2.0 / self.alpha) * self.beta)


def pdf(params, gamma):
    """Density of the SNR at gamma (scalar or array), in log-space internally.

    gamma = 0 is handled by continuous extension: 0 when alpha*mu > 2, the
    finite limit alpha/(2 beta Gamma(mu)) when alpha*mu == 2, and +inf when
    alpha*mu < 2 (the density is integrable either way).
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
    out = np.empty_like(g)
    pos = g > 0
    gp = g[pos]
    out[pos] = np.exp(log_norm + expo * np.log(gp) - (gp / beta) ** (a / 2.0))
    if np.any(~pos):
        if expo > 0:
            limit = 0.0
        elif expo == 0:
            limit = math.exp(log_norm)
        else:
            limit = math.inf
        out[~pos] = limit
    if out.ndim == 0:
        return float(out)
    return out


def cdf(params, gamma):
    """Distribution function, a regularized lower incomplete gamma in disguise."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("cdf: gamma must be >= 0")
    out = _gammainc(params.mu, (g / params.beta) ** (params.alpha / 2.0))
    if out.ndim == 0:
        return float(out)
    return out


def _gammainc(a, x):
    """Regularized lower incomplete gamma P(a, x) for a > 0 and an array x >= 0.

    Below x = a + 1 the power series of P, above it the continued fraction
    of Q = 1 - P by the modified Lentz method (Numerical Recipes, section
    6.2).  Both carry the factor x^a e^-x / Gamma(a + 1), whose logarithm
    is formed as a log(x/a) - (x - a) - (lgamma(a + 1) - a log a + a), with
    log1p for log(x/a) near x = a and the last bracket from Stirling's series
    for large a, so that the large terms a log x and lgamma(a + 1) never
    cancel.
    """
    x = np.asarray(x, dtype=float)
    if a < 20.0:
        stirling = math.lgamma(a + 1.0) - a * math.log(a) + a
    else:
        inv2 = 1.0 / (a * a)
        stirling = 0.5 * math.log(2.0 * math.pi * a) + (
            1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / a
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(abs(x - a) < 0.5 * a, np.log1p((x - a) / a), np.log(x / a))
        factor = np.exp(a * log_ratio - (x - a) - stirling)
    out = np.where(np.isnan(x), np.nan, np.where(x == np.inf, 1.0, 0.0))
    low = np.flatnonzero((x > 0) & (x < a + 1.0))
    if low.size:
        xs = x.flat[low]
        term, total, n = np.ones(low.size), np.ones(low.size), a
        while np.any(term > 1e-17 * total):
            n += 1.0
            term *= xs / n
            total += term
        out.flat[low] = factor.flat[low] * total
    high = np.flatnonzero((x >= a + 1.0) & (x < np.inf))
    if high.size:
        xs = x.flat[high]
        b = xs + 1.0 - a
        c, d = np.full(high.size, 1e300), 1.0 / b
        frac, i = d.copy(), 0.0
        while True:
            i += 1.0
            b += 2.0
            d = 1.0 / (b - i * (i - a) * d)
            c = b - i * (i - a) / c
            frac *= d * c
            if np.all(np.abs(d * c - 1.0) <= 1e-15):
                break
        out.flat[high] = 1.0 - a * factor.flat[high] * frac
    return out


def moment(params, n):
    """E{gamma^n} = beta^n Gamma(mu + 2n/alpha) / Gamma(mu).

    n may be any real number with mu + 2n/alpha > 0; outside that range the
    moment diverges.
    """
    a, mu = params.alpha, params.mu
    arg = mu + 2.0 * n / a
    if arg <= 0:
        raise ValueError("moment: diverges, need mu + 2n/alpha > 0 (got %g)" % arg)
    return math.exp(n * math.log(params.beta) + math.lgamma(arg) - math.lgamma(mu))


def sample(params, rng, size=None):
    """Draw SNR realizations: beta * W^(2/alpha) with W ~ Gamma(mu, 1).

    params is one AlphaMuParams, giving one array, or a sequence of them
    that share mu, giving an iterator of arrays, one per entry, all from one
    draw of W; each array is made when the iterator reaches it.
    """
    if isinstance(params, AlphaMuParams):
        return next(sample([params], rng, size))
    if len({p.mu for p in params}) != 1:
        raise ValueError("sample: need one or more branches that share mu")
    w = rng.gamma(shape=params[0].mu, scale=1.0, size=size)
    return (p.beta * w ** (2.0 / p.alpha) for p in params)


def special_case(params, tol=1e-12):
    """Name the classical fading law this parameter point reduces to.

    Returns one of "rayleigh", "one-sided-gaussian", "nakagami-m", "weibull",
    or "general".
    """
    a, mu = params.alpha, params.mu
    alpha_is_2 = math.isclose(a, 2.0, rel_tol=0.0, abs_tol=tol)
    mu_is_1 = math.isclose(mu, 1.0, rel_tol=0.0, abs_tol=tol)
    if alpha_is_2 and mu_is_1:
        return "rayleigh"
    if alpha_is_2 and math.isclose(mu, 0.5, rel_tol=0.0, abs_tol=tol):
        return "one-sided-gaussian"
    if alpha_is_2:
        return "nakagami-m"
    if mu_is_1:
        return "weibull"
    return "general"
