"""Delay-constrained effective rate of a MISO link over alpha-mu fading.

With equal power split over n_t antennas and a QoS exponent folded into the
dimensionless parameter A (delay exponent times block duration times
bandwidth over ln 2), the effective rate is

    R(rho) = -(1/A) log2 E{ (1 + rho * S / n_t)^-A },

where S is the sum of the branch SNRs.  S is replaced by its moment-matched
alpha-mu proxy (exact for alpha = 2), after which the expectation has two
interchangeable evaluations: a trapezoid sum in the Gamma domain and a Fox H
contour integral.  A Tricomi-U closed form covers the Nakagami-m line, and
both ends of the SNR axis get dedicated asymptotics.

Every rate route takes (link, rho): rho is a scalar, giving a float, or a
sequence, giving an array, and a sequence sets the route's kernel up once.
Each route that takes rho refuses it in one call, _refuse_out_of_range,
with a ValueError naming rho: an empty grid, an entry that is not finite
and > 0, or one whose kernel argument or rate would leave the normal
doubles.
"""

import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .alphamu import AlphaMuParams
from .special import (FoxHSpec, TruncationError, contour_integral, contour_integrals,
                      gamma_expectation, lgamma_slope, like_grid, log_mean_power,
                      positive_grid)
# unused here: bench/spans.py traces calls through rates.fox_h and rates.tricomi_u
from .special import fox_h, tricomi_u  # noqa: F401
from .sumfit import fit_sum, sum_moments

LN2 = math.log(2.0)


@dataclass(frozen=True)
class MisoLink:
    """A transmit-array link: antenna count, QoS exponent A, branch fading.

    The moment-matched distribution of the SNR sum is fitted once, on first
    use, and cached; the link itself is immutable and safe to share.
    """

    n_t: int
    delay_a: float
    branch: AlphaMuParams

    def __post_init__(self):
        if not (isinstance(self.n_t, numbers.Integral) and self.n_t >= 1):
            raise ValueError("n_t must be a positive integer, got %r" % (self.n_t,))
        if not 0 < self.delay_a < math.inf:
            raise ValueError("delay_a must be finite and > 0, got %r" % (self.delay_a,))

    @cached_property
    def fit(self):
        return fit_sum(self.branch, self.n_t)


def _refuse_out_of_range(route, link, rho, scale, n, check_a=True):
    """rho as positive_grid's array, or a ValueError naming rho where the
    route's kernel argument, rho * scale / n, or the rate, which nears rho
    mean_snr / ln 2 as rho -> 0, would fall below the normal doubles (a
    subnormal keeps too few digits, and the kernels would overflow on its
    reciprocal or log 0), or where rho * scale or the kernel argument would
    overflow: in Python floats, which overflow to inf silently, before any
    numpy product can warn.  With check_a, also raise one naming A and rho
    where E - 1, about -A ln2 times the rate, would be subnormal, that is
    where A * min(rho mean_snr, 1) is, and one naming A where log Gamma(A)
    would overflow."""
    rhos = positive_grid(rho, "rho")
    low, high = float(rhos.min()), float(rhos.max())
    slope, mean_snr, delay_a = scale / n, link.branch.mean_snr, link.delay_a
    if min(low * slope, low * mean_snr / LN2) < sys.float_info.min:
        raise ValueError("%s: rho=%r is too small: the kernel argument or the rate would be "
                         "below the smallest normal double" % (route, low))
    if check_a:
        if delay_a * min(low * mean_snr, 1.0) < sys.float_info.min:
            raise ValueError("%s: delay_a=%r is too small at rho=%r: E - 1, about -A ln2 "
                             "times the rate, would be below the smallest normal double"
                             % (route, delay_a, low))
        # A (log A - 1), Stirling's leading term, is log Gamma(A) to far below its ulp here
        if not delay_a * (math.log(delay_a) - 1.0) <= sys.float_info.max:
            raise ValueError("%s: delay_a=%r is too large: log Gamma(A) would overflow the "
                             "doubles" % (route, delay_a))
    if not math.isfinite(high * max(scale, slope)):
        raise ValueError("%s: rho=%r is too large: the kernel argument would overflow the "
                         "doubles" % (route, high))
    return rhos


def rate_exact_quadrature(link, rho):
    """Effective rate by direct quadrature of the defining expectation.

    This is the reference evaluation the other routes are checked against.
    The fitted sum density turns into a unit Gamma weight under
    u = (gamma/beta)^(alpha/2), and the integrand is exp(-A log1p(.)) so
    that nothing is lost when rho is tiny (log_mean_power).
    """
    p = link.fit.fitted
    rhos = _refuse_out_of_range("rate_exact_quadrature", link, rho, p.beta, link.n_t)
    c = rhos * p.beta / link.n_t
    log_e = log_mean_power(p.mu, c, 2.0 / p.alpha, -link.delay_a)
    return like_grid(rho, -log_e / (link.delay_a * LN2))


def rate_exact_foxh(link, rho):
    """Effective rate through the Fox H contour-integral form.

    The expectation equals (alpha/2) H / (Gamma(A) Gamma(mu)) with
    H = H^{2,1}_{1,2}[ (n_t/(rho beta))^(alpha/2) | (1, alpha/2);
                       (mu, 1), (A, alpha/2) ]
    in the fitted sum parameters.  H comes from the line
    FoxHSpec.contour_abscissa picks: the strip midpoint, or a line nearer
    the saddle where the midpoint's sum would cancel away digits (high SNR
    with large fitted mu and A).  Where E > 1/2 and that line misses 1e-12
    of log E, rounding counted, the line Re s = 1.5/alpha, 3/4 of the way
    from the pole at s = 0 (whose residue is the 1) to the next at 2/alpha,
    gives E - 1 as well, so a small 1 - E keeps its digits; the nearer that
    next pole, whose residue leads E - 1, the less the sum cancels.  Raises
    TruncationError where the rate's estimated relative error exceeds 1e-12.
    """
    p = link.fit.fitted
    rhos = _refuse_out_of_range("rate_exact_foxh", link, rho, p.beta, link.n_t)
    a_qos = link.delay_a
    half_alpha = 0.5 * p.alpha
    log_z = half_alpha * np.log(link.n_t / (rhos * p.beta))
    spec = FoxHSpec(m=2, n=1, upper_pairs=((1.0, half_alpha),),
                    lower_pairs=((p.mu, 1.0), (a_qos, half_alpha)))
    log_k = math.log(half_alpha) - math.lgamma(a_qos) - math.lgamma(p.mu)
    log_scale, scaled, err = contour_integrals(spec, log_z)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_scaled = np.log(scaled)
        log_e = log_k + log_scale + log_scaled
        # err counts the sum's rounding, eps sum|w| / |sum w|, but not that of
        # the node values and of these logs, eps times their size, which the
        # same ratio, at most err / eps, magnifies: err * size bounds it
        size = abs(log_k) + np.abs(log_scale) + np.abs(log_scaled)
        low = ~(log_e < -LN2) & ~(err * (1.0 + size) <= 1e-12 * np.abs(log_e))
        if low.any():
            log_scale, scaled, err_low = contour_integral(spec, 1.5 / p.alpha, log_z[low])
            e_minus_1 = np.exp(log_k + log_scale) * scaled
            log_e[low] = np.log1p(e_minus_1)
            err[low] = err_low * np.abs(e_minus_1) / (1.0 + e_minus_1)
        err /= np.abs(log_e)
    if not np.all(err <= 1e-12):
        i = int(np.argmax(~(err <= 1e-12)))
        raise TruncationError("rate_exact_foxh: error %g at rho=%r exceeds 1e-12"
                              % (err[i], rhos.tolist()[i]))
    return like_grid(rho, -log_e / (a_qos * LN2))


def rate_nakagami(link, rho):
    """Closed-form effective rate for Nakagami-m branches (alpha = 2).

    With m the branch mu and omega its mean SNR, the branch SNRs are Gamma
    distributed, their sum is exactly Gamma(m n_t, omega/m), and the
    expectation collapses to a Tricomi U:

        R = (m n_t / A) log2(omega rho / (m n_t))
            - (1/A) log2 U(m n_t; m n_t + 1 - A; m n_t / (omega rho))
          = -(1/A) log2( z^(m n_t) U(m n_t; m n_t + 1 - A; z) ),  z = m n_t / (omega rho),

    the second form through the log-scaled U, so no large logarithms cancel.
    That is log E[(1 + V/z)^-A], V ~ Gamma(m n_t, 1), which log_mean_power
    gives with -A itself as the exponent: forming b = m n_t + 1 - A first
    would round A away next to a large m n_t.  Raises ValueError unless the
    branch alpha is 2 within 1e-12.
    """
    b = link.branch
    if abs(b.alpha - 2.0) > 1e-12:
        raise ValueError("rate_nakagami: needs alpha = 2, got alpha=%g" % b.alpha)
    mn = b.mu * link.n_t
    rhos = _refuse_out_of_range("rate_nakagami", link, rho, b.mean_snr, mn)
    z = mn / (b.mean_snr * rhos)
    log_u = log_mean_power(mn, 1.0 / z, 1.0, -link.delay_a)
    return like_grid(rho, -log_u / (link.delay_a * LN2))


def _diversity_orders(link):
    """(d, d_f): the link's diversity order n_t alpha mu / 2, in the branch
    parameters, and the surrogate's alpha_f mu_f / 2, in the fitted ones."""
    b, p = link.branch, link.fit.fitted
    return link.n_t * b.alpha * b.mu / 2.0, p.alpha * p.mu / 2.0


def high_snr_validity(link):
    """(required, conservative) validity flags of the high-SNR expansion.

    The leading term exists iff A < alpha mu / 2 in the fitted parameters;
    the conservative margin A < alpha mu / 2 - 1 additionally keeps the
    next-order correction integrable.  Both test against the surrogate's
    diversity order d_f = alpha_f mu_f / 2, not the link's
    d = n_t alpha mu / 2 (see rate_high_snr).
    """
    _, d_f = _diversity_orders(link)
    return link.delay_a < d_f, link.delay_a < d_f - 1.0


def rate_high_snr(link, rho):
    """Leading high-SNR expansion: slope 1 per octave-of-2 in rho.

        R ~ log2(beta rho / n_t) - (1/A) log2( Gamma(mu - 2A/alpha) / Gamma(mu) )

    in the fitted sum parameters.  As A -> 0 the second term nears
    (2/alpha) psi(mu) / ln 2; below 2A/alpha = 1e-3, where the two
    log-gamma values cancel, it comes from special.lgamma_slope.  Requires
    A < alpha mu / 2; between that bound and the conservative
    A < alpha mu / 2 - 1 a warning is emitted because convergence becomes
    slow.  A second warning fires where A lies between
    the link's diversity order d = n_t alpha mu / 2 (branch parameters) and
    the surrogate's: there the link's rate grows with slope d/A, not 1.
    """
    p = link.fit.fitted
    rhos = _refuse_out_of_range("rate_high_snr", link, rho, p.beta, link.n_t, check_a=False)
    required, conservative = high_snr_validity(link)
    d, d_f = _diversity_orders(link)
    if not required:
        raise ValueError(
            "rate_high_snr: delay_a must satisfy delay_a < alpha*mu/2 "
            "(got %g >= %g)" % (link.delay_a, d_f)
        )
    if not conservative:
        warnings.warn(
            "rate_high_snr: delay_a is within one unit of alpha*mu/2; "
            "the asymptote converges slowly here"
        )
    if d < link.delay_a:
        warnings.warn(
            "rate_high_snr: delay_a = %g exceeds the link's diversity order %g "
            "but not the surrogate's %g; the link's slope is %g, not 1"
            % (link.delay_a, d, d_f, d / link.delay_a)
        )
    a_qos = link.delay_a
    shift = 2.0 * a_qos / p.alpha
    if shift < 1e-3:
        # the gap is -shift lgamma_slope(mu, -shift), whose digits do not
        # cancel, and shift / A is 2 / alpha, formed without shift, which may
        # be subnormal
        gap_bits = -2.0 / p.alpha * lgamma_slope(p.mu, -shift) / LN2
    else:
        gap_bits = (math.lgamma(p.mu - shift) - math.lgamma(p.mu)) / (a_qos * LN2)
    return like_grid(rho, np.log2(p.beta * rhos / link.n_t) - gap_bits)


def channel_power_moments(link):
    """First two moments of the array gain: E{S} and E{S^2} for the branch sum."""
    return sum_moments(link.branch, link.n_t, 1), sum_moments(link.branch, link.n_t, 2)


def wideband_metrics(link):
    """Minimum energy per bit and wideband slope of the low-SNR expansion.

    Derived from the first two array-gain moments:

        (Eb/N0)_min = n_t ln2 / E{S}            (= ln2 / mean branch SNR)
        S0 = 2 E{S}^2 / ((A+1) E{S^2} - A E{S}^2)

    S0 is scale free and read from the unit-mean branch law; the mean SNR
    enters (Eb/N0)_min alone.  For Nakagami-m, S0 = 2 m n_t / (A + 1 + m n_t).
    """
    unit = AlphaMuParams(alpha=link.branch.alpha, mu=link.branch.mu)
    e1, e2 = sum_moments(unit, link.n_t, 1), sum_moments(unit, link.n_t, 2)
    eb_min = link.n_t * LN2 / (e1 * link.branch.mean_snr)
    a_qos = link.delay_a
    s0 = 2.0 * e1 * e1 / ((a_qos + 1.0) * e2 - a_qos * e1 * e1)
    return eb_min, s0


def rate_low_snr(link, eb_n0):
    """Wideband approximation R ~ S0 log2(eb_n0 / eb_n0_min).

    eb_n0 is a scalar (giving a float) or a sequence (giving an array), as
    rho is for the other routes.  Below the minimum energy per bit no
    positive rate is supportable; such values are clamped to 0 and one
    warning is raised.
    """
    ebs = positive_grid(eb_n0, "eb_n0").tolist()
    eb_min, s0 = wideband_metrics(link)
    if min(ebs) <= eb_min:
        warnings.warn("rate_low_snr: eb_n0 at or below the minimum, rate clamped to 0")
    # math.log2 per point keeps libm's rounding, which numpy's may not match
    return like_grid(eb_n0, np.array([s0 * math.log2(eb / eb_min) if eb > eb_min else 0.0
                                      for eb in ebs]))


def parametric_eb_n0(link, rho):
    """Map an SNR point to the (Eb/N0, rate) plane: Eb/N0 = rho / R(rho),
    with R from rate_exact_quadrature."""
    r = rate_exact_quadrature(link, rho)
    if not np.all(np.asarray(r) > 0):
        raise ArithmeticError("parametric_eb_n0: rate is not positive at rho=%r" % (rho,))
    return like_grid(rho, positive_grid(rho, "rho") / r), r


def ergodic_capacity_quadrature(link, rho):
    """E{log2(1 + rho S / n_t)} under the fitted sum density.

    The A -> 0 limit of the effective rate; used as the no-QoS reference.
    """
    p = link.fit.fitted
    rhos = _refuse_out_of_range("ergodic_capacity_quadrature", link, rho, p.beta, link.n_t,
                                check_a=False)
    e, _ = gamma_expectation(p.mu, lambda t: np.log1p(t, out=t), rhos * p.beta / link.n_t,
                             2.0 / p.alpha, growth=1.0)
    return like_grid(rho, e / LN2)
