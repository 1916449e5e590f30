"""Delay-constrained effective rate of a MISO link over alpha-mu fading.

With equal power split over n_t antennas and a QoS exponent folded into the
dimensionless parameter A (delay exponent times block duration times
bandwidth over ln 2), the effective rate is

    R(rho) = -(1/A) log2 E{ (1 + rho * S / n_t)^-A },

where S is the sum of the branch SNRs.  S is replaced by its moment-matched
alpha-mu proxy (exact for alpha = 2), after which the expectation has three
interchangeable evaluations: a trapezoid sum in the Gamma domain, a Fox H
contour integral, and a Meijer G form obtained by rationalizing alpha/2.
A Tricomi-U closed form covers the Nakagami-m line, and both ends of the SNR
axis get dedicated asymptotics.

Every rate route takes (link, rho): rho is a scalar, giving a float, or a
sequence, giving an array, and a sequence sets the route's kernel up once.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .alphamu import AlphaMuParams, moment
from .special import (FoxHSpec, TruncationError, contour_integral, contour_integrals,
                      gamma_expectation, log_mean_power)
# unused here: bench/spans.py traces calls through rates.fox_h and rates.tricomi_u
from .special import fox_h, tricomi_u  # noqa: F401
from .sumfit import fit_sum

LN2 = math.log(2.0)
# cap on l and k of alpha/2 = l/k: the Meijer G blocks hold k + 2 l gamma factors
_MAX_BLOCK = 25


class RationalizationError(ValueError):
    """alpha/2 has no rational form l/k with small enough k."""


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
        if self.n_t < 1 or self.n_t != int(self.n_t):
            raise ValueError("n_t must be a positive integer, got %r" % (self.n_t,))
        if not 0 < self.delay_a < math.inf:
            raise ValueError("delay_a must be finite and > 0, got %r" % (self.delay_a,))

    @cached_property
    def fit(self):
        return fit_sum(self.branch, self.n_t)


def _rho_vector(rho):
    """rho as a 1-d array, after checking that every entry is finite and > 0."""
    rhos = np.atleast_1d(np.asarray(rho, dtype=float))
    if not np.all((rhos > 0) & (rhos < math.inf)):
        raise ValueError("rho must be finite and > 0, got %r" % (rho,))
    return rhos


def _like_rho(rho, values):
    """A float for a scalar rho, else the array of values."""
    return float(values[0]) if np.ndim(rho) == 0 else values


def rate_exact_quadrature(link, rho):
    """Effective rate by direct quadrature of the defining expectation.

    This is the reference evaluation the other routes are checked against.
    The fitted sum density turns into a unit Gamma weight under
    u = (gamma/beta)^(alpha/2), and the integrand is exp(-A log1p(.)) so
    that nothing is lost when rho is tiny (log_mean_power).  rho is a
    scalar (giving a float) or a sequence (giving an array; one node set
    serves it all).
    """
    p = link.fit.fitted
    c = _rho_vector(rho) * p.beta / link.n_t
    log_e = log_mean_power(p.mu, c, 2.0 / p.alpha, -link.delay_a)
    return _like_rho(rho, -log_e / (link.delay_a * LN2))


def rate_exact_foxh(link, rho):
    """Effective rate through the Fox H contour-integral form.

    The expectation equals (alpha/2) H / (Gamma(A) Gamma(mu)) with
    H = H^{2,1}_{1,2}[ (n_t/(rho beta))^(alpha/2) | (1, alpha/2);
                       (mu, 1), (A, alpha/2) ]
    in the fitted sum parameters.  rho is a scalar (giving a float) or a
    sequence (giving an array; one node set per contour serves it all).
    H comes from the line FoxHSpec.contour_abscissa picks: the strip
    midpoint, or a line nearer the saddle where the midpoint's sum would
    cancel away digits (high SNR with large fitted mu and A).  Where
    E > 1/2 the line Re s = 1/alpha right of the pole at s = 0 gives E - 1
    instead (the residue is the 1), so a small 1 - E keeps its digits.
    Raises TruncationError where the rate's estimated relative error
    exceeds 1e-12.
    """
    rhos = _rho_vector(rho)
    p = link.fit.fitted
    a_qos = link.delay_a
    half_alpha = 0.5 * p.alpha
    log_z = half_alpha * np.log(link.n_t / (rhos * p.beta))
    spec = FoxHSpec(m=2, n=1, upper_pairs=((1.0, half_alpha),),
                    lower_pairs=((p.mu, 1.0), (a_qos, half_alpha)))
    log_k = math.log(half_alpha) - math.lgamma(a_qos) - math.lgamma(p.mu)
    log_scale, scaled, err = contour_integrals(spec, log_z)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_e = log_k + log_scale + np.log(scaled)
        low = ~(log_e < -LN2)
        if low.any():
            log_scale, scaled, err_low = contour_integral(spec, 1.0 / p.alpha, log_z[low])
            e_minus_1 = np.exp(log_k + log_scale) * scaled
            log_e[low] = np.log1p(e_minus_1)
            err[low] = err_low * np.abs(e_minus_1) / (1.0 + e_minus_1)
        err /= np.abs(log_e)
    for e, r in zip(err.tolist(), rhos.tolist()):
        if not e <= 1e-12:
            raise TruncationError("rate_exact_foxh: error %g at rho=%r exceeds 1e-12" % (e, r))
    return _like_rho(rho, -log_e / (a_qos * LN2))


def _rationalize_half_alpha(alpha):
    """Represent alpha/2 as l/k with positive integers l, k <= _MAX_BLOCK.

    Integer alpha up to _MAX_BLOCK keeps the conventional unreduced pair
    (l, k) = (alpha, 2); otherwise a continued-fraction approximation is
    accepted only when it reproduces alpha/2 to within 1e-9 relative.
    """
    if abs(alpha - round(alpha)) <= 1e-12 * alpha and 1 <= round(alpha) <= _MAX_BLOCK:
        return int(round(alpha)), 2
    frac = Fraction(alpha / 2.0).limit_denominator(_MAX_BLOCK)
    l, k = frac.numerator, frac.denominator
    if not 1 <= l <= _MAX_BLOCK or abs(l / k - alpha / 2.0) > 1e-9 * (alpha / 2.0):
        raise RationalizationError(
            "alpha/2 = %r has no l/k with l, k <= %d within 1e-9 relative"
            % (alpha / 2.0, _MAX_BLOCK)
        )
    return l, k


def _delta_block(n, tau):
    """The n-term arithmetic block tau/n, (tau+1)/n, ..., (tau+n-1)/n, as
    (value, 1) pairs of a unit-coefficient Fox H spec."""
    return tuple(((tau + j) / n, 1.0) for j in range(n))


def rate_exact_meijerg(link, rho):
    """Effective rate through the Meijer G form of the contour integral.

    Requires alpha/2 = l/k rational; the gamma factors are split by the
    multiplication theorem into unit-coefficient blocks, giving

        E = P/2 * G^{k+l,l}_{l,k+l}[ (n_t/rho)^l / (beta^(alpha/2) k)^k |
              Delta(l, 1 - alpha mu/2);  Delta(k, 0), Delta(l, A - alpha mu/2) ]

    with P = alpha sqrt(k) l^(A-1) (n_t/(rho beta))^(alpha mu/2)
             (2 pi)^(3/2 - l - k/2) / (Gamma(A) Gamma(mu)).

    rho is a scalar (giving a float) or a sequence (giving an array): the
    strip is finite, so one node set per contour line serves every rho.
    Raises TruncationError where G's estimated relative error exceeds
    1e-12.  If no admissible (l, k) exists the Fox H route is used
    instead, with a warning.
    """
    rhos = _rho_vector(rho)
    p = link.fit.fitted
    a_qos = link.delay_a
    try:
        l, k = _rationalize_half_alpha(p.alpha)
    except RationalizationError as err:
        warnings.warn("rate_exact_meijerg: %s; falling back to the Fox H route" % err)
        return rate_exact_foxh(link, rho)
    # snap to the exactly rational exponent so blocks, argument and prefactor agree
    alpha = 2.0 * l / k
    params = AlphaMuParams(alpha=alpha, mu=p.mu, mean_snr=p.mean_snr)
    beta = params.beta
    amu2 = alpha * params.mu / 2.0
    spec = FoxHSpec(
        m=k + l,
        n=l,
        upper_pairs=_delta_block(l, 1.0 - amu2),
        lower_pairs=_delta_block(k, 0.0) + _delta_block(l, a_qos - amu2),
    )
    log_ratio = np.log(link.n_t / rhos)
    log_x = l * log_ratio - k * (0.5 * alpha * math.log(beta) + math.log(k))
    log_scale, scaled, err = contour_integrals(spec, log_x)
    for e, g, r in zip(err.tolist(), scaled.tolist(), rhos.tolist()):
        if not e <= 1e-12:
            raise TruncationError("rate_exact_meijerg: error %g at rho=%r exceeds 1e-12" % (e, r))
        if not g > 0:
            raise ArithmeticError("rate_exact_meijerg: contour integral returned %r" % (g,))
    log_p = (
        math.log(alpha)
        + 0.5 * math.log(k)
        + (a_qos - 1.0) * math.log(l)
        + amu2 * (log_ratio - math.log(beta))
        + (1.5 - l - 0.5 * k) * math.log(2.0 * math.pi)
        - math.lgamma(a_qos)
        - math.lgamma(params.mu)
    )
    log_e = log_p + log_scale + np.log(scaled) - LN2
    return _like_rho(rho, -log_e / (a_qos * LN2))


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
    would round A away next to a large m n_t.  rho is a scalar or a
    sequence, as for rate_exact_quadrature.  Raises ValueError unless the
    branch alpha is 2 within 1e-12.
    """
    b = link.branch
    if abs(b.alpha - 2.0) > 1e-12:
        raise ValueError("rate_nakagami: needs alpha = 2, got alpha=%g" % b.alpha)
    mn = b.mu * link.n_t
    z = mn / (b.mean_snr * _rho_vector(rho))
    log_u = log_mean_power(mn, 1.0 / z, 1.0, -link.delay_a)
    return _like_rho(rho, -log_u / (link.delay_a * LN2))


def high_snr_validity(link):
    """(required, conservative) validity flags of the high-SNR expansion.

    The leading term exists iff A < alpha mu / 2 in the fitted parameters;
    the conservative margin A < alpha mu / 2 - 1 additionally keeps the
    next-order correction integrable.
    """
    p = link.fit.fitted
    half = p.alpha * p.mu / 2.0
    return link.delay_a < half, link.delay_a < half - 1.0


def rate_high_snr(link, rho):
    """Leading high-SNR expansion: slope 1 per octave-of-2 in rho.

        R ~ log2(beta rho / n_t) - (1/A) log2( Gamma(mu - 2A/alpha) / Gamma(mu) )

    in the fitted sum parameters.  rho is a scalar or a sequence, as for
    rate_exact_quadrature.  Requires A < alpha mu / 2; between that bound
    and the conservative A < alpha mu / 2 - 1 a warning is emitted because
    convergence becomes slow.
    """
    rhos = _rho_vector(rho)
    required, conservative = high_snr_validity(link)
    p = link.fit.fitted
    if not required:
        raise ValueError(
            "rate_high_snr: delay_a must satisfy delay_a < alpha*mu/2 "
            "(got %g >= %g)" % (link.delay_a, p.alpha * p.mu / 2.0)
        )
    if not conservative:
        warnings.warn(
            "rate_high_snr: delay_a is within one unit of alpha*mu/2; "
            "the asymptote converges slowly here"
        )
    a_qos = link.delay_a
    gap = math.lgamma(p.mu - 2.0 * a_qos / p.alpha) - math.lgamma(p.mu)
    return _like_rho(rho, np.log2(p.beta * rhos / link.n_t) - gap / (a_qos * LN2))


def channel_power_moments(link):
    """First two moments of the array gain: E{S} and E{S^2} for the branch sum."""
    m1 = moment(link.branch, 1)
    m2 = moment(link.branch, 2)
    first = link.n_t * m1
    second = link.n_t * m2 + link.n_t * (link.n_t - 1) * m1 * m1
    return first, second


def wideband_metrics(link):
    """Minimum energy per bit and wideband slope of the low-SNR expansion.

    Derived from the first two array-gain moments:

        (Eb/N0)_min = n_t ln2 / E{S}            (= ln2 / mean branch SNR)
        S0 = 2 E{S}^2 / ((A+1) E{S^2} - A E{S}^2)

    For Nakagami-m branches S0 reduces to 2 m n_t / (A + 1 + m n_t).
    """
    e1, e2 = channel_power_moments(link)
    eb_min = link.n_t * LN2 / e1
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
    if not np.all(np.asarray(eb_n0) > 0):
        raise ValueError("rate_low_snr: eb_n0 must be > 0")
    ebs = np.atleast_1d(np.asarray(eb_n0, dtype=float)).tolist()
    eb_min, s0 = wideband_metrics(link)
    if min(ebs) <= eb_min:
        warnings.warn("rate_low_snr: eb_n0 at or below the minimum, rate clamped to 0")
    # math.log2 per point keeps libm's rounding, which numpy's may not match
    return _like_rho(eb_n0, np.array([s0 * math.log2(eb / eb_min) if eb > eb_min else 0.0
                                      for eb in ebs]))


def parametric_eb_n0(link, rho):
    """Map an SNR point to the (Eb/N0, rate) plane: Eb/N0 = rho / R(rho),
    with R from rate_exact_quadrature."""
    r = rate_exact_quadrature(link, rho)
    if not np.all(np.asarray(r) > 0):
        raise ArithmeticError("parametric_eb_n0: rate is not positive at rho=%r" % (rho,))
    return (rho if np.ndim(rho) == 0 else np.asarray(rho, dtype=float)) / r, r


def ergodic_capacity_quadrature(link, rho):
    """E{log2(1 + rho S / n_t)} under the fitted sum density.

    The A -> 0 limit of the effective rate; used as the no-QoS reference.
    rho is a scalar or a sequence, as for rate_exact_quadrature.
    """
    rhos = _rho_vector(rho)
    p = link.fit.fitted
    e = gamma_expectation(p.mu, np.log1p, rhos * p.beta / link.n_t, 2.0 / p.alpha, growth=1.0)
    return _like_rho(rho, e / LN2)
