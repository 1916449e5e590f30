"""Moment matching for sums of i.i.d. alpha-mu SNR variates.

The instantaneous SNR of an N_t-branch transmit array is the sum of N_t
branch SNRs.  That sum is not alpha-mu distributed, but it is extremely well
approximated by one, and the approximating parameters are pinned down by
matching the first and second moment ratio and the second and fourth moment
ratio.  For alpha = 2 the family is the Gamma family and the sum is exactly
Gamma(n_t mu), which the fit returns without solving anything.

Integer moments of the sum are exact: they follow from the branch moments
by iterated binomial convolution, no approximation involved.
"""

import functools
import math
from dataclasses import dataclass

from .alphamu import AlphaMuParams, moment
from .special import lgamma_second_difference


def sum_moments(branch, n_t, q):
    """Exact E{(gamma_1 + ... + gamma_{n_t})^q} for i.i.d. branches, integer q.

    Branch moments of orders 0..q are convolved binomially, one antenna at a
    time.  Branch moments themselves are formed in log space, so large mu or
    small alpha cannot overflow on the way in.
    """
    if n_t < 1 or n_t != int(n_t):
        raise ValueError("sum_moments: n_t must be a positive integer")
    if q < 0 or q != int(q):
        raise ValueError("sum_moments: q must be a non-negative integer")
    q = int(q)
    single = [moment(branch, k) for k in range(q + 1)]
    acc = list(single)
    for _ in range(int(n_t) - 1):
        nxt = [0.0] * (q + 1)
        for k in range(q + 1):
            nxt[k] = sum(
                math.comb(k, j) * acc[j] * single[k - j] for j in range(k + 1)
            )
        acc = nxt
    return acc[q]


def _log_ratio(alpha, mu, k):
    """log of E^2{X^k} / Var{X^k} for an alpha-mu SNR variate X, scale free;
    k = 1 and k = 2 give the two ratios the fit matches."""
    excess = lgamma_second_difference(mu, 2.0 * k / alpha)  # log E{X^2k} / E^2{X^k}
    return -excess - math.log(-math.expm1(-excess))


def _ratio_targets(branch, n_t, moments):
    """Left-hand sides of the two matching equations, from the raw sum moments.

    First equation: E^2{S} / (E{S^2} - E^2{S}).  The denominator is N_t times
    the branch variance, which _log_ratio gives without cancellation.
    Second equation: E^2{S^2} / (E{S^4} - E^2{S^2}), formed from the exact
    convolved moments.
    """
    m1, m2, _, m4 = moments
    # Var(S) = n_t * m1_branch^2 * (m2/m1^2 - 1), exact and cancellation free
    b1 = moment(branch, 1)
    var_s = n_t * b1 * b1 * math.exp(-_log_ratio(branch.alpha, branch.mu, 1))
    t1 = m1 * m1 / var_s
    d2 = m4 - m2 * m2
    if d2 <= 0:
        raise ValueError("fit_sum: variance of the squared sum is non-positive")
    t2 = m2 * m2 / d2
    return t1, t2


@dataclass(frozen=True)
class SumFit:
    """Result of matching an i.i.d. sum to a single alpha-mu variate."""

    fitted: AlphaMuParams
    residuals: tuple
    exact_moments: tuple


class FitConvergenceError(RuntimeError):
    """No moment-matched law was found.  residuals holds the last log-ratio
    mismatch of the 1-D solve that failed in that ratio's slot, nan in the
    other, or nan in both after an arithmetic error."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


_TOL = 1e-12  # |log-ratio mismatch| at which a 1-D solve stops
_MAX_ITER = 60  # steps per 1-D solve
_SOLVES = (("log mu", 64.0), ("log alpha", 16.0))  # unknown and bracket reach, per ratio


def _root(f, x0, k):
    """x with |f(x)| <= _TOL for the increasing mismatch f of ratio k.

    Steps out from x0, doubling each time, until f changes sign within
    x0 +- the reach of _SOLVES; then Illinois steps (regula falsi that
    halves the end value it keeps twice in a row) shrink the bracket,
    bisecting where a step rounds onto an end.  _MAX_ITER caps all steps.
    Failures raise FitConvergenceError with the last mismatch in slot k.
    """
    name, reach = _SOLVES[k - 1]

    def fail(why, fx):
        return FitConvergenceError("fit_sum: %s in %s" % (why, name),
                                   (fx, math.nan) if k == 1 else (math.nan, fx))

    x1, f1, step, steps = x0, f(x0), 0.25, 0
    xa, fa = x1, f1  # the other end, once f1 and fa differ in sign
    while abs(f1) > _TOL:
        if steps == _MAX_ITER:
            raise fail("no root within %d steps" % _MAX_ITER, f1)
        steps += 1
        if (f1 > 0) == (fa > 0):  # no sign change yet: step outward
            if abs(x1 - x0) + step > reach:
                raise fail("no sign change %s %.6g" % ("below" if f1 > 0 else "above", x0), f1)
            x2, step = x1 - step if f1 > 0 else x1 + step, 2.0 * step
        else:
            lo, hi = min(xa, x1), max(xa, x1)
            x2 = x1 - f1 * (x1 - xa) / (f1 - fa)
            if not lo < x2 < hi:
                x2 = 0.5 * (lo + hi)
            if not lo < x2 < hi:
                raise fail("bracket collapsed at %r" % x1, f1)
        f2 = f(x2)
        if (f2 > 0) != (f1 > 0):
            xa, fa = x1, f1
        else:
            fa *= 0.5  # Illinois; before a sign change it changes nothing
        x1, f1 = x2, f2
    return x1


def fit_sum(branch, n_t):
    """Fit (alpha, mu, mean_snr) of a single alpha-mu law to an i.i.d. sum.

    Solves the two scale-free ratio equations of da Costa, Yacoub & Filho
    (IEEE TWC 2008) by nested 1-D solves (_root): for a trial alpha the
    first log-ratio increases with log mu, which fixes mu(alpha); along that
    curve the second increases with log alpha, which fixes alpha.  The scale
    is then fixed exactly by the first moment.  Residuals are relative
    mismatches of the two ratios.

    n_t = 1 short-circuits to the branch parameters with zero residuals.
    alpha = 2 (within 1e-12) short-circuits to the exact sum law
    Gamma(n_t mu), where the solve would be ill-conditioned for a known
    answer; its residuals are those of the two ratios at (2, n_t mu).
    sum_moments raises ValueError unless n_t is a positive integer; an
    ArithmeticError or ValueError in the solve raises FitConvergenceError.
    """
    moments = tuple(sum_moments(branch, n_t, q) for q in range(1, 5))
    n_t = int(n_t)
    if n_t == 1:
        return SumFit(fitted=branch, residuals=(0.0, 0.0), exact_moments=moments)
    t1, t2 = _ratio_targets(branch, n_t, moments)
    if abs(branch.alpha - 2.0) <= 1e-12:
        return _fit_result(2.0, n_t * branch.mu, moments, t1, t2)

    lt1, lt2, lu0 = math.log(t1), math.log(t2), math.log(n_t * branch.mu)

    @functools.cache
    def log_mu(la):
        return _root(lambda lu: _log_ratio(math.exp(la), math.exp(lu), 1) - lt1, lu0, 1)

    try:
        la = _root(lambda la: _log_ratio(math.exp(la), math.exp(log_mu(la)), 2) - lt2,
                   math.log(branch.alpha), 2)
        return _fit_result(math.exp(la), math.exp(log_mu(la)), moments, t1, t2)
    except (ArithmeticError, ValueError) as err:
        raise FitConvergenceError("fit_sum: %s during the solve" % err, (math.nan, math.nan))


def _fit_result(alpha, mu, moments, t1, t2):
    """SumFit at (alpha, mu), scaled to the exact mean, with ratio residuals."""
    fitted = AlphaMuParams(alpha=alpha, mu=mu, mean_snr=moments[0])
    residuals = tuple(abs(math.expm1(_log_ratio(alpha, mu, k) - math.log(t)))
                      for k, t in ((1, t1), (2, t2)))
    return SumFit(fitted=fitted, residuals=residuals, exact_moments=moments)
