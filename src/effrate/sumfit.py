"""Moment matching for sums of i.i.d. alpha-mu SNR variates.

The instantaneous SNR of an N_t-branch transmit array is the sum of N_t
branch SNRs.  That sum is not alpha-mu distributed, but it is extremely well
approximated by one, and the approximating parameters are pinned down by
matching the first and second moment ratio and the second and fourth moment
ratio.  For alpha = 2 the family is the Gamma family and the sum is exactly
Gamma(n_t mu), which the fit returns without solving anything.

Integer moments of the sum are exact: the cumulants of independent variates
add, so the sum's are n_t times the branch's, and moments and the fit's two
ratios are read from that one list, no approximation involved.
"""

import functools
import math
from dataclasses import dataclass

from .alphamu import AlphaMuParams, moment
from .special import lgamma_second_difference


def sum_moments(branch, n_t, q):
    """Exact E{(gamma_1 + ... + gamma_{n_t})^q} for i.i.d. branches, integer q:
    E{S^k} = sum_j C(k-1, j-1) K_j E{S^(k-j)} from the sum cumulants K_j."""
    cumulants = _sum_cumulants(branch, n_t, q)
    raw = [1.0]
    for k in range(1, len(cumulants) + 1):
        raw.append(sum(math.comb(k - 1, j - 1) * cumulants[j - 1] * raw[k - j]
                       for j in range(1, k + 1)))
    return raw[-1]


def _sum_cumulants(branch, n_t, q):
    """[K_1, ..., K_q] of the i.i.d. branch sum S: cumulants add, so these are
    n_t times the branch cumulants K_k = m_k - sum_{j<k} C(k-1, j-1) K_j m_{k-j}.
    Branch moments m_k are formed in log space, so large mu or small alpha
    cannot overflow.  K_2 = m_1^2 exp(-_log_ratio(alpha, mu, 1)) replaces
    the cancelling m_2 - m_1^2 before K_3 and K_4 are formed, unless that
    difference is not > 0 (alpha so large that the moments round to powers
    of the mean), where it is kept for the fit to refuse.
    """
    if not (n_t >= 1 and n_t == int(n_t) and q >= 0 and q == int(q)):
        raise ValueError("sum_moments: need integers n_t >= 1 and q >= 0, got %r, %r" % (n_t, q))
    m = [moment(branch, k) for k in range(int(q) + 1)]
    cumulants = []
    for k in range(1, len(m)):
        c = m[k] - sum(math.comb(k - 1, j - 1) * cumulants[j - 1] * m[k - j]
                       for j in range(1, k))
        if k == 2 and c > 0:
            c = m[1] * m[1] * math.exp(-_log_ratio(branch.alpha, branch.mu, 1))
        cumulants.append(c)
    return [n_t * c for c in cumulants]


def _log_ratio(alpha, mu, k):
    """log of E^2{X^k} / Var{X^k} for an alpha-mu SNR variate X, scale free;
    k = 1 and k = 2 give the two ratios the fit matches."""
    excess = lgamma_second_difference(mu, 2.0 * k / alpha)  # log E{X^2k} / E^2{X^k}
    return -excess - math.log(-math.expm1(-excess))


def _ratio_targets(k1, k2, k3, k4):
    """E^2{S} / Var{S} and E^2{S^2} / Var{S^2} from the sum cumulants K_1..K_4."""
    var_sq = k4 + 4.0 * k3 * k1 + 2.0 * k2 * k2 + 4.0 * k2 * k1 * k1  # Var{S^2}
    if not min(k2, var_sq) > 0:
        raise ValueError("fit_sum: variance of the squared sum is non-positive")
    return k1 * k1 / k2, (k2 + k1 * k1) ** 2 / var_sq


@dataclass(frozen=True)
class SumFit:
    """Result of matching an i.i.d. sum to a single alpha-mu variate."""

    fitted: AlphaMuParams
    residuals: tuple


class FitConvergenceError(RuntimeError):
    """No moment-matched law was found; the message names why."""


_TOL = 1e-12  # |log-ratio mismatch| at which a 1-D solve stops
_MAX_ITER = 60  # steps per 1-D solve


def _root(f, x0, name, reach):
    """x with |f(x)| <= _TOL for the increasing mismatch f of unknown name.

    Steps out from x0, doubling each time, until f changes sign within
    x0 +- reach; then Illinois steps (regula falsi that halves the end
    value it keeps twice in a row) shrink the bracket, bisecting where a
    step rounds onto an end.  _MAX_ITER caps all steps.  Failures raise
    FitConvergenceError naming the reason and the unknown.
    """

    def fail(why):
        return FitConvergenceError("fit_sum: %s in %s" % (why, name))

    x1, f1, step, steps = x0, f(x0), 0.25, 0
    xa, fa = x1, f1  # the other end, once f1 and fa differ in sign
    while abs(f1) > _TOL:
        if steps == _MAX_ITER:
            raise fail("no root within %d steps" % _MAX_ITER)
        steps += 1
        if (f1 > 0) == (fa > 0):  # no sign change yet: step outward
            if abs(x1 - x0) + step > reach:
                raise fail("no sign change %s %.6g" % ("below" if f1 > 0 else "above", x0))
            x2, step = x1 - step if f1 > 0 else x1 + step, 2.0 * step
        else:
            lo, hi = min(xa, x1), max(xa, x1)
            x2 = x1 - f1 * (x1 - xa) / (f1 - fa)
            if not lo < x2 < hi:
                x2 = 0.5 * (lo + hi)
            if not lo < x2 < hi:
                raise fail("bracket collapsed at %r" % x1)
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
    is then fixed exactly by the first moment.  Mean and both ratios come
    from the sum cumulants K_1..K_4 (_sum_cumulants), free of the
    E{S^4} - E^2{S^2} cancellation, of the unit-mean branch law: the ratios
    are scale free, and the mean SNR sets the fitted mean K_1 mean_snr
    alone.  Residuals are relative mismatches of the two ratios.

    n_t = 1 short-circuits to the branch parameters with zero residuals.
    alpha = 2 (within 1e-12) short-circuits to the exact sum law
    Gamma(n_t mu), where the solve would be ill-conditioned for a known
    answer; its residuals are those of the two ratios at (2, n_t mu).
    ValueError is raised unless n_t is a positive integer, where a unit-law
    moment overflows the doubles (alphamu.moment), or where the moments
    round so that a variance is not > 0 (alpha near 1e15 and up); an
    ArithmeticError or ValueError in the solve raises FitConvergenceError.
    """
    if n_t == 1:
        return SumFit(fitted=branch, residuals=(0.0, 0.0))
    k1, k2, k3, k4 = _sum_cumulants(AlphaMuParams(alpha=branch.alpha, mu=branch.mu), n_t, 4)
    n_t, mean = int(n_t), k1 * branch.mean_snr
    t1, t2 = _ratio_targets(k1, k2, k3, k4)
    if abs(branch.alpha - 2.0) <= 1e-12:
        return _fit_result(2.0, n_t * branch.mu, mean, t1, t2)

    lt1, lt2, lu0 = math.log(t1), math.log(t2), math.log(n_t * branch.mu)

    @functools.cache
    def log_mu(la):
        return _root(lambda lu: _log_ratio(math.exp(la), math.exp(lu), 1) - lt1,
                     lu0, "log mu", 64.0)

    try:
        la = _root(lambda la: _log_ratio(math.exp(la), math.exp(log_mu(la)), 2) - lt2,
                   math.log(branch.alpha), "log alpha", 16.0)
        return _fit_result(math.exp(la), math.exp(log_mu(la)), mean, t1, t2)
    except (ArithmeticError, ValueError) as err:
        raise FitConvergenceError("fit_sum: %s during the solve" % err)


def _fit_result(alpha, mu, mean, t1, t2):
    """SumFit at (alpha, mu), scaled to the exact mean, with ratio residuals."""
    fitted = AlphaMuParams(alpha=alpha, mu=mu, mean_snr=mean)
    residuals = tuple(abs(math.expm1(_log_ratio(alpha, mu, k) - math.log(t)))
                      for k, t in ((1, t1), (2, t2)))
    return SumFit(fitted=fitted, residuals=residuals)
