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

import math
from dataclasses import dataclass

from .alphamu import AlphaMuParams, moment


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


def _log_m2_over_m1sq(alpha, mu):
    """log of E{X^2}/E{X}^2 for an alpha-mu variate; positive, scale free."""
    return (
        math.lgamma(mu)
        + math.lgamma(mu + 4.0 / alpha)
        - 2.0 * math.lgamma(mu + 2.0 / alpha)
    )


def _log_m4_over_m2sq(alpha, mu):
    """log of E{X^4}/E{X^2}^2 for an alpha-mu variate."""
    return (
        math.lgamma(mu)
        + math.lgamma(mu + 8.0 / alpha)
        - 2.0 * math.lgamma(mu + 4.0 / alpha)
    )


def _ratio_targets(branch, n_t, moments):
    """Left-hand sides of the two matching equations, from the raw sum moments.

    First equation: E^2{S} / (E{S^2} - E^2{S}).  The denominator is N_t times
    the branch variance, which expm1 gives without cancellation.
    Second equation: E^2{S^2} / (E{S^4} - E^2{S^2}), formed from the exact
    convolved moments.
    """
    m1, m2, _, m4 = moments
    # Var(S) = n_t * m1_branch^2 * (m2/m1^2 - 1), exact and cancellation free
    b1 = moment(branch, 1)
    var_s = n_t * b1 * b1 * math.expm1(_log_m2_over_m1sq(branch.alpha, branch.mu))
    if not var_s > 0:
        raise ValueError("fit_sum: branch variance is non-positive")
    t1 = m1 * m1 / var_s
    d2 = m4 - m2 * m2
    if d2 <= 0:
        raise ValueError("fit_sum: fourth-moment spread is non-positive")
    t2 = m2 * m2 / d2
    return t1, t2


def _ratio_values(alpha, mu):
    """Right-hand sides of the matching equations at candidate (alpha, mu)."""
    r1 = 1.0 / math.expm1(_log_m2_over_m1sq(alpha, mu))
    r2 = 1.0 / math.expm1(_log_m4_over_m2sq(alpha, mu))
    return r1, r2


@dataclass(frozen=True)
class SumFit:
    """Result of matching an i.i.d. sum to a single alpha-mu variate."""

    fitted: AlphaMuParams
    residuals: tuple
    exact_moments: tuple


class FitConvergenceError(RuntimeError):
    """Newton iteration failed; carries the last residuals."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


_TOL = 1e-12  # residual norm at which the Newton iteration stops
_MAX_ITER = 60


def fit_sum(branch, n_t):
    """Fit (alpha, mu, mean_snr) of a single alpha-mu law to an i.i.d. sum.

    Solves the two scale-free ratio equations with a damped Newton iteration
    in (log alpha, log mu); the scale is then fixed exactly by the first
    moment.  Residuals are relative mismatches of the two ratios.

    n_t = 1 short-circuits to the branch parameters with zero residuals.
    alpha = 2 (within 1e-12) short-circuits to the exact sum law
    Gamma(n_t mu), where Newton would solve an ill-conditioned system for a
    known answer; its residuals are those of the two ratios at (2, n_t mu).
    sum_moments raises ValueError unless n_t is a positive integer.
    """
    moments = tuple(sum_moments(branch, n_t, q) for q in range(1, 5))
    n_t = int(n_t)
    if n_t == 1:
        return SumFit(fitted=branch, residuals=(0.0, 0.0), exact_moments=moments)
    t1, t2 = _ratio_targets(branch, n_t, moments)
    if abs(branch.alpha - 2.0) <= 1e-12:
        return _fit_result(2.0, n_t * branch.mu, moments, t1, t2)

    lt1, lt2 = math.log(t1), math.log(t2)

    def f(x):
        r1, r2 = _ratio_values(math.exp(x[0]), math.exp(x[1]))
        return (math.log(r1) - lt1, math.log(r2) - lt2)

    x = [math.log(branch.alpha), math.log(n_t * branch.mu)]
    try:
        fx = f(x)
    except (ArithmeticError, ValueError) as err:
        raise FitConvergenceError("fit_sum: start point failed: %s" % err, (math.nan, math.nan))
    norm = max(abs(fx[0]), abs(fx[1]))
    for _ in range(_MAX_ITER):
        if norm <= _TOL:
            break
        # forward-difference Jacobian
        h = 1e-7
        jac = []
        for j in range(2):
            xp = list(x)
            xp[j] += h
            try:
                fp = f(xp)
            except (ArithmeticError, ValueError) as err:
                raise FitConvergenceError("fit_sum: Jacobian trial failed: %s" % err, fx)
            jac.append(((fp[0] - fx[0]) / h, (fp[1] - fx[1]) / h))
        det = jac[0][0] * jac[1][1] - jac[1][0] * jac[0][1]
        if det == 0:
            raise FitConvergenceError("fit_sum: singular Jacobian", fx)
        dx0 = -(fx[0] * jac[1][1] - fx[1] * jac[1][0]) / det
        dx1 = -(fx[1] * jac[0][0] - fx[0] * jac[0][1]) / det
        # damped step: halve until the residual norm actually drops
        step = 1.0
        for _ in range(30):
            xn = [x[0] + step * dx0, x[1] + step * dx1]
            try:
                fn = f(xn)
            except (ArithmeticError, ValueError):
                step *= 0.5
                continue
            nn = max(abs(fn[0]), abs(fn[1]))
            if nn < norm:
                x, fx, norm = xn, fn, nn
                break
            step *= 0.5
        else:
            raise FitConvergenceError(
                "fit_sum: damping exhausted at residuals %r" % (fx,), fx
            )
    else:
        raise FitConvergenceError(
            "fit_sum: no convergence after %d iterations, residuals %r"
            % (_MAX_ITER, fx),
            fx,
        )

    return _fit_result(math.exp(x[0]), math.exp(x[1]), moments, t1, t2)


def _fit_result(alpha, mu, moments, t1, t2):
    """SumFit at (alpha, mu), scaled to the exact mean, with ratio residuals."""
    fitted = AlphaMuParams(alpha=alpha, mu=mu, mean_snr=moments[0])
    r1, r2 = _ratio_values(alpha, mu)
    residuals = (abs(r1 / t1 - 1.0), abs(r2 / t2 - 1.0))
    return SumFit(fitted=fitted, residuals=residuals, exact_moments=moments)
