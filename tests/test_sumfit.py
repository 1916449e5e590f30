"""Exact sum moments and the two-ratio moment-matching fit."""

import math

import numpy as np
import pytest
from scipy import special, stats

from effrate import sumfit
from effrate.alphamu import AlphaMuParams, moment, sample
from effrate.sumfit import FitConvergenceError, SumFit, fit_sum, sum_moments


def test_sum_moments_first_order_is_linear():
    for alpha, mu, n_t in ((0.8, 1.5, 2), (2.0, 1.0, 4), (5.0, 0.7, 3)):
        branch = AlphaMuParams(alpha=alpha, mu=mu, mean_snr=1.7)
        np.testing.assert_allclose(
            sum_moments(branch, n_t, 1), n_t * moment(branch, 1), rtol=1e-14
        )


def test_sum_moments_gamma_family_closed_form():
    # alpha=2 branches are Gamma variates, so the sum is Gamma(n_t mu, beta)
    # and every integer moment is beta^q Gamma(n_t mu + q) / Gamma(n_t mu)
    for mu, n_t in ((1.0, 3), (1.5, 2), (2.5, 4)):
        branch = AlphaMuParams(alpha=2.0, mu=mu, mean_snr=1.0)
        shape = n_t * mu
        for q in (1, 2, 3, 4):
            closed = branch.beta ** q * math.exp(
                math.lgamma(shape + q) - math.lgamma(shape)
            )
            np.testing.assert_allclose(sum_moments(branch, n_t, q), closed, rtol=1e-12)


def test_sum_moments_match_simulation():
    branch = AlphaMuParams(alpha=3.0, mu=1.2, mean_snr=2.0)
    rng = np.random.default_rng(5)
    draws = sample(branch, rng, size=(400_000, 3)).sum(axis=1)
    for q in (1, 2):
        exact = sum_moments(branch, 3, q)
        est = float(np.mean(draws ** q))
        sd = float(np.std(draws ** q)) / math.sqrt(draws.size)
        assert abs(est - exact) < 5.0 * sd


def test_sum_moments_input_validation():
    branch = AlphaMuParams(alpha=2.0, mu=1.0)
    with pytest.raises(ValueError):
        sum_moments(branch, 0, 1)
    with pytest.raises(ValueError):
        sum_moments(branch, 2, -1)
    with pytest.raises(ValueError):
        sum_moments(branch, 2, 1.5)


# (alpha, mu, n_t, E^2{S} / Var{S}, E^2{S^2} / Var{S^2}) of the sum of n_t
# unit-mean branches, from binomially convolved moments in 50-digit mpmath
_TARGET_REF = [
    (8.0, 1.5, 128, 2602.067967463028830071, 651.0272851949864034904),
    (8.0, 4.0, 64, 3827.652141059834126567, 957.4986859560304090913),
    (8.0, 4.0, 2, 119.6141294081198164552, 30.49348918260388142172),
    (0.5, 0.5, 16, 0.0875, 0.0003963658140690854773954),
]


def test_ratio_targets_match_50_digit_values():
    # subtracting E^2{S^2} from E{S^4} left the second target 1.7e-12 off at
    # (8, 1.5, 128); the cumulants give Var{S^2} without that cancellation
    for alpha, mu, n_t, t1, t2 in _TARGET_REF:
        cumulants = sumfit._sum_cumulants(AlphaMuParams(alpha=alpha, mu=mu), n_t, 4)
        np.testing.assert_allclose(sumfit._ratio_targets(*cumulants), (t1, t2), rtol=5e-14,
                                   err_msg=str((alpha, mu, n_t)))


def test_sum_moments_match_50_digit_values():
    # E{S^2}, E{S^3}, E{S^4} at alpha 8, mu 4, n_t 64, unit-mean branches
    branch = AlphaMuParams(alpha=8.0, mu=4.0)
    for q, ref in ((2, 4097.070107692405366635), (3, 262349.4456104183943504),
                   (4, 16803514.5446353819204)):
        np.testing.assert_allclose(sum_moments(branch, 64, q), ref, rtol=5e-14)


def test_fit_single_branch_is_identity():
    branch = AlphaMuParams(alpha=4.0, mu=1.0, mean_snr=1.0)
    fit = fit_sum(branch, 1)
    assert isinstance(fit, SumFit)
    assert fit.fitted == branch
    assert fit.residuals == (0.0, 0.0)


def test_fit_gamma_closure():
    # alpha=2 sums stay in the Gamma family: fitted (2, n_t mu) exactly,
    # also at (3.013, 16) and (3.594, 16), where damped Newton failed
    for mu, n_t in [(mu, n_t) for mu in (0.5, 1.0, 2.5) for n_t in (2, 4, 8)] + [
        (3.013, 16), (3.594, 16)
    ]:
        branch = AlphaMuParams(alpha=2.0, mu=mu, mean_snr=1.0)
        fit = fit_sum(branch, n_t)
        assert fit.fitted.alpha == 2.0
        assert fit.fitted.mu == n_t * mu
        np.testing.assert_allclose(fit.fitted.mean_snr, n_t * mu / mu, rtol=1e-12)
        assert max(fit.residuals) <= 1e-10


def test_fit_residuals_small_across_family():
    for alpha in (0.8, 2.0, 4.0, 8.0):
        for mu in (1.0, 2.0, 4.0):
            for n_t in (2, 4):
                branch = AlphaMuParams(alpha=alpha, mu=mu)
                fit = fit_sum(branch, n_t)
                assert max(fit.residuals) <= 1e-10, (alpha, mu, n_t, fit.residuals)


def test_fit_reproduces_matched_moments():
    # the construction pins moments 1, 2 and 4 of the sum; check they are
    # actually reproduced by the fitted law
    branch = AlphaMuParams(alpha=4.0, mu=2.0, mean_snr=1.0)
    fit = fit_sum(branch, 2)
    for q in (1, 2, 4):
        np.testing.assert_allclose(
            moment(fit.fitted, q), sum_moments(branch, 2, q), rtol=1e-8
        )


def test_fit_distribution_distance():
    # sup-norm distance between the true sum law (empirical, 1e5 draws) and
    # the fitted law stays below 1%; for alpha=2 the fit is exact so the KS
    # test must also not reject
    rng = np.random.default_rng(17)
    for alpha in (0.8, 2.0, 4.0, 8.0):
        for mu in (1.0, 2.0, 4.0):
            branch = AlphaMuParams(alpha=alpha, mu=mu)
            fit = fit_sum(branch, 2)
            draws = sample(branch, rng, size=(100_000, 2)).sum(axis=1)
            p = fit.fitted
            res = stats.kstest(
                draws, lambda g: special.gammainc(p.mu, (g / p.beta) ** (p.alpha / 2)))
            assert res.statistic <= 0.01, (alpha, mu, res.statistic)
            if alpha == 2.0:
                assert res.pvalue > 0.01, (mu, res)


def test_fit_mean_is_exact():
    branch = AlphaMuParams(alpha=1.3, mu=0.9, mean_snr=3.0)
    fit = fit_sum(branch, 5)
    np.testing.assert_allclose(fit.fitted.mean_snr, 15.0, rtol=1e-12)


def test_fit_exhausted_budget_raises(monkeypatch):
    monkeypatch.setattr(sumfit, "_MAX_ITER", 1)
    branch = AlphaMuParams(alpha=4.0, mu=1.0)
    with pytest.raises(FitConvergenceError):
        fit_sum(branch, 2)


def test_root_bisects_where_a_secant_step_rounds_onto_an_end():
    # the right side is 1e300 times steeper, so every secant step lands on the
    # left end of the bracket and only bisection shrinks it
    root = sumfit._root(lambda x: (x - 0.3) * (1e300 if x > 0.3 else 1.0), 0.0, "u", 1.0)
    assert abs(root - 0.3) <= sumfit._TOL


def test_root_refuses_a_collapsed_bracket():
    # a step from -1 to +1 has no root: the bracket shrinks to adjacent floats
    with pytest.raises(FitConvergenceError, match=r"^fit_sum: bracket collapsed at 0\.3 in u$"):
        sumfit._root(lambda x: 1.0 if x > 0.3 else -1.0, 0.0, "u", 1.0)


def test_fit_zero_division_is_a_convergence_error():
    # trial steps of the damped Newton solver once drove 1/expm1(...) to a
    # ZeroDivisionError here; no alpha-mu law matches both ratios of these sums
    for alpha, mu, n_t in ((0.5515, 1.648, 16), (0.5914, 3.236, 8)):
        with pytest.raises(FitConvergenceError):
            fit_sum(AlphaMuParams(alpha=alpha, mu=mu), n_t)


def test_fit_input_validation():
    branch = AlphaMuParams(alpha=2.0, mu=1.0)
    with pytest.raises(ValueError):
        fit_sum(branch, 0)
    # at alpha = 1e20 the sum moments round to powers of the mean, so the
    # variance of the squared sum is 0
    with pytest.raises(ValueError, match="variance"):
        fit_sum(AlphaMuParams(alpha=1e20, mu=1.0), 2)
    # at alpha = 1e8 that variance is rounding noise, and no law matches the
    # ratio it gives
    for n_t in (2, 4):
        with pytest.raises(FitConvergenceError):
            fit_sum(AlphaMuParams(alpha=1e8, mu=1.0), n_t)
    # a single branch needs no fit, whatever its moments round to
    huge = AlphaMuParams(alpha=1e15, mu=1.0)
    assert fit_sum(huge, 1).fitted == huge


_PROBE_GRID = [
    (alpha, mu, n_t)
    for alpha in (0.5, 0.8, 1.5, 2.0, 3.0, 4.0, 8.0)
    for mu in (0.5, 1.0, 1.5, 3.0)
    for n_t in (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)
]


def test_fit_probe_grid_converges_or_raises():
    # each of the 364 fits converges or raises the typed error.  Of the 56
    # that raise, 52 have no alpha-mu law matching both ratios (the 40-digit
    # solve of bench/reference.py finds no sign change either) and 4 have one
    # with alpha below 0.014 and mu above 3e4, whose power scale underflows
    converged = 0
    for alpha, mu, n_t in _PROBE_GRID:
        try:
            fit = fit_sum(AlphaMuParams(alpha=alpha, mu=mu), n_t)
        except FitConvergenceError:
            continue
        assert max(fit.residuals) <= 1e-10, (alpha, mu, n_t, fit.residuals)
        converged += 1
    assert converged == 308


# (alpha, mu, n_t, fitted alpha, fitted mu): the moment-matched law of the
# sum, solved in 40-digit arithmetic by surrogate() of bench/reference.py
_SURROGATE_REF = [
    (0.8, 2.0, 2, 0.65265734430827756, 5.778338823391522),
    (4.0, 2.0, 2, 3.8757455821403525, 4.1482147436001052),
    (8.0, 2.0, 2, 7.6224216723536336, 4.1261474443439368),
    (4.0, 1.0, 2, 3.7765882931868984, 2.1444485802778167),
    (4.0, 4.0, 2, 3.9364758980442615, 8.1413977886615437),
    (1.5, 0.75, 4, 1.4366685334653283, 3.2220828598251472),
    (8.0, 3.0, 4, 7.6617414775054544, 12.235997252560363),
    (0.5, 0.5, 8, 0.36237678967544447, 5.1146714960997294),
    (3.0, 1.5, 4, 2.9108537702195754, 6.2439667836540152),
]


def test_fit_matches_40_digit_surrogates():
    for alpha, mu, n_t, alpha_f, mu_f in _SURROGATE_REF:
        p = fit_sum(AlphaMuParams(alpha=alpha, mu=mu), n_t).fitted
        np.testing.assert_allclose((p.alpha, p.mu), (alpha_f, mu_f), rtol=1e-10,
                                   err_msg=str((alpha, mu, n_t)))
    # the 40-digit solve finds no law for this sum, so neither may the fit
    with pytest.raises(FitConvergenceError, match="no sign change"):
        fit_sum(AlphaMuParams(alpha=0.8, mu=1.0), 16)
