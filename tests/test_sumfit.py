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
    np.testing.assert_allclose(fit.exact_moments[0], 15.0, rtol=1e-12)


def test_fit_exhausted_budget_raises(monkeypatch):
    monkeypatch.setattr(sumfit, "_MAX_ITER", 1)
    branch = AlphaMuParams(alpha=4.0, mu=1.0)
    with pytest.raises(FitConvergenceError) as err:
        fit_sum(branch, 2)
    assert len(err.value.residuals) == 2


def test_fit_zero_division_is_a_convergence_error():
    # trial steps on these links drove 1/expm1(...) to a ZeroDivisionError
    for alpha, mu, n_t in ((0.5515, 1.648, 16), (0.5914, 3.236, 8)):
        with pytest.raises(FitConvergenceError) as err:
            fit_sum(AlphaMuParams(alpha=alpha, mu=mu), n_t)
        assert len(err.value.residuals) == 2


def test_fit_input_validation():
    branch = AlphaMuParams(alpha=2.0, mu=1.0)
    with pytest.raises(ValueError):
        fit_sum(branch, 0)
    # at alpha = 1e20 the branch variance rounds to 0
    with pytest.raises(ValueError, match="variance"):
        fit_sum(AlphaMuParams(alpha=1e20, mu=1.0), 2)
    # at alpha = 1e8 the ratios at the start point divide by 0 (n_t = 2) or
    # take the log of a non-positive number (n_t = 4)
    for n_t in (2, 4):
        with pytest.raises(FitConvergenceError) as err:
            fit_sum(AlphaMuParams(alpha=1e8, mu=1.0), n_t)
        assert len(err.value.residuals) == 2
    # a single branch needs no fit, whatever its moments round to
    huge = AlphaMuParams(alpha=1e15, mu=1.0)
    assert fit_sum(huge, 1).fitted == huge
