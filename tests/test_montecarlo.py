"""Monte Carlo estimator: determinism, convergence, and interval honesty."""

import math

import numpy as np
import pytest

from effrate import montecarlo
from effrate.alphamu import AlphaMuParams
from effrate.alphamu import sample
from effrate.montecarlo import (McConfig, _branch_sum, _stream_plan, simulate_ergodic_capacity,
                                simulate_rate, simulate_rates)
from effrate.rates import MisoLink, ergodic_capacity_quadrature, rate_exact_quadrature

_RAYLEIGH = MisoLink(n_t=1, delay_a=1.0, branch=AlphaMuParams(alpha=2.0, mu=1.0))


def test_estimate_matches_closed_value():
    ref = 0.7457751737292681
    est, hw = simulate_rate(_RAYLEIGH, 1.0, McConfig(samples=1_000_000, seed=0))
    assert hw < 0.01
    assert abs(est - ref) <= hw


def test_estimate_matches_analytic_multiantenna():
    link = MisoLink(n_t=4, delay_a=0.8, branch=AlphaMuParams(alpha=3.0, mu=1.5))
    exact = rate_exact_quadrature(link, 10.0)
    est, hw = simulate_rate(link, 10.0, McConfig(samples=500_000, seed=21))
    assert abs(est - exact) <= 2.0 * hw


def test_bit_reproducible(monkeypatch):
    cfg = McConfig(samples=50_000, seed=99)
    a = simulate_rate(_RAYLEIGH, 3.0, cfg)
    b = simulate_rate(_RAYLEIGH, 3.0, cfg)
    assert a == b
    # a different stream split is a different (equally valid) estimate
    monkeypatch.setattr(montecarlo, "_STREAMS", 5)
    c = simulate_rate(_RAYLEIGH, 3.0, cfg)
    assert c != a
    assert abs(c[0] - a[0]) < 5.0 * (a[1] + c[1])


def test_vector_call_rows_equal_scalar_calls():
    # one set of draws serves every rho, yet each row is the scalar call;
    # 10_007 samples split unevenly over the 8 streams
    cfg = McConfig(samples=10_007, seed=13)
    rhos = [1e-3, 1.0, 10.0, 1e3]
    for n_t in (1, 3):
        link = MisoLink(n_t=n_t, delay_a=0.7, branch=AlphaMuParams(alpha=1.5, mu=0.8))
        rates, halfwidths = simulate_rate(link, rhos, cfg)
        assert isinstance(rates, np.ndarray) and rates.shape == (len(rhos),)
        for j, rho in enumerate(rhos):
            assert (rates[j], halfwidths[j]) == simulate_rate(link, rho, cfg)
        ergodic = simulate_ergodic_capacity(link, rhos, cfg)
        assert ergodic.tolist() == [simulate_ergodic_capacity(link, rho, cfg) for rho in rhos]


def test_simulate_rates_rows_are_single_link_calls():
    # two mu values, one branch under two values of A, n_t 1 and 3: links
    # that share (mu, n_t) share draws, yet each row is its own call
    cfg = McConfig(samples=10_007, seed=13)
    shared = AlphaMuParams(alpha=1.5, mu=0.8)
    links = [
        MisoLink(n_t=3, delay_a=0.7, branch=shared),
        MisoLink(n_t=1, delay_a=2.0, branch=AlphaMuParams(alpha=4.0, mu=2.0)),
        MisoLink(n_t=3, delay_a=2.5, branch=shared),
        MisoLink(n_t=3, delay_a=0.7, branch=AlphaMuParams(alpha=0.8, mu=0.8)),
        MisoLink(n_t=1, delay_a=0.7, branch=shared),
    ]

    def hexes(*values):
        return [v.hex() for v in np.hstack(values).tolist()]

    for rho in (10.0, [1e-3, 1.0, 10.0, 1e3]):
        rows = simulate_rates(links, rho, cfg)
        assert len(rows) == len(links)
        for link, row in zip(links, rows):
            single = simulate_rate(link, rho, cfg)
            assert type(row[0]) is type(single[0])
            assert hexes(*row) == hexes(*single), (link, rho)
    with pytest.raises(ValueError):
        simulate_rates([], 1.0, cfg)


def test_ergodic_estimate_is_the_stream_ordered_mean():
    # the parent estimator, written out: each stream's row sums, then
    # log2(1 + rho S / n_t) summed per stream and in stream order
    cfg = McConfig(samples=10_007, seed=13)
    rhos = [1e-3, 1.0, 1e3]
    for n_t, alpha, mu in ((1, 1.5, 0.8), (2, 4.0, 2.0)):
        link = MisoLink(n_t=n_t, delay_a=0.7, branch=AlphaMuParams(alpha=alpha, mu=mu))
        totals = [0.0] * len(rhos)
        for rng, count in _stream_plan(cfg):
            snr_sum = sample(link.branch, rng, size=(count, n_t)).sum(axis=1)
            for j, rho in enumerate(rhos):
                totals[j] += float((np.log1p(rho * snr_sum / n_t) / math.log(2.0)).sum())
        want = [total / cfg.samples for total in totals]
        assert simulate_ergodic_capacity(link, rhos, cfg).tolist() == want
        assert simulate_ergodic_capacity(link, rhos[1], cfg) == want[1]


def test_branch_sum_matches_the_row_reduction():
    # below 8 branches (every Monte Carlo link of the figures, verify and the
    # acceptance tests) the column adds give the row sums bit for bit; wider
    # blocks may round differently, by a few ulp
    rng = np.random.default_rng(5)
    for n_t in range(1, 21):
        for count in (1, 7, 12_500):
            draws = rng.gamma(0.7, size=(count, n_t)) * rng.uniform(0.1, 10.0)
            total, row_sums = _branch_sum(draws), draws.sum(axis=1)
            if n_t < 8:
                assert np.array_equal(total, row_sums), (n_t, count)
            else:
                np.testing.assert_allclose(total, row_sums, rtol=n_t * np.finfo(float).eps)


def test_halfwidth_matches_a_two_pass_variance_where_terms_are_near_1():
    # at -80 and -120 dB every term (1 + rho S)^-1 is within 1e-7 of 1, so
    # E{t^2} - E{t}^2 cancels (a half-width of 0.0, or 1e4 times too wide);
    # the same stream draws, reduced in two passes, give the reference
    cfg = McConfig(samples=100_000, seed=0)
    for db in (-80.0, -120.0):
        rho = 10.0 ** (db / 10.0)
        snr = np.concatenate([sample(_RAYLEIGH.branch, rng, (count, 1))[:, 0]
                              for rng, count in _stream_plan(cfg)])
        terms = np.exp(-np.log1p(snr * rho))
        mean = terms.mean()
        two_pass = 1.96 * math.sqrt(np.square(terms - mean).sum() / (terms.size - 1) / terms.size)
        two_pass /= math.log(2.0) * mean
        _, halfwidth = simulate_rate(_RAYLEIGH, rho, cfg)
        assert abs(halfwidth / two_pass - 1.0) < 0.01, (db, halfwidth, two_pass)


def test_underflowing_draws_raise_naming_a_and_rho():
    # at 100 dB every (1 + rho S / 2)^-50 underflows to 0: no rate exists
    link = MisoLink(n_t=2, delay_a=50.0, branch=AlphaMuParams(alpha=2.0, mu=1.0))
    with pytest.raises(ArithmeticError, match=r"A = 50\.0, rho = 10000000000\.0"):
        simulate_rate(link, [1.0, 1e10], McConfig(samples=10_000, seed=0))


def test_draws_without_spread_are_refused():
    # a zero sample variance would print a half-width of 0.0, an interval
    # that claims an exact answer.  At A = 50 and 60 dB the drawn terms are so
    # small that their squared deviations underflow (13.67 +- 0.0 against an
    # exact 0.981); at rho = 1e-30 every term rounds to 1 (-0.0 +- 0.0)
    a50 = MisoLink(n_t=2, delay_a=50.0, branch=AlphaMuParams(alpha=2.0, mu=1.0))
    for link, rho, match in ((a50, 1e6, r"A = 50\.0, rho = 1000000\.0"),
                             (_RAYLEIGH, 1e-30, r"A = 1\.0, rho = 1e-30")):
        with pytest.raises(ArithmeticError, match=match):
            simulate_rate(link, rho, McConfig(samples=10_000, seed=0))


def test_interval_shrinks_with_samples():
    _, h1 = simulate_rate(_RAYLEIGH, 1.0, McConfig(samples=250_000, seed=3))
    _, h4 = simulate_rate(_RAYLEIGH, 1.0, McConfig(samples=1_000_000, seed=3))
    # quadrupling the budget should halve the interval, up to noise
    assert 2.0 / 1.5 < h1 / h4 < 2.0 * 1.5


def test_interval_calibration():
    # nominal 95% coverage: out of 100 independent estimates of a known
    # value, between 90 and 99 intervals must cover it
    truth = rate_exact_quadrature(_RAYLEIGH, 2.0)
    hits = 0
    for k in range(100):
        est, hw = simulate_rate(_RAYLEIGH, 2.0, McConfig(samples=10_000, seed=k))
        hits += abs(est - truth) <= hw
    assert 90 <= hits <= 99, hits


def test_vanishing_snr_gives_vanishing_rate():
    est, _ = simulate_rate(_RAYLEIGH, 1e-12, McConfig(samples=10_000, seed=1))
    assert 0.0 <= est < 1e-9


def test_rate_rejects_bad_snr():
    with pytest.raises(ValueError):
        simulate_rate(_RAYLEIGH, 0.0, McConfig(samples=10_000, seed=0))
    with pytest.raises(ValueError):
        simulate_rate(_RAYLEIGH, [1.0, -2.0, 3.0], McConfig(samples=10_000, seed=0))
    with pytest.raises(ValueError):
        simulate_ergodic_capacity(_RAYLEIGH, [0.0, 1.0], McConfig(samples=10_000, seed=0))
    for bad in (math.inf, math.nan, [1.0, math.inf]):
        with pytest.raises(ValueError):
            simulate_rate(_RAYLEIGH, bad, McConfig(samples=10_000, seed=0))


def test_ergodic_estimate():
    link = MisoLink(n_t=2, delay_a=1.0, branch=AlphaMuParams(alpha=4.0, mu=2.0))
    est = simulate_ergodic_capacity(link, 10.0, McConfig(samples=400_000, seed=11))
    np.testing.assert_allclose(est, ergodic_capacity_quadrature(link, 10.0), rtol=5e-3)


def test_ergodic_hardens_to_awgn():
    # mu = 1e4 concentrates the fading to a point mass at the mean, so the
    # ergodic capacity collapses onto log2(1 + rho)
    hard = MisoLink(n_t=1, delay_a=1.0, branch=AlphaMuParams(alpha=2.0, mu=1e4))
    est = simulate_ergodic_capacity(hard, 10.0, McConfig(samples=200_000, seed=5))
    np.testing.assert_allclose(est, math.log2(11.0), atol=1e-2)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(samples=10)
    for seed in (-1, 1.5, None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            McConfig(seed=seed)
    assert McConfig(seed=np.int64(3)).seed == 3


def test_config_refuses_a_non_integer_sample_count_by_name():
    # a float count used to fail only later, inside numpy, as a bare TypeError
    for samples in (1e5, 2500.5, "10000", None):
        with pytest.raises(ValueError, match="samples must be an integer"):
            McConfig(samples=samples)
    assert McConfig(samples=np.int64(5000)).samples == 5000
