"""Monte Carlo estimator: determinism, convergence, and interval honesty."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from effrate import montecarlo
from effrate.alphamu import AlphaMuParams
from effrate.alphamu import sample
from effrate.montecarlo import (McConfig, _stream_plan, simulate_ergodic_capacity, simulate_rate,
                                simulate_rates)
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


_THREADS_SCRIPT = (
    "import sys\n"
    "if sys.argv[1] != '1':\n"
    "    import numpy  # noqa: F401  loaded first, OpenBLAS starts its thread pool\n"
    "from effrate.montecarlo import McConfig, simulate_rates\n"
    "from effrate.verify import FIGURE_LAYOUTS\n"
    "out = simulate_rates(FIGURE_LAYOUTS[1][2], (1.0, 10.0, 100.0),\n"
    "                     McConfig(samples=100_000, seed=0))\n"
    "print(' '.join(float(x).hex() for pair in out for xs in pair for x in xs))\n"
)


def test_estimates_do_not_depend_on_the_blas_thread_count():
    # the reductions stay in numpy and out of BLAS, whose threaded dot
    # product sums in another order.  A fresh interpreter per thread count;
    # 1e5 samples make streams of 12,500 terms, long enough for OpenBLAS to
    # split a dot product over two threads (at 1e4 a np.dot reduction passes)
    runs = [subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, threads],
                           capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                                "PYTHONPATH": os.pathsep.join(sys.path)})
            for threads in ("1", "2")]
    assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
    assert len(runs[0].stdout.split()) == 24
    assert runs[0].stdout == runs[1].stdout


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
    # the estimator adds the branch columns one at a time; below 8 branches
    # (every Monte Carlo link of the figures, verify and the acceptance
    # tests) that gives the row sums bit for bit, wider blocks may round
    # differently, by a few ulp.  1003 draws split unevenly over the streams
    cfg = McConfig(samples=1003, seed=5)
    rhos = [0.1, 10.0]
    for n_t in range(1, 21):
        link = MisoLink(n_t=n_t, delay_a=1.0, branch=AlphaMuParams(alpha=1.3, mu=0.7))
        totals = [0.0] * len(rhos)
        for rng, count in _stream_plan(cfg):
            s_avg = sample(link.branch, rng, size=(count, n_t)).sum(axis=1) / n_t
            for j, rho in enumerate(rhos):
                totals[j] += float((np.log1p(rho * s_avg) / math.log(2.0)).sum())
        want = [total / cfg.samples for total in totals]
        got = simulate_ergodic_capacity(link, rhos, cfg).tolist()
        if n_t < 8:
            assert got == want, n_t
        else:
            np.testing.assert_allclose(got, want, rtol=n_t * np.finfo(float).eps)


_FIG1_LINKS = [MisoLink(n_t=2, delay_a=0.5, branch=AlphaMuParams(alpha=alpha, mu=2.0))
               for alpha in (0.8, 2.0, 4.0, 8.0)]


def test_working_set_is_one_unit_block_and_three_vectors():
    # the four figure-1 links share (mu, n_t); every stream of the call draws
    # into one (samples/8, n_t) unit Gamma block and reduces into three
    # vectors of samples/8, made once per call; 100 KB covers the rest
    cfg = McConfig(samples=100_000, seed=0)
    rhos = [1.0, 10.0, 100.0]
    simulate_rates(_FIG1_LINKS, rhos, cfg)
    tracemalloc.start()
    try:
        simulate_rates(_FIG1_LINKS, rhos, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = -(-cfg.samples // 8)
    working_set = 8 * (2 * entries + 3 * entries)  # bytes of the n_t = 2 block and three vectors
    assert peak < working_set + 100_000, (peak, working_set)


# float.hex of Monte Carlo results at seed 7, frozen before the estimator
# shared one working set across streams: for each sample count, the rows
# of simulate_rates(_FROZEN_LINKS, [0.5, 20.0]) (two rates, two
# half-widths), then simulate_rate(link, 3.0) on _FROZEN_LINKS[::4] (rate,
# half-width), then simulate_ergodic_capacity(link, [0.5, 20.0]) on
# _FROZEN_LINKS[1::4]
_FROZEN_LINKS = [MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=alpha, mu=mu))
                 for mu in (0.5, 2.0, 3.7) for n_t in (1, 3)
                 for alpha, a in ((1.3, 0.7), (4.0, 2.0))]
_FROZEN = {
    1003: (
        "0x1.49ecd25afb695p-2 0x1.a8a33f8f0446fp+0 0x1.bbee2cc9f9d35p-6 0x1.983b562937fbap-4",
        "0x1.dd31c4c5a3b02p-2 0x1.3de2a095e9b40p+1 0x1.3a3454b7f4703p-6 0x1.1ce6c9aed63bdp-3",
        "0x1.d3019c1bfde95p-2 0x1.7198cb983cd50p+1 0x1.9cd9500919eefp-6 0x1.c46eefe0ca891p-4",
        "0x1.171f4a13ff2c4p-1 0x1.ea79589b65215p+1 0x1.a71b565ed1b13p-7 0x1.7f736c6d9e99bp-4",
        "0x1.df562322f5424p-2 0x1.9720ef2172fc3p+1 0x1.7f03bd635eb98p-6 0x1.8fee42581d31ep-4",
        "0x1.1b60cd7557dbbp-1 0x1.04dbf78407a01p+2 0x1.58cbb10442dacp-7 0x1.921e4fb5f33d4p-5",
        "0x1.10c2802ef94cap-1 0x1.f46d4ec9f248ap+1 0x1.1a7d414fa15eap-6 0x1.f4a23155772d5p-5",
        "0x1.24a953758a708p-1 0x1.1266b4eb7d57bp+2 0x1.a1bd8df838c02p-8 0x1.5c851246e5bd2p-6",
        "0x1.0550b47fd5784p-1 0x1.d8af441eda93ap+1 0x1.3d518020b1d12p-6 0x1.3241a2d3d8b14p-4",
        "0x1.229ae621c101ep-1 0x1.0f59176a1898ap+2 0x1.f8867b84c0f35p-8 0x1.c8b257519d478p-6",
        "0x1.1aec0df1b4a12p-1 0x1.07beb42dbb37fp+2 0x1.b5bda847e00bap-7 0x1.653555b2a093fp-5",
        "0x1.27629a0a102aep-1 0x1.157ccd72d9aa9p+2 0x1.31c32b7137ba0p-8 0x1.d65392492d1ecp-7",
        "0x1.ab84335b67548p-1 0x1.cfa2ede31e66ap-5",
        "0x1.6bcecdf522c7dp+0 0x1.bc486afef28bep-5",
        "0x1.a1f8c90e347dep+0 0x1.76f340314f8dcp-5",
        "0x1.13cb9b05388d2p-1 0x1.f4e32c25b231ap+1",
        "0x1.25b1fab64f002p-1 0x1.1313677df924ap+2",
        "0x1.2817f59dd72d6p-1 0x1.15eb7fcf15eb0p+2",
    ),
    8000: (
        "0x1.55bf585803bd5p-2 0x1.a4dc3142ed63cp+0 0x1.4adb8a3d8a13cp-7 0x1.201413fdfa8b6p-5",
        "0x1.ddd81db1ba251p-2 0x1.3bdcb6a939224p+1 0x1.c1e7412462bd8p-8 0x1.9c3406aa405d3p-5",
        "0x1.c8b6a99406796p-2 0x1.6c3fbc46fd5d4p+1 0x1.23636b83f6792p-7 0x1.39198268cf3ccp-5",
        "0x1.14e287d78f325p-1 0x1.eae7c5ade8a0dp+1 0x1.27bf4b6e3ab59p-8 0x1.323b37bc5e0eep-5",
        "0x1.e23d65fa4dbc5p-2 0x1.953bb825047a5p+1 0x1.10ea7d10ce7d7p-7 0x1.220739f9a774fp-5",
        "0x1.1b31632c78d80p-1 0x1.0339451f44760p+2 0x1.f22142771f140p-9 0x1.4d2058be50503p-6",
        "0x1.126f964cd7d88p-1 0x1.f8105657dfd58p+1 0x1.81d060d339b7ep-8 0x1.5b1364416e202p-6",
        "0x1.25daccf695a9ap-1 0x1.12f7f732c14a7p+2 0x1.22d6df57a9633p-9 0x1.ec618a39a0647p-8",
        "0x1.071ca2eaf0e04p-1 0x1.d7223181e118cp+1 0x1.c887deadfc61ep-8 0x1.c3367d437b83cp-6",
        "0x1.22b88d6198098p-1 0x1.0ede5b059114ep+2 0x1.6e3da446f2442p-9 0x1.5f497a20f77a0p-7",
        "0x1.1cfd67c9992cep-1 0x1.0941a71db9400p+2 0x1.2d09a02bff39ap-8 0x1.e9bc465ca169cp-7",
        "0x1.28714922d55dfp-1 0x1.15f53b263b284p+2 0x1.a8b065893d4c6p-10 0x1.470fdabdb00c2p-8",
        "0x1.ad1218428ec83p-1 0x1.5040e1ae8d2a7p-6",
        "0x1.6c44699b0eb94p+0 0x1.3ea41ee519bb7p-6",
        "0x1.a26497a63a6b5p+0 0x1.0f437eb8330e4p-6",
        "0x1.15c8a981d3697p-1 0x1.f57d7386d7e56p+1",
        "0x1.25d2709f3b4f5p-1 0x1.12f0b0065072ap+2",
        "0x1.2873534a19fe1p-1 0x1.15f2cb4967c78p+2",
    ),
}


def test_estimates_match_frozen_hex_values():
    # mu 0.5, 2 and 3.7, n_t 1 and 3, two branches per (mu, n_t) group; at
    # 1003 samples the 8 streams draw 126 or 125 each, so every buffer is
    # viewed at two lengths
    rhos = [0.5, 20.0]

    def hexes(*values):
        return " ".join(v.hex() for v in np.hstack(values).tolist())

    for samples, frozen in _FROZEN.items():
        cfg = McConfig(samples=samples, seed=7)
        got = [hexes(*row) for row in simulate_rates(_FROZEN_LINKS, rhos, cfg)]
        got += [hexes(*simulate_rate(link, 3.0, cfg)) for link in _FROZEN_LINKS[::4]]
        got += [hexes(simulate_ergodic_capacity(link, rhos, cfg))
                for link in _FROZEN_LINKS[1::4]]
        assert got == list(frozen), samples


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
    with pytest.raises(ArithmeticError, match=r"A = 50\.0, rho = 10000000000\.0") as exc:
        simulate_rate(link, [1.0, 1e10], McConfig(samples=10_000, seed=0))
    assert "(1 + rho S / n_t)^-A underflow at" in str(exc.value)


def test_draws_without_spread_are_refused():
    # a zero sample variance would print a half-width of 0.0, an interval
    # that claims an exact answer.  At A = 50 and 60 dB the drawn terms are so
    # small that their squared deviations underflow (13.67 +- 0.0 against an
    # exact 0.981); at rho = 1e-30 every term rounds to 1 (-0.0 +- 0.0).
    # An interval no wider than the rounding of the sum is refused too: at
    # rho = 1e-16 the mean rounds to 1 (-0.0 +- 4.3e-18 against 1.4427e-16),
    # and at 1e-14 the estimate is 2.1 % off (1.4736e-14 +- 2.8e-16)
    a50 = MisoLink(n_t=2, delay_a=50.0, branch=AlphaMuParams(alpha=2.0, mu=1.0))
    cfg = McConfig(samples=10_000, seed=0)
    for link, rho, match in ((a50, 1e6, r"A = 50\.0, rho = 1000000\.0"),
                             (_RAYLEIGH, 1e-30, r"A = 1\.0, rho = 1e-30"),
                             (_RAYLEIGH, 1e-16, r"A = 1\.0, rho = 1e-16"),
                             (_RAYLEIGH, 1e-14, r"A = 1\.0, rho = 1e-14")):
        with pytest.raises(ArithmeticError, match=match):
            simulate_rate(link, rho, cfg)
    # at 1e-12 the interval is wider than the rounding and covers 1.4427e-12
    est, hw = simulate_rate(_RAYLEIGH, 1e-12, cfg)
    assert abs(est - 1.44122e-12) < 1e-17 and abs(hw - 2.823e-14) < 1e-17, (est, hw)
    assert abs(est - 1e-12 / math.log(2.0)) <= hw


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
