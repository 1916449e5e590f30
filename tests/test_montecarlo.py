"""Monte Carlo estimator: determinism, convergence, and interval honesty."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import numpy_dispatch_note

from effrate import montecarlo
from effrate.alphamu import AlphaMuParams
from effrate.montecarlo import (McConfig, _stream_plan, simulate_ergodic_capacity, simulate_rate,
                                simulate_rates)
from effrate.rates import MisoLink, ergodic_capacity_quadrature, rate_exact_quadrature
from effrate.splitmix import standard_gamma, stream_keys

_RAYLEIGH = MisoLink(n_t=1, delay_a=1.0, branch=AlphaMuParams(alpha=2.0, mu=1.0))


def _snr_means(branch, key, count, n_t):
    """The count branch means S / n_t = (beta / n_t) sum_k W_k^(2/alpha)
    that stream `key` gives, W its first (count, n_t) Gamma(mu) draws, each
    power taken as exp((2/alpha) log W) and the powers summed by row."""
    w = standard_gamma(key, branch.mu, np.empty((count, n_t)), np.empty((3, 1000)))
    return np.exp(2.0 / branch.alpha * np.log(w)).sum(axis=1) * (branch.beta / n_t)


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
    "from effrate import montecarlo\n"
    "from effrate.montecarlo import McConfig, simulate_rates\n"
    "from effrate.verify import FIGURE_LAYOUTS\n"
    "for cap in (montecarlo._CAP, 16_384):\n"
    "    montecarlo._CAP = cap\n"
    "    out = simulate_rates(FIGURE_LAYOUTS[1][2], (1.0, 10.0, 100.0),\n"
    "                         McConfig(samples=100_000, seed=0))\n"
    "    print(' '.join(float(x).hex() for pair in out for xs in pair for x in xs))\n"
)


def test_estimates_do_not_depend_on_the_blas_thread_count():
    # the reductions stay in numpy and out of BLAS, whose threaded dot
    # product sums in another order.  A fresh interpreter per thread count.
    # OpenBLAS splits a dot product over two threads only above 10,000
    # terms, so streams capped at 8192 draws would let a np.dot reduction
    # pass; the script also runs with the cap raised to 16,384, where 1e5
    # samples make 8 streams of 12,500 terms
    runs = [subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, threads],
                           capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                                "PYTHONPATH": os.pathsep.join(sys.path)})
            for threads in ("1", "2")]
    assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
    assert [len(line.split()) for line in runs[0].stdout.splitlines()] == [24, 24]
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


def test_stream_plan_caps_every_stream_at_8192_draws():
    # 8 streams up to 8 x 8192 samples, then ceil(samples / 8192); the
    # counts differ by at most one, the longer first, and the keys are the
    # first outputs of the seed, so a longer plan extends a shorter one
    keys = stream_keys(3, 200)
    for samples, streams in ((10_007, 8), (65_535, 8), (65_536, 8), (65_537, 9),
                             (100_000, 13), (1_000_000, 123)):
        plan = _stream_plan(McConfig(samples=samples, seed=3))
        counts = [count for _, count in plan]
        assert len(plan) == streams, samples
        assert sum(counts) == samples and max(counts) <= 8192, samples
        assert counts == sorted(counts, reverse=True) and counts[0] - counts[-1] <= 1, samples
        assert [key for key, _ in plan] == keys[:streams], samples


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
    # the estimator, written out: each stream's row sums, then
    # log2(1 + rho S / n_t) summed per stream and in stream order
    cfg = McConfig(samples=10_007, seed=13)
    rhos = [1e-3, 1.0, 1e3]
    for n_t, alpha, mu in ((1, 1.5, 0.8), (2, 4.0, 2.0)):
        link = MisoLink(n_t=n_t, delay_a=0.7, branch=AlphaMuParams(alpha=alpha, mu=mu))
        totals = [0.0] * len(rhos)
        for key, count in _stream_plan(cfg):
            s_avg = _snr_means(link.branch, key, count, n_t)
            for j, rho in enumerate(rhos):
                totals[j] += float((np.log1p(rho * s_avg) / math.log(2.0)).sum())
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
        for key, count in _stream_plan(cfg):
            s_avg = _snr_means(link.branch, key, count, n_t)
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
    # into one (longest stream, n_t) unit Gamma block and reduces into three
    # vectors of the longest stream, made once per call.  No stream draws
    # more than 8192, so 1e5 and 1e6 samples stay under one bound; 100 KB
    # covers the rest
    entries = 8192
    working_set = 8 * (2 * entries + 3 * entries)  # bytes of the n_t = 2 block and three vectors
    rhos = [1.0, 10.0, 100.0]
    for samples in (100_000, 1_000_000):
        cfg = McConfig(samples=samples, seed=0)
        simulate_rates(_FIG1_LINKS, rhos, cfg)
        tracemalloc.start()
        try:
            simulate_rates(_FIG1_LINKS, rhos, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < working_set + 100_000, (samples, peak, working_set)


# float.hex of Monte Carlo results at seed 7, frozen when integer shapes up
# to 4 began to draw as -log of a product of uniforms and the branch powers
# as exp((2/alpha) log W): for each sample count, the rows of
# simulate_rates(_FROZEN_LINKS, [0.5, 20.0]) (two rates, two half-widths),
# then simulate_rate(link, 3.0) on _FROZEN_LINKS[::4] (rate, half-width),
# then simulate_ergodic_capacity(link, [0.5, 20.0]) on _FROZEN_LINKS[1::4].
# Their last bits are those of numpy's log, exp and log1p loops (see
# conftest.numpy_dispatch_note).
_FROZEN_LINKS = [MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=alpha, mu=mu))
                 for mu in (0.5, 2.0, 3.7) for n_t in (1, 3)
                 for alpha, a in ((1.3, 0.7), (4.0, 2.0))]
_FROZEN = {
    1003: (
        "0x1.480847a88a1efp-2 0x1.9df535b90c567p+0 0x1.c6e1fb08477dep-6 0x1.9281b086cfbddp-4",
        "0x1.d7037e9445e53p-2 0x1.3f8a46e591c6ep+1 0x1.39c57d1e6aa95p-6 0x1.11c183a6f4a47p-3",
        "0x1.d57139255f5f6p-2 0x1.76b5001b4512ap+1 0x1.a00cb74a3ea17p-6 0x1.b1a0ab6bbc6d3p-4",
        "0x1.17bc89ec943e1p-1 0x1.f10797097c9eap+1 0x1.97e836cefda86p-7 0x1.7b0bdde012bfbp-4",
        "0x1.e2c0027355d15p-2 0x1.92d5815f02c2dp+1 0x1.7cd3d9885b0ebp-6 0x1.a754dcf087089p-4",
        "0x1.1ac3ed3735808p-1 0x1.01e1f2db72da9p+2 0x1.648a2eb5cb241p-7 0x1.01580d8e3c06ep-4",
        "0x1.14ba54a1a21ffp-1 0x1.fc319325ab0f8p+1 0x1.0bab72f702012p-6 0x1.d243ef850851ep-5",
        "0x1.270f0fa42fcaap-1 0x1.13afceb6acbd3p+2 0x1.9290061d8ee6ap-8 0x1.43c4f6a529691p-6",
        "0x1.068ff2f985f3cp-1 0x1.d720a220b80cap+1 0x1.49e0eea459aafp-6 0x1.3415bedf0fae4p-4",
        "0x1.228131afa1319p-1 0x1.0f1fad1cb747dp+2 0x1.0268cddda2d71p-7 0x1.c36cb4e90ef9ap-6",
        "0x1.1eaf97b198171p-1 0x1.09c57f891bca1p+2 0x1.ad55aed65867dp-7 0x1.5dc20023359a8p-5",
        "0x1.29119013b5890p-1 0x1.16223c8ee54c4p+2 0x1.2f9209eae09bep-8 0x1.d6342d8ef8efcp-7",
        "0x1.a212091310fb6p-1 0x1.cf0fae6ec89e5p-5",
        "0x1.6cc1866e211f5p+0 0x1.c548edc368dd3p-5",
        "0x1.a0d9717885310p+0 0x1.7db7faf81adcep-5",
        "0x1.117ea4f571d35p-1 0x1.f24460470de56p+1",
        "0x1.257b5d166eb09p-1 0x1.12b2ba1d944d8p+2",
        "0x1.2853fccde08f6p-1 0x1.15e6665678fcfp+2",
    ),
    8000: (
        "0x1.59722d02904b6p-2 0x1.a894a898619f4p+0 0x1.4dbaed5b43cb9p-7 0x1.21a453d27012cp-5",
        "0x1.e1361ac086d54p-2 0x1.3ff6e7b27eac2p+1 0x1.c244f736ea18bp-8 0x1.a30d6fac10c1fp-5",
        "0x1.c8512ca41145fp-2 0x1.6fd8739af6a6ap+1 0x1.2112d3eba7158p-7 0x1.3375bb2a37333p-5",
        "0x1.157537acfa982p-1 0x1.f0edadd7167b3p+1 0x1.21edf72f2c109p-8 0x1.c8917be7a1ed6p-6",
        "0x1.e08833b945252p-2 0x1.940798ad325d8p+1 0x1.0f9c8206df90fp-7 0x1.21f5d69695700p-5",
        "0x1.1ab48ca94c68ep-1 0x1.02ede75e79f4ap+2 0x1.f255966bfcfe4p-9 0x1.513b194085afbp-6",
        "0x1.13226c91d50adp-1 0x1.f8537bd0fea92p+1 0x1.81faf4eafbbc9p-8 0x1.5c653eee790dcp-6",
        "0x1.26488b8af9925p-1 0x1.131945a3b25eep+2 0x1.2455bf7198dedp-9 0x1.e8e88177ebf01p-8",
        "0x1.09a218ec8cdcap-1 0x1.da2641183a6c2p+1 0x1.c389a90b11184p-8 0x1.c2bb709ffc8f6p-6",
        "0x1.23e8527b75cb1p-1 0x1.0f6e8465a3663p+2 0x1.6b88f564dc39ap-9 0x1.59498bd38731ap-7",
        "0x1.1e26d60b15673p-1 0x1.09dd141424c90p+2 0x1.2ad92db3118f1p-8 0x1.ea5daa025d6a8p-7",
        "0x1.28e2071b9a9d8p-1 0x1.1621662b32b28p+2 0x1.a73f97ce74120p-10 0x1.4762bab13704bp-8",
        "0x1.b0f4a46a5d964p-1 0x1.51af9e9698017p-6",
        "0x1.6b1c579685101p+0 0x1.3edd1f0f3ef34p-6",
        "0x1.a6395a1c51c00p+0 0x1.0f332d1f8cca0p-6",
        "0x1.179318f8edf64p-1 0x1.f784b25e219e8p+1",
        "0x1.255044f53826cp-1 0x1.12be2623c8e43p+2",
        "0x1.298343f1e3e4dp-1 0x1.1661e1b15f0a3p+2",
    ),
}


def test_estimates_match_frozen_hex_values():
    # mu 0.5, 2 and 3.7 (Cheng's rejection below and above 1, and the
    # product form), n_t 1 and 3, two branches per (mu, n_t) group; at 1003
    # samples the 8 streams draw 126 or 125 each, so every buffer is viewed
    # at two lengths
    rhos = [0.5, 20.0]
    dispatch = numpy_dispatch_note()

    def hexes(*values):
        return " ".join(v.hex() for v in np.hstack(values).tolist())

    for samples, frozen in _FROZEN.items():
        cfg = McConfig(samples=samples, seed=7)
        got = [hexes(*row) for row in simulate_rates(_FROZEN_LINKS, rhos, cfg)]
        got += [hexes(*simulate_rate(link, 3.0, cfg)) for link in _FROZEN_LINKS[::4]]
        got += [hexes(simulate_ergodic_capacity(link, rhos, cfg))
                for link in _FROZEN_LINKS[1::4]]
        assert got == list(frozen), (samples, dispatch)


def test_halfwidth_matches_a_two_pass_variance_where_terms_are_near_1():
    # at -80 and -120 dB every term (1 + rho S)^-1 is within 1e-7 of 1, so
    # E{t^2} - E{t}^2 cancels (a half-width of 0.0, or 1e4 times too wide);
    # the same stream draws, reduced in two passes, give the reference
    cfg = McConfig(samples=100_000, seed=0)
    for db in (-80.0, -120.0):
        rho = 10.0 ** (db / 10.0)
        snr = np.concatenate([_snr_means(_RAYLEIGH.branch, key, count, 1)
                              for key, count in _stream_plan(cfg)])
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


def test_draws_that_underflow_to_zero_raise_no_warning():
    # at mu = 0.01, U^(1/mu) underflows to 0 in about one draw in 1,700:
    # its log W is -inf, taken silently, and its power exp(-inf) is 0, as
    # W^(2/alpha) is.  The suite turns every warning into an error
    link = MisoLink(n_t=2, delay_a=1.0, branch=AlphaMuParams(alpha=1.5, mu=0.01))
    cfg = McConfig(samples=10_000, seed=0)
    draws = [standard_gamma(key, 0.01, np.empty(2 * count), np.empty((3, count)))
             for key, count in _stream_plan(cfg)]
    assert any(np.any(w == 0.0) for w in draws)
    rhos = [1.0, 100.0]
    est, hw = simulate_rate(link, rhos, cfg)
    assert np.all(np.abs(est - rate_exact_quadrature(link, rhos)) <= 2.0 * hw), (est, hw)


def test_draws_without_spread_are_refused():
    # a zero sample variance would print a half-width of 0.0, an interval
    # that claims an exact answer.  At A = 50 and 60 dB the drawn terms are so
    # small that their squared deviations underflow (12.99 +- 0.0 against an
    # exact 0.981); at rho = 1e-30 every term rounds to 1 (-0.0 +- 0.0).
    # An interval no wider than the rounding of the sum is refused too: at
    # rho = 1e-16 the mean rounds to 1 (-0.0 +- 4.3e-18 against 1.4427e-16),
    # and at 1e-14 the estimate is 2.3 % off (1.4095e-14 +- 2.8e-16)
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
    assert abs(est - 1.43209e-12) < 1e-17 and abs(hw - 2.777e-14) < 1e-17, (est, hw)
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
