"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured worst case so the margin is visible in the report.

Criteria, tolerances and grids are pinned; weakening any of them is not an
option.  Criterion 5 distinguishes the conservative validity region (full
numeric tolerances) from the slow-convergence strip near the validity
boundary, where the asymptote is correct but approaches only like a small
power of the SNR; there the gate asserts the gap is actually shrinking and
reports every point.
"""

import math
import time
import warnings

import numpy as np
from scipy import integrate, stats

from effrate.alphamu import AlphaMuParams, moment, pdf, sample
from effrate.montecarlo import McConfig, simulate_rate
from effrate.rates import (
    MisoLink,
    high_snr_validity,
    parametric_eb_n0,
    rate_exact_foxh,
    rate_exact_quadrature,
    rate_high_snr,
    rate_nakagami,
    wideband_metrics,
)
from effrate.special import FoxHSpec, fox_h, tricomi_u

_ALPHAS = (0.8, 2.0, 4.0)
_MUS = (1.0, 2.0)
_NTS = (1, 2, 4)
_AS = (0.5, 1.0, 2.0)
_RHOS = (0.1, 1.0, 10.0, 100.0)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _report(num, label, detail):
    print("criterion %d (%s): PASS  %s" % (num, label, detail))


def test_criterion_1_exact_route_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for alpha in _ALPHAS:
        for mu in _MUS:
            for n_t in _NTS:
                for a in _AS:
                    link = MisoLink(
                        n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=alpha, mu=mu)
                    )
                    for rho in _RHOS:
                        rq = rate_exact_quadrature(link, rho)
                        rf = rate_exact_foxh(link, rho)
                        worst = max(worst, _rel(rq, rf))
                        assert _rel(rq, rf) <= 1e-6, (alpha, mu, n_t, a, rho)
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, elapsed
    _report(
        1,
        "route equivalence",
        "worst quadrature vs Fox H rel %.2e over 216 points, %.1f s" % (worst, elapsed),
    )


def test_criterion_2_nakagami_reduction():
    worst = 0.0
    for m in (0.5, 1.0, 2.0, 3.5):
        for n_t in (1, 2):
            for a in (0.5, 1.0):
                link = MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(2.0, m))
                for rho in (1.0, 10.0):
                    rf = rate_exact_foxh(link, rho)
                    rn = rate_nakagami(link, rho)
                    worst = max(worst, _rel(rf, rn))
                    assert _rel(rf, rn) <= 1e-8, (m, n_t, a, rho)
    _report(2, "Nakagami closed form", "worst rel %.2e over 32 points" % worst)


def test_criterion_3_gamma_closure():
    worst = 0.0
    for mu in (0.5, 1.0, 2.5):
        for n_t in (2, 4, 8):
            fit_res = __import__("effrate.sumfit", fromlist=["fit_sum"]).fit_sum(
                AlphaMuParams(alpha=2.0, mu=mu), n_t
            )
            da = abs(fit_res.fitted.alpha - 2.0)
            dm = abs(fit_res.fitted.mu - n_t * mu) / (n_t * mu)
            worst = max(worst, da, dm)
            assert da <= 1e-6 and dm <= 1e-6, (mu, n_t)
    _report(3, "Gamma closure of the fit", "worst deviation %.2e over 9 fits" % worst)


def test_criterion_4_simulation_agreement():
    t0 = time.monotonic()
    xs = np.linspace(0.0, 20.0, 11)
    rhos = 10.0 ** (xs / 10.0)
    families = [
        ("alpha", [(a, AlphaMuParams(alpha=a, mu=2.0)) for a in (0.8, 2.0, 4.0, 8.0)]),
        ("mu", [(m, AlphaMuParams(alpha=4.0, mu=m)) for m in (1.0, 2.0, 4.0)]),
    ]
    worst = 0.0
    seed = 0
    for name, branches in families:
        prev = None
        for value, branch in branches:
            link = MisoLink(n_t=2, delay_a=0.5, branch=branch)
            exact = np.array([rate_exact_foxh(link, r) for r in rhos])
            for i, rho in enumerate(rhos):
                est, hw = simulate_rate(
                    link, rho, McConfig(samples=1_000_000, seed=seed)
                )
                seed += 1
                err = abs(est - exact[i])
                ok = err <= 0.02 * exact[i] or err <= hw
                worst = max(worst, err / exact[i])
                assert ok, (name, value, xs[i], est, exact[i], hw)
            if prev is not None:
                assert np.all(exact > prev), (name, value)
            prev = exact
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0, elapsed
    _report(
        4,
        "simulation vs analytic",
        "worst rel dev %.3f%% over 77 points at 1e6 samples, ordered families, %.1f s"
        % (100.0 * worst, elapsed),
    )


def test_criterion_5_high_snr_asymptote():
    f = 10.0 ** 0.05
    denom = 2.0 * math.log2(f)
    conservative_pts = strip_pts = 0
    worst_slope = 0.0
    worst_gap = 0.0
    strip_report = []
    for alpha in _ALPHAS:
        for mu in _MUS:
            for n_t in _NTS:
                for a in _AS:
                    if not a < alpha * mu / 2.0:
                        continue
                    link = MisoLink(
                        n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=alpha, mu=mu)
                    )
                    required, conservative = high_snr_validity(link)
                    assert required
                    slope = (
                        rate_exact_quadrature(link, 1e5 * f)
                        - rate_exact_quadrature(link, 1e5 / f)
                    ) / denom
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        gap5 = abs(rate_exact_quadrature(link, 1e5) - rate_high_snr(link, 1e5))
                        gap6 = abs(rate_exact_quadrature(link, 1e6) - rate_high_snr(link, 1e6))
                    if conservative:
                        conservative_pts += 1
                        worst_slope = max(worst_slope, abs(slope - 1.0))
                        worst_gap = max(worst_gap, gap6)
                        assert abs(slope - 1.0) <= 1e-2, (alpha, mu, n_t, a, slope)
                        assert gap6 <= 0.01, (alpha, mu, n_t, a, gap6)
                    else:
                        # inside the slow-convergence strip the asymptote is
                        # still the limit; require the gap to be shrinking
                        strip_pts += 1
                        strip_report.append(
                            "    strip point alpha=%g mu=%g n_t=%d A=%g: slope %.4f, "
                            "gap 1e5 %.3e -> 1e6 %.3e" % (alpha, mu, n_t, a, slope, gap5, gap6)
                        )
                        assert gap6 < gap5, (alpha, mu, n_t, a, gap5, gap6)
    assert conservative_pts > 0 and strip_pts > 0
    _report(
        5,
        "high-SNR asymptote",
        "%d conservative points: worst |slope-1| %.2e, worst gap %.2e bits; "
        "%d strip points converging:\n%s"
        % (conservative_pts, worst_slope, worst_gap, strip_pts, "\n".join(strip_report)),
    )


def test_criterion_6_low_snr_wideband():
    ln2 = math.log(2.0)
    worst_min = worst_int = worst_s0 = 0.0
    for a in (0.5, 1.0, 2.0):
        link = MisoLink(n_t=2, delay_a=a, branch=AlphaMuParams(alpha=2.0, mu=2.0))
        eb_min, _ = wideband_metrics(link)
        worst_min = max(worst_min, abs(eb_min / ln2 - 1.0))
        assert abs(eb_min / ln2 - 1.0) <= 1e-12
        eb, rate = parametric_eb_n0(link, 1e-4)
        off_db = abs(10.0 * math.log10(eb) - 10.0 * math.log10(ln2))
        worst_int = max(worst_int, off_db)
        assert off_db <= 0.05, (a, off_db)
    for m in (0.5, 1.0, 2.0, 3.5):
        for n_t in (1, 2, 4):
            for a in (0.5, 1.0, 2.0):
                link = MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(2.0, m))
                _, s0 = wideband_metrics(link)
                closed = 2.0 * m * n_t / (a + 1.0 + m * n_t)
                worst_s0 = max(worst_s0, _rel(s0, closed))
                assert _rel(s0, closed) <= 1e-10, (m, n_t, a)
    _, s0_hard = wideband_metrics(
        MisoLink(n_t=1, delay_a=1.0, branch=AlphaMuParams(2.0, 1e4))
    )
    assert abs(s0_hard - 2.0) <= 1e-3
    _report(
        6,
        "low-SNR wideband",
        "eb_min rel dev %.1e, intercept offset %.4f dB, slope closed-form rel %.1e, "
        "hardened slope %.6f" % (worst_min, worst_int, worst_s0, s0_hard),
    )


def test_criterion_7_special_function_identities():
    worst_h = 0.0
    spec_exp = FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),))
    for x in (0.1, 1.0, 5.0, 20.0):
        worst_h = max(worst_h, _rel(fox_h(spec_exp, x), math.exp(-x)))
    for w in (-0.5, -1.5, -3.0):
        spec_pow = FoxHSpec(
            m=1, n=1, upper_pairs=((w + 1.0, 1.0),), lower_pairs=((0.0, 1.0),)
        )
        for x in (0.1, 1.0, 10.0):
            worst_h = max(
                worst_h, _rel(fox_h(spec_pow, x) / math.gamma(-w), (1.0 + x) ** w)
            )
    assert worst_h <= 1e-8
    worst_u = 0.0
    for a in (0.5, 1.0, 1.5, 3.0):
        for z in (0.2, 1.0, 2.5, 10.0):
            worst_u = max(worst_u, _rel(tricomi_u(a, a + 1.0, z), z ** (-a)))
    # independent quadrature cross-check: the two sides of the Kummer
    # transformation integrate genuinely different kernels
    for a in (0.7, 1.8, 3.3):
        for b in (-0.5, 0.4, 1.2):
            for z in (0.3, 2.0, 9.0):
                lhs = tricomi_u(a, b, z)
                rhs = z ** (1.0 - b) * tricomi_u(a - b + 1.0, 2.0 - b, z)
                worst_u = max(worst_u, _rel(lhs, rhs))
    # frozen 40-digit anchors
    worst_u = max(worst_u, _rel(tricomi_u(1.0, 1.0, 1.0), 0.5963473623231941))
    worst_u = max(worst_u, _rel(tricomi_u(2.5, 1.0, 0.7), 0.14591203911934137))
    assert worst_u <= 1e-10
    _report(
        7,
        "special-function identities",
        "H identities worst rel %.2e, U identities worst rel %.2e" % (worst_h, worst_u),
    )


def test_criterion_8_property_suites():
    # density normalization and moments against an independent integral
    def integral(p, weight):
        val, _ = integrate.quad(
            lambda u: weight(math.exp(u)) * pdf(p, math.exp(u)) * math.exp(u),
            -200.0,
            80.0,
            limit=400,
            epsabs=1e-14,
            epsrel=1e-12,
        )
        return val

    grid = [
        AlphaMuParams(alpha=0.8, mu=0.6),
        AlphaMuParams(alpha=2.0, mu=1.0),
        AlphaMuParams(alpha=4.0, mu=2.0, mean_snr=3.0),
        AlphaMuParams(alpha=8.0, mu=1.2),
    ]
    worst_norm = worst_mom = 0.0
    for p in grid:
        worst_norm = max(worst_norm, abs(integral(p, lambda g: 1.0) - 1.0))
        for n in (1, 2, 3, 4):
            worst_mom = max(
                worst_mom, _rel(moment(p, n), integral(p, lambda g, n=n: g ** n))
            )
    assert worst_norm <= 1e-8 and worst_mom <= 1e-8

    # sampler distribution at the 1% KS level, 1e5 draws per point
    rng = np.random.default_rng(2)
    worst_p = 1.0
    for p in grid:
        w = (sample(p, rng, size=100_000) / p.beta) ** (p.alpha / 2.0)
        res = stats.kstest(w, "gamma", args=(p.mu,))
        worst_p = min(worst_p, res.pvalue)
        assert res.pvalue > 0.01, (p, res)

    # rate monotone in SNR, antitone in the delay exponent
    link = MisoLink(n_t=2, delay_a=0.5, branch=AlphaMuParams(alpha=4.0, mu=2.0))
    vals = [rate_exact_quadrature(link, r) for r in np.logspace(-2, 3, 11)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    by_a = [
        rate_exact_quadrature(
            MisoLink(n_t=2, delay_a=a, branch=AlphaMuParams(alpha=4.0, mu=2.0)), 10.0
        )
        for a in (0.25, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b < a for a, b in zip(by_a, by_a[1:]))

    # bit determinism
    cfg = McConfig(samples=100_000, seed=7)
    assert simulate_rate(link, 5.0, cfg) == simulate_rate(link, 5.0, cfg)

    # confidence interval calibration at nominal 95%
    truth = rate_exact_quadrature(link, 5.0)
    hits = sum(
        abs(simulate_rate(link, 5.0, McConfig(samples=10_000, seed=k))[0] - truth)
        <= simulate_rate(link, 5.0, McConfig(samples=10_000, seed=k))[1]
        for k in range(100)
    )
    assert 90 <= hits <= 99, hits
    _report(
        8,
        "property suites",
        "normalization %.1e, moments %.1e, min KS p %.3f, CI hits %d/100"
        % (worst_norm, worst_mom, worst_p, hits),
    )
