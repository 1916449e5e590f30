"""Exact rate routes, closed forms, and both asymptotic regimes.

Frozen values were computed independently with 40-digit arithmetic; the
canonical single-antenna Rayleigh point at 0 dB with unit delay exponent is
-log2(e * E1(1)) = 0.7457751737292681.
"""

import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from conftest import numpy_dispatch_note
from scipy import special as sps

from effrate.alphamu import AlphaMuParams, moment
from effrate.montecarlo import McConfig, simulate_ergodic_capacity, simulate_rate, simulate_rates
from effrate.rates import (
    MisoLink,
    channel_power_moments,
    ergodic_capacity_quadrature,
    high_snr_validity,
    parametric_eb_n0,
    rate_exact_foxh,
    rate_exact_quadrature,
    rate_high_snr,
    rate_low_snr,
    rate_nakagami,
    wideband_metrics,
)
from effrate.special import FoxHSpec, TruncationError, contour_integral, fox_h, tricomi_u

_EXP_LINK = MisoLink(n_t=1, delay_a=1.0, branch=AlphaMuParams(alpha=2.0, mu=1.0))


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


# ------------------------------------------------------------- exact routes


def test_rayleigh_point_all_routes():
    ref = 0.7457751737292681
    np.testing.assert_allclose(rate_exact_quadrature(_EXP_LINK, 1.0), ref, rtol=1e-12)
    np.testing.assert_allclose(rate_exact_foxh(_EXP_LINK, 1.0), ref, rtol=1e-10)
    np.testing.assert_allclose(rate_nakagami(_EXP_LINK, 1.0), ref, rtol=1e-12)


def test_routes_agree_on_mixed_grid():
    # broad spot grid; the full acceptance sweep runs the complete one
    for alpha in (0.8, 4.0):
        for mu in (1.0, 2.0):
            for n_t in (1, 4):
                for a in (0.5, 2.0):
                    link = MisoLink(
                        n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=alpha, mu=mu)
                    )
                    for rho in (0.1, 100.0):
                        rq = rate_exact_quadrature(link, rho)
                        rf = rate_exact_foxh(link, rho)
                        assert _rel(rq, rf) < 1e-6, (alpha, mu, n_t, a, rho)


def test_foxh_early_stop_repro():
    # rho = 2.4130e-5 to five digits: here the real part of the integrand
    # vanishes at t = 1, which stopped a panel loop tested on the real part
    # after its first panel, at 0.1279
    link = MisoLink(n_t=1, delay_a=0.5, branch=AlphaMuParams(alpha=2.0, mu=2.0))
    rho = 2.4129581672712884e-05
    rf = rate_exact_foxh(link, rho)
    assert _rel(rf, rate_exact_quadrature(link, rho)) < 1e-6
    assert _rel(rf, rate_nakagami(link, rho)) < 1e-6


def test_foxh_narrow_strips_match_quadrature():
    # A = 0.5 with alpha = 4 or 8 leaves a strip of width 0.25 or 0.125
    # between the pole families; -50 dB to 40 dB spans both contours
    rhos = 10.0 ** (np.linspace(-50.0, 40.0, 19) / 10.0)
    for alpha in (4.0, 8.0):
        for mu in (0.75, 2.0):
            for n_t in (1, 2, 4):
                link = MisoLink(n_t=n_t, delay_a=0.5, branch=AlphaMuParams(alpha=alpha, mu=mu))
                rf = rate_exact_foxh(link, rhos)
                for rho, got in zip(rhos, rf):
                    assert _rel(got, rate_exact_quadrature(link, rho)) < 1e-6, (alpha, mu, n_t, rho)


def test_foxh_large_fitted_mu_matches_quadrature():
    # sixteen antennas fit mu between 15 and 50, where Gamma(mu + s) keeps
    # |chi| large far up the contour
    rhos = (10.0, 100.0, 1e3, 1e4)
    for alpha, mu in ((1.5, 1.0), (2.0, 2.0), (4.0, 3.0), (8.0, 0.75)):
        link = MisoLink(n_t=16, delay_a=1.0, branch=AlphaMuParams(alpha=alpha, mu=mu))
        assert link.fit.fitted.mu > 14.0
        rf = rate_exact_foxh(link, rhos)
        for rho, got in zip(rhos, rf):
            assert _rel(got, rate_exact_quadrature(link, rho)) < 1e-6, (alpha, mu, rho)


def test_foxh_vector_call_matches_points():
    rhos = 10.0 ** (np.linspace(-10.0, 30.0, 121) / 10.0)
    for alpha, mu, n_t, a in ((0.8, 3.0, 4, 1.0), (3.0, 0.75, 2, 2.0), (8.0, 1.0, 1, 0.5)):
        link = MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=alpha, mu=mu))
        vec = rate_exact_foxh(link, rhos)
        assert isinstance(vec, np.ndarray) and vec.shape == rhos.shape
        for rho, got in zip(rhos, vec):
            one = rate_exact_foxh(link, rho)
            assert isinstance(one, float)
            assert _rel(got, one) <= 1e-12, (alpha, mu, n_t, a, rho)


def test_foxh_high_snr_large_fitted_mu_repro():
    # fitted mu 16 and A = 4: the strip midpoint lies 9 and 13 nats above
    # the saddle of |chi(c) z^-c| at these rho, where its sum lost 3e-12
    # and raised TruncationError; the line nearer the saddle is exact
    link = MisoLink(n_t=16, delay_a=4.0, branch=AlphaMuParams(alpha=2.0, mu=1.0))
    rhos = (1e3, 1e4)
    for got, want in zip(rate_exact_foxh(link, rhos), rate_nakagami(link, rhos)):
        assert _rel(got, want) <= 1e-12


def test_foxh_low_snr_e_minus_1_line_matches_quadrature(monkeypatch):
    # E > 1/2, so E - 1 comes from a line right of the pole at s = 0.  The
    # strip midpoint Re s = 1/alpha left 3.2e-12 and 6.2e-12 at -50 and
    # -45 dB while its estimate read about 3e-14; it still misses 1e-12 of
    # log E there, so both points take the E - 1 line
    from effrate import rates

    lines = []
    contour = rates.contour_integral

    def recorded(spec, c, log_z):
        lines.append((c, len(log_z)))
        return contour(spec, c, log_z)

    monkeypatch.setattr(rates, "contour_integral", recorded)
    link = MisoLink(n_t=8, delay_a=0.934, branch=AlphaMuParams(alpha=0.815, mu=3.02))
    rhos = (1e-5, 10.0 ** -4.5)
    for got, want in zip(rate_exact_foxh(link, rhos), rate_exact_quadrature(link, rhos)):
        assert _rel(got, want) <= 1e-12
    assert lines == [(1.5 / link.fit.fitted.alpha, 2)]


def test_low_snr_sweeps_take_one_pass(monkeypatch):
    # E's own sum meets 1e-12 of log E at every point of these sweeps, those
    # with E > 1/2 too, so the Fox H route integrates on no E - 1 line and
    # the Gamma-weight route calls its kernel once
    from effrate import rates, special

    lines, kernel_calls = [], []
    contour, kernel = rates.contour_integral, special.gamma_expectation
    monkeypatch.setattr(rates, "contour_integral",
                        lambda spec, c, log_z: lines.append(c) or contour(spec, c, log_z))
    monkeypatch.setattr(special, "gamma_expectation",
                        lambda *args, **kw: kernel_calls.append(args[0]) or kernel(*args, **kw))
    rhos = 10.0 ** (np.linspace(-10.0, 30.0, 121) / 10.0)
    for alpha, mu, n_t, a_qos in ((0.8, 2.0, 4, 1.0), (8.0, 1.0, 4, 2.0), (2.0, 2.0, 2, 0.5)):
        link = MisoLink(n_t=n_t, delay_a=a_qos, branch=AlphaMuParams(alpha=alpha, mu=mu))
        rate_exact_foxh(link, rhos)
        rates_q = rate_exact_quadrature(link, rhos)
        assert np.sum(rates_q * a_qos < 1.0) >= 10, (alpha, mu, n_t, a_qos)  # E > 1/2
        assert (lines, len(kernel_calls)) == ([], 1), (alpha, mu, n_t, a_qos)
        kernel_calls.clear()


# Rates -log2(E) / A at 40 digits of each link's fitted law (for alpha = 2 the
# exact Gamma law of the sum), from the scalars the program fits, by
#     p = MisoLink(n_t, A, AlphaMuParams(alpha, mu)).fit.fitted
#     mean = p.beta Gamma(p.mu + 2 / p.alpha) / Gamma(p.mu)  # mpmath, 40 digits
#     E = bench.reference.expectations((p.alpha, p.mu, mean), n_t, A, rhos)
# at rho = 10^(dB / 10).  The points lie on both sides of the switch between
# E's own sum and the E - 1 one: where E's sum is taken without the rounding
# of its node values and logs, fox_h and the Gamma-weight routes miss 1e-12
# at -40 to -15 dB
_LOW_SNR_40_DIGITS = {
    (0.8, 2.0, 4, 0.5): ((-50.0, 1.4426761378302702e-05), (-32.5, 0.0008106903754922049),
                         (-22.5, 0.008054179689717245), (-10.0, 0.1295386460412514),
                         (10.0, 2.802826610460325)),
    (0.8, 0.75, 1, 0.5): ((-50.0, 1.4425379718653124e-05), (-32.5, 0.0008064320125327704),
                          (-27.5, 0.0025190977659299307), (-17.5, 0.022404189452744933),
                          (0.0, 0.40647350997355597)),
    (2.0, 3.0, 16, 1.0): ((-50.0, 1.4426875269065107e-05), (-35.0, 0.0004561451066004723),
                          (-22.5, 0.008089204916719333), (-10.0, 0.13725595586926898),
                          (10.0, 3.434465131857273)),
    (2.0, 0.75, 4, 2.0): ((-50.0, 1.4426806141950266e-05), (-37.5, 0.0002565058810116204),
                          (-27.5, 0.002560967046155148), (-15.0, 0.04425484251419115),
                          (5.0, 1.6674035321890754)),
    (4.0, 3.0, 16, 4.0): ((-50.0, 1.4426876324815612e-05), (-25.0, 0.004554810244674863),
                          (-15.0, 0.04489721571958074), (-12.5, 0.0788744294645562),
                          (10.0, 3.443088214580008)),
    (3.0, 2.0, 8, 3.0): ((-50.0, 1.442687007888357e-05), (-40.0, 0.00014426147167398009),
                         (-27.5, 0.002562978261253164), (-17.5, 0.025404718516562702),
                         (5.0, 2.0092359238175796)),
    (1.0, 1.0, 8, 0.3): ((-45.0, 4.5620715618798635e-05), (-30.0, 0.0014413900826587306),
                         (-25.0, 0.004549205911844135), (-20.0, 0.014298624082051733),
                         (10.0, 3.069801147685855)),
}


def test_low_snr_rates_match_frozen_40_digit_values():
    for (alpha, mu, n_t, a_qos), points in _LOW_SNR_40_DIGITS.items():
        link = MisoLink(n_t=n_t, delay_a=a_qos, branch=AlphaMuParams(alpha=alpha, mu=mu))
        rhos = [10.0 ** (db / 10.0) for db, _ in points]
        want = np.array([r for _, r in points])
        routes = (rate_exact_foxh, rate_exact_quadrature) + ((rate_nakagami,) if alpha == 2.0 else ())
        for route in routes:
            err = np.abs(route(link, rhos) / want - 1.0)
            assert np.all(err <= 1e-12), (route.__name__, alpha, mu, n_t, a_qos, err.tolist())


def test_foxh_high_snr_near_lognormal_surrogates():
    # alpha 0.5, n_t 4 fits mu near 399; at A = 16 and 64 the line's step
    # comes from a half-width 0.9 of the pole gap where a narrower one once
    # gave a larger step.  At A = 64 the Gamma-weight trapezoid must answer
    # within 2e-12 of fox_h or refuse
    rhos = 10.0 ** (np.arange(80.0, 121.0, 5.0) / 10.0)
    branch = AlphaMuParams(alpha=0.5, mu=4.0)
    for a_qos in (16.0, 64.0):
        link = MisoLink(n_t=4, delay_a=a_qos, branch=branch)
        for rho, got in zip(rhos.tolist(), rate_exact_foxh(link, rhos).tolist()):
            try:
                want = rate_exact_quadrature(link, rho)
            except TruncationError:
                assert a_qos == 64.0, rho
                continue
            assert _rel(got, want) <= 2e-12, (a_qos, rho)


def test_contour_estimate_covers_rounding_on_the_strip_midpoint():
    # on the link above the midpoint's trapezoid sum cancels; its error
    # estimate must still reach half of the true error of E = 2^(-A R)
    link = MisoLink(n_t=16, delay_a=4.0, branch=AlphaMuParams(alpha=2.0, mu=1.0))
    p, a_qos = link.fit.fitted, link.delay_a
    half_alpha = 0.5 * p.alpha
    spec = FoxHSpec(m=2, n=1, upper_pairs=((1.0, half_alpha),),
                    lower_pairs=((p.mu, 1.0), (a_qos, half_alpha)))
    rhos = np.array([1e3, 1e4])
    log_z = half_alpha * np.log(link.n_t / (rhos * p.beta))
    log_scale, scaled, err = contour_integral(spec, 0.5 * sum(spec.strip()), log_z)
    log_k = math.log(half_alpha) - math.lgamma(a_qos) - math.lgamma(p.mu)
    e = np.exp(log_k + log_scale) * scaled
    true_err = np.abs(e / np.exp2(-a_qos * rate_nakagami(link, rhos)) - 1.0)
    assert np.all(err >= 0.5 * true_err), (err, true_err)


def test_foxh_takes_the_line_nearest_the_midpoint_within_the_slack():
    # at 30 dB the strip midpoint lies more than 4 nats above the lowest
    # trial, 7/8 of the way to the left edge; the trial half way there is
    # within 4 nats of it and keeps a wider step
    rhos = 10.0 ** (np.linspace(-10.0, 30.0, 121) / 10.0)
    for alpha, mu, n_t, a_qos in ((8.0, 3.0, 4, 2.0), (8.0, 1.0, 4, 2.0), (3.0, 3.0, 4, 2.0)):
        link = MisoLink(n_t=n_t, delay_a=a_qos, branch=AlphaMuParams(alpha=alpha, mu=mu))
        p = link.fit.fitted
        half_alpha = 0.5 * p.alpha
        spec = FoxHSpec(m=2, n=1, upper_pairs=((1.0, half_alpha),),
                        lower_pairs=((p.mu, 1.0), (a_qos, half_alpha)))
        lo, hi = spec.strip()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        log_z = half_alpha * math.log(n_t / (1e3 * p.beta))
        assert spec.contour_abscissa(log_z) == mid - 0.5 * half, (alpha, mu, n_t)
        gap = np.abs(rate_exact_foxh(link, rhos) / rate_exact_quadrature(link, rhos) - 1.0)
        assert gap.max() <= 2e-12, (alpha, mu, n_t, gap.max())


def test_gamma_routes_vector_call_matches_points():
    rhos = 10.0 ** (np.linspace(-50.0, 40.0, 91) / 10.0)
    for alpha, mu, n_t, a in ((0.8, 3.0, 4, 1.0), (2.0, 0.75, 2, 2.0), (8.0, 1.0, 16, 0.5)):
        link = MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=alpha, mu=mu))
        routes = [rate_exact_quadrature, ergodic_capacity_quadrature]
        if alpha == 2.0:
            routes.append(rate_nakagami)
        if high_snr_validity(link)[0]:
            routes.append(rate_high_snr)
        for route in routes:
            vec = route(link, rhos)
            assert isinstance(vec, np.ndarray) and vec.shape == rhos.shape
            for rho, got in zip(rhos, vec):
                one = route(link, rho)
                assert isinstance(one, float)
                assert _rel(got, one) <= 1e-12, (route.__name__, alpha, mu, n_t, a, rho)


def test_routes_match_nakagami_where_newton_failed():
    # alpha = 2 links whose damped Newton fit ran out of steps; the exact
    # Gamma(n_t mu) closure makes the sum-fit routes the Tricomi closed form
    rhos = 10.0 ** (np.linspace(-10.0, 30.0, 41) / 10.0)
    for mu in (3.013, 3.594):
        for a in (0.5, 1.0, 2.0):
            link = MisoLink(n_t=16, delay_a=a, branch=AlphaMuParams(alpha=2.0, mu=mu))
            closed = rate_nakagami(link, rhos)
            for route in (rate_exact_foxh, rate_exact_quadrature):
                worst = np.max(np.abs(route(link, rhos) / closed - 1.0))
                assert worst <= 1e-12, (mu, a, route.__name__, worst)


def test_foxh_rate_is_a_meijer_g_for_rational_half_alpha():
    # with alpha/2 = l/k the multiplication theorem splits each gamma factor
    # of the Fox H integrand into unit-coefficient Delta blocks, so the rate
    # is a Meijer G function times a closed-form prefactor:
    #   E = P/2 G^{k+l,l}_{l,k+l}[ x | Delta(l, 1 - alpha mu/2);
    #                                  Delta(k, 0), Delta(l, A - alpha mu/2) ],
    #   x = (n_t/rho)^l / (beta^(alpha/2) k)^k,
    #   P = alpha sqrt(k) l^(A-1) (n_t/(rho beta))^(alpha mu/2)
    #       (2 pi)^(3/2 - l - k/2) / (Gamma(A) Gamma(mu)).
    # One antenna keeps the branch law, so 0.8 = 2 * 2/5 and 4 = 2 * 2/1.
    def delta(n, tau):
        return tuple(((tau + j) / n, 1.0) for j in range(n))

    a_qos, mu = 0.7, 1.5
    for alpha, l, k in ((0.8, 2, 5), (4.0, 2, 1)):
        branch = AlphaMuParams(alpha=alpha, mu=mu)
        link = MisoLink(n_t=1, delay_a=a_qos, branch=branch)
        amu2 = alpha * mu / 2.0
        spec = FoxHSpec(m=k + l, n=l, upper_pairs=delta(l, 1.0 - amu2),
                        lower_pairs=delta(k, 0.0) + delta(l, a_qos - amu2))
        for rho in (0.1, 3.0, 100.0):
            x = (1.0 / rho) ** l / (branch.beta ** (alpha / 2.0) * k) ** k
            log_p = (math.log(alpha) + 0.5 * math.log(k) + (a_qos - 1.0) * math.log(l)
                     + amu2 * math.log(1.0 / (rho * branch.beta))
                     + (1.5 - l - 0.5 * k) * math.log(2.0 * math.pi)
                     - math.lgamma(a_qos) - math.lgamma(mu))
            e = 0.5 * math.exp(log_p) * fox_h(spec, x)
            np.testing.assert_allclose(-math.log2(e) / a_qos, rate_exact_foxh(link, rho),
                                       rtol=1e-10, err_msg=str((alpha, rho)))


def test_quadrature_node_cap_raises_before_allocating():
    # at alpha = 1e8 the nodes would start about 1.2e8 left of 0, some 9e8
    # of them (7 GB per array); the cap raises before any array is made
    link = MisoLink(n_t=1, delay_a=1.0, branch=AlphaMuParams(alpha=1e8, mu=1.0))
    with pytest.raises(TruncationError, match="nodes"):
        rate_exact_quadrature(link, 10.0)


def test_foxh_node_budget_raises_before_allocating():
    # at A = 1e-6 the first batch of contour nodes would hold about 1.4e8
    # entries; the 2^20-node budget raises before any of them is made, and
    # quadrature still gives the rate
    link = MisoLink(n_t=2, delay_a=1e-6, branch=AlphaMuParams(alpha=3.0, mu=1.5))
    start = time.process_time()
    with pytest.raises(TruncationError, match="nodes"):
        rate_exact_foxh(link, 10.0)
    assert time.process_time() - start < 1.0
    assert abs(rate_exact_quadrature(link, 10.0) - 3.36488) < 1e-5


def test_foxh_computes_log_chi_only_near_the_nodes_it_keeps(monkeypatch):
    # the first batch of contour nodes reaches Stirling's estimate of the
    # cut-off and each further batch adds a quarter, so over a dozen sweep
    # links the log chi nodes computed exceed those summed by under a fifth
    from effrate import special

    counts = {"computed": 0, "kept": 0}
    log_chi, phase_sums = special._log_chi, special._phase_sums

    def counted_log_chi(spec, c, t):
        counts["computed"] += len(t)
        return log_chi(spec, c, t)

    def counted_phase_sums(w, h, log_z):
        counts["kept"] += len(w)
        return phase_sums(w, h, log_z)

    monkeypatch.setattr(special, "_log_chi", counted_log_chi)
    monkeypatch.setattr(special, "_phase_sums", counted_phase_sums)
    rho = 10.0 ** np.linspace(-1.0, 3.0, 121)
    for alpha, mu, n_t, a_qos in (
        (0.8, 0.75, 1, 0.5), (1.5, 1.0, 2, 1.0), (2.0, 2.0, 4, 2.0), (3.0, 3.0, 1, 1.0),
        (4.0, 0.75, 4, 2.0), (8.0, 2.0, 2, 0.5), (0.8, 3.0, 4, 0.5), (1.5, 2.0, 1, 2.0),
        (2.0, 1.0, 4, 1.0), (3.0, 0.75, 2, 0.5), (4.0, 3.0, 2, 2.0), (8.0, 1.0, 1, 1.0),
    ):
        rate_exact_foxh(MisoLink(n_t, a_qos, AlphaMuParams(alpha, mu)), rho)
    assert counts["kept"] > 0
    assert counts["computed"] <= 1.2 * counts["kept"], counts


# float.hex of rate_exact_foxh on a dozen benchmark sweep links, frozen when
# the route was last changed without meaning to move a bit: every 10th
# point of the 121-point grid -10:30 dB, then the link at 0 and 20 dB in a
# call of its own (the two calls choose their contours apart).  The points
# with E > 1/2 were frozen again when E's own line began to stand alone there,
# and the whole table (with the identity values below) when the phase sums
# changed their order of additions, giving up the matrix product.  No BLAS
# kernel moves these bits; numpy's SIMD loops for the CPU still can
_FOXH_FROZEN = {
    (0.8, 0.75, 1, 0.5): (
        "0x1.7f858c8199111p-4 0x1.4b7603f19bc38p-3 0x1.0e2b1522a5158p-2 0x1.a03a97801b653p-2",
        "0x1.30624cb5f1233p-1 0x1.a909d88dd27a5p-1 0x1.1d03c6f148b7fp+0 0x1.712f78ad22631p+0",
        "0x1.d0390a8fb5995p+0 0x1.1c92593399e1ep+1 0x1.5572e9ed2812cp+1 0x1.923937742fd9fp+1",
        "0x1.d267995e6a365p+1 0x1.a03a97801b66ap-2 0x1.1c92593399e1ep+1",
    ),
    (1.5, 1.0, 2, 1.0): (
        "0x1.0657b519910d4p-3 0x1.fd9ce62e9ea4ep-3 0x1.d18854a696c88p-2 0x1.8bad17a5defa6p-1",
        "0x1.3847d0f987dc2p+0 0x1.cc23c51476039p+0 0x1.3f54d62c86ecfp+1 0x1.a5a4864eec537p+1",
        "0x1.0b3a58f9df904p+2 0x1.47afeb18761ffp+2 0x1.872d4fde5e86bp+2 0x1.c8e0f0dddade4p+2",
        "0x1.06150aed61a36p+3 0x1.8bad17a5defacp-1 0x1.47afeb18761ffp+2",
    ),
    (2.0, 2.0, 4, 2.0): (
        "0x1.152594fd5fd11p-3 0x1.17e8d6d820dbdp-2 0x1.0c87cf2743acep-1 0x1.df5d90dc956ddp-1",
        "0x1.88fd89724114dp+0 0x1.27c590fbad4b2p+1 0x1.9c9d31c526e6ap+1 0x1.0e7d73cdaaa5fp+2",
        "0x1.51fc60c43c94ep+2 0x1.9737dd08d39d6p+2 0x1.dd4f60eb20d47p+2 0x1.11e82d25f0248p+3",
        "0x1.3541853421ee3p+3 0x1.df5d90dc956dap-1 0x1.9737dd08d39d6p+2",
    ),
    (3.0, 3.0, 1, 1.0): (
        "0x1.15fef861d0eecp-3 0x1.1973671cf631ep-2 0x1.0edd44c8c81f6p-1 0x1.e4f33f08b1dfcp-1",
        "0x1.8e2f3765f738dp+0 0x1.2ba21799c7cf4p+1 0x1.a1772bb544b2ap+1 0x1.11396caace588p+2",
        "0x1.54e2ac18aa7eap+2 0x1.9a33044417d71p+2 0x1.e0546d79f1c9cp+2 0x1.136d039f3a262p+3",
        "0x1.36c76f2e52639p+3 0x1.e4f33f08b1df6p-1 0x1.9a33044417d71p+2",
    ),
    (4.0, 0.75, 4, 2.0): (
        "0x1.164005bcb6a1ep-3 0x1.19e5757c6ff7cp-2 0x1.0f807f6a4cf85p-1 0x1.e65d42f1b3de0p-1",
        "0x1.8f6620e65d4aap+0 0x1.2c7b649ebe996p+1 0x1.a27f4acfc184dp+1 0x1.11ccc0bf30540p+2",
        "0x1.557ef64bc4791p+2 0x1.9ad425ff99eecp+2 0x1.e0f804c3832ebp+2 0x1.13bf68c04427fp+3",
        "0x1.371a1d6175a67p+3 0x1.e65d42f1b3de3p-1 0x1.9ad425ff99ef1p+2",
    ),
    (8.0, 2.0, 2, 0.5): (
        "0x1.1947ff232abbep-3 0x1.1f9e219fac192p-2 0x1.18a3f4490b18ap-1 0x1.fd80cd50fde82p-1",
        "0x1.a5efe223dc2f0p+0 0x1.3dc71737f9cb1p+1 0x1.b8b05be9ff708p+1 0x1.1e7c3da7e01b4p+2",
        "0x1.6312512a66af6p+2 0x1.a8dc3b2f4c010p+2 0x1.ef39070264236p+2 0x1.1aed7210a7715p+3",
        "0x1.3e4e810f2c82fp+3 0x1.fd80cd50fde82p-1 0x1.a8dc3b2f4c00dp+2",
    ),
    (0.8, 3.0, 4, 0.5): (
        "0x1.0ec96822b8d8bp-3 0x1.0d3e0cc664a6fp-2 0x1.fb667a9f67664p-2 0x1.be2ecf6050f9ep-1",
        "0x1.6b166a2fb33d9p+0 0x1.1177cdbd7138ap+1 0x1.7fed9b4eb30efp+1 0x1.fbc3a10415e1ep+1",
        "0x1.4000df4f0500ap+2 0x1.847d5aa3aa11dp+2 0x1.ca34571e2ede1p+2 0x1.084341c736a39p+3",
        "0x1.2b918126280fcp+3 0x1.be2ecf6050fc6p-1 0x1.847d5aa3aa12fp+2",
    ),
    (1.5, 2.0, 1, 2.0): (
        "0x1.fc4189798c6bcp-4 0x1.e31561923a72ap-3 0x1.ad527c0cdd2dfp-2 0x1.62119c798f5d2p-1",
        "0x1.0f61acf3fff8dp+0 0x1.859233b037683p+0 0x1.08785a896e55ap+1 0x1.56ff5b0e08d89p+1",
        "0x1.ac9757b83fbb6p+1 0x1.03d439425848ap+2 0x1.336f4cf87c835p+2 0x1.64957fa4cacebp+2",
        "0x1.96de3c1b672b2p+2 0x1.62119c798f5d5p-1 0x1.03d439425848ap+2",
    ),
    (2.0, 1.0, 4, 1.0): (
        "0x1.13bc43ac6bd05p-3 0x1.155e767a6253ep-2 0x1.08b034ac2b8c6p-1 0x1.d6007f2f49909p-1",
        "0x1.7fe11bf42b88bp+0 0x1.20894611dbc7ep+1 0x1.92dcb64b2f2bap+1 0x1.08a98446071e9p+2",
        "0x1.4b8d2a1b597fdp+2 0x1.90715d1a32eb8p+2 0x1.d65bbaad941d0p+2 0x1.0e633fd153ff1p+3",
        "0x1.31b7491cc3f28p+3 0x1.d6007f2f4990fp-1 0x1.90715d1a32ebbp+2",
    ),
    (3.0, 0.75, 2, 0.5): (
        "0x1.141e057caea59p-3 0x1.16047118892dcp-2 0x1.0992193fb4cebp-1 0x1.d7cd3c71527acp-1",
        "0x1.8132975db2029p+0 0x1.2134fc2955801p+1 0x1.9348a481a170ap+1 0x1.08ac38d5ac57fp+2",
        "0x1.4b5d717fd0249p+2 0x1.901b969b0a2d9p+2 0x1.d5edb9f5d84cdp+2 0x1.0e255bc2d78d0p+3",
        "0x1.3175c214770a5p+3 0x1.d7cd3c7152795p-1 0x1.901b969b0a2d5p+2",
    ),
    (4.0, 3.0, 2, 2.0): (
        "0x1.1807b601753f6p-3 0x1.1d3f178525ef1p-2 0x1.14d86cf379131p-1 0x1.f3f453f5dc012p-1",
        "0x1.9ccf09d570596p+0 0x1.36f5bf78c17c9p+1 0x1.b02b1ba2d688dp+1 0x1.19b542bbefd20p+2",
        "0x1.5e04d2df1481fp+2 0x1.a3abb95139ce5p+2 0x1.e9f7bc9f72c0ep+2 0x1.1848d88b52bd1p+3",
        "0x1.3ba80e53d8a09p+3 0x1.f3f453f5dc012p-1 0x1.a3abb95139ce5p+2",
    ),
    (8.0, 1.0, 1, 1.0): (
        "0x1.17ada172728ffp-3 0x1.1c8c70a64882ap-2 0x1.13a3bf8da92a6p-1 0x1.f0910e556e913p-1",
        "0x1.991e3c3d624d5p+0 0x1.33d5f7accd58dp+1 0x1.abdc953fa29a7p+1 0x1.1721ca0b1711bp+2",
        "0x1.5b30be1c4cc9ap+2 0x1.a0b535f288a0ep+2 0x1.e6f00beffe6f8p+2 0x1.16c0de0a0f0d7p+3",
        "0x1.3a1e1fe8075cep+3 0x1.f0910e556e919p-1 0x1.a0b535f288a0ep+2",
    ),
}

# float.hex of the fox_h values behind verify's special-function identities
_FOX_H_IDENTITY_HEX = (
    "0x1.cf46d99d52b31p-1 0x1.78b56362cef37p-2 0x1.b993fe00d5387p-8 0x1.1b48655f3727bp-29",
    "0x1.b0a1c5847e67ap+0 0x1.40d931ff62705p+0 0x1.119ed5e4218cfp-1 0x1.894d3f32a1752p-1",
    "0x1.40d931ff626ffp-2 0x1.8dfe4e631986dp-6 0x1.80ac5565befdcp+0 0x1.ffffffffffffcp-3",
    "0x1.89e7c3fdb1248p-10",
)


def test_foxh_matches_frozen_hex_values():
    step = 40.0 / 120
    rhos = [10.0 ** ((-10.0 + i * step) / 10.0) for i in range(121)]
    for (alpha, mu, n_t, a_qos), frozen in _FOXH_FROZEN.items():
        link = MisoLink(n_t=n_t, delay_a=a_qos, branch=AlphaMuParams(alpha=alpha, mu=mu))
        got = rate_exact_foxh(link, rhos)[::10].tolist()
        got += rate_exact_foxh(link, [1.0, 100.0]).tolist()
        assert " ".join(v.hex() for v in got) == " ".join(frozen), (
            (alpha, mu, n_t, a_qos), numpy_dispatch_note())
    spec = FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),))
    got = [fox_h(spec, x) for x in (0.1, 1.0, 5.0, 20.0)]
    for w in (-0.5, -1.5, -3.0):
        spec = FoxHSpec(m=1, n=1, upper_pairs=((w + 1.0, 1.0),), lower_pairs=((0.0, 1.0),))
        got += [fox_h(spec, x) for x in (0.1, 1.0, 10.0)]
    assert " ".join(v.hex() for v in got) == " ".join(_FOX_H_IDENTITY_HEX), numpy_dispatch_note()


# fox_h on the 121-point benchmark sweep of three links: the first two gave
# other last bits under the two OpenBLAS kernels while the phase sums were a
# matrix product
_CORETYPE_SCRIPT = (
    "from effrate.alphamu import AlphaMuParams\n"
    "from effrate.rates import MisoLink, rate_exact_foxh\n"
    "rhos = [10.0 ** ((-10.0 + i * 40.0 / 120) / 10.0) for i in range(121)]\n"
    "for alpha, mu, n_t, a_qos in ((1.5, 2.0, 4, 0.5), (8.0, 2.0, 4, 2.0), (0.8, 2.0, 2, 0.5)):\n"
    "    link = MisoLink(n_t, a_qos, AlphaMuParams(alpha, mu))\n"
    "    print(' '.join(v.hex() for v in rate_exact_foxh(link, rhos).tolist()))\n"
)


def test_foxh_does_not_depend_on_the_blas_kernel():
    # a fresh interpreter per kernel; both run on any x86-64 CPU, and an
    # OpenBLAS built for another architecture ignores the variable
    runs = [subprocess.run([sys.executable, "-c", _CORETYPE_SCRIPT],
                           capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_CORETYPE": core,
                                "PYTHONPATH": os.pathsep.join(sys.path)})
            for core in ("Nehalem", "Prescott")]
    assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
    assert len(runs[0].stdout.split()) == 3 * 121
    assert runs[0].stdout == runs[1].stdout


def test_foxh_refuses_a_point_whose_estimate_misses_1e_12(monkeypatch):
    # the contour reports 1e-9 at rho = 100, where E < 1/2 and no E - 1
    # line replaces it: the route names that point instead of returning it
    from effrate import rates

    integrals = rates.contour_integrals

    def loose_at_100(spec, log_z):
        out = integrals(spec, log_z)
        out[2, 1] = 1e-9
        return out

    monkeypatch.setattr(rates, "contour_integrals", loose_at_100)
    with pytest.raises(TruncationError, match=r"at rho=100\.0 exceeds"):
        rate_exact_foxh(_EXP_LINK, [0.01, 100.0, 1e4])


def test_rate_monotone_in_snr():
    link = MisoLink(n_t=2, delay_a=0.5, branch=AlphaMuParams(alpha=4.0, mu=2.0))
    rhos = np.logspace(-2, 4, 13)
    vals = [rate_exact_quadrature(link, r) for r in rhos]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_rate_decreases_with_delay_exponent():
    # a stricter delay constraint can only cost rate
    branch = AlphaMuParams(alpha=3.0, mu=1.5)
    vals = [
        rate_exact_quadrature(MisoLink(n_t=2, delay_a=a, branch=branch), 10.0)
        for a in (0.25, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# The abstract's claims (monotone in alpha, mu and n_t, falling as the delay
# constraint tightens) as properties of the surrogate: the moment-matched
# alpha-mu law of the branch sum, which every route but Monte Carlo evaluates
_CLAIM_RHOS = 10.0 ** (np.arange(-30.0, 41.0, 10.0) / 10.0)


def test_surrogate_rate_grows_with_n_t_and_falls_with_delay_exponent():
    n_ts, delays = (1, 2, 4, 8), (0.2, 0.5, 1.0, 2.0, 4.0)
    for alpha in (0.8, 2.0, 8.0):
        for mu in (0.75, 2.0):
            branch = AlphaMuParams(alpha=alpha, mu=mu)
            links = [[MisoLink(n_t=n_t, delay_a=a, branch=branch) for a in delays] for n_t in n_ts]
            for route in (rate_exact_foxh, rate_exact_quadrature):
                rates = np.array([[route(link, _CLAIM_RHOS) for link in row] for row in links])
                assert np.all(np.diff(rates, axis=0) > 0), (route.__name__, alpha, mu)
                assert np.all(np.diff(rates, axis=1) < 0), (route.__name__, alpha, mu)


def test_surrogate_rate_grows_with_alpha_and_mu_at_a_fixed_mean_snr():
    alphas, mus = (0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0), (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)
    for n_t in (1, 4):
        for a_qos in (0.5, 2.0):
            rates = np.array([[rate_exact_quadrature(MisoLink(
                n_t=n_t, delay_a=a_qos, branch=AlphaMuParams(alpha=alpha, mu=mu, mean_snr=1.0)),
                _CLAIM_RHOS) for mu in mus] for alpha in alphas])
            assert np.all(np.diff(rates, axis=0) > 0), (n_t, a_qos)
            assert np.all(np.diff(rates, axis=1) > 0), (n_t, a_qos)


def test_branch_laws_are_convex_ordered_in_alpha_and_mu():
    # The README's proof that the link's rate grows with alpha and mu at a
    # fixed mean SNR rests on this: of two unit-mean alpha-mu laws adjacent
    # in alpha (or in mu), the smaller parameter's is the larger in the
    # convex order.  Equal means make that the order of the stop-loss
    # transforms pi(t) = E[(gamma - t)+] = Q(mu + 2/alpha, w) - t Q(mu, w),
    # w = (t / beta)^(alpha/2), beta = Gamma(mu) / Gamma(mu + 2/alpha), Q the
    # regularized upper incomplete Gamma.  Allowance: 4 eps of the terms'
    # size, Q(mu + 2/alpha, w) + t Q(mu, w), for the rounding of Q and of the
    # difference (the largest miss measured was 1.1e-16 of it)
    alphas, mus = np.geomspace(0.3, 20.0, 12), np.geomspace(0.1, 50.0, 12)
    t = np.geomspace(1e-8, 60.0, 600)
    a, m = alphas[:, None, None], mus[None, :, None]
    w = (t * np.exp(sps.gammaln(m + 2.0 / a) - sps.gammaln(m))) ** (a / 2.0)
    q_shifted, q = sps.gammaincc(m + 2.0 / a, w), sps.gammaincc(m, w)
    pi, size = q_shifted - t * q, q_shifted + t * q

    def on_top(pis, sizes):
        # for each adjacent pair along axis 0, whether the first's pi lies
        # on top of the second's everywhere in t
        allowance = 4.0 * np.finfo(float).eps * np.maximum(sizes[:-1], sizes[1:])
        return np.all(pis[1:] - pis[:-1] <= allowance, axis=-1)

    for axis in (0, 1):  # alpha steps, then mu steps
        pis, sizes = np.moveaxis(pi, axis, 0), np.moveaxis(size, axis, 0)
        assert on_top(pis, sizes).all(), axis
        # swapped, each of the 132 pairs fails: each is apart by at least 1.8e-3
        assert not on_top(pis[::-1], sizes[::-1]).any(), axis


def test_routes_agree_or_refuse_at_stringent_delays():
    # A up to 256, past the box of tests/test_domain.py.  The Gamma-weight
    # trapezoid, told that its integrand falls as (1 + t)^-A, answers at
    # every one of these 384 points, as fox_h does (at (4, 2, 2) and 20 dB,
    # 1.28293 for A = 64 and 0.386078 for 256), each answer within both
    # routes' 1e-12 of fox_h's
    rhos = 10.0 ** (np.arange(-20.0, 41.0, 20.0) / 10.0)
    refused = {rate_exact_quadrature: 0, rate_nakagami: 0}
    for alpha in (0.8, 2.0, 4.0, 8.0):
        routes = [rate_exact_quadrature] + ([rate_nakagami] if alpha == 2.0 else [])
        for mu in (0.75, 2.0):
            for n_t in (1, 2, 4):
                for a_qos in (8.0, 16.0, 64.0, 256.0):
                    link = MisoLink(n_t=n_t, delay_a=a_qos, branch=AlphaMuParams(alpha=alpha, mu=mu))
                    for rho in rhos.tolist():
                        want = rate_exact_foxh(link, rho)
                        for route in routes:
                            try:
                                got = route(link, rho)
                            except TruncationError:
                                refused[route] += 1
                                continue
                            assert _rel(got, want) <= 2e-12, (alpha, mu, n_t, a_qos, rho, route)
    assert refused[rate_exact_quadrature] == 0 and refused[rate_nakagami] == 0, refused


def test_rate_rejects_bad_snr():
    with pytest.raises(ValueError):
        rate_exact_quadrature(_EXP_LINK, 0.0)
    with pytest.raises(ValueError):
        rate_exact_foxh(_EXP_LINK, -1.0)
    with pytest.raises(ValueError):
        rate_exact_foxh(_EXP_LINK, [1.0, 0.0])
    with pytest.raises(ValueError):
        rate_exact_quadrature(_EXP_LINK, [1.0, -2.0])
    with pytest.raises(ValueError):
        rate_nakagami(_EXP_LINK, [0.0, 1.0])
    for route in (rate_exact_quadrature, rate_exact_foxh, rate_nakagami):
        for bad in (math.inf, math.nan, [1.0, math.inf]):
            with pytest.raises(ValueError):
                route(_EXP_LINK, bad)


def test_exact_routes_refuse_a_subnormal_snr_by_name():
    # below the normal doubles the kernel argument (rho beta / n_t, or
    # rho omega / (m n_t)) or the rate, near rho omega / ln 2, keeps too few
    # digits: quadrature answered 3.5 % off at 1e-320, and the other routes
    # raised numpy's overflow warning, an error under this suite's filter
    for alpha in (0.8, 2.0):
        link = MisoLink(n_t=2, delay_a=0.5, branch=AlphaMuParams(alpha=alpha, mu=2.0))
        routes = [rate_exact_quadrature, rate_exact_foxh] + [rate_nakagami] * (alpha == 2.0)
        for route in routes:
            for rho in (1e-320, 5e-324, [1.0, 1e-320]):
                with pytest.raises(ValueError, match=r"rho=\S+ is too small"):
                    route(link, rho)
            if route is not rate_exact_foxh:
                # still an answer at 1e-300: the low-SNR rate rho / ln 2
                assert _rel(route(link, 1e-300), 1e-300 / math.log(2.0)) < 1e-12


def test_routes_refuse_both_ends_of_the_double_range_by_name():
    # at 1.7e308 the kernel argument rho beta / n_t (rho omega / (m n_t))
    # overflows: every route raised numpy's overflow warning first; at
    # 1e-320 ergodic capacity answered a subnormal where the others refused.
    # The high-SNR asymptote refused only this link's A, and at A = 0.1 it
    # answered inf, after numpy's warning, and -1067; it now names rho first
    link = MisoLink(n_t=1, delay_a=1.0, branch=AlphaMuParams(alpha=2.0, mu=0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (rate_exact_quadrature, rate_exact_foxh, rate_nakagami,
                      ergodic_capacity_quadrature, rate_high_snr):
            for rho, end in ((1.7e308, "large"), (1e-320, "small"), ([1.0, 1.7e308], "large")):
                with pytest.raises(ValueError, match=r"rho=\S+ is too %s" % end):
                    route(link, rho)


def test_routes_answer_or_refuse_without_overflow_up_to_1e307():
    # the Gamma-weight kernel's exp forming t = c u^p overflowed from about
    # rho = 1e305: numpy's overflow warning, an error under this filter,
    # even where the route then answered correctly.  An overflowed t is inf,
    # the IEEE value of c u^p, where the rate integrands take their exact
    # limit and a growing one (ergodic capacity) sums to inf and is refused
    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, mu, n_t, a_qos in ((0.8, 2.0, 2, 0.5), (2.0, 1.0, 1, 1.0), (2.0, 0.3, 1, 0.5)):
            link = MisoLink(n_t=n_t, delay_a=a_qos, branch=AlphaMuParams(alpha=alpha, mu=mu))
            routes = [rate_exact_foxh, rate_exact_quadrature] + [rate_nakagami] * (alpha == 2.0)
            for rho in (1e300, 1e303, 1e305, 1e307):
                rates = []
                for route in routes + [ergodic_capacity_quadrature]:
                    try:
                        got = route(link, rho)
                    except (ValueError, TruncationError):
                        continue
                    assert math.isfinite(got), (alpha, mu, n_t, a_qos, rho, route)
                    if route is not ergodic_capacity_quadrature:
                        rates.append(got)
                for got in rates[1:]:
                    assert _rel(got, rates[0]) <= 1e-12, (alpha, mu, n_t, a_qos, rho)
                    compared += 1
    # quadrature refuses (0.8, 2, 2, 0.5) at 1e307 and fox_h (2, 1, 1, 1)
    # throughout; every other rate route answers, and is compared with the
    # first that does
    assert compared == 15


def test_ergodic_capacity_names_the_overflow_at_the_top_of_the_range():
    # from about rho = 1e306 the integrand log1p(c u^p) sums to inf, and the
    # refusal read "error nan", from inf - inf, naming neither rho nor the
    # overflow.  27 of these 100 calls refuse
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, mu, n_t in ((0.8, 2.0, 2), (2.0, 1.0, 1), (2.0, 0.3, 1), (2.0, 2.0, 2)):
            link = MisoLink(n_t=n_t, delay_a=1.0, branch=AlphaMuParams(alpha=alpha, mu=mu))
            for rho in np.geomspace(1e300, 1.7e308, 25).tolist():
                try:
                    ergodic_capacity_quadrature(link, rho)
                except (ValueError, TruncationError) as exc:
                    assert re.search(r"\b(rho|c)=", str(exc)) and "nan" not in str(exc), exc


def test_gamma_weight_routes_refuse_a_subnormal_sum():
    # At alpha = 2 the fitted law is the exact sum Gamma(64, 1/64).  From 65
    # dB, A R passes 1,022 bits, so E is subnormal and so is the kernel's
    # sum, whose estimate underflowed with it and read 0: quadrature and
    # nakagami answered 1.7e-10 off at 66 dB and 5.3e-6 at 67 dB.  50-digit
    # rates from mpmath's w^N U(N; N + 1 - A; w), N = 64, w = N / rho
    link = MisoLink(n_t=16, delay_a=50.0, branch=AlphaMuParams(alpha=2.0, mu=4.0))
    exact = {60: 19.080760651521204799, 62: 19.745143649428953009, 64: 20.409527614610369538,
             65: 20.741719842556112948, 66: 21.073912190107953247, 67: 21.406104632666617007}
    routes, answered = (rate_exact_quadrature, rate_nakagami), set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for snr_db, want in exact.items():
            for route in routes:
                try:
                    got = route(link, 10.0 ** (snr_db / 10.0))
                except TruncationError:
                    continue
                assert _rel(got, want) <= 1e-12, (snr_db, route.__name__, got)
                answered.add((snr_db, route))
    # E is normal up to 64 dB, where both routes answer
    assert answered >= {(d, r) for d in (60, 62, 64) for r in routes}


def test_exact_routes_answer_or_refuse_by_name_at_both_ends_of_a():
    # Below the normal doubles E - 1, about -A ln2 R, keeps too few digits:
    # quadrature and nakagami answered 9.0 at A = 5e-324 on (2, 8, 1000) and
    # 40 dB, where the A -> 0 limit is 13.29.  Past A = 9,000 at alpha 2
    # (2,100 at alpha 0.8) the Gamma-weight kernel's e^rise overflowed with a
    # bare OverflowError, and from A = 2.6e305 so did fox_h's lgamma(A).  A
    # refusal names A, rho, the node budget or, from the Gamma-weight
    # kernel, its argument c = rho beta / n_t
    named = re.compile(r"\b(delay_a|rho|c)=|\bnodes\b")
    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, mu in ((2.0, 1.0), (0.8, 2.0)):
            routes = [rate_exact_foxh, rate_exact_quadrature] + [rate_nakagami] * (alpha == 2.0)
            for a_qos in (5e-324, 1e-320, 1e-306, 2.5e3, 1e4, 1e6, 1.7e308):
                link = MisoLink(n_t=2, delay_a=a_qos, branch=AlphaMuParams(alpha=alpha, mu=mu))
                for rho in (1e-10, 1.0, 1e4):
                    for route in routes:
                        try:
                            got = route(link, rho)
                        except (ValueError, TruncationError) as exc:
                            assert named.search(str(exc)), (alpha, a_qos, rho, route, exc)
                            continue
                        assert math.isfinite(got), (alpha, a_qos, rho, route)
                        if a_qos <= 1e-300:
                            want = ergodic_capacity_quadrature(link, rho)
                            assert _rel(got, want) <= 1e-12, (alpha, a_qos, rho, route)
                            compared += 1
    # quadrature (and nakagami at alpha 2) at A = 1e-306 and rho 1 and 1e4
    assert compared == 6


def test_stringent_delay_refusals_are_typed_where_fox_h_answers_or_not():
    # quadrature and nakagami raised a bare OverflowError forming e^rise;
    # fox_h's first node count on (2, 8, 1000, A = 1e-306), whose strip is
    # 1e-306 wide, overflowed int() after numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (alpha, mu, n_t, a_qos), rho, routes in (
                ((2.0, 1.0, 2, 1e4), 1.0, (rate_exact_quadrature, rate_nakagami)),
                ((0.8, 2.0, 2, 2500.0), 1.0, (rate_exact_quadrature,)),
                ((2.0, 8.0, 1000, 1e-306), 1e4, (rate_exact_foxh,))):
            link = MisoLink(n_t=n_t, delay_a=a_qos, branch=AlphaMuParams(alpha=alpha, mu=mu))
            for route in routes:
                with pytest.raises(TruncationError):
                    route(link, rho)
        # fox_h still answers the first link, with the same bits as before
        link = MisoLink(n_t=2, delay_a=1e4, branch=AlphaMuParams(alpha=2.0, mu=1.0))
        assert rate_exact_foxh(link, 1.0) == 0.0024575569107949335


def test_high_snr_asymptote_nears_its_limit_as_a_falls():
    # As A -> 0 the gap term nears (2/alpha) psi(mu) / ln 2, in the fitted
    # parameters, less A (2/alpha)^2 psi'(mu) / (2 ln 2).  Formed from two
    # lgamma values, it cancelled: at (3, 1.5, 2) and rho 1e4 the asymptote
    # read 13.1944288714 at A = 1e-14 and 12.2334009202 from 1e-16 down,
    # 0.94 bit under its limit 13.1697095170
    for a_qos in [10.0 ** -k for k in range(6, 301, 6)] + [1e-310, 5e-324]:
        link = MisoLink(n_t=2, delay_a=a_qos, branch=AlphaMuParams(alpha=3.0, mu=1.5))
        p = link.fit.fitted
        limit = math.log2(p.beta * 1e4 / 2) + 2.0 / p.alpha * sps.digamma(p.mu) / math.log(2.0)
        first = a_qos * (2.0 / p.alpha) ** 2 * sps.polygamma(1, p.mu) / (2.0 * math.log(2.0))
        assert abs(rate_high_snr(link, 1e4) - (limit - first)) <= 1e-12 * limit, a_qos


def test_every_route_refuses_an_empty_grid_by_name():
    # an empty grid used to give an empty array on some routes and a bare
    # numpy or builtin error on the others
    link = MisoLink(n_t=2, delay_a=0.5, branch=AlphaMuParams(alpha=2.0, mu=2.0))
    cfg = McConfig(samples=1000)
    for call in (rate_exact_foxh, rate_exact_quadrature, rate_nakagami, rate_high_snr,
                 ergodic_capacity_quadrature, parametric_eb_n0,
                 lambda link, rho: simulate_rate(link, rho, cfg),
                 lambda link, rho: simulate_rates([link], rho, cfg),
                 lambda link, rho: simulate_ergodic_capacity(link, rho, cfg)):
        with pytest.raises(ValueError, match="rho must not be empty"):
            call(link, [])
    with pytest.raises(ValueError, match="eb_n0 must not be empty"):
        rate_low_snr(link, [])
    with pytest.raises(ValueError, match="z must not be empty"):
        tricomi_u(1.0, 0.5, [])
    for n in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="order n must be finite"):
            moment(link.branch, n)


# ----------------------------------------------------------- Nakagami forms

_NAKAGAMI_REF = [
    # (m, n_t, delay_a, rho, reference)
    (0.5, 1, 0.5, 1.0, 0.6814661931332918),
    (2.0, 2, 1.0, 10.0, 3.147360598288596),
    (3.5, 2, 0.5, 10.0, 3.3296044826914776),
    (1.0, 2, 2.0, 1.0, 0.7868549481759019),
]


def test_nakagami_frozen_values():
    for m, n_t, a, rho, ref in _NAKAGAMI_REF:
        link = MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=2.0, mu=m))
        np.testing.assert_allclose(rate_nakagami(link, rho), ref, rtol=1e-12)


def test_nakagami_keeps_a_small_delay_exponent():
    # m n_t = 3 at 10 dB: b = m n_t + 1 - A, formed first, rounds A away
    # (6.1e-9 off at A = 1e-8, -0.0 at A = 1e-17).  References: 120-digit
    # mpmath -(1/A) log2(z^3 U(3; 4 - A; z)), z = 0.3, checked by quadrature
    for a, ref in ((1e-4, 3.2616081639723434), (1e-8, 3.2616291139010719),
                   (1e-13, 3.2616291159962417), (1e-17, 3.2616291159962626)):
        link = MisoLink(n_t=2, delay_a=a, branch=AlphaMuParams(alpha=2.0, mu=1.5))
        np.testing.assert_allclose(rate_nakagami(link, 10.0), ref, rtol=1e-12, err_msg=str(a))


def test_nakagami_agrees_with_contour_route():
    for m in (0.5, 1.0, 2.0, 3.5):
        for n_t in (1, 2):
            link = MisoLink(n_t=n_t, delay_a=1.0, branch=AlphaMuParams(alpha=2.0, mu=m))
            for rho in (1.0, 10.0):
                np.testing.assert_allclose(
                    rate_nakagami(link, rho),
                    rate_exact_foxh(link, rho),
                    rtol=1e-8,
                )


def test_nakagami_needs_alpha_two():
    link = MisoLink(n_t=2, delay_a=1.0, branch=AlphaMuParams(alpha=3.0, mu=2.0))
    with pytest.raises(ValueError, match="alpha"):
        rate_nakagami(link, 10.0)


def test_nakagami_scale_parameter():
    # omega is the per-branch mean SNR; doubling it must match doubling rho
    r1 = rate_nakagami(MisoLink(2, 0.5, AlphaMuParams(2.0, 2.0, mean_snr=2.0)), 5.0)
    r2 = rate_nakagami(MisoLink(2, 0.5, AlphaMuParams(2.0, 2.0, mean_snr=1.0)), 10.0)
    np.testing.assert_allclose(r1, r2, rtol=1e-12)


# ------------------------------------------------------------- ergodic link


def test_ergodic_frozen_value():
    np.testing.assert_allclose(
        ergodic_capacity_quadrature(_EXP_LINK, 1.0), 0.8603473822708860, rtol=1e-12
    )


def test_ergodic_is_delay_free_limit():
    # the effective rate climbs to the ergodic capacity as the delay
    # constraint is relaxed
    soft = MisoLink(n_t=1, delay_a=1e-4, branch=AlphaMuParams(alpha=2.0, mu=1.0))
    assert (
        abs(rate_exact_quadrature(soft, 1.0) - ergodic_capacity_quadrature(soft, 1.0))
        < 1e-4
    )
    hard = MisoLink(n_t=1, delay_a=4.0, branch=AlphaMuParams(alpha=2.0, mu=1.0))
    assert rate_exact_quadrature(hard, 1.0) < ergodic_capacity_quadrature(hard, 1.0)


# ----------------------------------------------------------------- high SNR


def test_high_snr_validity_flags():
    # branch alpha*mu/2 = 0.4 cannot support A = 2
    bad = MisoLink(n_t=1, delay_a=2.0, branch=AlphaMuParams(alpha=0.8, mu=1.0))
    required, conservative = high_snr_validity(bad)
    assert not required and not conservative
    with pytest.raises(ValueError):
        rate_high_snr(bad, 1e6)
    # inside the validity strip: legal but slowly converging, must warn
    strip = MisoLink(n_t=1, delay_a=0.6, branch=AlphaMuParams(alpha=2.0, mu=1.0))
    required, conservative = high_snr_validity(strip)
    assert required and not conservative
    with pytest.warns(UserWarning, match="slowly"):
        rate_high_snr(strip, 1e6)


def test_high_snr_warns_where_the_link_has_a_lower_slope():
    # alpha 0.8, mu 2, n_t 2: the link's diversity order is d = 1.6 and the
    # surrogate's d_f = 1.886; for d < A < d_f the link's rate grows as d/A
    # per doubling of rho while the surrogate asymptote grows as 1
    def link(a):
        return MisoLink(n_t=2, delay_a=a, branch=AlphaMuParams(alpha=0.8, mu=2.0))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rate_high_snr(link(1.75), 1e6)
    messages = [str(w.message) for w in caught]
    # A = 1.75 is also within one unit of d_f, so the slow-convergence warning fires too
    assert any("diversity order 1.6 but not the surrogate's 1.88" in m for m in messages), messages
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate_high_snr(link(0.5), 1e6)


def test_high_snr_asymptote_converges():
    link = MisoLink(n_t=2, delay_a=0.5, branch=AlphaMuParams(alpha=4.0, mu=2.0))
    f = 10.0 ** 0.05
    slope = (
        rate_exact_quadrature(link, 1e5 * f) - rate_exact_quadrature(link, 1e5 / f)
    ) / (2.0 * math.log2(f))
    np.testing.assert_allclose(slope, 1.0, atol=1e-2)
    gap5 = abs(rate_exact_quadrature(link, 1e5) - rate_high_snr(link, 1e5))
    gap6 = abs(rate_exact_quadrature(link, 1e6) - rate_high_snr(link, 1e6))
    assert gap6 < 1e-2
    # the offset gap decays like a power of rho
    assert gap6 < 0.2 * gap5


# ------------------------------------------------------------------ low SNR


def test_wideband_minimum_energy():
    # with unit mean branch SNR the minimum energy per bit is ln 2 for every
    # fading shape and array size
    for alpha, mu, n_t in ((0.8, 2.0, 3), (2.0, 1.0, 1), (6.0, 0.7, 4)):
        link = MisoLink(n_t=n_t, delay_a=1.0, branch=AlphaMuParams(alpha=alpha, mu=mu))
        eb_min, _ = wideband_metrics(link)
        np.testing.assert_allclose(eb_min, math.log(2.0), rtol=1e-12)
    # scaling the branch mean scales the minimum down
    rich = MisoLink(n_t=2, delay_a=1.0, branch=AlphaMuParams(2.0, 1.0, mean_snr=4.0))
    eb_min, _ = wideband_metrics(rich)
    np.testing.assert_allclose(eb_min, math.log(2.0) / 4.0, rtol=1e-12)


def test_wideband_slope_closed_form():
    # Gamma branches give S0 = 2 m n_t / (A + 1 + m n_t); the (m=1, n_t=2,
    # A=0.5) corner is exactly 4/3.5
    _, s0 = wideband_metrics(MisoLink(n_t=2, delay_a=0.5, branch=AlphaMuParams(2.0, 1.0)))
    np.testing.assert_allclose(s0, 4.0 / 3.5, rtol=1e-12)
    for m in (0.5, 1.0, 2.0, 3.5):
        for n_t in (1, 2, 4):
            for a in (0.5, 1.0, 2.0):
                link = MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(2.0, m))
                _, s0 = wideband_metrics(link)
                np.testing.assert_allclose(
                    s0, 2.0 * m * n_t / (a + 1.0 + m * n_t), rtol=1e-10
                )


def test_wideband_slope_saturates_at_two():
    # channel hardening: huge diversity drives the slope to the AWGN value
    link = MisoLink(n_t=1, delay_a=1.0, branch=AlphaMuParams(2.0, 1e4))
    _, s0 = wideband_metrics(link)
    np.testing.assert_allclose(s0, 2.0, atol=1e-3)


def test_wideband_slope_orderings():
    branch = AlphaMuParams(alpha=0.8, mu=2.0)
    by_nt = [
        wideband_metrics(MisoLink(n_t=n, delay_a=1.0, branch=branch))[1]
        for n in (1, 2, 4, 8)
    ]
    assert all(b > a for a, b in zip(by_nt, by_nt[1:]))
    by_a = [
        wideband_metrics(MisoLink(n_t=2, delay_a=a, branch=branch))[1]
        for a in (0.25, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b < a for a, b in zip(by_a, by_a[1:]))


def test_low_snr_rate_shape():
    link = MisoLink(n_t=2, delay_a=1.0, branch=AlphaMuParams(alpha=2.0, mu=2.0))
    eb_min, s0 = wideband_metrics(link)
    # doubling the energy per bit buys exactly one slope unit
    r1 = rate_low_snr(link, 2.0 * eb_min)
    r2 = rate_low_snr(link, 4.0 * eb_min)
    np.testing.assert_allclose(r2 - r1, s0, rtol=1e-12)
    with pytest.warns(UserWarning, match="clamped"):
        assert rate_low_snr(link, eb_min) == 0.0
    with pytest.raises(ValueError):
        rate_low_snr(link, 0.0)
    # an infinite energy per bit is refused by name, with no clamp warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.inf, [1.0, math.inf]):
            with pytest.raises(ValueError, match="eb_n0 must be finite"):
                rate_low_snr(link, bad)


def test_low_snr_rate_takes_a_sequence():
    link = MisoLink(n_t=2, delay_a=0.5, branch=AlphaMuParams(alpha=3.0, mu=1.5))
    eb_min, _ = wideband_metrics(link)
    ebs = [eb_min * f for f in (1.001, 1.5, 2.0, 10.0, 1e3)]
    vec = rate_low_snr(link, ebs)
    assert isinstance(vec, np.ndarray) and vec.shape == (len(ebs),)
    assert vec.tolist() == [rate_low_snr(link, eb) for eb in ebs]
    with pytest.warns(UserWarning, match="clamped") as record:
        clamped = rate_low_snr(link, [0.5 * eb_min, eb_min, 2.0 * eb_min])
    assert len(record) == 1
    assert clamped.tolist() == [0.0, 0.0, rate_low_snr(link, 2.0 * eb_min)]
    with pytest.raises(ValueError):
        rate_low_snr(link, [1.0, 0.0])


def test_parametric_curve_hits_intercept():
    for a in (0.5, 1.0, 2.0):
        link = MisoLink(n_t=2, delay_a=a, branch=AlphaMuParams(alpha=2.0, mu=2.0))
        eb, rate = parametric_eb_n0(link, 1e-4)
        assert rate > 0
        offset_db = 10.0 * math.log10(eb) - 10.0 * math.log10(math.log(2.0))
        assert abs(offset_db) < 0.05


def test_channel_power_moments_exponential():
    # two exponential branches: E{S} = 2, E{S^2} = 2*2 + 2*1 = 6
    link = MisoLink(n_t=2, delay_a=1.0, branch=AlphaMuParams(alpha=2.0, mu=1.0))
    e1, e2 = channel_power_moments(link)
    np.testing.assert_allclose(e1, 2.0, rtol=1e-14)
    np.testing.assert_allclose(e2, 6.0, rtol=1e-13)


def test_link_validation():
    branch = AlphaMuParams(alpha=2.0, mu=1.0)
    with pytest.raises(ValueError):
        MisoLink(n_t=0, delay_a=1.0, branch=branch)
    with pytest.raises(ValueError):
        MisoLink(n_t=2, delay_a=0.0, branch=branch)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            MisoLink(n_t=2, delay_a=bad, branch=branch)


def test_link_refuses_a_non_integer_antenna_count_by_name():
    # n_t = 2.0 used to construct and fail only in simulate_rate, inside
    # numpy, as a bare TypeError
    branch = AlphaMuParams(alpha=3.0, mu=2.0)
    for n_t in (2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="n_t must be a positive integer"):
            MisoLink(n_t=n_t, delay_a=0.5, branch=branch)
    assert MisoLink(n_t=np.int64(2), delay_a=0.5, branch=branch).n_t == 2
