"""Special-function kernels against frozen references and closed identities.

Frozen values were computed independently with 40-digit arithmetic (mpmath)
and truncated to double precision.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special as sps

from effrate import special
from effrate.special import (
    ContourError,
    FoxHSpec,
    TruncationError,
    fox_h,
    gamma_expectation,
    log_mean_power,
    tricomi_u,
)

# ---------------------------------------------------------------- log gamma

_LOGGAMMA_REF = [
    (0.5 + 3.0j, -3.7934504504362232 + 0.30981927108643917j),
    (2.5 - 1.25j, -0.07825481438511577 - 0.9489117675513035j),
    (-1.5 + 2.0j, -3.862406087395576 - 4.622609407486976j),
    (8.0 + 8.0j, 4.836076402348712 + 17.293400307172409j),
]


# chi(s) = Gamma(s): the contour kernel's log chi is log Gamma itself
_GAMMA = FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),))


def _log_gamma_on_line(z):
    """log Gamma(z) through the kernel's evaluation on the line Re s = Re z."""
    return special._log_chi(_GAMMA, z.real, np.array([z.imag]))[0]


def test_log_gamma_frozen_values():
    for z, ref in _LOGGAMMA_REF:
        got = _log_gamma_on_line(z)
        np.testing.assert_allclose(got.real, ref.real, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(got.imag, ref.imag, rtol=1e-13, atol=1e-13)


# (x, d, lgamma(x) - 2 lgamma(x + d) + lgamma(x + 2 d)) at 200 digits: through
# the recurrence, from 12 on, with d < 1e-3, and where direct lgamma values
# would cancel all but a few digits
_LGAMMA_D2_REF = [
    (1e-12, 0.5, 26.486291230081921),
    (0.3, 8.0, 11.54872332282746),
    (2.5, 0.25, 0.027400717202990208),
    (11.75, 0.5, 0.021270188436763075),
    (12.5, 0.0625, 0.00032365061757680464),
    (24.88, 0.125, 0.00063753930289970958),
    (5.0, 2e-4, 8.8525279316248343e-9),
    (400.0, 0.5, 0.00062499983723988851),
    (1e5, 400.0, 1.5936376503795863),
    (3e7, 1e-6, 3.3333333888887781e-20),
]


def test_lgamma_second_difference_frozen_values():
    for x, d, ref in _LGAMMA_D2_REF:
        np.testing.assert_allclose(special.lgamma_second_difference(x, d), ref, rtol=1e-14,
                                   err_msg=str((x, d)))


# (x, d, (lgamma(x + d) - lgamma(x)) / d) at 80 digits, and psi(x) at d = 0:
# through the recurrence and from 12 on, where the two lgamma values cancel
# all but a few digits (or all of them, for subnormal d), and at psi's zero
_LGAMMA_SLOPE_REF = [
    (0.05, 9e-4, -20.3192869686348),
    (0.05, 1e-10, -20.49784497122325),
    (0.3, -9e-4, -3.5080448206654253),
    (0.3, 5e-324, -3.502524222200133),
    (1.4616321449683622, 9e-4, 0.00043533301148579104),
    (1.4616321449683622, -1e-300, -9.241265521729427e-17),
    (2.5, -9e-4, 0.7029359477606483),
    (2.5, 0.0, 0.7031566406452432),
    (11.9, 1e-10, 2.433933536886921),
    (30.0, 9e-4, 3.384453385307605),
    (30.0, -1e-300, 3.384438132685525),
    (1e6, -9e-4, 13.81551005751419),
]


def test_lgamma_slope_frozen_values():
    for x, d, ref in _LGAMMA_SLOPE_REF:
        got = special.lgamma_slope(x, d)
        assert abs(got - ref) <= 4e-15 * max(1.0, abs(ref)), (x, d, got, ref)


def test_log_gamma_recurrence():
    # log Gamma(z+1) = log Gamma(z) + log z, exactly continuable in the
    # right half-plane so no branch jumps can hide here
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.uniform(0.1, 6.0), rng.uniform(-6.0, 6.0))
        lhs = _log_gamma_on_line(z + 1.0)
        rhs = _log_gamma_on_line(z) + np.log(complex(z))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_log_gamma_real_axis_matches_lgamma():
    x = np.array([0.05, 0.5, 1.0, 3.7, 25.0, 140.5, -0.5, -2.3, -7.9, -20.25])
    np.testing.assert_allclose(special._log_abs_chi(_GAMMA, x), sps.gammaln(x), rtol=1e-14)
    assert special._log_abs_chi(_GAMMA, np.array([-3.0])).tolist() == [math.inf]
    # a line's real point is math.lgamma itself, wherever it sits among the nodes
    for c in x[:6].tolist():
        for t in ([0.0], [0.7, 0.0, -0.0]):
            got = special._log_chi(_GAMMA, c, np.array(t))[np.array(t) == 0]
            assert got.real.tolist() == [math.lgamma(c)] * len(got), c
            assert got.imag.tolist() == [0.0] * len(got), c


def test_log_gamma_matches_scipy_loggamma():
    # the box of the contour kernels, a band around the real axis and the
    # negative real axis on both sides of its cut, against scipy as an
    # oracle, one line Re s = x at a time: 150,000 points on 15,000 lines,
    # and 20,000 lines through the negative real axis
    rng = np.random.default_rng(8)
    x = rng.uniform(-30.0, 0.0, 20_000)
    lines = [(c, rng.uniform(-200.0, 200.0, 10)) for c in rng.uniform(-30.0, 60.0, 10_000)]
    lines += [(c, rng.uniform(-1e-3, 1e-3, 10)) for c in rng.uniform(-30.0, 60.0, 5_000)]
    lines += [(c, np.array([0.0, -0.0])) for c in x[x != np.round(x)]]
    got = np.concatenate([special._log_chi(_GAMMA, c, t) for c, t in lines])
    z = np.empty(len(got), dtype=complex)
    z.real = np.concatenate([np.full(len(t), c) for c, t in lines])
    z.imag = np.concatenate([t for _, t in lines])  # keeps the sign of a zero t
    want = sps.loggamma(z)
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    assert err.max() <= 1e-14, z[np.argmax(err)]


# ------------------------------------------------------------------ Tricomi

_TRICOMI_REF = [
    # U(1,1,1) = e * E1(1)
    (1.0, 1.0, 1.0, 0.5963473623231941),
    (0.5, 0.3, 2.0, 0.5785566925551345),
    (2.5, 1.0, 0.7, 0.14591203911934137),
    (4.0, 2.5, 3.0, 0.0020371371212904462),
]


def test_tricomi_frozen_values():
    for a, b, z, ref in _TRICOMI_REF:
        np.testing.assert_allclose(tricomi_u(a, b, z), ref, rtol=1e-12)


def test_tricomi_kummer_reduction():
    # U(a; a+1; z) = z^(-a)
    for a in (0.5, 1.0, 1.5, 3.0):
        for z in (0.2, 1.0, 2.5, 10.0):
            np.testing.assert_allclose(tricomi_u(a, a + 1.0, z), z ** (-a), rtol=1e-10)


def test_tricomi_kummer_transformation():
    # U(a;b;z) = z^(1-b) U(a-b+1; 2-b; z); both sides run through genuinely
    # different integrands, so shared bugs cannot cancel
    rng = np.random.default_rng(3)
    for _ in range(60):
        a = rng.uniform(0.3, 6.0)
        b = rng.uniform(-2.0, a + 0.9)
        z = rng.uniform(0.05, 30.0)
        lhs = tricomi_u(a, b, z)
        rhs = z ** (1.0 - b) * tricomi_u(a - b + 1.0, 2.0 - b, z)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_tricomi_three_term_recurrence():
    rng = np.random.default_rng(5)
    for _ in range(60):
        a = rng.uniform(1.2, 5.0)
        b = rng.uniform(-1.0, a)
        z = rng.uniform(0.2, 20.0)
        u0 = tricomi_u(a - 1.0, b, z)
        u1 = tricomi_u(a, b, z)
        u2 = tricomi_u(a + 1.0, b, z)
        resid = u0 + (b - 2.0 * a - z) * u1 + a * (a - b + 1.0) * u2
        scale = abs(u0) + abs((b - 2.0 * a - z) * u1) + abs(a * (a - b + 1.0) * u2)
        assert abs(resid) <= 1e-12 * scale


def test_tricomi_cross_check_scipy():
    # scipy.special.hyperu itself is only good to ~1e-7 in parts of this
    # range (checked against 40-digit values), so this is a sanity band,
    # not a precision anchor
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = rng.uniform(0.2, 8.0)
        b = rng.uniform(-2.0, a + 4.0)
        z = rng.uniform(0.05, 30.0)
        np.testing.assert_allclose(tricomi_u(a, b, z), sps.hyperu(a, b, z), rtol=5e-6)


def test_tricomi_vector_call_matches_points():
    zs = np.logspace(-4.0, 6.0, 41)
    for a, b in ((0.3, -2.0), (2.0, 1.5), (64.0, 61.0), (3.0, 7.0)):
        vec = tricomi_u(a, b, zs)
        assert isinstance(vec, np.ndarray) and vec.shape == zs.shape
        for z, got in zip(zs, vec):
            one = tricomi_u(a, b, z)
            assert isinstance(one, float)
            assert abs(got - one) <= 1e-12 * abs(one), (a, b, z)


def test_tricomi_log_scaled_frozen_values():
    # log(z^a U(a;b;z)) = log_mean_power(a, 1/z, 1, b - a - 1) at 40 digits:
    # U itself underflows at the first point, and z^a U is within 4e-5 of 1 there
    assert tricomi_u(64.0, 61.0, 6.4e6) == 0.0
    # a scalar c gives the same one-element array; at z = 6.4e6 it takes the
    # near-1 branch
    for z, ref in ((6.4e6, -3.9999784376655584e-05), (1e-3, -44.106576449746685)):
        for c in ([1.0 / z], 1.0 / z):
            np.testing.assert_allclose(log_mean_power(64.0, c, 1.0, -4.0), [ref], rtol=1e-12)


def test_tricomi_zero_step_is_refused_by_the_node_budget():
    # at a = 1e17 the Gamma-weight step rounds to 0, an infinite span
    with pytest.raises(TruncationError, match=r"^gamma_expectation: inf nodes needed"):
        tricomi_u(1e17, 1.0, 1.0)


def test_tricomi_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        tricomi_u(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        tricomi_u(-1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        tricomi_u(1.5, 1.0, [1.0, 0.0])
    # an infinite z is refused by name before any arithmetic, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (math.inf, [1.0, math.inf]):
            with pytest.raises(ValueError, match="z must be finite"):
                tricomi_u(1.0, 1.0, z)


# ---------------------------------------------------- Gamma-weight trapezoid


def test_gamma_expectation_power_moments():
    # E[c U^p] = c Gamma(mu + p) / Gamma(mu)
    c = np.logspace(-6.0, 6.0, 13)
    for mu, p in ((0.5, 1.0), (1.0, 4.0), (3.0, 0.25), (95.0, 2.0)):
        want = c * math.exp(math.lgamma(mu + p) - math.lgamma(mu))
        got, err = gamma_expectation(mu, lambda t: t, c, p, growth=1.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert err.shape == c.shape and np.all(err <= 1e-12)


def test_gamma_expectation_flags_short_node_range():
    # t^20 far outgrows a declared growth 0, so the right tail bound fails;
    # E[U^-3] diverges for mu = 2, so the left tail bound fails
    np.testing.assert_allclose(
        gamma_expectation(2.0, lambda t: t ** 20, [1.0], 1.0, growth=20.0)[0], math.gamma(22.0),
        rtol=1e-12)
    with pytest.raises(TruncationError):
        gamma_expectation(2.0, lambda t: t ** 20, [1.0], 1.0, growth=0.0)
    with pytest.raises(TruncationError):
        gamma_expectation(2.0, lambda t: t ** -3.0, [1.0], 1.0)
    with pytest.raises(ValueError):
        gamma_expectation(0.0, np.log1p, [1.0])


def test_gamma_expectation_estimate_covers_rounding():
    # log1p(u) - 0.5963 changes sign at u = 0.81; its mean under Gamma(1, 1),
    # e E1(1) - 0.5963 = 4.7e-5, is 1/7300 of the mean of its magnitude, so
    # the sum keeps about 2.7e-12 of rounding error.  The estimate must reach
    # half of that, which raises; the sum is read off the raising frame
    with pytest.raises(TruncationError) as info:
        gamma_expectation(1.0, lambda t: np.log1p(t) - 0.5963, [1.0], 1.0, growth=1.0)
    kernel = info.traceback[-1].frame.f_locals
    true_err = abs(kernel["h"] * kernel["full"][0] / 4.7362323194022114e-05 - 1.0)
    assert true_err > 1e-12
    assert kernel["err"][0] >= 0.5 * true_err, (kernel["err"][0], true_err)


def test_gamma_expectation_reuses_one_block():
    # each block of rows is formed, weighted and summed in one buffer of
    # _BLOCK entries, so log_mean_power over a 121-point sweep, through both
    # of its integrands (the low end of c takes the expm1 one), holds that
    # buffer and numpy's own iterator buffers, not a block per temporary
    c = np.logspace(-3.0, 3.0, 121)
    log_e = log_mean_power(2.0, c, 1.0, -0.5)
    assert np.abs(log_e).min() < math.log(2.0) < np.abs(log_e).max()
    tracemalloc.start()
    try:
        log_mean_power(2.0, c, 1.0, -0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * special._BLOCK * 8, peak


# -------------------------------------------------------------------- Fox H


def test_fox_h_exponential_identity():
    # H^{1,0}_{0,1}[x | - ; (0,1)] = exp(-x)
    spec = FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),))
    for x in (0.1, 1.0, 5.0, 20.0):
        np.testing.assert_allclose(fox_h(spec, x), math.exp(-x), rtol=1e-10)


def test_fox_h_stretched_exponential_identity():
    # non-unit coefficient: H^{1,0}_{0,1}[x | - ; (0, 1/2)] = 2 exp(-x^2)
    spec = FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 0.5),))
    for x in (0.3, 1.0, 2.0):
        np.testing.assert_allclose(fox_h(spec, x), 2.0 * math.exp(-x * x), rtol=1e-10)


def test_fox_h_binomial_identity():
    # (1+x)^w = H^{1,1}_{1,1}[x | (w+1,1); (0,1)] / Gamma(-w)
    for w in (-0.5, -1.5, -3.0):
        spec = FoxHSpec(m=1, n=1, upper_pairs=((w + 1.0, 1.0),), lower_pairs=((0.0, 1.0),))
        for x in (0.1, 1.0, 10.0):
            got = fox_h(spec, x) / math.gamma(-w)
            np.testing.assert_allclose(got, (1.0 + x) ** w, rtol=1e-8)


def test_fox_h_rate_kernel_frozen():
    # the H^{2,1}_{1,2} kernel used by the exact rate, at alpha=2, mu=2, A=1,
    # z=1; equals the Gamma(2) average of (1+g)^-1, i.e. 1 - e*E1(1)
    spec = FoxHSpec(
        m=2, n=1, upper_pairs=((1.0, 1.0),), lower_pairs=((2.0, 1.0), (1.0, 1.0))
    )
    np.testing.assert_allclose(fox_h(spec, 1.0), 0.4036526376768059, rtol=1e-10)


def test_phase_sums_match_direct_exponentials(monkeypatch):
    # the factored phase matrix against one exponential per node and per
    # log z, on the node sets of real sweeps; the scale is sum |w|, since at
    # the ends of this log z range the sums cancel to far below it
    seen = []
    factored = special._phase_sums

    def spy(w, h, log_z):
        seen.append((w, h))
        return factored(w, h, log_z)

    monkeypatch.setattr(special, "_phase_sums", spy)
    log_z = np.linspace(-60.0, 60.0, 1000)
    for spec in (
        FoxHSpec(m=2, n=1, upper_pairs=((1.0, 1.5),), lower_pairs=((2.0, 1.0), (0.5, 1.5))),
        FoxHSpec(m=2, n=1, upper_pairs=((1.0, 0.4),), lower_pairs=((3.0, 1.0), (2.0, 0.4))),
        FoxHSpec(m=1, n=1, upper_pairs=((-0.5, 1.0),), lower_pairs=((0.0, 1.0),)),
        FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 0.5),)),
    ):
        special.contour_integral(spec, spec.contour_abscissa(), log_z)
    assert len(seen) == 4
    for w, h in seen:
        full, half = factored(w, h, log_z)
        terms = np.exp(-1j * np.outer(log_z, h * np.arange(len(w)))) * w
        scale = np.abs(w).sum()
        assert np.abs(full - terms.sum(axis=1).real).max() <= 1e-13 * scale
        assert np.abs(half - terms[:, ::2].sum(axis=1).real).max() <= 1e-13 * scale


def test_fox_h_strip_validation():
    # lower poles start at s = 0 and upper poles end at s = 0: empty strip
    with pytest.raises(ContourError):
        FoxHSpec(m=1, n=1, upper_pairs=((1.0, 1.0),), lower_pairs=((0.0, 1.0),))
    with pytest.raises(ValueError):
        FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, -1.0),))
    with pytest.raises(ValueError):
        FoxHSpec(m=2, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),))


def test_fox_h_rejects_nonpositive_argument():
    spec = FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),))
    with pytest.raises(ValueError):
        fox_h(spec, 0.0)
    with pytest.raises(ValueError):
        fox_h(spec, -1.0)


def test_fox_h_refuses_an_estimate_above_1e_12(monkeypatch):
    spec = FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),))
    integrals = special.contour_integrals

    def loose(spec, log_z):
        out = integrals(spec, log_z)
        out[2] = 1e-9
        return out

    monkeypatch.setattr(special, "contour_integrals", loose)
    with pytest.raises(TruncationError, match="error estimate 1e-09 exceeds 1e-12"):
        fox_h(spec, 1.0)


def test_contour_integral_refusals():
    exp_spec = FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),))
    # Gamma(s) / Gamma(1 + s) = 1/s does not decay along the line
    flat = FoxHSpec(m=1, n=0, upper_pairs=((1.0, 1.0),), lower_pairs=((0.0, 1.0),))
    with pytest.raises(ContourError, match="does not decay"):
        special.contour_integral(flat, 1.0, [0.0])
    # Gamma(s) has its pole at s = 0
    with pytest.raises(ContourError, match="passes through a pole"):
        special.contour_integral(exp_spec, 0.0, [0.0])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            special.contour_integral(exp_spec, 1.0, [0.0, bad])


def test_trapezoid_error_is_infinite_where_e_rise_is_not_a_double():
    # ((full - 2 half)^2 e^-rise / size + tail) / |full| + eps size / |full|
    full, half = np.ones(3), np.full(3, 0.501)
    err = special._trapezoid_error(full, half, 2.0, np.array([0.0, 700.0, 710.0]), 1e-9)
    assert err[0] == pytest.approx(2e-6 + 1e-9 + 4.4e-16, rel=1e-12)
    assert err[1] == pytest.approx(1e-9 + 4.4e-16, rel=1e-12)
    assert err[2] == math.inf


def test_gamma_expectation_refuses_where_its_rise_or_span_leaves_the_doubles():
    # decay 1e6 lifts the envelope's rise to about 79,000 nats, whose e^rise
    # raised a bare OverflowError; at decay 1e308 the node count overflows
    # before any int conversion.  Both are refused before any node is built
    # (the first peaked at 32 MB when its nodes came first)
    for decay, match in ((1e6, "error inf at c=1.0 exceeds"), (1e308, "inf nodes needed")):
        tracemalloc.start()
        try:
            with warnings.catch_warnings(), pytest.raises(TruncationError, match=match):
                warnings.simplefilter("error")
                gamma_expectation(1.0, lambda t: np.power(np.add(t, 1.0, out=t), -decay, out=t),
                                  [1.0], decay=decay)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (decay, peak)


# ----------------------------------------------------------------- Meijer G
# A Meijer G function is the Fox H function with every gamma argument
# coefficient 1; these identities run through that form.


def test_meijer_g_exponential():
    # G^{1,0}_{0,1}[x | - ; 0] = exp(-x)
    spec = FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),))
    for x in (0.2, 1.0, 6.0):
        np.testing.assert_allclose(fox_h(spec, x), math.exp(-x), rtol=1e-10)


def test_meijer_g_ratio_identity():
    # G^{1,1}_{1,1}[x | 1; 1] = x / (1 + x)
    spec = FoxHSpec(m=1, n=1, upper_pairs=((1.0, 1.0),), lower_pairs=((1.0, 1.0),))
    for x in (0.25, 1.0, 4.0):
        np.testing.assert_allclose(fox_h(spec, x), x / (1.0 + x), rtol=1e-10)
