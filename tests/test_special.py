"""Special-function kernels against frozen references and closed identities.

Frozen values were computed independently with 40-digit arithmetic (mpmath)
and truncated to double precision.
"""

import math

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
    log_gamma_complex,
    tricomi_u,
)

# ---------------------------------------------------------------- log gamma

_LOGGAMMA_REF = [
    (0.5 + 3.0j, -3.7934504504362232 + 0.30981927108643917j),
    (2.5 - 1.25j, -0.07825481438511577 - 0.9489117675513035j),
    (-1.5 + 2.0j, -3.862406087395576 - 4.622609407486976j),
    (8.0 + 8.0j, 4.836076402348712 + 17.293400307172409j),
]


def test_log_gamma_frozen_values():
    for z, ref in _LOGGAMMA_REF:
        got = log_gamma_complex(z)
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


def test_log_gamma_recurrence():
    # log Gamma(z+1) = log Gamma(z) + log z, exactly continuable in the
    # right half-plane so no branch jumps can hide here
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.uniform(0.1, 6.0), rng.uniform(-6.0, 6.0))
        lhs = log_gamma_complex(z + 1.0)
        rhs = log_gamma_complex(z) + np.log(complex(z))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_log_gamma_real_axis_matches_lgamma():
    for x in (0.05, 0.5, 1.0, 3.7, 25.0, 140.5):
        got = log_gamma_complex(x)
        assert got.imag == 0.0
        np.testing.assert_allclose(got.real, math.lgamma(x), rtol=1e-14)


def test_log_gamma_matches_scipy_loggamma():
    # the box of the contour kernels, a band around the real axis and the
    # negative real axis on both sides of its cut, against scipy as an oracle
    rng = np.random.default_rng(8)
    x = rng.uniform(-30.0, 0.0, 20_000)
    z = np.concatenate([
        rng.uniform(-30.0, 60.0, 100_000) + 1j * rng.uniform(-200.0, 200.0, 100_000),
        rng.uniform(-30.0, 60.0, 50_000) + 1j * rng.uniform(-1e-3, 1e-3, 50_000),
        x[x != np.round(x)] + 0j,
        np.conj(x[x != np.round(x)] + 0j),
    ])
    want = sps.loggamma(z)
    err = np.abs(log_gamma_complex(z) - want) / np.maximum(np.abs(want), 1.0)
    assert err.max() <= 1e-14, z[np.argmax(err)]


def test_log_gamma_poles_raise():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError):
            log_gamma_complex(z)


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
        for log_scaled in (False, True):
            vec = tricomi_u(a, b, zs, log_scaled=log_scaled)
            assert isinstance(vec, np.ndarray) and vec.shape == zs.shape
            for z, got in zip(zs, vec):
                one = tricomi_u(a, b, z, log_scaled=log_scaled)
                assert isinstance(one, float)
                assert abs(got - one) <= 1e-12 * abs(one), (a, b, z, log_scaled)


def test_tricomi_log_scaled_frozen_values():
    # log(z^a U(a;b;z)) at 40 digits: U itself underflows at the first
    # point, and z^a U is within 4e-5 of 1 there
    assert tricomi_u(64.0, 61.0, 6.4e6) == 0.0
    for z, ref in ((6.4e6, -3.9999784376655584e-05), (1e-3, -44.106576449746685)):
        np.testing.assert_allclose(tricomi_u(64.0, 61.0, z, log_scaled=True), ref, rtol=1e-12)


def test_tricomi_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        tricomi_u(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        tricomi_u(-1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        tricomi_u(1.5, 1.0, [1.0, 0.0])


# ---------------------------------------------------- Gamma-weight trapezoid


def test_gamma_expectation_power_moments():
    # E[c U^p] = c Gamma(mu + p) / Gamma(mu)
    c = np.logspace(-6.0, 6.0, 13)
    for mu, p in ((0.5, 1.0), (1.0, 4.0), (3.0, 0.25), (95.0, 2.0)):
        want = c * math.exp(math.lgamma(mu + p) - math.lgamma(mu))
        got = gamma_expectation(mu, lambda t: t, c, p, growth=1.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_gamma_expectation_flags_short_node_range():
    # t^20 far outgrows a declared growth 0, so the right tail bound fails;
    # E[U^-3] diverges for mu = 2, so the left tail bound fails
    np.testing.assert_allclose(
        gamma_expectation(2.0, lambda t: t ** 20, [1.0], 1.0, growth=20.0), math.gamma(22.0),
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
