"""Links at the ends of the double range: mean SNR 1e+-100 and 1e+-300, and
branch shape mu 1e17 and 1e-300.

Every route returns finite values there or raises a typed error whose
message names the cause, never Python's bare arithmetic message.  The sum
fit reads the branch shape only, so its alpha, mu and residuals are bitwise
those at mean SNR 1, and its mean is the mean SNR times the mean-1 one.

At the top of the SNR range every exact route answers within 1e-12 of the
high-SNR expansion, whose next term there is below 1e-250, or refuses by
name; the Gamma-weight kernel counts no node whose c u^p leaves the doubles.

A branch whose mean SNR or power scale beta is below the smallest normal
double is refused by name, as such a rho is.  Short of that, a mean SNR of
2^-k changes nothing but the scale: at rho = 2^(k-30) every route gives
bitwise what the mean-1 link gives at rho = 2^-30, and Eb/N0_min is exactly
2^k times the mean-1 one.  The wideband rate refuses by name an Eb/N0 whose
ratio to Eb/N0_min overflows.
"""

import math
import re
import warnings

import numpy as np
import pytest

from effrate import (
    AlphaMuParams,
    McConfig,
    MisoLink,
    TruncationError,
    ergodic_capacity_quadrature,
    fit_sum,
    rate_exact_foxh,
    rate_exact_quadrature,
    rate_high_snr,
    rate_low_snr,
    rate_nakagami,
    simulate_rate,
    wideband_metrics,
)

BARE = ("float division by zero", "math range error")
MEAN_SNRS = (1e-300, 1e-100, 1e100, 1e300)
SHAPES = ((1.5, 2.0, 2), (2.0, 1.5, 3))

ROUTES = {
    "fit_sum": lambda link, rho: fit_sum(link.branch, link.n_t).fitted.mean_snr,
    "quadrature": rate_exact_quadrature,
    "fox_h": rate_exact_foxh,
    "nakagami": rate_nakagami,
    "high_snr": rate_high_snr,
    "ergodic": ergodic_capacity_quadrature,
    "wideband": lambda link, rho: wideband_metrics(link),
}

# (alpha, mu, n_t, mean SNR); rho is 10 / mean SNR, 10 dB on the mean-1 link
LINKS = ([(alpha, mu, n_t, m) for alpha, mu, n_t in SHAPES for m in MEAN_SNRS]
         + [(alpha, mu, n_t, 1.0) for alpha in (1.5, 2.0) for mu in (1e17, 1e-300)
            for n_t in (1, 2)])


@pytest.mark.parametrize("alpha, mu, n_t, mean_snr", LINKS)
def test_routes_give_finite_values_or_named_errors(alpha, mu, n_t, mean_snr):
    link = MisoLink(n_t=n_t, delay_a=1.0, branch=AlphaMuParams(alpha, mu, mean_snr))
    for name, route in ROUTES.items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # high_snr's slow-convergence note
                got = route(link, 10.0 / mean_snr)
        except (ValueError, ArithmeticError) as err:
            assert str(err) not in BARE, (name, err)
        else:
            assert np.all(np.isfinite(got)), (name, got)


@pytest.mark.parametrize("alpha, mu, n_t", SHAPES + ((0.8, 2.0, 4),))
def test_fit_and_wideband_slope_read_the_shape_only(alpha, mu, n_t):
    ref = fit_sum(AlphaMuParams(alpha, mu), n_t)
    eb_min, s0 = wideband_metrics(MisoLink(n_t, 1.0, AlphaMuParams(alpha, mu)))
    for m in MEAN_SNRS + (1e-80, 1e-3, 7.3):
        fit = fit_sum(AlphaMuParams(alpha, mu, m), n_t)
        assert (fit.fitted.alpha, fit.fitted.mu) == (ref.fitted.alpha, ref.fitted.mu), m
        assert fit.residuals == ref.residuals, m
        assert fit.fitted.mean_snr == m * ref.fitted.mean_snr, m
        eb_min_m, s0_m = wideband_metrics(MisoLink(n_t, 1.0, AlphaMuParams(alpha, mu, m)))
        assert s0_m == s0, m
        assert abs(eb_min_m * m / eb_min - 1.0) <= 4e-16, m


def _value_or_error(route, link, rho):
    try:
        return route(link, rho)
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)


# the routes whose value at rho = 2^(k-30) on the mean-2^-k link is the mean-1
# link's at 2^-30: the fitted shape, every exact route, both asymptotes,
# ergodic capacity and Monte Carlo
SCALE_FREE = {
    "fit_sum": lambda link, rho: (link.fit.fitted.alpha, link.fit.fitted.mu),
    "quadrature": rate_exact_quadrature,
    "fox_h": rate_exact_foxh,
    "nakagami": rate_nakagami,
    "high_snr": rate_high_snr,
    "ergodic": ergodic_capacity_quadrature,
    "low_snr": lambda link, rho: rate_low_snr(link, 2.0 * wideband_metrics(link)[0]),
    "monte_carlo": lambda link, rho: simulate_rate(link, rho, McConfig(samples=10_000, seed=1)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", (1000, 1022, 1030, 1050))
@pytest.mark.parametrize("alpha, mu, n_t", ((2.0, 1.5, 2), (1.5, 2.0, 2), (2.0, 0.5, 2)))
def test_a_subnormal_scale_is_refused_and_a_normal_one_changes_nothing(alpha, mu, n_t, k):
    # (2, 0.5) has Gamma(0.5) / Gamma(1.5) = 2, so beta = 2^-1021 admits the
    # mean 2^-1022, where the other shapes' beta is subnormal.  Means below
    # the normal doubles were once admitted: quadrature, fox_h and ergodic
    # capacity were 3.0e-8 off at 2^-1050, and Eb/N0_min was inf at 2^-1030
    mean_snr = math.ldexp(1.0, -k)
    if k > 1022 or (k == 1022 and (alpha, mu) != (2.0, 0.5)):
        scale = "mean_snr" if k > 1022 else "power scale beta"
        with pytest.raises(ValueError, match="%s = .* is not a normal double" % scale):
            AlphaMuParams(alpha, mu, mean_snr)
        return
    link = MisoLink(n_t, 1.0, AlphaMuParams(alpha, mu, mean_snr))
    ref = MisoLink(n_t, 1.0, AlphaMuParams(alpha, mu))
    for name, route in SCALE_FREE.items():
        if name == "nakagami" and alpha != 2.0:
            continue
        got = _value_or_error(route, link, math.ldexp(1.0, k - 30))
        assert got == _value_or_error(route, ref, math.ldexp(1.0, -30)), (name, got)
    assert wideband_metrics(link)[0] == math.ldexp(wideband_metrics(ref)[0], k)


def test_a_unit_mean_branch_with_a_subnormal_power_scale_is_refused():
    # beta = Gamma(1500) / Gamma(1600) = 9.7e-320 at mean SNR 1
    with pytest.raises(ValueError, match="power scale beta = 9.7"):
        AlphaMuParams(alpha=0.02, mu=1500.0)


@pytest.mark.filterwarnings("error")
def test_wideband_rate_refuses_the_ratio_that_overflows():
    # at mean SNR 1e300 Eb/N0_min is 6.9e-301, so eb_n0 / Eb/N0_min overflows
    # from an Eb/N0 of about 1.25e8; the rate read inf there, with no warning
    link = MisoLink(2, 1.0, AlphaMuParams(1.5, 2.0, 1e300))
    assert math.isfinite(rate_low_snr(link, 1e8))
    for eb_n0, named in ((1e10, 1e10), (1e300, 1e300), ([1e8, 1e10], 1e10)):
        with pytest.raises(ValueError, match="eb_n0=%s is too large" % re.escape(repr(named))):
            rate_low_snr(link, eb_n0)


@pytest.mark.filterwarnings("error")
def test_exact_routes_answer_within_1e_12_or_refuse_at_the_top_of_the_range():
    # n_t = 1, so the fitted law is the branch's, and where mu - 2A/alpha > 1
    # and mu - 2(A + 1)/alpha > 0 the rate is
    #     R = log2(rho beta) - (lgamma(mu - 2A/alpha) - lgamma(mu)) / (A ln 2)
    # up to O(1/(rho beta)), beta = Gamma(mu) / Gamma(mu + 2/alpha).  The
    # Gamma-weight kernel took a node whose c u^p overflowed as one whose
    # integrand was its limit 0 and bounded the right tail from past it:
    # from rho = 3e307, 14 quadrature and 4 nakagami answers were off, by
    # up to 3.1e-4 on (3, 2, A 1) at 1.7e308 and 2.8e-4 on (2, 3, A 1)
    answered = 0
    for alpha in (0.8, 1.5, 2.0, 3.0, 4.0, 8.0):
        for mu in (0.75, 1.0, 2.0, 3.0):
            for a_qos in (0.5, 1.0, 2.0):
                shift = 2.0 * a_qos / alpha
                if not (mu - shift > 1.0 and mu - shift - 2.0 / alpha > 0.0):
                    continue
                link = MisoLink(1, a_qos, AlphaMuParams(alpha, mu))
                beta = math.exp(math.lgamma(mu) - math.lgamma(mu + 2.0 / alpha))
                gap = (math.lgamma(mu - shift) - math.lgamma(mu)) / (a_qos * math.log(2.0))
                routes = [rate_exact_quadrature, rate_exact_foxh] + [rate_nakagami] * (alpha == 2)
                for rho in (1e250, 1e280, 1e300, 1e304, 1e306, 1e307, 3e307, 1e308, 1.7e308):
                    want = math.log2(rho * beta) - gap
                    for route in routes:
                        try:
                            got = route(link, rho)
                        except (ValueError, TruncationError) as exc:
                            named = str(exc).startswith(route.__name__ + ":") and "rho=" in str(exc)
                            assert named, exc
                            continue
                        assert abs(got / want - 1.0) <= 1e-12, (alpha, mu, a_qos, rho, route, got)
                        answered += 1
    # 213 of the 405 calls; quadrature answers 17 of the 21 links up to 1e307
    assert answered >= 213
