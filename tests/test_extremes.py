"""Links at the ends of the double range: mean SNR 1e+-100 and 1e+-300, and
branch shape mu 1e17 and 1e-300.

Every route returns finite values there or raises a typed error whose
message names the cause, never Python's bare arithmetic message.  The sum
fit reads the branch shape only, so its alpha, mu and residuals are bitwise
those at mean SNR 1, and its mean is the mean SNR times the mean-1 one.
"""

import warnings

import numpy as np
import pytest

from effrate import (
    AlphaMuParams,
    MisoLink,
    ergodic_capacity_quadrature,
    fit_sum,
    rate_exact_foxh,
    rate_exact_quadrature,
    rate_high_snr,
    rate_nakagami,
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
