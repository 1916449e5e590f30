"""Effective rate of MISO links over alpha-mu fading.

Closed-form contour-integral evaluations, both-end asymptotics, and seeded
Monte Carlo verification of the delay-QoS constrained rate of a transmit
array with independent alpha-mu branches.
"""

from .alphamu import AlphaMuParams, moment, pdf, sample
from .montecarlo import McConfig, simulate_ergodic_capacity, simulate_rate, simulate_rates
from .rates import (
    MisoLink,
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
from .special import (
    ContourError,
    FoxHSpec,
    TruncationError,
    fox_h,
    gamma_expectation,
    tricomi_u,
)
from .sumfit import FitConvergenceError, SumFit, fit_sum, sum_moments

__version__ = "0.1.0"

__all__ = [
    "AlphaMuParams",
    "ContourError",
    "FitConvergenceError",
    "FoxHSpec",
    "McConfig",
    "MisoLink",
    "SumFit",
    "TruncationError",
    "ergodic_capacity_quadrature",
    "fit_sum",
    "fox_h",
    "gamma_expectation",
    "high_snr_validity",
    "moment",
    "parametric_eb_n0",
    "pdf",
    "rate_exact_foxh",
    "rate_exact_quadrature",
    "rate_high_snr",
    "rate_low_snr",
    "rate_nakagami",
    "sample",
    "simulate_ergodic_capacity",
    "simulate_rate",
    "simulate_rates",
    "sum_moments",
    "tricomi_u",
    "wideband_metrics",
]
