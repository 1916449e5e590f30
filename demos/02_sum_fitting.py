"""Moment matching a multi-antenna SNR sum to a single alpha-mu law.

Run:  python3 demos/02_sum_fitting.py
"""

import numpy as np
from scipy import special, stats

from effrate import AlphaMuParams, fit_sum, moment, sample, sum_moments

branch = AlphaMuParams(alpha=3.0, mu=1.2, mean_snr=1.0)
n_t = 4

print("Branch: alpha=%g mu=%g mean=%g, %d antennas" % (
    branch.alpha, branch.mu, branch.mean_snr, n_t))
fit = fit_sum(branch, n_t)
p = fit.fitted
print("Fitted sum law: alpha=%.6f mu=%.6f mean=%.6f" % (p.alpha, p.mu, p.mean_snr))
print("Matching residuals: %.2e, %.2e" % fit.residuals)

print()
print("Exact sum moments vs fitted-law moments")
print("---------------------------------------")
print("  order      exact       fitted     rel error")
for q in (1, 2, 3, 4):
    exact = sum_moments(branch, n_t, q)
    approx = moment(p, q)
    print("  %d     %10.5f   %10.5f   %.2e" % (q, exact, approx, abs(approx / exact - 1)))
print("Orders 1, 2 and 4 are matched by construction; order 3 shows the")
print("actual quality of the approximation.")

print()
print("Distribution-level check (100k draws of the true sum)")
print("------------------------------------------------------")
rng = np.random.default_rng(1)
true_draws = sample(branch, rng, size=(100_000, n_t)).sum(axis=1)
# the fitted law: (g / beta)^(alpha/2) is a unit Gamma(mu) variate
res = stats.kstest(true_draws, lambda g: special.gammainc(p.mu, (g / p.beta) ** (p.alpha / 2)))
print("  sup-norm distance between true sum and fitted law: %.4f" % res.statistic)

print()
print("Gamma closure sanity: alpha=2 branches sum exactly")
gamma_fit = fit_sum(AlphaMuParams(alpha=2.0, mu=1.5), 3)
print("  fit(alpha=2, mu=1.5, n_t=3) = alpha=%.6f mu=%.6f (expect 2 and 4.5)" % (
    gamma_fit.fitted.alpha, gamma_fit.fitted.mu))
