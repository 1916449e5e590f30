"""Self-contained cross-validation of every evaluation route.

Each check compares independent implementations (contour integral vs
quadrature vs closed forms vs Monte Carlo), so a defect in one path
surfaces as a disagreement rather than a silently consistent answer.
"""

import math
import sys
import time

import numpy as np

from .alphamu import AlphaMuParams, moment, pdf
from .montecarlo import McConfig, simulate_rates
from .montecarlo import simulate_rate  # noqa: F401  bench/spans.py traces verify.simulate_rate
from .rates import (
    LN2,
    MisoLink,
    parametric_eb_n0,
    rate_exact_foxh,
    rate_exact_quadrature,
    rate_high_snr,
    rate_nakagami,
    wideband_metrics,
)
from .special import FoxHSpec, fox_h, tricomi_u

rate_exact_meijerg = None  # bench/spans.py traces this name; the route is gone

_ROUTE_LINKS = [
    MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=alpha, mu=mu))
    for alpha in (0.8, 2.0, 4.0)
    for mu in (1.0, 2.0)
    for n_t in (1, 2)
    for a in (0.5, 2.0)
]
_ROUTE_RHOS = (1.0, 100.0)

# Figure-1 family: N_t=2, A=0.5, mu=2, alpha swept
_FIG1_LINKS = [
    MisoLink(n_t=2, delay_a=0.5, branch=AlphaMuParams(alpha=a, mu=2.0))
    for a in (0.8, 2.0, 4.0, 8.0)
]


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _check_route_agreement():
    worst = 0.0
    for link in _ROUTE_LINKS:
        rq = rate_exact_quadrature(link, _ROUTE_RHOS).tolist()
        rf = rate_exact_foxh(link, _ROUTE_RHOS).tolist()
        for q, f in zip(rq, rf):
            worst = max(worst, _rel(q, f))
    return worst, len(_ROUTE_LINKS) * len(_ROUTE_RHOS)


def _check_nakagami():
    rhos = (1.0, 10.0)
    worst = 0.0
    count = 0
    for m in (0.5, 1.0, 2.0, 3.5):
        for n_t in (1, 2):
            for a in (0.5, 1.0):
                link = MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=2.0, mu=m))
                rf = rate_exact_foxh(link, rhos).tolist()
                rn = rate_nakagami(link, rhos).tolist()
                for f, n in zip(rf, rn):
                    worst = max(worst, _rel(f, n))
                    count += 1
    return worst, count


def _check_branch_mean():
    worst = 0.0
    count = 0
    for alpha in (0.8, 2.0, 4.0, 8.0):
        for mu in (1.0, 2.5):
            p = AlphaMuParams(alpha=alpha, mu=mu, mean_snr=3.7)
            worst = max(worst, abs(moment(p, 1) / p.mean_snr - 1.0))
            count += 1
    return worst, count


def _check_identities():
    worst = 0.0
    count = 0
    for x in (0.1, 1.0, 5.0, 20.0):
        h = fox_h(FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),)), x)
        worst = max(worst, _rel(h, math.exp(-x)))
        count += 1
    for w in (-0.5, -1.5, -3.0):
        for x in (0.1, 1.0, 10.0):
            h = fox_h(
                FoxHSpec(m=1, n=1, upper_pairs=((w + 1.0, 1.0),), lower_pairs=((0.0, 1.0),)),
                x,
            )
            worst = max(worst, _rel(h / math.gamma(-w), (1.0 + x) ** w))
            count += 1
    # Kummer pairs U(a;b;z) = z^(1-b) U(a-b+1;2-b;z), two different integrands
    # each, and two 40-digit values; U(a;a+1;z) = z^-a reaches no kernel
    for a, b, z in ((0.7, -0.5, 0.3), (3.3, 1.2, 9.0)):
        kummer = z ** (1.0 - b) * tricomi_u(a - b + 1.0, 2.0 - b, z)
        worst = max(worst, _rel(tricomi_u(a, b, z), kummer))
        count += 1
    for a, b, z, ref in ((1.0, 1.0, 1.0, 0.5963473623231941),
                         (2.5, 1.0, 0.7, 0.14591203911934137)):
        worst = max(worst, _rel(tricomi_u(a, b, z), ref))
        count += 1
    return worst, count


def _check_pdf_normalization():
    # Trapezoid rule in u = log gamma: the density of u is smooth and falls
    # off exponentially on both sides (below 1e-31 at the ends of the range),
    # so the rule converges geometrically, and the sum on every second node
    # estimates its error.  Deliberately not special.gamma_expectation, whose
    # Gamma weight would assume the normalization being checked.
    u = np.linspace(-300.0, 60.0, 360 * 16 + 1)
    step = u[1] - u[0]
    worst = 0.0
    count = 0
    for alpha, mu in ((0.8, 0.6), (2.0, 2.0), (4.7, 1.3)):
        f = pdf(AlphaMuParams(alpha=alpha, mu=mu), np.exp(u)) * np.exp(u)
        ends = 0.5 * (f[0] + f[-1])
        total = step * (f.sum() - ends)
        coarse = 2.0 * step * (f[::2].sum() - ends)
        worst = max(worst, abs(total - 1.0) + abs(total - coarse))
        count += 1
    return worst, count


def _check_mc(samples, seed):
    rhos = (1.0, 10.0, 100.0)
    worst_ratio = 0.0
    count = 0
    mc = simulate_rates(_FIG1_LINKS, rhos, McConfig(samples=samples, seed=seed))
    for link, (est, hw) in zip(_FIG1_LINKS, mc):
        exact = rate_exact_foxh(link, rhos)
        allowance = np.maximum(1.5 * hw, 0.02 * exact)
        worst_ratio = max(worst_ratio, float(np.max(np.abs(est - exact) / allowance)))
        count += len(rhos)
    return worst_ratio, count


def _check_high_snr():
    worst = 0.0
    for link in _FIG1_LINKS:
        worst = max(worst, abs(rate_exact_foxh(link, 1e6) - rate_high_snr(link, 1e6)))
    return worst, len(_FIG1_LINKS)


def _check_wideband():
    worst = 0.0
    count = 0
    for a in (0.5, 1.0, 2.0):
        link = MisoLink(n_t=2, delay_a=a, branch=AlphaMuParams(alpha=2.0, mu=2.0))
        eb_min, _ = wideband_metrics(link)
        worst = max(worst, abs(eb_min / LN2 - 1.0))
        count += 1
    for m in (1.0, 2.5):
        for n_t in (2, 4):
            for a in (0.5, 2.0):
                link = MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=2.0, mu=m))
                _, s0 = wideband_metrics(link)
                closed = 2.0 * m * n_t / (a + 1.0 + m * n_t)
                worst = max(worst, abs(s0 / closed - 1.0))
                count += 1
    return worst, count


def _check_intercept():
    target_db = 10.0 * math.log10(LN2)
    worst = 0.0
    count = 0
    for a in (0.5, 1.0, 2.0):
        link = MisoLink(n_t=2, delay_a=a, branch=AlphaMuParams(alpha=2.0, mu=2.0))
        eb, _ = parametric_eb_n0(link, 1e-4)
        worst = max(worst, abs(10.0 * math.log10(eb) - target_db))
        count += 1
    return worst, count


def run_verification(samples=100_000, seed=0, out=sys.stdout):
    """Run every check, print a fixed-width table, return failing names."""
    t0 = time.monotonic()
    checks = [
        ("route-pairwise-agreement", _check_route_agreement, 1e-6),
        ("nakagami-closed-form", _check_nakagami, 1e-8),
        ("branch-mean-consistency", _check_branch_mean, 1e-10),
        ("special-function-identities", _check_identities, 1e-8),
        ("pdf-normalization", _check_pdf_normalization, 1e-8),
        ("mc-vs-analytic", lambda: _check_mc(samples, seed), 1.0),
        ("high-snr-gap-bits", _check_high_snr, 1e-2),
        ("wideband-metrics", _check_wideband, 1e-10),
        ("low-snr-intercept-db", _check_intercept, 0.05),
    ]
    failures = []
    out.write("%-30s %6s %12s %10s %s\n" % ("check", "points", "worst", "tol", "status"))
    for name, fn, tol in checks:
        worst, count = fn()
        ok = worst <= tol
        if not ok:
            failures.append(name)
        out.write(
            "%-30s %6d %12.3e %10.1e %s\n"
            % (name, count, worst, tol, "PASS" if ok else "FAIL")
        )
    elapsed = time.monotonic() - t0
    if failures:
        out.write("FAIL (%d of %d checks) in %.1f s\n" % (len(failures), len(checks), elapsed))
    else:
        out.write("PASS (%d checks) in %.1f s\n" % (len(checks), elapsed))
    return failures
