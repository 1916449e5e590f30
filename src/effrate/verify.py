"""Self-contained cross-validation of every evaluation route.

Each check compares independent implementations (contour integral vs
quadrature vs closed forms vs Monte Carlo), so a defect in one path
surfaces as a disagreement rather than a silently consistent answer.
Each check returns its per-point errors; `run_verification` alone reduces
them to a worst value, so a NaN anywhere fails its row.
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


def _links(alphas, mus, n_ts, delay_as):
    return [MisoLink(n_t=n_t, delay_a=a, branch=AlphaMuParams(alpha=alpha, mu=mu))
            for alpha in alphas for mu in mus for n_t in n_ts for a in delay_as]


# module level, so that each link's cached fit serves every run
_ROUTE_LINKS = _links((0.8, 2.0, 4.0), (1.0, 2.0), (1, 2), (0.5, 2.0))
_ROUTE_RHOS = (1.0, 100.0)

# The paper's figure layouts, one parameter swept at n_t = 2:
# {figure: (swept parameter, its values, one link per value)}
FIGURE_LAYOUTS = {
    1: ("alpha", (0.8, 2.0, 4.0, 8.0), _links((0.8, 2.0, 4.0, 8.0), (2.0,), (2,), (0.5,))),
    2: ("mu", (1.0, 2.0, 4.0), _links((4.0,), (1.0, 2.0, 4.0), (2,), (0.5,))),
    3: ("delay_a", (0.5, 1.0, 2.0), _links((2.0,), (2.0,), (2,), (0.5, 1.0, 2.0))),
}


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _route_errors(links, rhos, route, other):
    return [_rel(r, o) for link in links
            for r, o in zip(route(link, rhos).tolist(), other(link, rhos).tolist())]


def _check_route_agreement():
    return _route_errors(_ROUTE_LINKS, _ROUTE_RHOS, rate_exact_quadrature, rate_exact_foxh)


def _check_nakagami():
    links = _links((2.0,), (0.5, 1.0, 2.0, 3.5), (1, 2), (0.5, 1.0))
    return _route_errors(links, (1.0, 10.0), rate_exact_foxh, rate_nakagami)


def _check_branch_mean():
    params = [AlphaMuParams(alpha=alpha, mu=mu, mean_snr=3.7)
              for alpha in (0.8, 2.0, 4.0, 8.0) for mu in (1.0, 2.5)]
    return [abs(moment(p, 1) / p.mean_snr - 1.0) for p in params]


def _check_identities():
    spec = FoxHSpec(m=1, n=0, upper_pairs=(), lower_pairs=((0.0, 1.0),))
    errors = [_rel(fox_h(spec, x), math.exp(-x)) for x in (0.1, 1.0, 5.0, 20.0)]
    for w in (-0.5, -1.5, -3.0):
        spec = FoxHSpec(m=1, n=1, upper_pairs=((w + 1.0, 1.0),), lower_pairs=((0.0, 1.0),))
        errors += [_rel(fox_h(spec, x) / math.gamma(-w), (1.0 + x) ** w) for x in (0.1, 1.0, 10.0)]
    # Kummer pairs U(a;b;z) = z^(1-b) U(a-b+1;2-b;z), two different integrands
    # each, and two 40-digit values; U(a;a+1;z) = z^-a reaches no kernel
    for a, b, z in ((0.7, -0.5, 0.3), (3.3, 1.2, 9.0)):
        kummer = z ** (1.0 - b) * tricomi_u(a - b + 1.0, 2.0 - b, z)
        errors.append(_rel(tricomi_u(a, b, z), kummer))
    for a, b, z, ref in ((1.0, 1.0, 1.0, 0.5963473623231941),
                         (2.5, 1.0, 0.7, 0.14591203911934137)):
        errors.append(_rel(tricomi_u(a, b, z), ref))
    return errors


def _check_pdf_normalization():
    # Trapezoid rule in u = log gamma: the density of u is smooth and falls
    # off exponentially on both sides (below 1e-31 at the ends of the range),
    # so the rule converges geometrically, and the sum on every second node
    # estimates its error.  Deliberately not special.gamma_expectation, whose
    # Gamma weight would assume the normalization being checked.
    u = np.linspace(-300.0, 60.0, 360 * 16 + 1)
    step = u[1] - u[0]
    errors = []
    for alpha, mu in ((0.8, 0.6), (2.0, 2.0), (4.7, 1.3)):
        f = pdf(AlphaMuParams(alpha=alpha, mu=mu), np.exp(u)) * np.exp(u)
        ends = 0.5 * (f[0] + f[-1])
        total = step * (f.sum() - ends)
        coarse = 2.0 * step * (f[::2].sum() - ends)
        errors.append(abs(total - 1.0) + abs(total - coarse))
    return errors


def _check_mc(cfg):
    rhos = (1.0, 10.0, 100.0)
    links = FIGURE_LAYOUTS[1][2]
    errors = []
    for link, (est, hw) in zip(links, simulate_rates(links, rhos, cfg)):
        exact = rate_exact_foxh(link, rhos)
        allowance = np.maximum(1.5 * hw, 0.02 * exact)
        errors.extend((np.abs(est - exact) / allowance).tolist())
    return errors


def _check_high_snr():
    return [abs(rate_exact_foxh(link, 1e6) - rate_high_snr(link, 1e6))
            for link in FIGURE_LAYOUTS[1][2]]


def _check_wideband():
    errors = [abs(wideband_metrics(link)[0] / LN2 - 1.0)
              for link in _links((2.0,), (2.0,), (2,), (0.5, 1.0, 2.0))]
    for link in _links((2.0,), (1.0, 2.5), (2, 4), (0.5, 2.0)):
        m, n_t, a = link.branch.mu, link.n_t, link.delay_a
        _, s0 = wideband_metrics(link)
        closed = 2.0 * m * n_t / (a + 1.0 + m * n_t)
        errors.append(abs(s0 / closed - 1.0))
    return errors


def _check_intercept():
    target_db = 10.0 * math.log10(LN2)
    return [abs(10.0 * math.log10(parametric_eb_n0(link, 1e-4)[0]) - target_db)
            for link in _links((2.0,), (2.0,), (2,), (0.5, 1.0, 2.0))]


def run_verification(samples=100_000, seed=0, out=sys.stdout):
    """Run every check, print a fixed-width table, return failing names."""
    t0 = time.monotonic()
    cfg = McConfig(samples=samples, seed=seed)
    checks = [
        ("route-pairwise-agreement", _check_route_agreement, 1e-6),
        ("nakagami-closed-form", _check_nakagami, 1e-8),
        ("branch-mean-consistency", _check_branch_mean, 1e-10),
        ("special-function-identities", _check_identities, 1e-8),
        ("pdf-normalization", _check_pdf_normalization, 1e-8),
        ("mc-vs-analytic", lambda: _check_mc(cfg), 1.0),
        ("high-snr-gap-bits", _check_high_snr, 1e-2),
        ("wideband-metrics", _check_wideband, 1e-10),
        ("low-snr-intercept-db", _check_intercept, 0.05),
    ]
    failures = []
    out.write("%-30s %6s %12s %10s %s\n" % ("check", "points", "worst", "tol", "status"))
    for name, fn, tol in checks:
        errors = fn()
        # np.max, unlike max, carries a NaN through, and NaN <= tol fails
        worst = float(np.max(errors))
        ok = worst <= tol
        if not ok:
            failures.append(name)
        out.write(
            "%-30s %6d %12.3e %10.1e %s\n"
            % (name, len(errors), worst, tol, "PASS" if ok else "FAIL")
        )
    elapsed = time.monotonic() - t0
    if failures:
        out.write("FAIL (%d of %d checks) in %.1f s\n" % (len(failures), len(checks), elapsed))
    else:
        out.write("PASS (%d checks) in %.1f s\n" % (len(checks), elapsed))
    return failures
