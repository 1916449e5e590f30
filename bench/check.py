"""Correctness check of the values the CLI printed or wrote.

Exact-route values (fox_h, quadrature, nakagami_closed) must agree with the
mpmath reference to EXACT_RTOL relative, the gate the test suite puts on
route agreement.  Monte Carlo values must fall within verify's allowance
max(1.5 * halfwidth, 0.02 * reference).  `verify --fast` must exit 0.  An op
fails if it exits nonzero or if any value it outputs misses its check; a
value on a link that has no moment-matched surrogate has no reference and
fails as unchecked.
"""

from reference import link_key
from workloads import FIG3_MC, FIG3_RHOS, FIG_FINE_DB, FIG_MC_DB, FIGURE_LINKS, db_to_rho

EXACT_RTOL = 1e-6
MISS = "value misses its check"
NO_REFERENCE = "value has no reference: the sum has no moment-matched surrogate"
FIGURE_FAMILY = {1: ("alpha", 0), 2: ("mu", 1), 3: ("delay_a", 3)}
FIGURE_ROUTE = {1: "fox_h", 2: "fox_h", 3: "quadrature"}


class Checker:
    """Checks op outputs against a ReferenceCache and keeps the worst errors.

    Each check returns None when every value passes, else the reason.
    """

    def __init__(self, refs):
        self.refs = refs
        self.worst = {"fox_h": 0.0, "quadrature": 0.0, "nakagami_closed": 0.0, "monte_carlo": 0.0}

    def exact(self, route, value, ref):
        err = abs(value - ref) / abs(ref)
        self.worst[route] = max(self.worst[route], err)
        return err <= EXACT_RTOL

    def monte_carlo(self, value, halfwidth, ref):
        self.worst["monte_carlo"] = max(self.worst["monte_carlo"], abs(value - ref) / abs(ref))
        return abs(value - ref) <= max(1.5 * (halfwidth or 0.0), 0.02 * ref)

    def _curve(self, rows, key, xs, rhos, route):
        if rows is None or len(rows) != len(rhos):
            return MISS
        reason = None
        for (x, value, ci), want_x, rho in zip(rows, xs, rhos):
            ref = self.refs.rate(key, rho)
            if ref is None:
                return NO_REFERENCE
            if want_x is not None and x != want_x:
                ok = False
            elif route == "monte_carlo":
                ok = self.monte_carlo(value, ci, ref)
            else:
                ok = self.exact(route, value, ref)
            if not ok:
                reason = MISS
        return reason

    def rate_op(self, op, rows, points):
        return self._curve(rows, op["link"], [x for x, _ in points], [r for _, r in points],
                           op["route"])

    def figure_op(self, fig, files):
        for name, key, xs, rhos, route in _figure_curves(fig):
            reason = self._curve(files.get(name), key, xs, rhos, route)
            if reason:
                return reason
        return None


def negative_control(refs, op, points):
    """True if the op's check passes reference values and flags one of them
    perturbed by 1e-5 relative; also True for ops without reference values."""
    probe = Checker(refs)
    if op["kind"] == "rate":
        curves = [("rate", op["link"], [x for x, _ in points], [r for _, r in points], op["route"])]
        check = lambda out: probe.rate_op(op, out["rate"], points)  # noqa: E731
    elif op["kind"] == "figure":
        curves = _figure_curves(op["figure"])
        check = lambda out: probe.figure_op(op["figure"], out)  # noqa: E731
    else:
        return True
    out = {name: [[x, refs.rate(key, r), 0.0] for x, r in zip(xs, rhos)]
           for name, key, xs, rhos, _ in curves}
    first = out[curves[0][0]][0]
    if first[1] is None:
        return True
    clean = check(out) is None
    first[1] *= 1 + 1e-5
    return clean and check(out) == MISS


def _figure_curves(fig):
    """(file name, link key, x values or None, rhos, route) of each checked curve."""
    family, index = FIGURE_FAMILY[fig]
    if fig == 3:
        exact = (None,) * len(FIG3_RHOS), FIG3_RHOS
        mc = (None,) * len(FIG3_MC), [FIG3_RHOS[i] for i in FIG3_MC]
    else:
        exact = FIG_FINE_DB, [db_to_rho(x) for x in FIG_FINE_DB]
        mc = FIG_MC_DB, [db_to_rho(x) for x in FIG_MC_DB]
    curves = []
    for link in FIGURE_LINKS[fig]:
        alpha, mu, n_t, delay_a = link
        key = link_key(repr(alpha), repr(mu), n_t, repr(delay_a))
        tag = "fig%d_%s%g" % (fig, family, link[index])
        curves.append((tag + "_exact", key) + exact + (FIGURE_ROUTE[fig],))
        curves.append((tag + "_mc", key) + mc + ("monte_carlo",))
    return curves
