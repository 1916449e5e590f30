"""Span recorder that wraps effrate's public functions from outside.

Each traced function is replaced, under the module attribute its callers
look it up by, with a wrapper that records (id, parent, name, start, end,
raised, count).  The parent is the innermost open span of the same thread;
a span opened in a thread with no open span (a ThreadPoolExecutor worker)
attaches to the current op's cli.main span, so ops are followed across the
CLI's thread pool.  Spans are kept in memory and reduced per op by
`OpStats.add`, after the op's clock has stopped.
"""

import functools
import itertools
import threading
import time
from collections import defaultdict

ROOT = "cli.main"
RATE_ROUTES = (
    "rates.rate_exact_foxh",
    "rates.rate_exact_meijerg",
    "rates.rate_exact_quadrature",
    "rates.rate_nakagami",
)


def _draws(link, rho, cfg):
    return cfg.samples * link.n_t


# (module, attribute its callers look up, span name, optional count function)
PATCHES = (
    ("cli", "main", ROOT, None),
    ("cli", "curve_to_csv", "cli.curve_to_csv", None),
    ("cli", "rate_exact_foxh", "rates.rate_exact_foxh", None),
    ("cli", "rate_exact_meijerg", "rates.rate_exact_meijerg", None),
    ("cli", "rate_exact_quadrature", "rates.rate_exact_quadrature", None),
    ("cli", "rate_nakagami", "rates.rate_nakagami", None),
    ("cli", "simulate_rate", "montecarlo.simulate_rate", _draws),
    ("cli", "fit_sum", "sumfit.fit_sum", None),
    ("cli", "run_verification", "verify.run_verification", None),
    ("rates", "rate_exact_foxh", "rates.rate_exact_foxh", None),
    ("rates", "rate_exact_quadrature", "rates.rate_exact_quadrature", None),
    ("rates", "fit_sum", "sumfit.fit_sum", None),
    ("rates", "fox_h", "special.fox_h", None),
    ("rates", "gamma_expectation", "rates.gamma_expectation", None),
    ("rates", "tricomi_u", "special.tricomi_u", None),
    ("special", "fox_h", "special.fox_h", None),
    ("montecarlo", "sample", "alphamu.sample", None),
    ("svg", "render", "svg.render", None),
    ("verify", "rate_exact_foxh", "rates.rate_exact_foxh", None),
    ("verify", "rate_exact_meijerg", "rates.rate_exact_meijerg", None),
    ("verify", "rate_exact_quadrature", "rates.rate_exact_quadrature", None),
    ("verify", "rate_nakagami", "rates.rate_nakagami", None),
    ("verify", "simulate_rate", "montecarlo.simulate_rate", _draws),
    ("verify", "fox_h", "special.fox_h", None),
    ("verify", "tricomi_u", "special.tricomi_u", None),
) + tuple(
    ("verify", name, "verify." + name, None)
    for name in (
        "_check_route_agreement", "_check_nakagami", "_check_branch_mean",
        "_check_identities", "_check_pdf_normalization", "_check_mc",
        "_check_high_snr", "_check_wideband", "_check_intercept",
    )
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in PATCHES))


class Tracer:
    """Installs the wrappers and collects spans until uninstalled."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._saved = []

    def install(self, modules):
        for mod, attr, name, count in PATCHES:
            owner = modules[mod]
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            if name == ROOT:
                tracer._root = sid
            stack.append(sid)
            raised = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if name == ROOT:
                    tracer._root = None
                n = count(*args, **kwargs) if count else 0
                tracer.spans.append((sid, parent, name, t0, t1, raised, n))

        return traced

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def _union(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class OpStats:
    """Per-layer totals over the traced ops, reported per op."""

    def __init__(self):
        self.ops = 0
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.points = 0
        self.draws = 0
        self.meijerg = 0
        self.meijerg_genuine = 0
        self.pool_overlap = 0.0
        self.warnings = 0

    def add(self, spans, warnings_escaped):
        """Fold the spans of one op into the totals."""
        self.ops += 1
        self.warnings += warnings_escaped
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[1]].append(s)
        by_name = defaultdict(list)
        for sid, parent, name, t0, t1, raised, n in spans:
            by_name[name].append((t0, t1))
            self.calls[name] += 1
            self.failed[name] += raised
            self.draws += n
            kids = [(max(c[3], t0), min(c[4], t1)) for c in children[sid]]
            self.self_time[name] += (t1 - t0) - _union([k for k in kids if k[1] > k[0]])
            if name == "rates.rate_exact_meijerg":
                self.meijerg += 1
                if not any(c[2] == "rates.rate_exact_foxh" for c in children[sid]):
                    self.meijerg_genuine += 1
        for name, intervals in by_name.items():
            self.busy[name] += _union(intervals)
        top = [
            (s[3], s[4]) for s in spans
            if s[2] in RATE_ROUTES and by_id.get(s[1], (0, 0, ""))[2] not in RATE_ROUTES
        ]
        self.points += len(top)
        self.pool_overlap += sum(b - a for a, b in top) - _union(top)

    def metrics(self):
        """{name: (value, unit)} of every traced function and counter."""
        per_op = 1.0 / max(self.ops, 1)
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = (self.calls[name] * per_op, "count/op")
            out[name + ".busy_ms"] = (1e3 * self.busy[name] * per_op, "ms/op")
            out[name + ".self_ms"] = (1e3 * self.self_time[name] * per_op, "ms/op")
            out[name + ".failed"] = (self.failed[name] * per_op, "count/op")
        fits = self.calls["sumfit.fit_sum"]
        out["sumfit.fit_sum.converged_frac"] = (
            (fits - self.failed["sumfit.fit_sum"]) / fits if fits else 0.0, "frac")
        out["rates.points"] = (self.points * per_op, "count/op")
        out["rates.meijerg_genuine_frac"] = (
            self.meijerg_genuine / self.meijerg if self.meijerg else 0.0, "frac")
        out["montecarlo.draws"] = (self.draws * per_op, "count/op")
        out["cli.pool_overlap_ms"] = (1e3 * self.pool_overlap * per_op, "ms/op")
        out["cli.warnings"] = (self.warnings * per_op, "count/op")
        return out
