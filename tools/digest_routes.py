"""SHA-256 of the exact rate routes' outputs over the benchmark's `sweep`
links (216 links, one 121-point call each; quadrature and fox_h on every
link, nakagami on the 36 alpha = 2 ones) and its `points` pool (quadrature
and fox_h, one point each), under warnings-as-errors: python
tools/digest_routes.py TREE.  Values as float.hex, refusals as their type and message."""
import hashlib, sys, warnings
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
from effrate.alphamu import AlphaMuParams
from effrate.cli import _parse_range, db_to_linear
from effrate.rates import MisoLink, rate_exact_foxh, rate_exact_quadrature, rate_nakagami
import workloads as w


def entry(h, route, link, rhos, refusals):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = " ".join(v.hex() for v in route(link, rhos).tolist())
        except Exception as exc:
            got = "%s: %s" % (type(exc).__name__, exc)
            refusals.append(str(exc))
    h.update(("%s %s\n" % (route.__name__, got)).encode())


sweep, pool, counts, refusals = hashlib.sha256(), hashlib.sha256(), [0, 0], [[], []]
rhos = [db_to_linear(x) for x in _parse_range("-10:30:121")]
for a in w.SWEEP_ALPHA:
    for m in w.SWEEP_MU:
        for n in w.SWEEP_NT:
            for d in w.SWEEP_A:
                link = MisoLink(n_t=n, delay_a=float(d),
                                branch=AlphaMuParams(alpha=float(a), mu=float(m)))
                for route in (rate_exact_quadrature, rate_exact_foxh) + (rate_nakagami,) * (a == "2"):
                    entry(sweep, route, link, rhos, refusals[0])
                    counts[0] += 1
for a, m, n, d, snr in w.Points().pool():
    try:
        link = MisoLink(n_t=n, delay_a=float(d), branch=AlphaMuParams(alpha=float(a), mu=float(m)))
    except Exception as exc:
        pool.update(("%s\n" % type(exc).__name__).encode())
        continue
    for route in (rate_exact_quadrature, rate_exact_foxh):
        entry(pool, route, link, [db_to_linear(float(snr))], refusals[1])
        counts[1] += 1
print("sweep", counts[0], sweep.hexdigest(), "refusals", len(refusals[0]))
print("pool ", counts[1], pool.hexdigest(), "refusals", len(refusals[1]))
for r in sorted(set(refusals[0] + refusals[1])):
    print("  ", r[:110])
