"""effrate benchmark: end-to-end CLI metrics or a traced per-layer run.

    python3 bench/run.py --workload {sweep,points,reproduce} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's ops (CLI argv lists) are
generated from the seed; reference rates they need and that are not cached
yet are computed first.  Then, outside any timed region:

  1. set-up: SETUP_SAMPLES fresh interpreters each import effrate.cli and
     run one single-point `rate` command (bench/setup_probe.py);
  2. the ops run in one worker process (bench/worker.py), one at a time;
  3. every output is checked against the references (bench/check.py).

A report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones of a traced run of half the ops,
together with the tracing overhead.  Every nonzero exit and every output
value that misses its check counts as a failed op; `correct` is false if any
op fails with an argv and reason not recorded in bench/known_defects.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

from check import Checker, negative_control  # noqa: E402
from reference import ReferenceCache  # noqa: E402
from workloads import WORKLOADS, blocks_for  # noqa: E402

SETUP_SAMPLES = 5
# the fixed op count bounds a run; this only stops a hung worker in time for
# the run to exit within three minutes
WORKER_TIMEOUT_S = 150
KNOWN_DEFECTS = os.path.join(BENCH, "known_defects.json")
# cheap ops run before the clock starts, so lazy first-call set-up is not timed
WARMUP = [
    ["rate", "--alpha", "3", "--mu", "1.5", "--nt", "2", "--delay-a", "0.5",
     "--snr-db", "10", "--method", m] for m in ("foxh", "quadrature")
] + [["rate", "--alpha", "2", "--mu", "1.5", "--nt", "2", "--delay-a", "0.5",
      "--snr-db", "10", "--method", "nakagami"]]


def known_defects(workload):
    """(argv tuple, reason) of every failure recorded as a known defect."""
    if not os.path.exists(KNOWN_DEFECTS):
        return set()
    with open(KNOWN_DEFECTS) as fh:
        entries = json.load(fh).get(workload, {}).get("failed", [])
    return {(tuple(e["argv"]), e["why"]) for e in entries}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup():
    """Median over fresh interpreters of wall time and of each set-up part."""
    walls, parts = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "setup_probe.py")],
                              cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit("setup probe failed: %s" % proc.stderr.strip()[-500:])
        parts.append(json.loads(proc.stdout))
    out = {"setup_s": statistics.median(walls)}
    for name in parts[0]:
        out["setup." + name] = statistics.median(p[name] for p in parts)
    return out


def run_worker(ops, trace):
    job = {"ops": [op["argv"] for op in ops], "warmup": WARMUP, "trace": trace}
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py")],
                          cwd=ROOT, env=_env(), input=json.dumps(job),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("worker failed: %s" % proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout)


def check_ops(workload, ops, result, checker):
    """Indices of failed ops, with the reason of each."""
    failed = {}
    for i, (op, code, message, out) in enumerate(
            zip(ops, result["codes"], result["errors"], result["outputs"])):
        if code != 0:
            failed[i] = "exit %s: %s" % (code, message)
        elif op["kind"] == "rate":
            failed[i] = checker.rate_op(op, out, workload.expected_points(op))
        elif op["kind"] == "figure":
            failed[i] = checker.figure_op(op["figure"], out)
    return {i: why for i, why in failed.items() if why}


def tail(values):
    """(value, percentile) with at least ten samples above the value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "effrate", "cli.py")):
        sys.stderr.write("error: no effrate sources under %s\n" % SRC)
        return 2

    workload = WORKLOADS[args.workload]
    blocks = blocks_for(workload, args.seconds)
    if args.trace:
        blocks = max(1, blocks // 2)
    ops = workload.ops(args.seed, blocks)
    refs = ReferenceCache(args.workload)
    refs.fill(workload.needed_points(ops))
    checker = Checker(refs)
    if not all(negative_control(refs, op, workload.expected_points(op)) for op in ops[:4]):
        sys.stderr.write("error: the checker passed a value off by 1e-5 relative\n")
        return 3

    setup = measure_setup()
    result = run_worker(ops, bool(args.trace))
    phases = ["untraced", "traced"] if args.trace else ["untraced"]
    failures = {}
    for phase in phases:
        for i, why in check_ops(workload, ops, result[phase], checker).items():
            failures["%s %d" % (phase, i)] = (ops[i]["argv"], why)
    attempted = sum(len(result[phase]["codes"]) for phase in phases)
    known = known_defects(args.workload)
    unknown = [f for f in failures.values() if (tuple(f[0]), f[1]) not in known]
    correct = not unknown

    lat_ms = [1e3 * v for v in result["untraced"]["cpu_s"]]
    wall_ms = [1e3 * v for v in result["untraced"]["wall_s"]]
    p_tail, pct = tail(lat_ms)
    print("workload %s seed %d: %d ops in %d blocks of %d, %s" % (
        args.workload, args.seed, len(ops), blocks, workload.block,
        "traced run (untraced pass, then traced pass)" if args.trace else "untraced run"))
    print("failed_frac %.6f frac (%d of %d ops; %d not known defects)" % (
        len(failures) / attempted, len(failures), attempted, len(unknown)))
    for name, (argv_, why) in sorted(failures.items())[:20]:
        print("  failed %s: %s -> %s" % (name, " ".join(argv_), why))

    if args.trace:
        traced_ms = [1e3 * v for v in result["traced"]["cpu_s"]]
        metrics = dict(result["layers"])
        for route, worst in checker.worst.items():
            metrics["rates.worst_rel_err." + route] = (worst, "rel")
        for name in ("import_numpy_s", "import_scipy_s", "import_effrate_s", "first_op_s"):
            metrics["setup." + name] = (setup["setup." + name], "s")
        metrics["trace.overhead_ms"] = (
            statistics.median(traced_ms) - statistics.median(lat_ms), "ms")
    else:
        print("latency_ms_tail is p%.1f over %d samples" % (pct, len(lat_ms)))
        print("wall clock, not a metric: %.6g ops/s, p50 %.6g ms, tail %.6g ms (%.1f%% above CPU time)" % (
            len(wall_ms) / (1e-3 * sum(wall_ms)), statistics.median(wall_ms), tail(wall_ms)[0],
            100.0 * (sum(wall_ms) / sum(lat_ms) - 1.0)))
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "ops_per_s": (len(lat_ms) / (1e-3 * sum(lat_ms)), "1/s"),
            "latency_ms_p50": (statistics.median(lat_ms), "ms"),
            "latency_ms_tail": (p_tail, "ms"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
