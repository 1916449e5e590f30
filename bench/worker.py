"""One workload process: runs CLI ops in a closed loop with one client.

Reads a job from stdin as JSON ({"ops": [argv...], "warmup": [argv...],
"trace": bool}), imports effrate.cli from the checkout's src directory and
calls effrate.cli.main(argv) for one op at a time.  An op's clocks cover
the whole command, including writing its output: wall time, and the
process's CPU time over all its threads.  stdout and stderr are captured
per op.  A figure op's output directory is emptied before its clocks start,
so only files the op itself wrote are read back.  Outputs are parsed after
the clock stops.  With tracing on, the ops run once untraced and then once
traced, so the difference of the two median latencies is the tracing
overhead.  The result goes to stdout as one JSON object, with this
process's peak RSS.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import warnings


def _parse_csv(text):
    rows = []
    for line in text.splitlines()[1:]:
        x, rate, _method, ci = line.split(",")
        rows.append([float(x), float(rate), float(ci) if ci else None])
    return rows


def _out_dir(argv):
    return argv[argv.index("--out-dir") + 1] if argv[0] == "sweep-figures" else None


def _outputs(argv, stdout_text):
    """Parsed values an op produced: CSV rows, or per-file rows of a figure."""
    if argv[0] == "rate":
        return _parse_csv(stdout_text)
    out_dir = _out_dir(argv)
    if out_dir:
        files = {}
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                with open(os.path.join(out_dir, name)) as fh:
                    files[name[:-4]] = _parse_csv(fh.read())
        return files
    return None


def _run_op(cli, argv, record_warnings):
    if _out_dir(argv):
        shutil.rmtree(_out_dir(argv), ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    caught = []
    with contextlib.ExitStack() as stack:
        if record_warnings:
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            code = -1
            err.write("error: uncaught %s: %s\n" % (type(exc).__name__, exc))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    message = err.getvalue().strip().splitlines()
    return wall, cpu, code, out.getvalue(), (message[-1] if message else ""), len(caught)


def _loop(cli, ops, tracer=None, stats=None):
    walls, cpus, codes, errors, outputs = [], [], [], [], []
    for argv in ops:
        if tracer:
            tracer.take()
        wall, cpu, code, text, message, escaped = _run_op(cli, argv, tracer is not None)
        if tracer:
            stats.add(tracer.take(), escaped)
        walls.append(wall)
        cpus.append(cpu)
        codes.append(code)
        errors.append(message)
        outputs.append(_outputs(argv, text) if code == 0 else None)
    return {"wall_s": walls, "cpu_s": cpus, "codes": codes, "errors": errors, "outputs": outputs}


def main():
    job = json.load(sys.stdin)
    from effrate import cli, montecarlo, rates, special, svg, verify

    for argv in job["warmup"]:
        _run_op(cli, argv, False)
    result = {"untraced": _loop(cli, job["ops"])}
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        stats = spans.OpStats()
        modules = {"cli": cli, "rates": rates, "special": special,
                   "montecarlo": montecarlo, "svg": svg, "verify": verify}
        tracer.install(modules)
        try:
            result["traced"] = _loop(cli, job["ops"], tracer, stats)
        finally:
            tracer.uninstall()
        result["layers"] = stats.metrics()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.__stdout__)


if __name__ == "__main__":
    main()
