"""SHA-256 of the CLI's outputs, stdout, stderr and exit code, on the
benchmark's sweep commands (every link of SWEEP_ALPHA x SWEEP_MU x SWEEP_NT
x SWEEP_A with foxh and quadrature, nakagami on the alpha = 2 ones, 121
points each) and reproduce commands (sweep-figures 1, 2, 3 with their CSV
and SVG files, and verify --fast, seeds 1 and 2): python tools/digest_cli.py
TREE OUTDIR, in an empty directory with OUTDIR relative.  verify's
wall-clock figure ("in 0.1 s") is masked as "in T s"."""
import contextlib, hashlib, io, os, re, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
from effrate import cli
import workloads as w

out_dir = sys.argv[2]


def run(h, argv):
    o, e = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
        code = cli.main(argv)
    text = "%r %r %s %s\n" % (argv, code, o.getvalue(), e.getvalue())
    h.update(re.sub(r"\bin \d+\.\d+ s\b", "in T s", text).encode())


sweep = hashlib.sha256()
lo, hi, n = w.SWEEP_RANGE
for a in w.SWEEP_ALPHA:
    for m in w.SWEEP_MU:
        for nt in w.SWEEP_NT:
            for d in w.SWEEP_A:
                for method in ("foxh", "quadrature") + ("nakagami",) * (a == "2"):
                    run(sweep, ["rate", "--alpha", a, "--mu", m, "--nt", str(nt), "--delay-a", d,
                                "--snr-db-range=%g:%g:%d" % (lo, hi, n), "--method", method])
repro = hashlib.sha256()
for seed in ("1", "2"):
    for fig in ("1", "2", "3"):
        d = os.path.join(out_dir, "fig" + fig + "_" + seed)
        run(repro, ["sweep-figures", "--figure", fig, "--out-dir", d, "--seed", seed])
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                repro.update(name.encode() + fh.read())
    run(repro, ["verify", "--fast", "--seed", seed])
print("sweep", sweep.hexdigest())
print("reproduce", repro.hexdigest())
