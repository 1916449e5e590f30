"""Set-up cost of one shell invocation, run in a fresh interpreter.

Imports numpy, then scipy.integrate and scipy.special, then effrate.cli,
then runs one single-point `rate` command, and prints the four durations in
seconds as JSON.  The caller times the whole process from spawn to exit.
"""

import contextlib
import io
import json
import sys
import time

ARGV = ["rate", "--alpha", "3", "--mu", "1.5", "--nt", "2", "--delay-a", "0.5",
        "--snr-db", "10", "--method", "foxh"]

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
import scipy.integrate  # noqa: E402,F401
import scipy.special  # noqa: E402,F401

t2 = time.perf_counter()
import effrate.cli  # noqa: E402

t3 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = effrate.cli.main(ARGV)
t4 = time.perf_counter()
if code != 0:
    sys.exit("setup probe: rate command exited %r" % (code,))
json.dump({"import_numpy_s": t1 - t0, "import_scipy_s": t2 - t1,
           "import_effrate_s": t3 - t2, "first_op_s": t4 - t3}, sys.stdout)
