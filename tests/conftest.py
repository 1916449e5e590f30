"""Helpers shared by the test modules."""

import numpy as np

# numpy's release and the CPU dispatch targets active where the bit pins were
# frozen: demo_output/, and the float.hex tables of rate_exact_foxh and of
# Monte Carlo.  Their last bits are those of numpy's exp, log, log1p, expm1
# and power loops, which differ between releases and between the targets
# numpy picks for the CPU (X86_V4 and the AVX512_* are its AVX-512 loops)
_FROZEN_NUMPY = ("2.4.6", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))


def numpy_dispatch_note():
    """A bit pin's failure note: the numpy release and active dispatch
    targets that froze the pins, and those of this process."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    running = tuple(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
    return "frozen under numpy %s with dispatch %r, running numpy %s with %r" % (
        _FROZEN_NUMPY + (np.__version__, running))
