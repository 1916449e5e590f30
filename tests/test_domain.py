"""Property tests over the documented domain.

Every input must give either a rate on which the independent routes agree,
or a typed error from each of them.  Hypothesis comes with the `test`
extra; where it is not installed the module is skipped.  The search is
derandomized, but hypothesis mixes the numeric literals of the loaded
modules into its draws, so the drawn set moves with unrelated edits; the
known hard points are pinned as examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from effrate import (  # noqa: E402
    AlphaMuParams,
    FitConvergenceError,
    MisoLink,
    TruncationError,
    rate_exact_foxh,
    rate_exact_quadrature,
    rate_nakagami,
)

TYPED = (FitConvergenceError, TruncationError, ValueError)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def _outcome(fn):
    try:
        return fn()
    except TYPED as err:
        return err


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    alpha=st.just(2.0) | st.floats(0.5, 8.0),
    mu=st.floats(0.5, 4.0),
    n_t=st.sampled_from((1, 2, 4, 8, 16)),
    delay_a=st.floats(0.2, 4.0),
    log10_rho=st.floats(-5.0, 4.0),
)
# the ROADMAP item-1 repro and item 3's near-lognormal row
@example(alpha=2.0, mu=1.0, n_t=16, delay_a=4.0, log10_rho=4.0)
@example(alpha=0.7252, mu=2.021, n_t=8, delay_a=1.213, log10_rho=-2.519)
def test_routes_agree_or_raise_typed_errors(alpha, mu, n_t, delay_a, log10_rho):
    rho = 10.0 ** log10_rho
    link = MisoLink(n_t=n_t, delay_a=delay_a, branch=AlphaMuParams(alpha=alpha, mu=mu))
    routes = [lambda: rate_exact_quadrature(link, rho), lambda: rate_exact_foxh(link, rho)]
    if alpha == 2.0:
        routes.append(lambda: rate_nakagami(link, rho))
    got = [_outcome(fn) for fn in routes]
    if all(isinstance(r, Exception) for r in got[:2]):
        return
    assert all(isinstance(r, float) for r in got), got
    assert all(_rel(r, got[0]) <= 1e-6 for r in got[1:]), got
