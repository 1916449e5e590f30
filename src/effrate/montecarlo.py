"""Monte Carlo verification of the analytic rate expressions.

Sampling happens at the branch level (no moment matching anywhere), so
agreement with the analytic pipeline checks the fitted approximation and the
contour integrals at once.  Draws are partitioned into independent streams
with fixed per-stream seeds and reduced in stream order, which makes every
estimate bit-reproducible for a given seed no matter how the work is
scheduled.  Links that share mu and n_t, simulated together, share
their draws: the curves of a figure are compared on common random numbers.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .alphamu import sample  # noqa: F401  bench/spans.py traces montecarlo.sample
from .rates import LN2
from .special import like_grid, positive_grid

_STREAMS = 8  # independent streams the draws of one estimate are split into


@dataclass(frozen=True)
class McConfig:
    """Sample budget and seeding policy of one Monte Carlo estimate."""

    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.samples, numbers.Integral) and self.samples >= 1000):
            raise ValueError("McConfig: samples must be an integer >= 1000, got %r" % (self.samples,))
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("McConfig: seed must be a non-negative integer, got %r" % (self.seed,))


def _stream_plan(cfg):
    """Deterministic (rng, count) pairs, one per stream."""
    base = np.random.SeedSequence(cfg.seed)
    children = base.spawn(_STREAMS)
    counts = [cfg.samples // _STREAMS] * _STREAMS
    for i in range(cfg.samples % _STREAMS):
        counts[i] += 1
    return [(np.random.default_rng(children[i]), counts[i]) for i in range(_STREAMS)]


def _accumulate(links, rho, cfg, term_fn):
    """Stream-ordered mean and variance of term_fn(link, log1p(rho S / n_t),
    out): two (links, rhos) arrays.  The variance sums the squared deviations
    from each stream's own mean, which do not cancel where every term is
    near 1, and adds the streams by the pairwise update of Chan, Golub &
    LeVeque (1979).

    Links that share (branch.mu, n_t) share one stream plan and one unit
    Gamma block per stream (common random numbers across the links of a
    figure).  Each distinct branch forms S / n_t from the block once, column
    by column, each rho costs one log1p per branch, and each link one
    term_fn call.  The sums of each (link, rho) still accumulate in stream
    order, so every row is the one a call with that link, or that rho,
    alone gives.  One working set, made once per call, serves every stream
    of every group: a flat unit Gamma buffer of ceil(samples / 8) * max(n_t)
    entries, viewed as each stream's (count, n_t) block, and three vectors
    of ceil(samples / 8) entries: S / n_t, a scratch (column powers, then
    log1p) and the terms.
    """
    rhos = positive_grid(rho, "rho").tolist()
    sums = np.zeros((2, len(links), len(rhos)))  # sum of terms, sum of squared deviations
    groups = {}
    for i, link in enumerate(links):
        groups.setdefault((link.branch.mu, link.n_t), {}).setdefault(link.branch, []).append(i)
    longest = -(-cfg.samples // _STREAMS)  # draws of the longest stream
    unit = np.empty(longest * max(n_t for _, n_t in groups))
    vectors = np.empty((3, longest))
    for (mu, n_t), by_branch in groups.items():
        seen = 0  # draws of the streams already reduced
        for rng, count in _stream_plan(cfg):
            w = unit[:count * n_t].reshape(count, n_t)
            rng.standard_gamma(mu, size=w.shape, out=w)
            s_avg, scratch, terms = vectors[:, :count]
            for branch, indices in by_branch.items():
                # S / n_t = sum_k beta w_k^(2/alpha) / n_t, one column at a time
                np.power(w[:, 0], 2.0 / branch.alpha, out=s_avg)
                s_avg *= branch.beta
                for k in range(1, n_t):
                    np.power(w[:, k], 2.0 / branch.alpha, out=scratch)
                    scratch *= branch.beta
                    s_avg += scratch
                s_avg /= n_t
                for j, rho in enumerate(rhos):
                    log1p_x = np.log1p(np.multiply(s_avg, rho, out=scratch), out=scratch)
                    for i in indices:
                        term_fn(links[i], log1p_x, terms)
                        total = terms.sum()
                        stream_mean = total / count
                        delta = stream_mean - sums[0, i, j] / max(seen, 1)
                        terms -= stream_mean
                        sums[:, i, j] += total, (np.square(terms, out=terms).sum()
                                                 + delta * delta * seen * count / (seen + count))
            seen += count
    mean = sums[0] / cfg.samples
    return mean, sums[1] / (cfg.samples - 1)


def _decay_term(link, log1p_x, out):
    return np.exp(np.multiply(log1p_x, -link.delay_a, out=out), out=out)


def _log_term(link, log1p_x, out):
    return np.divide(log1p_x, LN2, out=out)


def simulate_rates(links, rho, cfg):
    """Monte Carlo effective rates of several links with a delta-method 95%
    interval each: [simulate_rate(link, rho, cfg) for link in links], bit
    for bit, with the draws of links that share (branch.mu, n_t) made once.

    Estimates X = E{(1 + rho S / n_t)^-A} by the sample mean, maps it through
    R = -(1/A) log2 X, and propagates the standard error through the log:
    halfwidth = 1.96 sd(X) / (sqrt(M) A ln2 X).

    Returns one (rate, ci_halfwidth) pair per link: floats for a scalar rho,
    arrays for a sequence.  One set of branch draws serves every rho of a
    sequence and every link of a (mu, n_t) group (common random numbers), so
    the errors of those points are correlated.  A point whose interval
    for X, 1.96 sd(X) / sqrt(M), is not wider than the rounding of the
    M-term sum, eps log2(M) X, raises ArithmeticError naming A and rho:
    there the estimate is rounding, not a measurement.  That covers terms
    with no spread (all underflow to 0, all round to 1, or their squared
    deviations underflow), whose half-width would read 0.0.
    """
    links = list(links)
    if not links:
        raise ValueError("simulate_rates: need at least one link")
    n = cfg.samples
    out = []
    for link, mean, var in zip(links, *_accumulate(links, rho, cfg, _decay_term)):
        spread = 1.96 * np.sqrt(var / n)
        resolved = spread > 2.2e-16 * math.log2(n) * mean  # False for a NaN
        if not np.all(resolved):
            rho_0 = float(np.atleast_1d(rho)[np.argmin(resolved)])
            raise ArithmeticError("simulate_rates: the draws of (1 + rho S / n_t)^-A have no "
                                  "spread above rounding at A = %r, rho = %r"
                                  % (link.delay_a, rho_0))
        a_ln2 = link.delay_a * LN2
        rate = np.array([-math.log(m) / a_ln2 for m in mean.tolist()])
        halfwidth = spread / (a_ln2 * mean)
        out.append((like_grid(rho, rate), like_grid(rho, halfwidth)))
    return out


def simulate_rate(link, rho, cfg):
    """Monte Carlo effective rate of one link: simulate_rates([link], rho, cfg)[0]."""
    return simulate_rates([link], rho, cfg)[0]


def simulate_ergodic_capacity(link, rho, cfg):
    """Monte Carlo E{log2(1 + rho S / n_t)}, the no-QoS ceiling; rho is a
    scalar or a sequence, with one set of draws serving every rho."""
    mean, _ = _accumulate([link], rho, cfg, _log_term)
    return like_grid(rho, mean[0])
