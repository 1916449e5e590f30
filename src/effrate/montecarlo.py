"""Monte Carlo verification of the analytic rate expressions.

Sampling happens at the branch level (no moment matching anywhere), so
agreement with the analytic pipeline checks the fitted approximation and the
contour integrals at once.  Draws are partitioned into independent streams
with fixed per-stream seeds and reduced in stream order, which makes every
estimate bit-reproducible for a given (seed, streams) pair no matter how the
work is scheduled.
"""

import math
from dataclasses import dataclass

import numpy as np

from .alphamu import sample
from .rates import _like_rho, _rho_vector

LN2 = math.log(2.0)


@dataclass(frozen=True)
class McConfig:
    """Sample budget and seeding policy of one Monte Carlo estimate."""

    samples: int = 1_000_000
    seed: int = 0
    streams: int = 8

    def __post_init__(self):
        if self.samples < 1000:
            raise ValueError("McConfig: need at least 1000 samples")
        if self.streams < 1 or self.streams > self.samples:
            raise ValueError("McConfig: streams must be in [1, samples]")


def _stream_plan(cfg):
    """Deterministic (rng, count) pairs, one per stream."""
    base = np.random.SeedSequence(cfg.seed)
    children = base.spawn(cfg.streams)
    counts = [cfg.samples // cfg.streams] * cfg.streams
    for i in range(cfg.samples % cfg.streams):
        counts[i] += 1
    return [(np.random.default_rng(children[i]), counts[i]) for i in range(cfg.streams)]


def _branch_sum(draws):
    """Row sums of a (count, n_t) block of branch draws, by one in-place add
    per branch column: a tenth to a quarter of the cost of draws.sum(axis=1)
    along the short axis."""
    total = draws[:, 0].copy()
    for k in range(1, draws.shape[1]):
        total += draws[:, k]
    return total


def _accumulate(link, rhos, cfg, term_fn):
    """Stream-ordered mean/variance accumulation of term_fn over SNR sums.

    Each stream's branch draws are summed once and serve every rho; the
    totals of each rho still accumulate in stream order, so the estimate at
    rhos[j] is the one a call with that rho alone gives.
    """
    totals = [0.0] * len(rhos)
    totals_sq = [0.0] * len(rhos)
    n = 0
    for rng, count in _stream_plan(cfg):
        if count == 0:
            continue
        draws = sample(link.branch, rng, size=(count, link.n_t))
        snr_sum = _branch_sum(draws)
        for j, rho in enumerate(rhos):
            terms = term_fn(rho * snr_sum / link.n_t)
            totals[j] += float(terms.sum())
            totals_sq[j] += float(np.square(terms).sum())
        n += count
    stats = []
    for total, total_sq in zip(totals, totals_sq):
        mean = total / n
        var = max(total_sq / n - mean * mean, 0.0) * n / max(n - 1, 1)
        stats.append((mean, var))
    return stats, n


def simulate_rate(link, rho, cfg):
    """Monte Carlo effective rate with a delta-method 95% interval.

    Estimates X = E{(1 + rho S / n_t)^-A} by the sample mean, maps it through
    R = -(1/A) log2 X, and propagates the standard error through the log:
    halfwidth = 1.96 sd(X) / (sqrt(M) A ln2 X).

    Returns (rate, ci_halfwidth): floats for a scalar rho, arrays for a
    sequence.  One set of branch draws serves every rho of a sequence (common
    random numbers), so the errors of its points are correlated, while each
    row is bit-for-bit the scalar call at that rho.
    """
    rhos = _rho_vector(rho).tolist()
    a_qos = link.delay_a

    def decay_term(x):
        return np.exp(-a_qos * np.log1p(x))

    stats, n = _accumulate(link, rhos, cfg, decay_term)
    rate = np.array([-math.log(mean) / (a_qos * LN2) for mean, _ in stats])
    halfwidth = np.array([1.96 * math.sqrt(var / n) / (a_qos * LN2 * mean) for mean, var in stats])
    return _like_rho(rho, rate), _like_rho(rho, halfwidth)


def simulate_ergodic_capacity(link, rho, cfg):
    """Monte Carlo E{log2(1 + rho S / n_t)}, the no-QoS ceiling; rho is a
    scalar or a sequence, with one set of draws serving every rho."""

    def log_term(x):
        return np.log1p(x) / LN2

    stats, _ = _accumulate(link, _rho_vector(rho).tolist(), cfg, log_term)
    return _like_rho(rho, np.array([mean for mean, _ in stats]))
