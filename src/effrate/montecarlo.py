"""Monte Carlo verification of the analytic rate expressions.

Sampling happens at the branch level (no moment matching anywhere), so
agreement with the analytic pipeline checks the fitted approximation and the
contour integrals at once.  Draws are partitioned into independent
SplitMix64 streams keyed by (seed, stream index) (see splitmix.py) and
reduced in stream order, which makes every estimate bit-reproducible for a
given seed no matter how the work is scheduled.  Links that share mu and
n_t, simulated together, share their draws: the curves of a figure are
compared on common random numbers.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .alphamu import sample  # noqa: F401  bench/spans.py traces montecarlo.sample
from .rates import LN2, refuse_out_of_range
from .special import like_grid
from .splitmix import standard_gamma, stream_keys

_STREAMS = 8  # fewest independent streams the draws of one estimate are split into
_CAP = 8192  # most draws of one stream, which sizes the working set


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
    """Deterministic (key, count) pairs: the draws of each SplitMix64 stream
    of the seed.  The samples are split over max(8, ceil(samples / 8192))
    streams, whose counts differ by at most one, the longer first, so no
    stream draws more than 8192."""
    streams = max(_STREAMS, -(-cfg.samples // _CAP))
    counts = [cfg.samples // streams] * streams
    for i in range(cfg.samples % streams):
        counts[i] += 1
    return list(zip(stream_keys(cfg.seed, streams), counts))


def _accumulate(route, links, rho, cfg, term_fn):
    """Stream-ordered mean and variance of term_fn(link, log1p(rho S / n_t),
    out): two (links, rhos) arrays.  The variance sums the squared deviations
    from each stream's own mean, which do not cancel where every term is
    near 1, and adds the streams by the pairwise update of Chan, Golub &
    LeVeque (1979).  Errors name the route.

    Links that share (branch.mu, n_t) share one stream plan and one unit
    Gamma block per stream (common random numbers across the links of a
    figure).  The block is turned into log W once per stream, and each
    distinct branch forms S / n_t = (beta / n_t) sum_k exp((2 / alpha)
    log W_k) from it, column by column; each rho costs one log1p per
    branch, and each link one term_fn call.  The sums of each (link, rho)
    still accumulate in stream order, so every row is the one a call with
    that link, or that rho, alone gives.  One working set, made once per
    call and sized by the longest stream (at most 8192 draws, whatever the
    sample count), serves every stream of every group: a flat unit Gamma
    buffer of longest * max(n_t) entries, viewed as each stream's (count,
    n_t) block, and three vectors of longest entries: S / n_t, a scratch
    (column powers, then log1p) and the terms.  While a stream draws, its
    Gamma sampler works in the three vectors.
    """
    for link in links:  # each call returns the same grid
        rhos = refuse_out_of_range(route, link, rho, link.branch.beta, link.n_t, check_a=False)
    rhos, top = rhos.tolist(), float(rhos.max())
    sums = [[[0.0, 0.0] for _ in rhos] for _ in links]  # sum of terms, of squared deviations
    groups = {}
    for i, link in enumerate(links):
        groups.setdefault((link.branch.mu, link.n_t), {}).setdefault(link.branch, []).append(i)
    plan = _stream_plan(cfg)
    longest = plan[0][1]
    unit = np.empty(longest * max(n_t for _, n_t in groups))
    vectors = np.empty((3, longest))
    for (mu, n_t), by_branch in groups.items():
        seen = 0  # draws of the streams already reduced
        for key, count in plan:
            log_w = standard_gamma(key, mu, unit[:count * n_t].reshape(count, n_t), vectors)
            with np.errstate(divide="ignore"):  # a draw that underflowed to 0 gives exp(-inf) = 0
                np.log(log_w, out=log_w)
            s_avg, scratch, terms = vectors[:, :count]
            for branch, indices in by_branch.items():
                power = 2.0 / branch.alpha
                np.exp(np.multiply(log_w[:, 0], power, out=s_avg), out=s_avg)
                for k in range(1, n_t):
                    s_avg += np.exp(np.multiply(log_w[:, k], power, out=scratch), out=scratch)
                s_avg *= branch.beta / n_t
                if not math.isfinite(top * float(s_avg.max())):
                    raise ValueError("%s: rho=%r is too large: rho S / n_t would overflow the "
                                     "doubles" % (route, top))
                for j, rho in enumerate(rhos):
                    log1p_x = np.log1p(np.multiply(s_avg, rho, out=scratch), out=scratch)
                    for i in indices:
                        term_fn(links[i], log1p_x, terms)
                        total = float(terms.sum())
                        stream_mean = total / count
                        row = sums[i][j]
                        delta = stream_mean - row[0] / max(seen, 1)
                        terms -= stream_mean
                        row[0] += total
                        row[1] += (float(np.square(terms, out=terms).sum())
                                   + delta * delta * seen * count / (seen + count))
            seen += count
    sums = np.array(sums)
    return sums[..., 0] / cfg.samples, sums[..., 1] / (cfg.samples - 1)


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
    deviations underflow), whose half-width would read 0.0; where all
    underflow, the message says so.  Each link refuses rho as the rate routes
    do at its branch's beta, and where rho S / n_t overflows on a draw.
    """
    links = list(links)
    if not links:
        raise ValueError("simulate_rates: need at least one link")
    n = cfg.samples
    out = []
    for link, mean, var in zip(links, *_accumulate("simulate_rates", links, rho, cfg, _decay_term)):
        spread = 1.96 * np.sqrt(var / n)
        resolved = spread > 2.2e-16 * math.log2(n) * mean  # False for a NaN
        if not np.all(resolved):
            k = np.argmin(resolved)
            why = "underflow" if mean[k] == 0.0 else "have no spread above rounding"
            raise ArithmeticError("simulate_rates: the draws of (1 + rho S / n_t)^-A %s at A = %r, "
                                  "rho = %r" % (why, link.delay_a, float(np.atleast_1d(rho)[k])))
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
    scalar or a sequence, with one set of draws serving every rho, refused as
    simulate_rates refuses it."""
    mean, _ = _accumulate("simulate_ergodic_capacity", [link], rho, cfg, _log_term)
    return like_grid(rho, mean[0])
