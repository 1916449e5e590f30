"""The benchmark's workloads: seeded CLI argv sequences and what to check.

Every op is one `effrate` CLI command.  A run is a fixed number of whole
blocks, so that each run has the same mix of commands whatever the seed;
the block count is the requested seconds divided by the block's nominal
cost on the reference machine (see bench/NOTES.md).  Inputs come from a
random.Random seeded with the workload seed, and always from a finite set
whose reference rates are cached in bench/refs, so that no run has to wait
for mpmath before it can be checked.
"""

import math
import random

from reference import link_key

SWEEP_RANGE = (-10.0, 30.0, 121)
# CLI rate methods of the sweep rotation; nakagami takes alpha = 2 links only
SWEEP_METHODS = ("foxh", "quadrature", "nakagami")
SWEEP_ALPHA = ("0.8", "1.5", "2", "3", "4", "8")
SWEEP_MU = ("0.75", "1", "2", "3")
SWEEP_NT = (1, 2, 4)
SWEEP_A = ("0.5", "1", "2")

POINTS_POOL_SEED = 1507_04243
POINTS_POOL_SIZE = 1600
POINTS_METHODS = ("foxh", "quadrature")
POINTS_NT = (1, 2, 4, 8, 16)

ROUTE_OF_METHOD = {"foxh": "fox_h", "quadrature": "quadrature", "nakagami": "nakagami_closed"}

# figure layouts of `effrate sweep-figures`: (alpha, mu, n_t, A) per curve
FIGURE_LINKS = {
    1: [(a, 2.0, 2, 0.5) for a in (0.8, 2.0, 4.0, 8.0)],
    2: [(4.0, m, 2, 0.5) for m in (1.0, 2.0, 4.0)],
    3: [(2.0, 2.0, 2, a) for a in (0.5, 1.0, 2.0)],
}
FIG_FINE_DB = tuple(0.5 * i for i in range(41))
FIG_MC_DB = tuple(2.0 * i for i in range(11))
FIG3_RHOS = tuple(10.0 ** (-4.0 + 6.0 * i / 27.0) for i in range(28))
FIG3_MC = tuple(range(0, 28, 3))


def db_to_rho(db):
    """The linear SNR the CLI evaluates for a dB value (same expression)."""
    return 10.0 ** (db / 10.0)


def sweep_grid():
    start, stop, points = SWEEP_RANGE
    step = (stop - start) / (points - 1)
    return tuple(start + i * step for i in range(points))


def _fmt(x):
    return "%.4g" % x


def _rate_op(alpha, mu, n_t, delay_a, method, snr_arg):
    argv = ["rate", "--alpha", alpha, "--mu", mu, "--nt", str(n_t), "--delay-a", delay_a]
    return {
        "kind": "rate",
        "argv": argv + snr_arg + ["--method", method],
        "link": link_key(alpha, mu, n_t, delay_a),
        "route": ROUTE_OF_METHOD[method],
    }


class _RateWorkload:
    """A workload of `rate` ops, each checked at its own (x, rho) points."""

    def needed_points(self, ops):
        """{link_key: [rho]} the given ops are checked at."""
        out = {}
        for op in ops:
            out.setdefault(op["link"], []).extend(r for _, r in self.expected_points(op))
        return out


class Sweep(_RateWorkload):
    why = "SNR sweeps of 121 points per op on seeded links; kernel time per point dominates each op"
    block = len(SWEEP_METHODS)
    nominal_block_s = 0.48

    def ops(self, seed, blocks):
        rng = random.Random(seed)
        lo, hi, n = SWEEP_RANGE
        snr_arg = ["--snr-db-range=%g:%g:%d" % (lo, hi, n)]
        out = []
        for _ in range(blocks):
            for method in SWEEP_METHODS:
                alpha = "2" if method == "nakagami" else rng.choice(SWEEP_ALPHA)
                out.append(
                    _rate_op(alpha, rng.choice(SWEEP_MU), rng.choice(SWEEP_NT),
                             rng.choice(SWEEP_A), method, snr_arg)
                )
        return out

    def expected_points(self, op):
        return [(x, db_to_rho(x)) for x in sweep_grid()]

    def reference_points(self):
        rhos = [db_to_rho(x) for x in sweep_grid()]
        return {
            link_key(a, m, n, d): rhos
            for a in SWEEP_ALPHA for m in SWEEP_MU for n in SWEEP_NT for d in SWEEP_A
        }


class Points(_RateWorkload):
    why = "one SNR point per op on a fresh link; per-command work (parse, fit, pool, output) is a large share"
    block = 1
    nominal_block_s = 0.00625  # 20 s makes one pass over the pool's 3200 pairs

    def pool(self):
        """The fixed pool of (alpha, mu, n_t, A, snr_db) argv strings.

        Scale parameters are drawn log-uniformly over the ROADMAP domain so
        that every decade of alpha, mu and A is covered, including the
        corners where fit_sum is known to fail.
        """
        rng = random.Random(POINTS_POOL_SEED)

        def logu(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        return [
            (_fmt(logu(0.5, 8.0)), _fmt(logu(0.5, 4.0)), rng.choice(POINTS_NT),
             _fmt(logu(0.2, 4.0)), "%.2f" % rng.uniform(-50.0, 40.0))
            for _ in range(POINTS_POOL_SIZE)
        ]

    def ops(self, seed, blocks):
        """Every (pool entry, method) pair once per pass, in seeded order.

        A 20 s run is one whole pass, so such runs differ in order only and
        the failing share of the pool counts the same in each.
        """
        rng = random.Random(seed)
        pool = self.pool()
        pairs = [(entry, method) for entry in pool for method in POINTS_METHODS]
        out = []
        while len(out) < blocks:
            rng.shuffle(pairs)
            for (alpha, mu, n_t, delay_a, snr), method in pairs[:blocks - len(out)]:
                out.append(_rate_op(alpha, mu, n_t, delay_a, method, ["--snr-db", snr]))
        return out

    def expected_points(self, op):
        x = float(op["argv"][op["argv"].index("--snr-db") + 1])
        return [(x, db_to_rho(x))]

    def reference_points(self):
        out = {}
        for alpha, mu, n_t, delay_a, snr in self.pool():
            out.setdefault(link_key(alpha, mu, n_t, delay_a), []).append(db_to_rho(float(snr)))
        return out


class Reproduce:
    why = "sweep-figures 1, 2, 3 at 1e5 Monte Carlo samples and verify --fast; Monte Carlo is about half the work"
    block = 4
    # 20 s gives 7 blocks: the tail (11th largest of 28) then sits in the
    # middle of the figure-2 group rather than at an edge between groups
    nominal_block_s = 2.7

    def ops(self, seed, blocks):
        rng = random.Random(seed)
        out = []
        for _ in range(blocks):
            for fig in (1, 2, 3):
                out.append({
                    "kind": "figure",
                    "figure": fig,
                    "argv": ["sweep-figures", "--figure", str(fig), "--out-dir",
                             ".bench_work/fig%d" % fig, "--seed", str(rng.randrange(2 ** 31))],
                })
            out.append({"kind": "verify",
                        "argv": ["verify", "--fast", "--seed", str(rng.randrange(2 ** 31))]})
        return out

    def expected_points(self, op):
        return None

    def needed_points(self, ops):
        return self.reference_points()

    def reference_points(self):
        out = {}
        for fig, links in FIGURE_LINKS.items():
            rhos = FIG3_RHOS if fig == 3 else [db_to_rho(x) for x in FIG_FINE_DB]
            for alpha, mu, n_t, delay_a in links:
                key = link_key(repr(alpha), repr(mu), n_t, repr(delay_a))
                out.setdefault(key, []).extend(rhos)
        return out


WORKLOADS = {"sweep": Sweep(), "points": Points(), "reproduce": Reproduce()}


def blocks_for(workload, seconds):
    """Whole blocks that take about `seconds` on the reference machine."""
    return max(1, round(seconds / workload.nominal_block_s))
