"""High-precision reference rates for the benchmark's correctness check.

A reference is the effective rate R = -(1/A) log2 E[(1 + rho S' / n_t)^-A]
in which S' is the moment-matched alpha-mu surrogate of the n_t-branch sum.
Both steps are done here in mpmath at DPS digits, independently of the
program's own fit and quadrature:

  * the surrogate solves the same two moment-ratio equations as
    effrate.sumfit, from exact binomially convolved sum moments;
  * the expectation is a double-exponential (exp-sinh) trapezoid sum over
    the Gamma(mu) weight, refined by halving the step until every rho of
    the link agrees between levels to DPS - 8 digits.  The weight and the
    power u^(2/alpha) are shared by all rho values of one link, which makes
    a 121-point sweep cost little more than one point.

The surrogate actually used is recorded next to the rates, so a later change
to the program's fit cannot move a reference.  References live in
gzip-compressed JSON files under bench/refs, keyed by link and by the repr
of the double-precision rho the program evaluates.  Run this module to
(re)build the files for every input the workloads can draw:

    python3 bench/reference.py [--workers 2]
"""

import argparse
import gzip
import json
import math
import os
import sys

import mpmath as mp

DPS = 40
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


class NotConverged(RuntimeError):
    """The high-precision fit or quadrature did not converge."""


def link_key(alpha, mu, n_t, delay_a):
    """Cache key of a link, from the argv strings the program receives."""
    return "%s,%s,%d,%s" % (alpha, mu, n_t, delay_a)


def rho_key(rho):
    return repr(float(rho))


def _sum_moments(alpha, mu, n_t, q):
    """Exact E[S^k], k = 0..q, for n_t unit-mean alpha-mu branches."""
    beta = mp.gamma(mu) / mp.gamma(mu + 2 / alpha)
    single = [beta ** k * mp.gamma(mu + 2 * k / alpha) / mp.gamma(mu) for k in range(q + 1)]
    acc = list(single)
    for _ in range(n_t - 1):
        acc = [
            mp.fsum(mp.binomial(k, j) * acc[j] * single[k - j] for j in range(k + 1))
            for k in range(q + 1)
        ]
    return acc


class NoSurrogate(ValueError):
    """The two moment-ratio equations have no solution in the alpha-mu family."""


def _bracket(f, x0, span):
    """(lo, hi) with f(lo) <= 0 <= f(hi), for increasing f, within x0 +- span."""
    lo = hi = mp.mpf(x0)
    step = mp.mpf(0.25)
    while f(lo) > 0:
        lo -= step
        step *= 2
        if lo < x0 - span:
            raise NoSurrogate("no sign change below %s" % mp.nstr(x0, 8))
    step = mp.mpf(0.25)
    while f(hi) < 0:
        hi += step
        step *= 2
        if hi > x0 + span:
            raise NoSurrogate("no sign change above %s" % mp.nstr(x0, 8))
    return lo, hi


def surrogate(alpha, mu, n_t):
    """(alpha', mu', mean') of the single alpha-mu law matching the sum.

    Nested one-dimensional solves by bracketing: for a trial alpha', the
    first ratio increases with mu', which fixes mu'(alpha'); along that
    curve the second ratio increases with alpha', which fixes alpha'.  Where
    the second ratio keeps one sign over alpha' in alpha * e^(+-16) the
    sum's moments lie outside the family (towards its lognormal limit), no
    surrogate exists, and NoSurrogate is raised.
    """
    with mp.workdps(DPS):
        alpha, mu = mp.mpf(alpha), mp.mpf(mu)
        if n_t == 1:
            return alpha, mu, mp.mpf(1)
        m = _sum_moments(alpha, mu, n_t, 4)
        lt1 = mp.log(m[1] ** 2 / (m[2] - m[1] ** 2))
        lt2 = mp.log(m[2] ** 2 / (m[4] - m[2] ** 2))
        g = mp.loggamma
        tol = mp.mpf(10) ** (12 - 2 * DPS)

        def log_ratio(a, u, k):
            return -mp.log(mp.expm1(g(u) + g(u + 2 * k / a) - 2 * g(u + k / a)))

        def solve(f, x0, span):
            # bracketing keeps the root found; secant steps then polish it
            rough = mp.findroot(f, _bracket(f, x0, span), solver="illinois",
                                tol=mp.mpf(10) ** -16, verify=False, maxsteps=100)
            return mp.findroot(f, rough, tol=tol, verify=False)

        def lu_of(la):
            a = mp.exp(la)
            return solve(lambda lu: log_ratio(a, mp.exp(lu), 2) - lt1, mp.log(n_t * mu), 64)

        la = solve(lambda la: log_ratio(mp.exp(la), mp.exp(lu_of(la)), 4) - lt2, mp.log(alpha), 16)
        a, u = mp.exp(la), mp.exp(lu_of(la))
        if max(abs(log_ratio(a, u, 2) - lt1), abs(log_ratio(a, u, 4) - lt2)) > mp.mpf(10) ** (10 - DPS):
            raise NotConverged("surrogate fit did not converge for %r" % ((alpha, mu, n_t),))
        return a, u, m[1]


def _weight_range(mu, log_eps):
    """t interval outside which the exp-sinh weight is below exp(log_eps)."""
    lgmu, lmu = math.lgamma(mu), math.log(mu)

    def logw(t):
        lx = lmu + 0.5 * math.pi * math.sinh(t)
        x = math.exp(lx) if lx < 700 else math.inf
        return mu * lx - x - lgmu + math.log(0.5 * math.pi * math.cosh(t))

    lo = hi = 0.0
    while logw(lo) > log_eps:
        lo -= 0.05
    while logw(hi) > log_eps:
        hi += 0.05
    return lo, hi


def expectations(sur, n_t, delay_a, rhos, max_level=12):
    """E[(1 + rho S'/n_t)^-A] at each rho, in mpmath, as a list of mpf."""
    a, u, mean = sur
    with mp.workdps(DPS):
        a, u, mean, big_a = mp.mpf(a), mp.mpf(u), mp.mpf(mean), mp.mpf(delay_a)
        beta = mean * mp.exp(mp.loggamma(u) - mp.loggamma(u + 2 / a))
        # c = 0 is a normalisation check riding along with the real points
        cs = [mp.mpf(0)] + [mp.mpf(rho) * beta / n_t for rho in rhos]
        log_eps = -(DPS + 6) * math.log(10.0)
        t_lo, t_hi = _weight_range(float(u), log_eps)
        lgu, lu, half_pi, two_over_a = mp.loggamma(u), mp.log(u), mp.pi / 2, 2 / a

        def node_sum(ts):
            acc = [mp.mpf(0)] * len(cs)
            for t in ts:
                t = mp.mpf(t)
                lx = lu + half_pi * mp.sinh(t)
                lw = u * lx - mp.exp(lx) - lgu + mp.log(half_pi * mp.cosh(t))
                if lw < log_eps:
                    continue
                y = mp.exp(two_over_a * lx)
                for i, c in enumerate(cs):
                    acc[i] += mp.exp(lw - big_a * mp.log1p(c * y))
            return acc

        h = 0.25
        k_lo, k_hi = math.floor(t_lo / h), math.ceil(t_hi / h)
        sums = [s * h for s in node_sum(k * h for k in range(k_lo, k_hi + 1))]
        tol = mp.mpf(10) ** (8 - DPS)
        for _ in range(max_level):
            h /= 2
            k_lo, k_hi = math.floor(t_lo / h), math.ceil(t_hi / h)
            odd = (k * h for k in range(k_lo, k_hi + 1) if k % 2)
            new = [s / 2 + v * h for s, v in zip(sums, node_sum(odd))]
            done = all(abs(n - s) <= tol * abs(n) for n, s in zip(new, sums))
            sums = new
            if done:
                break
        else:
            raise NotConverged("quadrature did not converge for %r" % ((sur, n_t, delay_a),))
        if abs(sums[0] - 1) > tol:
            raise NotConverged("Gamma weight does not integrate to 1: %s" % mp.nstr(sums[0], 20))
        return sums[1:]


def reference_rates(alpha, mu, n_t, delay_a, rhos):
    """(surrogate strings, {rho_key: rate}) for one link at the given rhos.

    Both are None where no surrogate exists: then no rate is a reference.
    """
    try:
        sur = surrogate(float(alpha), float(mu), int(n_t))
    except NoSurrogate:
        return None, {rho_key(r): None for r in rhos}
    es = expectations(sur, int(n_t), float(delay_a), rhos)
    with mp.workdps(DPS):
        big_a = mp.mpf(float(delay_a))
        rates = {rho_key(r): repr(float(-mp.log(e) / (big_a * mp.log(2)))) for r, e in zip(rhos, es)}
    return [mp.nstr(v, 30) for v in sur], rates


def _compute_link(job):
    key, rhos = job
    alpha, mu, n_t, delay_a = key.split(",")
    sur, rates = reference_rates(alpha, mu, int(n_t), delay_a, rhos)
    return key, {"surrogate": sur, "rates": rates}


class ReferenceCache:
    """Reference rates of one workload, loaded from and saved to bench/refs."""

    def __init__(self, name):
        self.path = os.path.join(REFS_DIR, name + ".json.gz")
        self.links = {}
        if os.path.exists(self.path):
            with gzip.open(self.path, "rt") as fh:
                self.links = json.load(fh)["links"]

    def missing(self, needed):
        """{link_key: [rho]} of the needed points that have no reference."""
        out = {}
        for key, rhos in needed.items():
            have = self.links.get(key, {}).get("rates", {})
            lack = sorted({r for r in rhos if rho_key(r) not in have})
            if lack:
                out[key] = lack
        return out

    def fill(self, needed, workers=1):
        """Compute and save every missing reference; returns how many."""
        todo = self.missing(needed)
        if not todo:
            return 0
        count = sum(len(v) for v in todo.values())
        sys.stderr.write("computing %d reference rates on %d links\n" % (count, len(todo)))
        jobs = sorted(todo.items())
        if workers > 1:
            import multiprocessing

            with multiprocessing.get_context("spawn").Pool(workers) as pool:
                self._merge(pool.imap_unordered(_compute_link, jobs))
        else:
            self._merge(map(_compute_link, jobs))
        return count

    def _merge(self, results, every=256):
        """Store results as they come, saving every `every` links."""
        for i, (key, entry) in enumerate(results, 1):
            have = self.links.setdefault(key, {"surrogate": entry["surrogate"], "rates": {}})
            have["rates"].update(entry["rates"])
            if i % every == 0:
                self.save()
        self.save()

    def save(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        text = json.dumps({"dps": DPS, "links": self.links}, sort_keys=True, separators=(",", ":"))
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(text.encode())
        os.replace(tmp, self.path)

    def rate(self, key, rho):
        """The reference rate, or None where the link has no surrogate."""
        value = self.links[key]["rates"][rho_key(rho)]
        return None if value is None else float(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description="build the benchmark's reference rates")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    import workloads  # imports this module, so not at the top

    for name in sorted(workloads.WORKLOADS):
        cache = ReferenceCache(name)
        n = cache.fill(workloads.WORKLOADS[name].reference_points(), workers=args.workers)
        print("%s: %d computed, %d links cached" % (name, n, len(cache.links)))


if __name__ == "__main__":
    main()
