"""Command-line front-end: rate evaluation, sum fitting, cross-validation,
and reproduction of the three standard sweep figures as CSV plus SVG.

Exit codes: 0 success, 1 verification failures, 2 parameter or domain
errors, 3 fit non-convergence.  Every nonzero exit writes a single
"error: ..." line to stderr.  Stochastic paths honor --seed and are
byte-reproducible.  EFFRATE_OUT_DIR sets the default output directory of
sweep-figures.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

from . import svg
from .alphamu import AlphaMuParams
from .montecarlo import McConfig, simulate_rates
from .montecarlo import simulate_rate  # noqa: F401  bench/spans.py traces cli.simulate_rate
from .rates import (
    MisoLink,
    parametric_eb_n0,
    rate_exact_foxh,
    rate_exact_quadrature,
    rate_high_snr,
    rate_low_snr,
    rate_nakagami,
)
from .sumfit import FitConvergenceError, fit_sum
from .verify import FIGURE_LAYOUTS, run_verification

rate_exact_meijerg = None  # bench/spans.py traces this name; the route is gone


def _routes():
    """{--method flag: (CSV label, rate route)}.  The parser, built once per
    process, takes only the keys, and METHOD_LABELS only the labels;
    `cmd_rate` builds the table per call, so a route replaced on this module
    (by a tracer, say) is the one called."""
    return {
        "foxh": ("fox_h", rate_exact_foxh),
        "quadrature": ("quadrature", rate_exact_quadrature),
        "nakagami": ("nakagami_closed", rate_nakagami),
        "high-snr": ("high_snr", rate_high_snr),
    }


# the --method routes' labels, then those only the figures draw
METHOD_LABELS = tuple(label for label, _ in _routes().values()) + (
    "low_snr_wideband", "monte_carlo", "awgn")


@dataclass(frozen=True)
class RateCurve:
    """One sweep result: x-axis dB values, rates, and the producing method."""

    x_db: tuple
    rate: tuple
    method: str
    ci_halfwidth: tuple = None

    def __post_init__(self):
        if self.method not in METHOD_LABELS:
            raise ValueError("RateCurve: unknown method label %r" % (self.method,))
        if len(self.x_db) != len(self.rate):
            raise ValueError("RateCurve: x and rate lengths differ")
        if any(b <= a for a, b in zip(self.x_db, self.x_db[1:])):
            raise ValueError("RateCurve: x values must be strictly increasing")
        # an asymptote is not a rate: the high-SNR line goes negative at low SNR
        if self.method != "high_snr" and any(r < 0 for r in self.rate):
            raise ValueError("RateCurve: negative rate")
        if self.ci_halfwidth is not None and len(self.ci_halfwidth) != len(self.rate):
            raise ValueError("RateCurve: ci length differs from rate")


def db_to_linear(db):
    try:
        rho = 10.0 ** (db / 10.0)
    except OverflowError:
        rho = math.inf
    if not 0.0 < rho < math.inf:
        raise ValueError("SNR of %r dB has no positive finite linear value" % (db,))
    return rho


def curve_to_csv(curve, fh, x_column="snr_db"):
    ci = curve.ci_halfwidth or [None] * len(curve.rate)
    fh.write("".join(["%s,rate,method,ci_halfwidth\n" % x_column] + [
        "%r,%r,%s,%s\n" % (x, r, curve.method, "" if h is None else repr(h))
        for x, r, h in zip(curve.x_db, curve.rate, ci)]))


def curve_to_json_obj(curve):
    ci = curve.ci_halfwidth or [None] * len(curve.rate)
    return {
        "method": curve.method,
        "points": [
            {"snr_db": x, "rate": r, "ci_halfwidth": h}
            for x, r, h in zip(curve.x_db, curve.rate, ci)
        ],
    }


def cmd_rate(args):
    branch = AlphaMuParams(alpha=args.alpha, mu=args.mu, mean_snr=args.mean_snr)
    link = MisoLink(n_t=args.nt, delay_a=args.delay_a, branch=branch)
    label, route = _routes()[args.method]
    xs = (args.snr_db,) if args.snr_db is not None else args.snr_db_range
    rhos = [db_to_linear(x) for x in xs]
    curve = RateCurve(x_db=xs, rate=tuple(route(link, rhos).tolist()), method=label)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "csv":
            curve_to_csv(curve, fh)
        else:
            json.dump(curve_to_json_obj(curve), fh, indent=2)
            fh.write("\n")
    return 0


def cmd_fit_sum(args):
    branch = AlphaMuParams(alpha=args.alpha, mu=args.mu, mean_snr=args.mean_snr)
    fit = fit_sum(branch, args.nt)
    p = fit.fitted
    print(
        "alpha=%.12g mu=%.12g mean_snr=%.12g residuals=%.3e,%.3e"
        % (p.alpha, p.mu, p.mean_snr, fit.residuals[0], fit.residuals[1])
    )
    return 0


def cmd_verify(args):
    samples = 10_000_000 if args.full else 100_000
    failures = run_verification(samples=samples, seed=args.seed, out=sys.stdout)
    if failures:
        sys.stderr.write("error: verification failed: %s\n" % ", ".join(failures))
        return 1
    return 0


def _sweep_snr_figure(family, values, links, seed, mc_samples):
    xs = tuple(0.5 * i for i in range(41))
    rhos = [db_to_linear(x) for x in xs]
    # one set of draws serves every curve that shares mu (common random numbers)
    mc = simulate_rates(links, rhos[::4], McConfig(samples=mc_samples, seed=seed))
    curves = []
    for val, link, (mc_rates, mc_ci) in zip(values, links, mc):
        tag, label = "%s%g" % (family, val), "%s=%g " % (family, val)
        exact = RateCurve(xs, tuple(rate_exact_foxh(link, rhos).tolist()), "fox_h")
        # the asymptote line crosses zero inside the plot window; keep its
        # visible (nonnegative) part only
        kept = [(x, v) for x, v in zip(xs, rate_high_snr(link, rhos).tolist()) if v >= 0.0]
        curves += [
            (tag + "_exact", exact, label + "exact", None),
            (tag + "_asymptote", RateCurve(*zip(*kept), "high_snr"), label + "high-SNR", "6,4"),
            (tag + "_mc", RateCurve(xs[::4], tuple(mc_rates.tolist()), "monte_carlo",
                                    tuple(mc_ci.tolist())), label + "simulated", None),
        ]
    awgn = tuple(math.log2(1.0 + rho) for rho in rhos)
    return curves + [("awgn", RateCurve(xs, awgn, "awgn"), "AWGN benchmark", "2,3")]


def _sweep_eb_n0_figure(family, values, links, seed, mc_samples):
    rhos = [10.0 ** (-4.0 + 6.0 * i / 27.0) for i in range(28)]
    mc = simulate_rates(links, rhos[::3], McConfig(samples=mc_samples, seed=seed))
    curves = []
    for val, link, (mc_rates, mc_ci) in zip(values, links, mc):
        tag, label = "%s%g" % (family, val), "A=%g " % val
        ebs, rates = parametric_eb_n0(link, rhos)
        ebs_db = tuple(10.0 * math.log10(eb) for eb in ebs.tolist())
        exact = RateCurve(ebs_db, tuple(rates.tolist()), "quadrature")
        approx = tuple(rate_low_snr(link, [db_to_linear(x) for x in ebs_db]).tolist())
        curves += [
            (tag + "_exact", exact, label + "exact", None),
            (tag + "_wideband", RateCurve(ebs_db, approx, "low_snr_wideband"),
             label + "wideband", "6,4"),
            (tag + "_mc", RateCurve(ebs_db[::3], tuple(mc_rates.tolist()), "monte_carlo",
                                    tuple(mc_ci.tolist())), label + "simulated", None),
        ]
    return curves


# --figure: (sweep of its FIGURE_LAYOUTS entry, SVG title, x-axis label, CSV x column)
_FIGURES = {
    1: (_sweep_snr_figure, "Effective rate vs transmit SNR", "SNR [dB]", "snr_db"),
    2: (_sweep_snr_figure, "Effective rate vs transmit SNR", "SNR [dB]", "snr_db"),
    3: (_sweep_eb_n0_figure, "Effective rate vs energy per bit", "Eb/N0 [dB]", "eb_n0_db"),
}


def cmd_sweep_figures(args):
    out_dir = args.out_dir or os.environ.get("EFFRATE_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    num = args.figure
    sweep, title, xlabel, x_column = _FIGURES[num]
    # every curve exists before the first file is written: a failure leaves none
    curves = sweep(*FIGURE_LAYOUTS[num], args.seed, args.mc_samples)
    for name, curve, _, _ in curves:
        with open(os.path.join(out_dir, "fig%d_%s.csv" % (num, name)), "w") as fh:
            curve_to_csv(curve, fh, x_column)
    svg.render(os.path.join(out_dir, "fig%d.svg" % num),
               [(curve, label, dash) for _, curve, label, dash in curves],
               "%s (figure %d layout)" % (title, num), xlabel)
    return 0


def _parse_range(text):
    """The x values start + i * step, i < points, of a START:STOP:POINTS spec."""
    try:
        start, stop, points = text.split(":")
        start, stop, points = float(start), float(stop), int(points)
    except ValueError:
        raise argparse.ArgumentTypeError("expected start:stop:points, got %r" % text)
    if points < 2:
        raise argparse.ArgumentTypeError("range needs at least 2 points")
    if not start < stop:
        raise argparse.ArgumentTypeError("range needs start < stop")
    step = (stop - start) / (points - 1)
    xs = tuple(start + i * step for i in range(points))
    if not all(a < b for a, b in zip(xs, xs[1:])):
        raise argparse.ArgumentTypeError("range %r gives points that do not strictly increase"
                                         % text)
    return xs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="effrate",
        description="Effective rate of MISO links over alpha-mu fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    link = argparse.ArgumentParser(add_help=False)  # the branch and array of rate and fit-sum
    link.add_argument("--alpha", type=float, required=True)
    link.add_argument("--mu", type=float, required=True)
    link.add_argument("--nt", type=int, required=True)
    link.add_argument("--mean-snr", type=float, default=1.0)

    p_rate = sub.add_parser("rate", parents=[link],
                            help="evaluate the rate at one SNR or over a range")
    p_rate.add_argument("--delay-a", type=float, required=True)
    group = p_rate.add_mutually_exclusive_group(required=True)
    group.add_argument("--snr-db", type=float)
    group.add_argument("--snr-db-range", type=_parse_range, metavar="START:STOP:POINTS")
    p_rate.add_argument("--method", choices=tuple(_routes()), required=True)
    p_rate.add_argument("--out", default=None)
    p_rate.add_argument("--format", choices=("csv", "json"), default="csv")
    p_rate.set_defaults(func=cmd_rate)

    p_fit = sub.add_parser("fit-sum", parents=[link], help="moment-match a branch sum")
    p_fit.set_defaults(func=cmd_fit_sum)

    p_ver = sub.add_parser("verify", help="cross-check all evaluation routes")
    scale = p_ver.add_mutually_exclusive_group()
    scale.add_argument("--fast", action="store_true", help="1e5 Monte Carlo samples, the default")
    scale.add_argument("--full", action="store_true", help="1e7 Monte Carlo samples")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("sweep-figures", help="emit CSV and SVG for a figure layout")
    p_fig.add_argument("--figure", type=int, choices=tuple(_FIGURES), required=True)
    p_fig.add_argument("--out-dir", default=None)
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--mc-samples", type=int, default=100_000)
    p_fig.set_defaults(func=cmd_sweep_figures)
    return parser


# main() reuses one parser per process: parse_args fills a fresh Namespace on
# every call and leaves the parser as it was.  build_parser() still returns a
# new parser, so a caller that edits the one it gets cannot reach main().
_parser = functools.cache(build_parser)


def _one_line_warning(message, category, filename, lineno, line=None):
    return "warning: %s\n" % message


def main(argv=None):
    args = _parser().parse_args(argv)
    # warnings still go through the filters and any catch_warnings of the
    # caller; only their stderr text becomes one line without a source path
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _one_line_warning
    try:
        return args.func(args)
    except FitConvergenceError as err:
        sys.stderr.write("error: %s\n" % err)
        return 3
    except (ValueError, ArithmeticError, OSError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
