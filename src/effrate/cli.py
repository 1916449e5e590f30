"""Command-line front-end: rate evaluation, sum fitting, cross-validation,
and reproduction of the three standard sweep figures as CSV plus SVG.

Exit codes: 0 success, 1 verification failures, 2 parameter or domain
errors, 3 fit non-convergence.  Every nonzero exit writes a single
"error: ..." line to stderr.  Stochastic paths honor --seed and are
byte-reproducible.  EFFRATE_OUT_DIR sets the default output directory of
sweep-figures.
"""

import argparse
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

from . import svg
from .alphamu import AlphaMuParams
from .montecarlo import McConfig, simulate_rate
from .rates import (
    MisoLink,
    parametric_eb_n0,
    rate_exact_foxh,
    rate_exact_meijerg,
    rate_exact_quadrature,
    rate_high_snr,
    rate_low_snr,
    rate_nakagami,
)
from .sumfit import FitConvergenceError, fit_sum
from .verify import run_verification

METHOD_LABELS = (
    "fox_h",
    "meijer_g",
    "quadrature",
    "nakagami_closed",
    "high_snr",
    "low_snr_wideband",
    "monte_carlo",
    "awgn",
)

_FLAG_TO_LABEL = {
    "foxh": "fox_h",
    "meijerg": "meijer_g",
    "quadrature": "quadrature",
    "nakagami": "nakagami_closed",
    "high-snr": "high_snr",
}


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
        if any(r < 0 for r in self.rate):
            raise ValueError("RateCurve: negative rate")
        if self.ci_halfwidth is not None and len(self.ci_halfwidth) != len(self.rate):
            raise ValueError("RateCurve: ci length differs from rate")


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def linear_to_db(x):
    return 10.0 * math.log10(x)


def curve_to_csv(curve, fh):
    fh.write("snr_db,rate,method,ci_halfwidth\n")
    ci = curve.ci_halfwidth or [None] * len(curve.rate)
    for x, r, h in zip(curve.x_db, curve.rate, ci):
        fh.write("%r,%r,%s,%s\n" % (x, r, curve.method, "" if h is None else repr(h)))


def curves_from_csv(fh):
    """Inverse of curve_to_csv; consecutive rows of one method form a curve."""
    header = fh.readline().strip()
    if header != "snr_db,rate,method,ci_halfwidth":
        raise ValueError("unexpected CSV header: %r" % (header,))
    curves = []
    rows = []
    method = None

    def flush():
        if not rows:
            return
        has_ci = any(h is not None for _, _, h in rows)
        curves.append(
            RateCurve(
                x_db=tuple(x for x, _, _ in rows),
                rate=tuple(r for _, r, _ in rows),
                method=method,
                ci_halfwidth=tuple(h for _, _, h in rows) if has_ci else None,
            )
        )

    for line in fh:
        line = line.strip()
        if not line:
            continue
        x, r, meth, h = line.split(",")
        if meth != method:
            flush()
            rows = []
            method = meth
        rows.append((float(x), float(r), float(h) if h else None))
    flush()
    return curves


def curve_to_json_obj(curve):
    ci = curve.ci_halfwidth or [None] * len(curve.rate)
    return {
        "method": curve.method,
        "points": [
            {"snr_db": x, "rate": r, "ci_halfwidth": h}
            for x, r, h in zip(curve.x_db, curve.rate, ci)
        ],
    }


def _sweep_rates(link, rhos, label, mc=None):
    """Evaluate one method over a grid of linear SNRs.  The exact routes and
    Monte Carlo take the grid in one call, setting their kernel up (or drawing
    the branch sums) once; the rest go point by point."""
    if label == "monte_carlo":
        rates, halfwidths = simulate_rate(link, rhos, mc)
        return rates.tolist(), halfwidths.tolist()
    if label in ("fox_h", "meijer_g", "quadrature"):
        rate = {"fox_h": rate_exact_foxh, "meijer_g": rate_exact_meijerg,
                "quadrature": rate_exact_quadrature}[label]
        return rate(link, rhos).tolist(), None
    if label == "nakagami_closed":
        b = link.branch
        if abs(b.alpha - 2.0) > 1e-12:
            raise ValueError("method nakagami requires alpha = 2 (got alpha=%g)" % b.alpha)
        return rate_nakagami(b.mu, b.mean_snr, link.n_t, link.delay_a, rhos).tolist(), None
    if label == "awgn":
        return [math.log2(1.0 + rho) for rho in rhos], None
    return [rate_high_snr(link, rho) for rho in rhos], None


def _write_output(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rate(args):
    branch = AlphaMuParams(alpha=args.alpha, mu=args.mu, mean_snr=args.mean_snr)
    link = MisoLink(n_t=args.nt, delay_a=args.delay_a, branch=branch)
    label = _FLAG_TO_LABEL[args.method]
    if args.snr_db is not None:
        xs = (args.snr_db,)
    else:
        start, stop, points = args.snr_db_range
        step = (stop - start) / (points - 1)
        xs = tuple(start + i * step for i in range(points))
    rhos = [db_to_linear(x) for x in xs]
    vals, ci = _sweep_rates(link, rhos, label)
    curve = RateCurve(x_db=xs, rate=tuple(vals), method=label, ci_halfwidth=ci)
    buf = io.StringIO()
    if args.format == "csv":
        curve_to_csv(curve, buf)
    else:
        json.dump(curve_to_json_obj(curve), buf, indent=2)
        buf.write("\n")
    _write_output(buf.getvalue(), args.out)
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


# Figure definitions: family parameter sweeps at the fixed link settings
_FIG1 = dict(family="alpha", values=(0.8, 2.0, 4.0, 8.0), n_t=2, delay_a=0.5, mu=2.0)
_FIG2 = dict(family="mu", values=(1.0, 2.0, 4.0), n_t=2, delay_a=0.5, alpha=4.0)
_FIG3 = dict(family="delay_a", values=(0.5, 1.0, 2.0), n_t=2, alpha=2.0, mu=2.0)


def _figure_links(fig):
    links = []
    for v in fig["values"]:
        kw = dict(fig)
        kw.pop("family")
        kw.pop("values")
        kw[fig["family"]] = v
        branch = AlphaMuParams(alpha=kw["alpha"], mu=kw["mu"], mean_snr=1.0)
        links.append((v, MisoLink(n_t=kw["n_t"], delay_a=kw["delay_a"], branch=branch)))
    return links


def _emit(out_dir, name, curve, collect, label, dash=None):
    path = os.path.join(out_dir, name + ".csv")
    with open(path, "w") as fh:
        curve_to_csv(curve, fh)
    entry = {"label": label, "x": curve.x_db, "y": curve.rate}
    if curve.ci_halfwidth:
        entry["ci"] = curve.ci_halfwidth
    if dash:
        entry["dash"] = dash
    collect.append(entry)


def _sweep_snr_figure(num, fig, out_dir, seed, mc_samples):
    xs_fine = tuple(0.0 + 0.5 * i for i in range(41))
    xs_mc = tuple(0.0 + 2.0 * i for i in range(11))
    rhos_fine = [db_to_linear(x) for x in xs_fine]
    rhos_mc = [db_to_linear(x) for x in xs_mc]
    drawn = []
    for idx, (val, link) in enumerate(_figure_links(fig)):
        tag = "fig%d_%s%g" % (num, fig["family"], val)
        vals, _ = _sweep_rates(link, rhos_fine, "fox_h")
        _emit(out_dir, tag + "_exact", RateCurve(xs_fine, tuple(vals), "fox_h"),
              drawn, "%s=%g exact" % (fig["family"], val))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals, _ = _sweep_rates(link, rhos_fine, "high_snr")
        # the asymptote line crosses zero inside the plot window; keep its
        # visible (nonnegative) part only
        kept = [(x, v) for x, v in zip(xs_fine, vals) if v >= 0.0]
        _emit(out_dir, tag + "_asymptote",
              RateCurve(tuple(x for x, _ in kept), tuple(v for _, v in kept), "high_snr"),
              drawn, "%s=%g high-SNR" % (fig["family"], val), dash="6,4")
        mc = McConfig(samples=mc_samples, seed=seed + 1000 * idx, streams=8)
        vals, ci = _sweep_rates(link, rhos_mc, "monte_carlo", mc=mc)
        _emit(out_dir, tag + "_mc",
              RateCurve(xs_mc, tuple(vals), "monte_carlo", tuple(ci)),
              drawn, "%s=%g simulated" % (fig["family"], val))
    vals, _ = _sweep_rates(_figure_links(fig)[0][1], rhos_fine, "awgn")
    _emit(out_dir, "fig%d_awgn" % num, RateCurve(xs_fine, tuple(vals), "awgn"),
          drawn, "AWGN benchmark", dash="2,3")
    svg.render(
        os.path.join(out_dir, "fig%d.svg" % num),
        drawn,
        title="Effective rate vs transmit SNR (figure %d layout)" % num,
        xlabel="SNR [dB]",
        ylabel="effective rate [bit/s/Hz]",
    )


def _sweep_eb_n0_figure(num, fig, out_dir, seed, mc_samples):
    rhos = [10.0 ** (-4.0 + 6.0 * i / 27.0) for i in range(28)]
    drawn = []
    for idx, (val, link) in enumerate(_figure_links(fig)):
        tag = "fig%d_%s%g" % (num, fig["family"], val)
        ebs, rates = parametric_eb_n0(link, rhos)
        ebs_db = tuple(linear_to_db(eb) for eb in ebs.tolist())
        _emit(out_dir, tag + "_exact", RateCurve(ebs_db, tuple(rates.tolist()), "quadrature"),
              drawn, "A=%g exact" % val)
        approx = tuple(rate_low_snr(link, db_to_linear(x)) for x in ebs_db)
        _emit(out_dir, tag + "_wideband", RateCurve(ebs_db, approx, "low_snr_wideband"),
              drawn, "A=%g wideband" % val, dash="6,4")
        mc = McConfig(samples=mc_samples, seed=seed + 1000 * idx, streams=8)
        sub = list(range(0, len(rhos), 3))
        vals, ci = _sweep_rates(
            link, [rhos[i] for i in sub], "monte_carlo", mc=mc)
        _emit(out_dir, tag + "_mc",
              RateCurve(tuple(ebs_db[i] for i in sub), tuple(vals), "monte_carlo", tuple(ci)),
              drawn, "A=%g simulated" % val)
    svg.render(
        os.path.join(out_dir, "fig%d.svg" % num),
        drawn,
        title="Effective rate vs energy per bit (figure %d layout)" % num,
        xlabel="Eb/N0 [dB]",
        ylabel="effective rate [bit/s/Hz]",
    )


def cmd_sweep_figures(args):
    out_dir = args.out_dir or os.environ.get("EFFRATE_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    if args.figure == 1:
        _sweep_snr_figure(1, _FIG1, out_dir, args.seed, args.mc_samples)
    elif args.figure == 2:
        _sweep_snr_figure(2, _FIG2, out_dir, args.seed, args.mc_samples)
    else:
        _sweep_eb_n0_figure(3, _FIG3, out_dir, args.seed, args.mc_samples)
    return 0


def _parse_range(text):
    try:
        start, stop, points = text.split(":")
        start, stop, points = float(start), float(stop), int(points)
    except ValueError:
        raise argparse.ArgumentTypeError("expected start:stop:points, got %r" % text)
    if points < 2:
        raise argparse.ArgumentTypeError("range needs at least 2 points")
    if not start < stop:
        raise argparse.ArgumentTypeError("range needs start < stop")
    return start, stop, points


def build_parser():
    parser = argparse.ArgumentParser(
        prog="effrate",
        description="Effective rate of MISO links over alpha-mu fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="evaluate the rate at one SNR or over a range")
    p_rate.add_argument("--alpha", type=float, required=True)
    p_rate.add_argument("--mu", type=float, required=True)
    p_rate.add_argument("--nt", type=int, required=True)
    p_rate.add_argument("--delay-a", type=float, required=True)
    group = p_rate.add_mutually_exclusive_group(required=True)
    group.add_argument("--snr-db", type=float)
    group.add_argument("--snr-db-range", type=_parse_range, metavar="START:STOP:POINTS")
    p_rate.add_argument(
        "--method",
        choices=("foxh", "meijerg", "quadrature", "nakagami", "high-snr"),
        required=True,
    )
    p_rate.add_argument("--mean-snr", type=float, default=1.0)
    p_rate.add_argument("--out", default=None)
    p_rate.add_argument("--format", choices=("csv", "json"), default="csv")
    p_rate.set_defaults(func=cmd_rate)

    p_fit = sub.add_parser("fit-sum", help="moment-match a branch sum")
    p_fit.add_argument("--alpha", type=float, required=True)
    p_fit.add_argument("--mu", type=float, required=True)
    p_fit.add_argument("--nt", type=int, required=True)
    p_fit.add_argument("--mean-snr", type=float, default=1.0)
    p_fit.set_defaults(func=cmd_fit_sum)

    p_ver = sub.add_parser("verify", help="cross-check all evaluation routes")
    scale = p_ver.add_mutually_exclusive_group()
    scale.add_argument("--fast", action="store_true", help="1e5 Monte Carlo samples")
    scale.add_argument("--full", action="store_true", help="1e7 Monte Carlo samples")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("sweep-figures", help="emit CSV and SVG for a figure layout")
    p_fig.add_argument("--figure", type=int, choices=(1, 2, 3), required=True)
    p_fig.add_argument("--out-dir", default=None)
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--mc-samples", type=int, default=100_000)
    p_fig.set_defaults(func=cmd_sweep_figures)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FitConvergenceError as err:
        sys.stderr.write("error: %s\n" % err)
        return 3
    except (ValueError, ArithmeticError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    except OSError as err:
        sys.stderr.write("error: %s\n" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
