"""Command-line behavior: formats, exit codes, determinism, verification."""

import io
import math
import os
import re
import subprocess
import sys
import warnings
import xml.dom.minidom

import numpy as np
import pytest
from conftest import numpy_dispatch_note

import effrate.alphamu
import effrate.special
from effrate import cli, svg, verify
from effrate.montecarlo import McConfig, simulate_rate


def _run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _read_curve(fh, x_column="snr_db"):
    """The one curve of a file that cli.curve_to_csv wrote, with x_column as
    the name of its x column."""
    assert fh.readline() == "%s,rate,method,ci_halfwidth\n" % x_column
    xs, rates, methods, cis = zip(*(line.rstrip("\n").split(",") for line in fh))
    assert len(set(methods)) == 1, methods
    ci = tuple(map(float, cis)) if any(cis) else None
    return cli.RateCurve(tuple(map(float, xs)), tuple(map(float, rates)), methods[0], ci)


# ------------------------------------------------------------------ rate


def test_rate_single_point(capsys):
    code, out, err = _run(
        [
            "rate", "--alpha", "2", "--mu", "1", "--nt", "1", "--delay-a", "1",
            "--snr-db", "0", "--method", "quadrature",
        ],
        capsys,
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "snr_db,rate,method,ci_halfwidth"
    x, rate, method, ci = lines[1].split(",")
    assert method == "quadrature" and ci == ""
    np.testing.assert_allclose(float(rate), 0.7457751737292681, rtol=1e-12)


def test_rate_range_monotone(capsys):
    code, out, _ = _run(
        [
            "rate", "--alpha", "2", "--mu", "2", "--nt", "2", "--delay-a", "0.5",
            "--snr-db-range", "0:20:21", "--method", "foxh",
        ],
        capsys,
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 21
    rates = [float(r.split(",")[1]) for r in rows]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_sweep_lets_no_warning_escape(capsys):
    # on the first four links quad warnings escaped when points ran in a
    # thread pool; on the alpha = 2 links they escaped from the per-point
    # quad of the Tricomi route
    for alpha, mu, n_t, a, methods in (
        ("0.8", "1", "2", "1", ("foxh", "quadrature")),
        ("1.5", "3", "1", "2", ("foxh", "quadrature")),
        ("3", "2", "4", "1", ("foxh", "quadrature")),
        ("4", "1", "4", "2", ("foxh", "quadrature")),
        ("2", "2", "4", "2", ("nakagami",)),
        ("2", "2", "2", "1", ("nakagami",)),
        ("2", "3", "2", "2", ("nakagami",)),
    ):
        for method in methods:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = _run(
                    [
                        "rate", "--alpha", alpha, "--mu", mu, "--nt", n_t, "--delay-a", a,
                        "--snr-db-range=-10:30:121", "--method", method,
                    ],
                    capsys,
                )
            assert code == 0, err
            assert len(out.strip().splitlines()) == 122
            assert [str(w.message) for w in caught] == [], (alpha, mu, n_t, a, method)


def test_rate_warnings_reach_stderr_as_one_line(capsys):
    # the slow-convergence warning prints as one "warning:" line with no
    # source path, still passes through a caller's catch_warnings, and
    # leaves stdout as it was
    for argv, prefix in (
        ("rate --alpha 2 --mu 1 --nt 1 --delay-a 0.6 --snr-db 10 --method high-snr",
         "rate_high_snr: "),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "effrate.cli", *argv.split()],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith("warning: " + prefix), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "rates.py" not in proc.stderr
        assert os.path.dirname(effrate.alphamu.__file__) not in proc.stderr
        formatwarning = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(argv.split(), capsys)
        assert warnings.formatwarning is formatwarning
        assert code == 0 and err == ""
        assert [str(w.message).startswith(prefix) for w in caught] == [True]
        assert proc.stdout == out


def test_rate_json_format(capsys):
    import json

    code, out, _ = _run(
        [
            "rate", "--alpha", "4", "--mu", "1", "--nt", "1", "--delay-a", "2",
            "--snr-db", "10", "--method", "foxh", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "fox_h"
    assert len(doc["points"]) == 1
    assert doc["points"][0]["ci_halfwidth"] is None


def test_rate_writes_file(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, out, _ = _run(
        [
            "rate", "--alpha", "2", "--mu", "1.5", "--nt", "2", "--delay-a", "1",
            "--snr-db-range", "0:10:6", "--method", "nakagami",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0 and out == ""
    with open(out_file) as fh:
        curve = _read_curve(fh)
    assert curve.method == "nakagami_closed"
    assert len(curve.rate) == 6


def test_rate_invalid_delay_exits_2(capsys):
    # a negative A, SNRs whose linear value overflows or underflows, and one
    # whose linear value is subnormal
    for delay_a, snr_db, named in (("-1", "0", "delay_a"), ("1", "4000", "4000.0 dB"),
                                   ("1", "-4000", "-4000.0 dB"), ("1", "-3235", "rho=5e-324")):
        code, out, err = _run(
            [
                "rate", "--alpha", "2", "--mu", "1", "--nt", "1", "--delay-a", delay_a,
                "--snr-db", snr_db, "--method", "quadrature",
            ],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err, err


def test_rate_beyond_the_double_range_exits_2(capsys):
    # 3082.3 dB is rho = 1.7e308, whose kernel argument rho beta / n_t
    # overflows: one error line naming rho, and no numpy warning before it.
    # The high-SNR asymptote printed inf there after numpy's overflow warning
    for method in ("quadrature", "foxh", "nakagami", "high-snr"):
        code, out, err = _run(
            [
                "rate", "--alpha", "2", "--mu", "0.3", "--nt", "1", "--delay-a", "1",
                "--snr-db", "3082.3", "--method", method,
            ],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "rho=1.69" in err and "too large" in err, err


def test_rate_on_a_subnormal_mean_snr_exits_2(capsys):
    # a mean SNR of 1e-315 keeps 28 significant bits: at 3000 dB the three
    # exact routes printed rates 1.5e-9 to 4.0e-9 off the mean-1 link's at
    # -150 dB, with exit 0
    for method in ("foxh", "quadrature", "nakagami"):
        code, out, err = _run(
            [
                "rate", "--alpha", "2", "--mu", "1.5", "--nt", "2", "--mean-snr", "1e-315",
                "--delay-a", "1", "--snr-db", "3000", "--method", method,
            ],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "mean_snr = 1e-315" in err and "normal double" in err, err


def test_rate_near_the_top_of_the_double_range_warns_nothing(capsys):
    # at 3050 dB (rho = 1e305) the Gamma-weight kernel's exp overflowed
    # and printed "warning: overflow encountered in exp" above this rate
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(
            [
                "rate", "--alpha", "0.8", "--mu", "2", "--nt", "2", "--delay-a", "0.5",
                "--snr-db", "3050", "--method", "quadrature",
            ],
            capsys,
        )
    assert (code, err) == (0, ""), err
    assert [str(w.message) for w in caught] == []
    assert out == "snr_db,rate,method,ci_halfwidth\n3050.0,1011.3895640338642,quadrature,\n"


def test_rate_whose_tail_leaves_the_doubles_exits_2(capsys):
    # at 3080 dB (rho = 1e308) c u^p overflows inside the Gamma weight's
    # body: quadrature and nakagami took those nodes' integrand as its limit
    # 0 and printed 1022.6145349896801, 4.5e-5 off the rate 1022.56889072459
    argv = ["rate", "--alpha", "2", "--mu", "3", "--nt", "1", "--delay-a", "1",
            "--snr-db", "3080", "--method"]
    for method, route in (("quadrature", "rate_exact_quadrature"), ("nakagami", "rate_nakagami")):
        code, out, err = _run(argv + [method], capsys)
        assert (code, out) == (2, ""), (method, out)
        named = r"error: %s: error \S+ at rho=1e\+308 exceeds 1e-12\n" % route
        assert re.fullmatch(named, err), err


def test_rate_at_stringent_or_subnormal_delay_exits_2(capsys):
    # quadrature and nakagami raised a bare "math range error" at A = 1e4
    # and 2,500, fox_h at 1e-306 an OverflowError after numpy's warning, at
    # A = 5e-324 quadrature printed 9.0 where the A -> 0 limit is 13.29, and
    # at A = 63.35 and 77.48 dB it printed inf, its Gamma-weight sum subnormal
    for alpha, mu, n_t, delay_a, snr_db, method in (
            ("2", "1", "2", "1e4", "0", "quadrature"), ("2", "1", "2", "1e4", "0", "nakagami"),
            ("0.8", "2", "2", "2500", "0", "quadrature"),
            ("2", "8", "1000", "1e-306", "40", "foxh"),
            ("2", "8", "1000", "5e-324", "40", "quadrature"),
            ("0.843", "19.41", "5", "63.35", "77.48", "quadrature")):
        code, out, err = _run(["rate", "--alpha", alpha, "--mu", mu, "--nt", n_t, "--delay-a",
                               delay_a, "--snr-db", snr_db, "--method", method], capsys)
        assert code == 2 and out == "", (delay_a, method, out)
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "math range error" not in err, err


def test_rate_nakagami_needs_alpha_two(capsys):
    code, _, err = _run(
        [
            "rate", "--alpha", "3", "--mu", "1", "--nt", "1", "--delay-a", "1",
            "--snr-db", "0", "--method", "nakagami",
        ],
        capsys,
    )
    assert code == 2 and "alpha" in err


def test_rate_high_snr_validity_exits_2(capsys):
    # branch alpha*mu/2 = 0.4 cannot support A = 2
    code, _, err = _run(
        [
            "rate", "--alpha", "0.8", "--mu", "1", "--nt", "1", "--delay-a", "2",
            "--snr-db", "30", "--method", "high-snr",
        ],
        capsys,
    )
    assert code == 2 and "delay_a" in err


def test_rate_high_snr_prints_a_negative_line(capsys):
    # the asymptote is not a rate: below its intercept it is negative, and
    # `rate` prints it rather than refusing it as a negative rate
    code, out, _ = _run(
        [
            "rate", "--alpha", "2", "--mu", "2", "--nt", "2", "--delay-a", "0.5",
            "--snr-db", "-20", "--method", "high-snr",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1] == "-20.0,-6.939208509021764,high_snr,"


def test_rate_foxh_node_budget_exits_2(capsys):
    # the contour route's node budget is a named error, not numpy's "Maximum
    # allowed size exceeded"; quadrature answers on the same link
    argv = ["rate", "--alpha", "3", "--mu", "1.5", "--nt", "2", "--delay-a", "1e-300",
            "--snr-db", "10", "--method"]
    code, _, err = _run(argv + ["foxh"], capsys)
    assert code == 2 and err.startswith("error: fox_h:") and "nodes" in err, err
    code, out, _ = _run(argv + ["quadrature"], capsys)
    assert code == 0 and abs(float(out.split()[-1].split(",")[1]) - 3.36488) < 1e-5, out


def test_rate_gamma_weight_zero_step_exits_2(capsys):
    # from mu near 4.5e16 the kernel's step rounds to 0: that is an infinite
    # span, refused by the node budget, not a bare division by zero
    argv = ["rate", "--alpha", "2", "--mu", "1e17", "--nt", "1", "--delay-a", "1",
            "--snr-db", "10", "--method"]
    for method in ("nakagami", "quadrature"):
        code, _, err = _run(argv + [method], capsys)
        assert code == 2 and err == ("error: gamma_expectation: inf nodes needed, more than %d\n"
                                     % effrate.special._MAX_NODES), err


def test_rate_bad_range_spec(capsys):
    for spec, reason in (
        ("10:0:5", "range needs start < stop"),
        ("0:10", "expected start:stop:points"),
        ("0:10:1", "range needs at least 2 points"),
        # start < stop, but all three points round to 0.0
        ("0:5e-324:3", "do not strictly increase"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "rate", "--alpha", "2", "--mu", "1", "--nt", "1", "--delay-a", "1",
                    "--snr-db-range=" + spec, "--method", "foxh",
                ]
            )
        assert exc.value.code == 2
        assert reason in capsys.readouterr().err, spec


def test_rate_meijerg_method_is_gone(capsys):
    # the Meijer G route ran the Fox H contour kernel a second time
    with pytest.raises(SystemExit) as exc:
        cli.main(
            [
                "rate", "--alpha", "4", "--mu", "1", "--nt", "1", "--delay-a", "2",
                "--snr-db", "10", "--method", "meijerg",
            ]
        )
    assert exc.value.code == 2
    assert "invalid choice: 'meijerg'" in capsys.readouterr().err


def test_rate_and_fit_sum_take_no_seed(capsys):
    # both are deterministic, so an ignored --seed is not offered
    for argv in (
        ["rate", "--alpha", "2", "--mu", "1", "--nt", "1", "--delay-a", "1",
         "--snr-db", "0", "--method", "quadrature", "--seed", "3"],
        ["fit-sum", "--alpha", "2", "--mu", "1", "--nt", "2", "--seed", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


# --------------------------------------------------------------- fit-sum


def test_fit_sum_gamma_closure(capsys):
    code, out, _ = _run(["fit-sum", "--alpha", "2", "--mu", "2", "--nt", "3"], capsys)
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    np.testing.assert_allclose(float(fields["alpha"]), 2.0, atol=1e-9)
    np.testing.assert_allclose(float(fields["mu"]), 6.0, rtol=1e-9)
    np.testing.assert_allclose(float(fields["mean_snr"]), 3.0, rtol=1e-12)
    # a link whose damped Newton fit failed before the exact closure
    code, _, err = _run(
        ["rate", "--alpha", "2", "--mu", "3.013", "--nt", "16", "--delay-a", "1",
         "--snr-db", "10", "--method", "foxh"],
        capsys,
    )
    assert code == 0, err


def test_fit_sum_division_by_zero_exits_3(capsys):
    # a trial step made 1/expm1(...) divide by zero; that is a failed fit
    for alpha, mu, n_t in (("0.5515", "1.648", "16"), ("0.5914", "3.236", "8")):
        code, _, err = _run(["fit-sum", "--alpha", alpha, "--mu", mu, "--nt", n_t], capsys)
        assert code == 3 and err.startswith("error: fit_sum:"), err
        code, _, err = _run(
            ["rate", "--alpha", alpha, "--mu", mu, "--nt", n_t, "--delay-a", "0.6623",
             "--snr-db", "-35.83", "--method", "quadrature"],
            capsys,
        )
        assert code == 3 and err.startswith("error: fit_sum:"), err


def test_fit_sum_single_antenna_echoes(capsys):
    code, out, _ = _run(["fit-sum", "--alpha", "4", "--mu", "1", "--nt", "1"], capsys)
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert float(fields["alpha"]) == 4.0 and float(fields["mu"]) == 1.0
    assert out.strip().endswith("residuals=0.000e+00,0.000e+00")


def test_fit_sum_reports_small_residuals(capsys):
    code, out, _ = _run(["fit-sum", "--alpha", "0.8", "--mu", "1.5", "--nt", "2"], capsys)
    assert code == 0
    tail = out.strip().split("residuals=")[1]
    assert all(float(r) <= 1e-10 for r in tail.split(","))


# ------------------------------------------------------------- curve types


def test_rate_curve_validation():
    with pytest.raises(ValueError):
        cli.RateCurve(x_db=(0.0, 0.0), rate=(1.0, 2.0), method="fox_h")
    with pytest.raises(ValueError):
        cli.RateCurve(x_db=(0.0, 1.0), rate=(1.0, -2.0), method="fox_h")
    with pytest.raises(ValueError):
        cli.RateCurve(x_db=(0.0, 1.0), rate=(1.0, 2.0), method="exact")
    with pytest.raises(ValueError):
        cli.RateCurve(x_db=(0.0, 1.0), rate=(1.0, 2.0), method="fox_h", ci_halfwidth=(0.1,))
    with pytest.raises(ValueError, match="x and rate lengths differ"):
        cli.RateCurve(x_db=(0.0, 1.0), rate=(1.0,), method="fox_h")


def test_nice_ticks_widen_an_empty_range():
    # a flat curve gives lo == hi; ticks are laid over [lo, lo + 1]
    assert svg._nice_ticks(1.0, 1.0) == pytest.approx([1.0, 1.2, 1.4, 1.6, 1.8, 2.0])


def test_csv_round_trip_exact():
    curve = cli.RateCurve(
        x_db=(0.0, 2.5, 5.0),
        rate=(0.1234567890123456, 0.3, 1.0 / 3.0),
        method="monte_carlo",
        ci_halfwidth=(0.01, 0.002, 0.0003),
    )
    buf = io.StringIO()
    cli.curve_to_csv(curve, buf)
    buf.seek(0)
    assert _read_curve(buf) == curve


# ---------------------------------------------------------- sweep-figures


def _fig_args(num, out_dir, extra=()):
    return [
        "sweep-figures", "--figure", str(num), "--out-dir", str(out_dir),
        "--mc-samples", "2000", *extra,
    ]


def test_sweep_figure1_outputs(tmp_path, capsys):
    code, _, err = _run(_fig_args(1, tmp_path), capsys)
    assert code == 0, err
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "fig1.svg" in names
    assert "fig1_awgn.csv" in names
    for alpha in ("0.8", "2", "4", "8"):
        for kind in ("exact", "asymptote", "mc"):
            assert "fig1_alpha%s_%s.csv" % (alpha, kind) in names
    xml.dom.minidom.parse(str(tmp_path / "fig1.svg"))
    with open(tmp_path / "fig1_alpha2_mc.csv") as fh:
        curve = _read_curve(fh)
    assert curve.method == "monte_carlo"
    assert curve.ci_halfwidth is not None and all(h > 0 for h in curve.ci_halfwidth)


def test_sweep_figure2_outputs(tmp_path, capsys):
    code, _, _ = _run(_fig_args(2, tmp_path), capsys)
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "fig2.svg" in names
    for mu in ("1", "2", "4"):
        assert "fig2_mu%s_exact.csv" % mu in names


def test_sweep_figure3_outputs(tmp_path, capsys):
    code, _, _ = _run(_fig_args(3, tmp_path), capsys)
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "fig3.svg" in names
    for a in ("0.5", "1", "2"):
        for kind in ("exact", "wideband", "mc"):
            assert "fig3_delay_a%s_%s.csv" % (a, kind) in names
    # the parametric exact curve starts within a fraction of a dB of the
    # universal -1.59 dB intercept
    with open(tmp_path / "fig3_delay_a1_exact.csv") as fh:
        curve = _read_curve(fh, "eb_n0_db")
    assert abs(curve.x_db[0] - (-1.5917)) < 0.05


def test_sweep_mc_curve_is_one_call_per_link(tmp_path, capsys):
    # the curves of a figure share draws, yet each one is bit for bit the
    # single-link call at the command's seed
    xs_mc = tuple(2.0 * i for i in range(11))
    rhos_fig3 = [10.0 ** (-4.0 + 6.0 * i / 27.0) for i in range(0, 28, 3)]
    for num, (family, values, links) in verify.FIGURE_LAYOUTS.items():
        out_dir = tmp_path / str(num)
        code, _, err = _run(_fig_args(num, out_dir, extra=("--seed", "4")), capsys)
        assert code == 0, err
        rhos = rhos_fig3 if num == 3 else [cli.db_to_linear(x) for x in xs_mc]
        for val, link in zip(values, links):
            with open(out_dir / ("fig%d_%s%g_mc.csv" % (num, family, val))) as fh:
                curve = _read_curve(fh, "eb_n0_db" if num == 3 else "snr_db")
            rates, halfwidths = simulate_rate(link, rhos, McConfig(2000, 4))
            if num != 3:
                assert curve.x_db == xs_mc
            assert curve.rate == tuple(rates.tolist()), (num, val)
            assert curve.ci_halfwidth == tuple(halfwidths.tolist()), (num, val)


def test_sweep_outputs_byte_identical(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d in (dir_a, dir_b):
        code, _, _ = _run(_fig_args(1, d, extra=("--seed", "42")), capsys)
        assert code == 0
    for name in sorted(p.name for p in dir_a.iterdir()):
        with open(dir_a / name, "rb") as fa, open(dir_b / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_sweep_reproduces_demo_output(tmp_path, capsys):
    # the committed figures are the output of these three commands
    import pathlib

    demo = pathlib.Path(__file__).resolve().parents[1] / "demo_output"
    for num in (1, 2, 3):
        code, _, err = _run(["sweep-figures", "--figure", str(num), "--out-dir", str(tmp_path),
                             "--seed", "0", "--mc-samples", "100000"], capsys)
        assert code == 0, err
    names = sorted(p.name for p in demo.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (demo / name).read_bytes(), (
            name, numpy_dispatch_note())


def test_sweep_failing_part_way_writes_no_csv(tmp_path, capsys, monkeypatch):
    # every curve of a figure is computed before its first file is written
    orig = cli.rate_high_snr
    calls = []

    def failing_third(link, rho):
        calls.append(link)
        if len(calls) == 3:
            raise ArithmeticError("injected failure")
        return orig(link, rho)

    monkeypatch.setattr(cli, "rate_high_snr", failing_third)
    code, _, err = _run(["sweep-figures", "--figure", "1", "--out-dir", str(tmp_path),
                         "--mc-samples", "1000"], capsys)
    assert code == 2 and err == "error: injected failure\n"
    assert list(tmp_path.glob("*.csv")) == []


def test_sweep_respects_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EFFRATE_OUT_DIR", str(tmp_path / "env_out"))
    code, _, _ = _run(
        ["sweep-figures", "--figure", "3", "--mc-samples", "2000"], capsys
    )
    assert code == 0
    assert (tmp_path / "env_out" / "fig3.svg").exists()


# ------------------------------------------------------------ parser reuse


def test_parser_is_built_once_and_help_is_unchanged(capsys):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate", "--help"])
    assert exc.value.code == 0
    via_main = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["rate", "--help"])
    assert exc.value.code == 0
    assert via_main == capsys.readouterr().out
    assert via_main.startswith("usage: effrate rate ")


def test_no_argument_carries_between_calls(tmp_path, capsys):
    rate = ["rate", "--alpha", "2", "--mu", "1.5", "--nt", "2", "--delay-a", "1",
            "--snr-db-range", "0:10:3", "--method", "nakagami"]
    out_file = tmp_path / "curve.json"
    code, out, err = _run(rate + ["--format", "json", "--out", str(out_file)], capsys)
    assert code == 0 and out == "" and err == ""
    with open(out_file) as fh:
        assert fh.read().startswith("{")
    code, csv_out, err = _run(rate, capsys)
    assert code == 0 and err == ""
    assert csv_out.startswith("snr_db,rate,method,ci_halfwidth\n")

    # a --seed given once does not become the default of the next call
    dirs = {name: tmp_path / name for name in ("seed9", "unseeded", "seed0")}
    for name, extra in (("seed9", ("--seed", "9")), ("unseeded", ()), ("seed0", ("--seed", "0"))):
        code, _, err = _run(_fig_args(3, dirs[name], extra=extra), capsys)
        assert code == 0, err
    names = sorted(p.name for p in dirs["seed0"].iterdir())

    def contents(name):
        return [(dirs[name] / n).read_bytes() for n in names]

    assert sorted(p.name for p in dirs["unseeded"].iterdir()) == names
    assert contents("unseeded") == contents("seed0")
    assert contents("seed9") != contents("seed0")

    # neither another subcommand nor a rejected argv leaves state behind
    code, _, _ = _run(["fit-sum", "--alpha", "3", "--mu", "1.5", "--nt", "4"], capsys)
    assert code == 0
    code, first, _ = _run(rate, capsys)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(rate[:-4] + ["--snr-db-range", "1:0:3", "--method", "nakagami"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, last, err = _run(rate, capsys)
    assert code == 0 and err == ""
    assert last == first == csv_out


# --------------------------------------------------------------- tracing


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_module(name):
    """bench/<name>.py, loaded from its file (bench is not a package)."""
    import importlib.util

    path = os.path.join(_ROOT, "bench", name + ".py")
    spec = importlib.util.spec_from_file_location("bench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_trace_targets_resolve():
    # the benchmark's span recorder replaces each (module, attribute) it
    # names and stops on one that is missing
    import importlib

    for mod, attr, _, _ in _bench_module("spans").PATCHES:
        assert hasattr(importlib.import_module("effrate." + mod), attr), (mod, attr)


def test_tracer_only_names_are_traced():
    # the inverse: each name src/effrate keeps only for the span recorder,
    # a module-level `noqa: F401` import or a `name = None` placeholder,
    # is a (module, attribute) that bench/spans.py patches, so a patch that
    # is dropped cannot leave its name behind
    import ast
    import glob

    patched = {(mod, attr) for mod, attr, _, _ in _bench_module("spans").PATCHES}
    kept = []
    for path in sorted(glob.glob(os.path.join(_ROOT, "src", "effrate", "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            text = fh.read()
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                kept += [(module, alias.asname or alias.name) for alias in node.names]
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                  and node.value.value is None):
                kept += [(module, target.id) for target in node.targets]
    assert [name for name in kept if name not in patched] == [], kept


def test_bench_csv_reader_reads_demo_output():
    # the benchmark parses every figure file it checks with its own reader;
    # a header or column change that would break its checks fails here first
    import pathlib

    root = pathlib.Path(_ROOT)
    worker = _bench_module("worker")
    files = sorted((root / "demo_output").glob("*.csv"))
    assert len(files) == 32
    for path in files:
        with open(path) as fh:
            curve = _read_curve(fh, "eb_n0_db" if path.name.startswith("fig3_") else "snr_db")
        ci = curve.ci_halfwidth or (None,) * len(curve.rate)
        assert worker._parse_csv(path.read_text()) == [list(row) for row in
                                                       zip(curve.x_db, curve.rate, ci)], path.name


def test_demo_imports_resolve():
    # every name a demo imports from effrate exists, read off the source
    # instead of running the demos
    import ast
    import importlib
    import importlib.util
    import pathlib

    demos = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "effrate":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    name = "%s.%s" % (node.module, alias.name)
                    assert (hasattr(module, alias.name)
                            or importlib.util.find_spec(name)), (path.name, name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "effrate":
                        importlib.import_module(alias.name)


def test_routes_replaced_on_cli_see_every_call(tmp_path, capsys, monkeypatch):
    # the parser exists before the wrappers go in; the route table does not
    code, _, err = _run(["fit-sum", "--alpha", "3", "--mu", "1.5", "--nt", "4"], capsys)
    assert code == 0, err
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("rate_exact_foxh", "simulate_rates"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    code, _, err = _run(
        ["rate", "--alpha", "2", "--mu", "1", "--nt", "1", "--delay-a", "1",
         "--snr-db-range", "0:10:3", "--method", "foxh"],
        capsys,
    )
    assert code == 0, err
    assert calls == ["rate_exact_foxh"]
    code, _, err = _run(_fig_args(1, tmp_path), capsys)
    assert code == 0, err
    assert calls[1:] == ["simulate_rates"] + ["rate_exact_foxh"] * 4


# ----------------------------------------------------------------- verify


def test_verify_fast_passes(capsys):
    code, out, err = _run(["verify", "--fast"], capsys)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith("check")
    assert all("PASS" in ln for ln in lines[1:-1])
    assert lines[-1].startswith("PASS (")


def test_verify_catches_injected_scale_bug(capsys, monkeypatch):
    # negative control: distort the power scale and every closed-form
    # cross-check that depends on it must trip
    orig = effrate.alphamu.AlphaMuParams.beta
    monkeypatch.setattr(
        effrate.alphamu.AlphaMuParams,
        "beta",
        property(lambda self: orig.fget(self) ** 1.07),
    )
    code, out, err = _run(["verify", "--fast"], capsys)
    assert code == 1
    assert err.startswith("error: verification failed:")
    assert "FAIL" in out


@pytest.mark.parametrize("factor", [1.0 + 1e-7, math.nan], ids=["scaled", "nan"])
def test_verify_pdf_check_flags_scaled_density(monkeypatch, factor):
    # negative control: a density off by 1e-7, or NaN everywhere, must fail
    # pdf-normalization, and only that check; a NaN error is printed as one
    orig = verify.pdf
    monkeypatch.setattr(verify, "pdf", lambda p, g: orig(p, g) * factor)
    out = io.StringIO()
    assert verify.run_verification(out=out) == ["pdf-normalization"]
    (row,) = [ln for ln in out.getvalue().splitlines() if ln.startswith("pdf-normalization")]
    assert row.split()[-1] == "FAIL"
    if math.isnan(factor):
        assert row.split()[2] == "nan"


# the table of run_verification(samples=100_000, seed=0), less its time line
_VERIFY_TABLE = """\
check                          points        worst        tol status
route-pairwise-agreement           48    1.090e-14    1.0e-06 PASS
nakagami-closed-form               32    5.968e-15    1.0e-08 PASS
branch-mean-consistency             8    2.220e-16    1.0e-10 PASS
special-function-identities        17    4.013e-15    1.0e-08 PASS
pdf-normalization                   3    1.468e-13    1.0e-08 PASS
mc-vs-analytic                     12    3.739e-01    1.0e+00 PASS
high-snr-gap-bits                   4    5.389e-05    1.0e-02 PASS
wideband-metrics                   11    4.441e-16    1.0e-10 PASS
low-snr-intercept-db                3    3.800e-04    5.0e-02 PASS
"""


def test_verify_table_is_pinned():
    # a rebuild of verify shows up here as a diff of its table
    out = io.StringIO()
    assert verify.run_verification(samples=100_000, seed=0, out=out) == []
    lines = out.getvalue().splitlines(keepends=True)
    assert "".join(lines[:-1]) == _VERIFY_TABLE, numpy_dispatch_note()
    assert lines[-1].startswith("PASS (9 checks) in ")


def test_negative_seed_is_refused_by_name(tmp_path, capsys):
    # refused before the first verify row is printed or any figure file written
    message = "error: McConfig: seed must be a non-negative integer, got -1\n"
    for argv in (["verify", "--seed", "-1"], _fig_args(1, tmp_path, extra=("--seed", "-1"))):
        code, out, err = _run(argv, capsys)
        assert (code, out, err) == (2, "", message), argv
    assert list(tmp_path.iterdir()) == []


def test_verify_identities_flag_a_biased_gamma_kernel(monkeypatch):
    # negative control: a 1e-7 relative bias in the Gamma-weight kernel must
    # fail the special-function identities, whose Tricomi points reach it
    orig = effrate.special.gamma_sums

    def biased(*args, **kw):
        e, err = orig(*args, **kw)
        return e * (1.0 + 1e-7), err

    monkeypatch.setattr(effrate.special, "gamma_sums", biased)
    assert "special-function-identities" in verify.run_verification(out=io.StringIO())


def test_import_leaves_scipy_integrate_out():
    # scipy is a test dependency only: neither the import nor a contour
    # route nor the whole verification table may load any part of it; and
    # the analytic routes do not load numpy.random (about 5 MB resident)
    script = (
        "import contextlib, io, sys, effrate.cli\n"
        "print('scipy' in sys.modules)\n"
        "rate = 'rate --alpha 3 --mu 1.5 --nt 2 --delay-a 0.5 --snr-db 10 --method '\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [effrate.cli.main((rate + m).split()) for m in ('foxh', 'quadrature')]\n"
        "print(codes, 'numpy.random' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [effrate.cli.main(['verify', '--fast'])]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["False", "[0, 0] False", "[0] False"]


def test_monte_carlo_commands_leave_numpy_random_out(tmp_path):
    # Monte Carlo draws from the package's own SplitMix64 streams: numpy.random
    # and the OpenSSL it pulls in (secrets -> hmac -> _hashlib), 5.4 MB
    # resident per command, stay unloaded
    script = (
        "import contextlib, io, sys, effrate.cli\n"
        "figure = ['sweep-figures', '--figure', '2', '--out-dir', sys.argv[1]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [effrate.cli.main(figure), effrate.cli.main(['verify', '--fast'])]\n"
        "print(codes, [m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] []\n"
    assert (tmp_path / "fig2_mu1_mc.csv").is_file()


# ------------------------------------------------------------- entry point


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "effrate.cli",
            "rate", "--alpha", "2", "--mu", "1", "--nt", "1", "--delay-a", "1",
            "--snr-db", "0", "--method", "foxh",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("snr_db,rate,method,ci_halfwidth")


def test_console_script_name():
    # the packaging exposes main() as the `effrate` entry point
    import importlib.metadata
    import pathlib

    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    # installed metadata exists only after an install; a source-tree run
    # (PYTHONPATH=src) has none, and then only the declaration is checked
    try:
        dist = importlib.metadata.distribution("effrate")
    except importlib.metadata.PackageNotFoundError:
        pass
    else:
        ours = dist.entry_points.select(group="console_scripts", name="effrate")
        assert [ep.value for ep in ours] == ["effrate.cli:main"]

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("effrate") == "effrate.cli:main"

    # the target resolves the way the installed console script loads it
    ep = importlib.metadata.EntryPoint(
        name="effrate", value=scripts["effrate"], group="console_scripts"
    )
    assert ep.load() is cli.main
