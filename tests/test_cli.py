"""Command-line behavior: formats, exit codes, determinism, verification."""

import io
import os
import subprocess
import sys
import warnings
import xml.dom.minidom

import numpy as np
import pytest

import effrate.alphamu
from effrate import cli, verify
from effrate.montecarlo import McConfig, simulate_rate


def _run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


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


def test_rate_json_format(capsys):
    import json

    code, out, _ = _run(
        [
            "rate", "--alpha", "4", "--mu", "1", "--nt", "1", "--delay-a", "2",
            "--snr-db", "10", "--method", "meijerg", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "meijer_g"
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
        curves = cli.curves_from_csv(fh)
    assert len(curves) == 1
    assert curves[0].method == "nakagami_closed"
    assert len(curves[0].rate) == 6


def test_rate_invalid_delay_exits_2(capsys):
    code, out, err = _run(
        [
            "rate", "--alpha", "2", "--mu", "1", "--nt", "1", "--delay-a", "-1",
            "--snr-db", "0", "--method", "quadrature",
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


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


def test_rate_bad_range_spec(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            [
                "rate", "--alpha", "2", "--mu", "1", "--nt", "1", "--delay-a", "1",
                "--snr-db-range", "10:0:5", "--method", "foxh",
            ]
        )
    assert exc.value.code == 2
    capsys.readouterr()


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
    assert cli.curves_from_csv(buf) == [curve]


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
        (curve,) = cli.curves_from_csv(fh)
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
        (curve,) = cli.curves_from_csv(fh)
    assert abs(curve.x_db[0] - (-1.5917)) < 0.05


def test_sweep_mc_curve_is_one_call_per_link(tmp_path, capsys):
    # one set of branch draws per link, seeded seed + 1000 * idx, serves
    # every SNR point of the curve
    code, _, err = _run(_fig_args(1, tmp_path, extra=("--seed", "4")), capsys)
    assert code == 0, err
    xs_mc = tuple(2.0 * i for i in range(11))
    rhos_mc = [cli.db_to_linear(x) for x in xs_mc]
    for idx, (val, link) in enumerate(cli._figure_links(cli._FIG1)):
        with open(tmp_path / ("fig1_alpha%g_mc.csv" % val)) as fh:
            (curve,) = cli.curves_from_csv(fh)
        rates, halfwidths = simulate_rate(link, rhos_mc, McConfig(2000, 4 + 1000 * idx, 8))
        assert curve.x_db == xs_mc
        assert curve.rate == tuple(rates.tolist())
        assert curve.ci_halfwidth == tuple(halfwidths.tolist())


def test_sweep_outputs_byte_identical(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d in (dir_a, dir_b):
        code, _, _ = _run(_fig_args(1, d, extra=("--seed", "42")), capsys)
        assert code == 0
    for name in sorted(p.name for p in dir_a.iterdir()):
        with open(dir_a / name, "rb") as fa, open(dir_b / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_sweep_respects_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EFFRATE_OUT_DIR", str(tmp_path / "env_out"))
    code, _, _ = _run(
        ["sweep-figures", "--figure", "3", "--mc-samples", "2000"], capsys
    )
    assert code == 0
    assert (tmp_path / "env_out" / "fig3.svg").exists()


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


def test_verify_pdf_check_flags_scaled_density(monkeypatch):
    # negative control: a density off by 1e-7 must fail pdf-normalization,
    # and only that check
    orig = verify.pdf
    monkeypatch.setattr(verify, "pdf", lambda p, g: orig(p, g) * (1.0 + 1e-7))
    assert verify.run_verification(out=io.StringIO()) == ["pdf-normalization"]


def test_import_leaves_scipy_integrate_out():
    # scipy is a test dependency only: neither the import nor a contour
    # route nor the whole verification table may load any part of it
    script = (
        "import contextlib, io, sys, effrate.cli\n"
        "print('scipy' in sys.modules)\n"
        "rate = 'rate --alpha 3 --mu 1.5 --nt 2 --delay-a 0.5 --snr-db 10 --method foxh'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [effrate.cli.main(rate.split()), effrate.cli.main(['verify', '--fast'])]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "[0, 0] False"]


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
