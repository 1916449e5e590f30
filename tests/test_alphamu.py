"""Density, moments and sampling of the SNR fading family.

Frozen values were computed independently with 40-digit arithmetic from the
density and moment formulas at alpha=3, mu=1.5, mean_snr=2.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from effrate.alphamu import AlphaMuParams, moment, pdf, sample

_P = AlphaMuParams(alpha=3.0, mu=1.5, mean_snr=2.0)

_PARAM_GRID = [
    AlphaMuParams(alpha=0.8, mu=0.6),
    AlphaMuParams(alpha=2.0, mu=1.0),
    AlphaMuParams(alpha=2.0, mu=2.5, mean_snr=4.0),
    AlphaMuParams(alpha=4.7, mu=1.3, mean_snr=0.3),
    AlphaMuParams(alpha=8.0, mu=4.0),
]


def _integrate_density(params, weight=None):
    # independent check route: integrate over log-SNR so both the origin
    # singularity (alpha mu < 2) and the stretched tail are benign
    w = weight or (lambda g: 1.0)

    def f(u):
        g = math.exp(u)
        return w(g) * pdf(params, g) * g

    total, err = integrate.quad(f, -200.0, 80.0, limit=400, epsabs=1e-14, epsrel=1e-12)
    return total


def test_pdf_frozen_values():
    np.testing.assert_allclose(_P.beta, 1.6376139882462196, rtol=1e-14)
    np.testing.assert_allclose(pdf(_P, 0.5), 0.19815889231677411, rtol=1e-13)
    np.testing.assert_allclose(pdf(_P, 2.0), 0.3441149134946022, rtol=1e-13)
    np.testing.assert_allclose(pdf(_P, 5.0), 0.020105011873803281, rtol=1e-13)


def test_pdf_normalizes():
    for p in _PARAM_GRID:
        np.testing.assert_allclose(_integrate_density(p), 1.0, rtol=1e-8)


def test_pdf_vectorized_matches_scalar():
    g = np.array([0.1, 0.5, 2.0, 7.0])
    vec = pdf(_P, g)
    assert vec.shape == g.shape
    for gi, vi in zip(g, vec):
        assert vi == pdf(_P, float(gi))


def test_pdf_rejects_negative():
    with pytest.raises(ValueError):
        pdf(_P, -0.1)


def test_pdf_origin_extension():
    # alpha*mu vs 2 decides the boundary value
    heavy = AlphaMuParams(alpha=1.0, mu=1.0)
    assert pdf(heavy, 0.0) == math.inf
    edge = AlphaMuParams(alpha=2.0, mu=1.0)
    np.testing.assert_allclose(pdf(edge, 0.0), 1.0 / edge.beta, rtol=1e-14)
    light = AlphaMuParams(alpha=2.0, mu=2.0)
    assert pdf(light, 0.0) == 0.0


def test_moment_frozen_values():
    np.testing.assert_allclose(moment(_P, 1), 2.0, rtol=1e-14)
    np.testing.assert_allclose(moment(_P, 2), 5.218555869347436, rtol=1e-13)
    np.testing.assert_allclose(moment(_P, 3), 16.468949042226325, rtol=1e-13)
    np.testing.assert_allclose(moment(_P, 4), 60.26415427303559, rtol=1e-13)


def test_moment_matches_quadrature():
    for p in _PARAM_GRID:
        for n in (1, 2, 3, 4):
            direct = _integrate_density(p, weight=lambda g, n=n: g ** n)
            np.testing.assert_allclose(moment(p, n), direct, rtol=1e-8)


def test_moment_divergence_guard():
    # mu + 2n/alpha must stay positive; fractional and negative orders are
    # fine while they respect that
    p = AlphaMuParams(alpha=2.0, mu=0.5)
    np.testing.assert_allclose(
        moment(p, -0.25), _integrate_density(p, weight=lambda g: g ** -0.25), rtol=1e-8
    )
    with pytest.raises(ValueError):
        moment(p, -0.5)


def test_moment_overflow_is_named():
    # E{gamma^3} of a unit-mean Gamma law of shape 1e-300 is about 2e600
    p = AlphaMuParams(alpha=2.0, mu=1e-300)
    assert moment(p, 2) > 1e299
    with pytest.raises(ValueError,
                       match=r"^moment: E\{gamma\^3\} overflows the doubles at alpha=2\.0, mu=1e-300$"):
        moment(p, 3)


def test_sample_reproducible_and_consistent():
    draws_a = sample(_P, np.random.default_rng(123), size=1000)
    draws_b = sample(_P, np.random.default_rng(123), size=1000)
    np.testing.assert_array_equal(draws_a, draws_b)
    scalar = sample(_P, np.random.default_rng(9))
    assert np.isscalar(scalar) or np.ndim(scalar) == 0


def test_sample_moments():
    n = 200_000
    rng = np.random.default_rng(2024)
    for p in _PARAM_GRID:
        draws = sample(p, rng, size=n)
        m1, m2 = moment(p, 1), moment(p, 2)
        # 4 sigma band on the sample mean
        tol = 4.0 * math.sqrt((m2 - m1 * m1) / n)
        assert abs(draws.mean() - m1) < tol, p


def test_sample_distribution_ks():
    # (gamma / beta)^(alpha/2) must be unit-scale Gamma(mu); KS at the 1%
    # level with 1e5 draws per parameter point
    rng = np.random.default_rng(77)
    for p in _PARAM_GRID:
        draws = sample(p, rng, size=100_000)
        w = (draws / p.beta) ** (p.alpha / 2.0)
        res = stats.kstest(w, "gamma", args=(p.mu,))
        assert res.pvalue > 0.01, (p, res)


def test_sample_matches_gaussian_construction():
    # alpha=2, mu=3 is the SNR of a 6-fold Gaussian diversity combiner:
    # gamma = (beta/2) * sum of 6 squared unit normals (drawn by numpy)
    p = AlphaMuParams(alpha=2.0, mu=3.0, mean_snr=2.5)
    rng = np.random.default_rng(31)
    direct = sample(p, rng, size=100_000)
    z = rng.normal(size=(100_000, 6))
    built = 0.5 * p.beta * np.square(z).sum(axis=1)
    res = stats.ks_2samp(direct, built)
    assert res.pvalue > 0.01, res


def test_parameter_validation():
    for bad in (
        dict(alpha=0.0, mu=1.0),
        dict(alpha=-1.0, mu=1.0),
        dict(alpha=2.0, mu=0.0),
        dict(alpha=2.0, mu=1.0, mean_snr=0.0),
        dict(alpha=math.inf, mu=1.0),
        dict(alpha=math.nan, mu=1.0),
        dict(alpha=2.0, mu=math.inf),
        dict(alpha=2.0, mu=1.0, mean_snr=math.inf),
        # beta underflows to 0, or overflows
        dict(alpha=1e-20, mu=1.0),
        dict(alpha=100.0, mu=1e-3, mean_snr=1e308),
        dict(alpha=2.0, mu=1e308),
    ):
        with pytest.raises(ValueError):
            AlphaMuParams(**bad)


def test_scale_relations():
    # beta carries the whole mean
    np.testing.assert_allclose(
        _P.beta * math.exp(math.lgamma(_P.mu + 2.0 / _P.alpha) - math.lgamma(_P.mu)),
        _P.mean_snr,
        rtol=1e-14,
    )
    # doubling the mean doubles beta
    q = AlphaMuParams(alpha=_P.alpha, mu=_P.mu, mean_snr=2.0 * _P.mean_snr)
    np.testing.assert_allclose(q.beta, 2.0 * _P.beta, rtol=1e-14)


def _threads_after(modules, **env):
    """OS threads of a fresh interpreter after importing each module in turn,
    then its OPENBLAS_NUM_THREADS; the caller's thread settings are dropped
    from the environment first, and env added."""
    script = "import os\n" + "".join(
        "import %s\nprint(len(os.listdir('/proc/self/task')))\n" % m for m in modules)
    script += "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    clean = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**clean, **env, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_import_loads_openblas_with_one_thread():
    # effrate imports numpy first: OpenBLAS starts no pool thread, and the
    # environment is left without OPENBLAS_NUM_THREADS
    assert _threads_after(["effrate"]) == ["1", "None"]
    # a caller's setting wins: numpy keeps the pool it starts without effrate
    two = {"OPENBLAS_NUM_THREADS": "2"}
    assert _threads_after(["effrate"], **two) == _threads_after(["numpy"], **two)
    # numpy imported first: importing effrate changes the thread count in no way
    numpy_first, then_effrate, env = _threads_after(["numpy", "effrate"])
    assert (then_effrate, env) == (numpy_first, "None")
