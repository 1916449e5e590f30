"""The SplitMix64 stream: its bits, its uniforms and its exact Gamma draws."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from effrate.splitmix import SplitMix64, stream_keys

_GOLDEN = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _splitmix64(state, n):
    """SplitMix64 written out on Python integers: n outputs from `state`."""
    out = []
    for _ in range(n):
        state = (state + _GOLDEN) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        out.append(z ^ (z >> 31))
    return out


def _unmix(z):
    """The state whose SplitMix64 output is z (each step inverted)."""
    def unshift(x, s):
        y = x
        for _ in range(3):  # 3 s >= 64 for every shift of the mix
            y = x ^ (y >> s)
        return y
    z = unshift(z, 31)
    z = unshift(z * pow(_M2, -1, 1 << 64) & _MASK, 27)
    return unshift(z * pow(_M1, -1, 1 << 64) & _MASK, 30)


def test_outputs_equal_an_integer_splitmix64():
    for key in (0, 0x0123456789ABCDEF, _MASK):
        assert SplitMix64(key).random_raw(64).tolist() == _splitmix64(key, 64), key
        stream = SplitMix64(key)
        assert [stream.random_raw() for _ in range(3)] == _splitmix64(key, 3)


def test_stream_keys_are_the_outputs_of_the_seed():
    assert stream_keys(12345, 8) == _splitmix64(12345, 8)
    for seed in (np.int64(12345), np.uint64(12345)):
        assert stream_keys(seed, 8) == _splitmix64(12345, 8)
    # a seed beyond 64 bits keeps its high words
    assert stream_keys(2 ** 64 + 5, 2) != stream_keys(5, 2)
    assert len(set(stream_keys(2 ** 64 + 5, 8) + stream_keys(5, 8))) == 16


@pytest.mark.parametrize("shape", [None, 0.5, 1.0, 2.5])
def test_n_draws_then_m_equal_n_plus_m(shape):
    # None stands for the uniforms.  The lent scratch of 40 entries splits
    # a call into many passes, and the streams without scratch cut their
    # passes elsewhere (8192 draws take two index slices), so the rejection
    # loop's bookkeeping is covered at pass and slice boundaries
    def draw(stream, n):
        if shape is None:
            return stream.random(n)
        return stream.standard_gamma(shape, n)

    for n, m in ((1, 1), (3, 997), (5000, 7), (4097, 4095)):
        whole = SplitMix64(77)
        parts = SplitMix64(77, scratch=np.empty((3, 40)))
        split = np.concatenate([draw(parts, n), draw(parts, m)])
        np.testing.assert_array_equal(split, draw(whole, n + m))
        assert parts.position == whole.position


def test_uniforms_lie_strictly_inside_the_unit_interval():
    # the extreme outputs 0 and 2^64 - 1 map to 2^-53 and 1 - 2^-53
    for output, u in ((0, 2.0 ** -53), (_MASK, 1.0 - 2.0 ** -53)):
        stream = SplitMix64((_unmix(output) - _GOLDEN) & _MASK)
        assert stream.random() == u
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = SplitMix64(3).random(200_000)
        assert 0.0 < u.min() and u.max() < 1.0
        # the Gamma draws at the ends of the shape range raise no
        # floating-point warning either (U^(1/a) underflows silently)
        for shape in (0.01, 0.3, 1.0, 2.0, 1e4):
            x = SplitMix64(4).standard_gamma(shape, 20_000)
            assert np.all(np.isfinite(x)) and np.all(x >= 0.0), shape


def test_two_streams_of_one_seed_are_uncorrelated():
    n = 100_000
    keys = stream_keys(0, 8)
    draws = [SplitMix64(key).random(n) for key in keys]
    for i in range(len(draws) - 1):
        r = np.corrcoef(draws[i], draws[i + 1])[0, 1]
        assert abs(r) < 5.0 / math.sqrt(n), (i, r)


@pytest.mark.parametrize("shape", [0.3, 0.5, 1.0, 1.5, 2.0, 4.0, 40.0])
def test_gamma_draws_follow_the_exact_law(shape):
    x = SplitMix64(stream_keys(2024, 1)[0]).standard_gamma(shape, 200_000)
    res = stats.kstest(x, "gamma", args=(shape,))
    assert res.pvalue >= 1e-3, (shape, res)


def test_generator_interface():
    stream = SplitMix64(9)
    assert isinstance(stream.standard_gamma(2.0), float)
    assert isinstance(stream.gamma(shape=0.7, scale=3.0), float)
    assert stream.gamma(shape=1.5, size=(4, 3)).shape == (4, 3)
    assert stream.random((2, 5)).shape == stream.random_raw((2, 5)).shape == (2, 5)
    for shape in (0.5, 1.0, 2.0):
        assert stream.standard_gamma(shape, 0).shape == (0,)
        assert SplitMix64(9, np.empty((3, 8))).standard_gamma(shape, 0).shape == (0,)
    # gamma is scale times standard_gamma, drawn alike
    a, b = SplitMix64(9), SplitMix64(9)
    np.testing.assert_array_equal(a.gamma(2.5, 3.0, 100), 3.0 * b.standard_gamma(2.5, 100))
    out = np.empty((50, 2))
    assert SplitMix64(9).standard_gamma(2.5, out.shape, out=out) is out
    np.testing.assert_array_equal(out.ravel(), SplitMix64(9).standard_gamma(2.5, 100))
    with pytest.raises(ValueError, match="C-contiguous"):
        SplitMix64(9).standard_gamma(2.5, (50,), out=out[:, 0])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="shape must be finite and > 0"):
            SplitMix64(9).standard_gamma(bad, 10)
