"""The SplitMix64 streams: their bits, their uniforms and their exact Gamma draws."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from effrate.splitmix import standard_gamma, stream_keys

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


def _draws(key, shape, n, width=1024):
    """The first n Gamma(shape) draws of stream `key`, with a scratch of
    three rows of `width` entries."""
    return standard_gamma(key, shape, np.empty(n), np.empty((3, width)))


def test_outputs_equal_an_integer_splitmix64():
    # a draw of integer shape a up to 4 is -log of the product of the
    # uniforms of outputs a i to a i + a - 1, multiplied in that order,
    # U = (2j + 1) 2^-53 from an output's top 52 bits j; at a = 1, -log U.
    # 4,200 draws run past the 4,096 states of the ramp into its doubling
    cases = [(a, key, 64) for a in (1, 2, 3, 4) for key in (0, 0x0123456789ABCDEF, _MASK)]
    for shape, key, n in cases + [(1, 7, 4200), (2, 7, 4200)]:
        u = [((z >> 12) * 2 + 1) * 2.0 ** -53 for z in _splitmix64(key, n * shape)]
        products = []
        for i in range(0, len(u), shape):
            product = u[i]
            for factor in u[i + 1:i + shape]:
                product *= factor
            products.append(product)
        np.testing.assert_array_equal(_draws(key, float(shape), n, width=8192),
                                      -np.log(np.array(products)), err_msg=str((shape, key, n)))


def test_stream_keys_are_the_outputs_of_the_seed():
    assert stream_keys(12345, 8) == _splitmix64(12345, 8)
    # past the 4,096 states of the ramp, into its doubling
    assert stream_keys(12345, 9000) == _splitmix64(12345, 9000)
    for seed in (np.int64(12345), np.uint64(12345)):
        assert stream_keys(seed, 8) == _splitmix64(12345, 8)
    assert stream_keys(12345, 0) == []
    # a seed beyond 64 bits keeps its high words
    assert stream_keys(2 ** 64 + 5, 2) != stream_keys(5, 2)
    assert len(set(stream_keys(2 ** 64 + 5, 8) + stream_keys(5, 8))) == 16
    # folded from the lowest word up: state = mix(state + G) ^ word, the
    # first output of a generator started at state, then the next word
    for words in ((5, 1), (0x0123456789ABCDEF, _MASK), (_MASK, 0, 7), (3, _GOLDEN, 1)):
        state = words[0]
        for word in words[1:]:
            state = _splitmix64(state, 1)[0] ^ word
        seed = sum(word << 64 * i for i, word in enumerate(words))
        assert stream_keys(seed, 8) == _splitmix64(state, 8), words


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0])
def test_draws_do_not_depend_on_the_scratch_width(shape):
    # a scratch of 40 entries splits a call into many passes, a full-width
    # one into one, at 8192 draws of more candidates than the scratch of a
    # capped stream holds, so the rejection loop's bookkeeping is covered
    # at pass boundaries and in one wide pass
    for n in (1, 2, 1000, 5007, 8192):
        np.testing.assert_array_equal(_draws(77, shape, n, width=40),
                                      _draws(77, shape, n, width=4 * n + 64), err_msg=str(n))


def test_uniforms_lie_strictly_inside_the_unit_interval():
    # the extreme outputs 0 and 2^64 - 1 map to 2^-53 and 1 - 2^-53, whose
    # shape-1 draws -log U are finite and positive
    for output, u in ((0, 2.0 ** -53), (_MASK, 1.0 - 2.0 ** -53)):
        key = (_unmix(output) - _GOLDEN) & _MASK
        assert _draws(key, 1.0, 1)[0] == -np.log(np.array([u]))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _draws(3, 1.0, 200_000)
        assert 0.0 < x.min() and np.all(np.isfinite(x))
        # the Gamma draws at the ends of the shape range raise no
        # floating-point warning either (U^(1/a) underflows silently)
        for shape in (0.01, 0.3, 1.0, 2.0, 1e4):
            x = _draws(4, shape, 20_000)
            assert np.all(np.isfinite(x)) and np.all(x >= 0.0), shape


def test_two_streams_of_one_seed_are_uncorrelated():
    n = 100_000
    draws = [_draws(key, 1.0, n) for key in stream_keys(0, 8)]
    for i in range(len(draws) - 1):
        r = np.corrcoef(draws[i], draws[i + 1])[0, 1]
        assert abs(r) < 5.0 / math.sqrt(n), (i, r)


@pytest.mark.parametrize("shape", [0.3, 0.5, 0.6, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 40.0])
def test_gamma_draws_follow_the_exact_law(shape):
    x = _draws(stream_keys(2024, 1)[0], shape, 200_000)
    res = stats.kstest(x, "gamma", args=(shape,))
    assert res.pvalue >= 1e-3, (shape, res)


def test_standard_gamma_fills_out_and_refuses_bad_arguments():
    scratch = np.empty((3, 8))
    for shape in (0.5, 1.0, 2.0):
        assert standard_gamma(9, shape, np.empty(0), scratch).shape == (0,)
    # out is filled in C order, whatever its shape
    out = np.empty((50, 2))
    assert standard_gamma(9, 2.5, out, scratch) is out
    np.testing.assert_array_equal(out.ravel(), _draws(9, 2.5, 100))
    with pytest.raises(ValueError, match="C-contiguous"):
        standard_gamma(9, 2.5, out[:, 0], scratch)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="shape must be finite and > 0"):
            standard_gamma(9, bad, np.empty(10), scratch)
