"""A counter-based random stream with exact Gamma draws, for Monte Carlo.

SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) in counter mode: output i of
the stream with key k is mix(k + (i + 1) G mod 2^64), G the golden gamma,
which is the sequence of a SplitMix64 generator started at state k.  Any
stretch of the stream is therefore a few whole-array numpy passes, and a
stream is its key: `standard_gamma` writes its first draws, in passes as
wide as the caller's scratch, and the draws do not depend on that width.

A uniform takes the top 52 bits j of an output to (2j + 1) 2^-53, the
midpoint of one of 2^52 equal cells: strictly inside (0, 1), exact, and
1 - u is a uniform of the same set.  Gamma(a) draws are exact:
  - a = 1, 2, 3, 4: -log(U_1 ... U_a) (Devroye 1986, ch. IX), a
    consecutive outputs per draw, multiplied in output order; up to a = 4
    this costs less than the rejection (half at a = 2);
  - other a > 1: Cheng's GB rejection (Cheng 1977, Appl. Statist. 26,
    71-75), two outputs per candidate, candidates accepted in order;
  - a < 1: Gamma(a + 1) U^(1/a), three outputs per candidate of the
    Gamma(a + 1) rejection, the third being U.
GB's acceptance test W >= log Z is evaluated, as exp(W) >= Z, for every
candidate: the squeeze that spares a logarithm in scalar code would cost a
vector pass more.

Nothing of numpy.random is loaded: its import costs a command 6 MB
resident (3.5 MB of it OpenSSL, through secrets and hashlib) and 14 ms,
and NEP 19 lets its Generator algorithms, and so its draws, change between
releases.
"""

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2^64 / golden ratio, odd
_MIX = tuple((np.uint64(shift), np.uint64(mult))  # (shift, multiplier)
             for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 0)))
_TOP52 = np.uint64(12)
_ONE_BITS = np.uint64(0x3FF0000000000000)  # exponent bits of 1.0
_RAMP = np.arange(4096, dtype=np.uint64)  # 0, 1, 2, ...: the first states of a stretch
_ERLANG = 4  # integer shapes up to this draw as -log of a product of uniforms, not by GB


def _outputs(key, z, tmp, start, stride=1):
    """z[i] = output start + i stride of the stream with key `key`:
    SplitMix64's output function, in place, on the state key + (start + 1
    + i stride) G mod 2^64, the first len(_RAMP) states from the ramp, then
    each stretch as the one before plus its length.  z is a uint64 array;
    tmp, as long as z, is overwritten."""
    step = stride * _GOLDEN & _MASK
    n = min(len(z), len(_RAMP))
    np.multiply(_RAMP[:n], np.uint64(step), out=z[:n])
    z[:n] += np.uint64((key + (start + 1) * _GOLDEN) & _MASK)
    while n < len(z):
        m = min(n, len(z) - n)
        np.add(z[:m], np.uint64(n * step & _MASK), out=z[n:n + m])
        n += m
    for shift, mult in _MIX:
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        if mult:
            z *= mult


def _uniforms(key, z, tmp, start, stride):
    """Uniforms (2j + 1) 2^-53 of the outputs `_outputs` writes, j their
    top 52 bits, written over z and returned as its float64 view."""
    _outputs(key, z, tmp, start, stride)
    z >>= _TOP52
    z |= _ONE_BITS  # 1 + j 2^-52
    u = z.view(np.float64)
    u -= 1.0 - 2.0 ** -53  # exact
    return u


def stream_keys(seed, count):
    """Keys of `count` streams of one seed: the first `count` outputs of a
    SplitMix64 generator started at state `seed` (a seed of 2^64 or more is
    folded to 64 bits word by word: state = first output ^ next word)."""
    seed = int(seed)  # a numpy integer too
    state = seed & _MASK
    for shift in range(64, seed.bit_length(), 64):
        state = stream_keys(state, 1)[0] ^ (seed >> shift & _MASK)
    z, tmp = np.empty((2, count), np.uint64)  # uint64 arrays wrap silently
    _outputs(state, z, tmp, 0)
    return z.tolist()


def standard_gamma(key, shape, out, scratch):
    """The first out.size Gamma(shape, 1) draws of the stream with key
    `key`, written into `out` (a C-contiguous float64 array) and returned.
    `scratch`, a float64 array of three rows, is overwritten; the draws do
    not depend on its width."""
    if not 0.0 < shape < math.inf:
        raise ValueError("standard_gamma: shape must be finite and > 0, got %r" % (shape,))
    if not out.flags.c_contiguous:
        raise ValueError("standard_gamma: out must be C-contiguous")
    if shape <= _ERLANG and shape == math.floor(shape):
        _erlang(key, int(shape), out.reshape(-1), scratch)
    else:
        _cheng(key, shape, out.reshape(-1), scratch)
    return out


def _erlang(key, shape, flat, scratch):
    """-log(U_1 ... U_shape) into flat, draw i from outputs shape i to
    shape i + shape - 1, multiplied in that order, in passes as wide as
    scratch."""
    z, tmp = scratch[1].view(np.uint64), scratch[2].view(np.uint64)
    for start in range(0, len(flat), len(tmp)):
        prod = flat[start:start + len(tmp)]
        n = len(prod)
        _uniforms(key, prod.view(np.uint64), tmp[:n], shape * start, shape)
        for k in range(1, shape):
            prod *= _uniforms(key, z[:n], tmp[:n], shape * start + k, shape)
        np.log(prod, out=prod)
        np.negative(prod, out=prod)


def _cheng(key, shape, flat, scratch):
    """Gamma(shape) draws into flat by Cheng's GB rejection at
    a = max(shape, shape + 1), times U^(1/shape) below 1.  A pass picks
    its accepted candidates by one index array, bounded by scratch's width."""
    a = shape + 1.0 if shape < 1.0 else shape
    width = 3 if shape < 1.0 else 2  # outputs per candidate
    lam = math.sqrt(2.0 * a - 1.0)
    b, q = a - math.log(4.0), a + lam
    # GB accepts a candidate with probability Gamma(a) lam e^a / (4 a^a)
    accepted = math.exp(math.lgamma(a) + a - a * math.log(a)) * lam / 4.0
    filled = position = 0  # draws written, outputs consumed
    while filled < len(flat):
        expect = (len(flat) - filled) / accepted
        u1, u2, t = scratch[:, :int(expect + 2.0 * math.sqrt(expect)) + 8]
        z1, z2, tmp = u1.view(np.uint64), u2.view(np.uint64), t.view(np.uint64)
        u1 = _uniforms(key, z1, tmp, position, width)
        u2 = _uniforms(key, z2, tmp, position + 1, width)
        # V = log(U1 / (1 - U1)) / lam, Y = a e^V, W = b + q V - Y, Z = U1^2 U2
        np.subtract(1.0, u1, out=t)
        np.divide(u1, t, out=t)
        np.log(t, out=t)
        t *= 1.0 / lam
        u2 *= u1
        u2 *= u1
        y = np.exp(t, out=u1)
        y *= a
        t *= q
        t += b
        t -= y
        accept = np.greater_equal(np.exp(t, out=t), u2)  # W >= log Z
        if width == 3:
            u3 = _uniforms(key, z2, tmp, position + 2, width)
            y *= np.power(u3, 1.0 / shape, out=u3)
        picks = np.flatnonzero(accept)[:len(flat) - filled]
        # the pass that fills flat stops at the candidate of the last draw
        used = int(picks[-1]) + 1 if filled + len(picks) == len(flat) else len(accept)
        # mode="clip" takes in place, where "raise" would copy the output first
        np.take(y[:used], picks, out=flat[filled:filled + len(picks)], mode="clip")
        filled += len(picks)
        position += width * used
