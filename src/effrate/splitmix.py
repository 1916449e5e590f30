"""A counter-based random stream with exact Gamma draws, for Monte Carlo.

SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) in counter mode: output i of
the stream with key k is mix(k + (i + 1) G mod 2^64), G the golden gamma,
which is the sequence of a SplitMix64 generator started at state k.  Any
stretch of the stream is therefore a few whole-array numpy passes, and the
stream's whole state is its key and the count of outputs consumed.

A uniform takes the top 52 bits j of an output to (2j + 1) 2^-53, the
midpoint of one of 2^52 equal cells: strictly inside (0, 1), exact, and
1 - u is a uniform of the same set.  Gamma(a) draws are exact and consume
the stream in order, so n draws then m draws give the n + m draws of one
call:
  - a = 1: -log U, one output per draw;
  - a > 1: Cheng's GB rejection (Cheng 1977, Appl. Statist. 26, 71-75),
    two outputs per candidate, candidates accepted in order;
  - a < 1: Gamma(a + 1) U^(1/a), three outputs per candidate of the
    Gamma(a + 1) rejection, the third being U.
GB's acceptance test W >= log Z is evaluated, as exp(W) >= Z, for every
candidate: the squeeze that spares a logarithm in scalar code would cost a
vector pass more.

The stream answers `random_raw`, `random`, `standard_gamma` and `gamma` as
numpy's Generator does, for the arguments effrate passes.  It loads
nothing of numpy.random, whose import costs a command 6 MB resident
(3.5 MB of it OpenSSL, through secrets and hashlib) and 14 ms, and its
draws do not move when numpy's Generator algorithms change, which NEP 19
allows between releases.
"""

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2^64 / golden ratio, odd
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 0))  # (shift, multiplier)
_MIX_U64 = tuple((np.uint64(shift), np.uint64(mult)) for shift, mult in _MIX)
_TOP52 = np.uint64(12)
_ONE_BITS = np.uint64(0x3FF0000000000000)  # exponent bits of 1.0
_SLICE = 8192  # candidates per take, whose index array takes 8 bytes a draw
_RAMP = np.arange(4096, dtype=np.uint64)  # 0, 1, 2, ...: the first states of a stretch
_BATCH = 1 << 16  # candidates per pass when the caller lends no scratch


def _mix(z):
    """SplitMix64's output function of one 64-bit state, a Python int."""
    for shift, mult in _MIX:
        z ^= z >> shift
        if mult:
            z = z * mult & _MASK
    return z


def _outputs(z, tmp):
    """SplitMix64's output function, in place on the states in the uint64
    array z; tmp, as long as z, is overwritten."""
    for shift, mult in _MIX_U64:
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        if mult:
            z *= mult


def _uniforms(z, tmp):
    """Uniforms (2j + 1) 2^-53 of the outputs of the states in z, j their
    top 52 bits, written over z and returned as its float64 view."""
    _outputs(z, tmp)
    z >>= _TOP52
    z |= _ONE_BITS  # 1 + j 2^-52
    u = z.view(np.float64)
    u -= 1.0 - 2.0 ** -53  # exact
    return u


def stream_keys(seed, count):
    """Keys of `count` streams of one seed: the first `count` outputs of a
    SplitMix64 generator started at state `seed` (a seed of 2^64 or more is
    folded to 64 bits through the output function, word by word)."""
    seed = int(seed)  # a numpy integer too
    state = seed & _MASK
    for shift in range(64, seed.bit_length(), 64):
        state = _mix((state + _GOLDEN) & _MASK) ^ (seed >> shift & _MASK)
    return [_mix((state + (j + 1) * _GOLDEN) & _MASK) for j in range(count)]


class SplitMix64:
    """One SplitMix64 stream in counter mode, with exact Gamma draws.

    `scratch`, if given, is a float64 array of three rows that the draws
    may overwrite (Monte Carlo lends its three vectors, idle while a stream
    draws); without it each call allocates its own, of at most 3 * 2^16
    entries.
    """

    def __init__(self, key, scratch=None):
        self.key = key
        self.position = 0  # outputs consumed
        self._scratch = scratch

    def _states(self, z, offset=0, stride=1):
        """z[i] = the state of output position + offset + i stride, that is
        key + (position + offset + 1 + i stride) G mod 2^64: the first
        len(_RAMP) from the ramp, then each stretch as the one before plus
        its length."""
        step = stride * _GOLDEN & _MASK
        n = min(len(z), len(_RAMP))
        np.multiply(_RAMP[:n], np.uint64(step), out=z[:n])
        z[:n] += np.uint64((self.key + (self.position + offset + 1) * _GOLDEN) & _MASK)
        while n < len(z):
            m = min(n, len(z) - n)
            np.add(z[:m], np.uint64(n * step & _MASK), out=z[n:n + m])
            n += m

    def _rows(self, n):
        """Three float64 scratch rows of 1 to n entries."""
        n = max(n, 1)
        if self._scratch is None:
            return np.empty((3, min(n, _BATCH)))
        return self._scratch[:, :n]

    def random_raw(self, size=None):
        """The next 64-bit outputs: an int, or a uint64 array of `size`."""
        z = np.empty(1 if size is None else size, np.uint64)
        flat = z.reshape(-1)
        self._states(flat)
        _outputs(flat, np.empty_like(flat))
        self.position += flat.size
        return int(flat[0]) if size is None else z

    def random(self, size=None):
        """Uniforms in (0, 1): a float, or an array of `size`."""
        u = np.empty(1 if size is None else size)
        flat = u.reshape(-1).view(np.uint64)
        self._states(flat)
        _uniforms(flat, np.empty_like(flat))
        self.position += flat.size
        return float(u[0]) if size is None else u

    def standard_gamma(self, shape, size=None, out=None):
        """Gamma(shape, 1) draws: a float, or an array of `size` (written
        into `out`, a C-contiguous float64 array, if given)."""
        if not 0.0 < shape < math.inf:
            raise ValueError("standard_gamma: shape must be finite and > 0, got %r" % (shape,))
        scalar = size is None and out is None
        if out is None:
            out = np.empty(1 if size is None else size)
        elif not out.flags.c_contiguous:
            raise ValueError("standard_gamma: out must be C-contiguous")
        flat = out.reshape(-1)
        if shape == 1.0:
            self._exponential(flat)
        else:
            self._cheng(shape, flat)
        return float(out[0]) if scalar else out

    def gamma(self, shape, scale=1.0, size=None):
        """Gamma(shape, scale) draws: a float, or an array of `size`."""
        x = self.standard_gamma(shape, size)
        if size is None:
            return x * scale
        x *= scale
        return x

    def _exponential(self, flat):
        """-log U into flat, one output per draw."""
        tmp = self._rows(len(flat))[2].view(np.uint64)
        for start in range(0, len(flat), len(tmp)):
            z = flat[start:start + len(tmp)].view(np.uint64)
            self._states(z)
            u = _uniforms(z, tmp[:len(z)])
            self.position += len(z)
            np.log(u, out=u)
            np.negative(u, out=u)

    def _cheng(self, shape, flat):
        """Gamma(shape) draws into flat by Cheng's GB rejection at
        a = max(shape, shape + 1), times U^(1/shape) below 1."""
        a = shape + 1.0 if shape < 1.0 else shape
        width = 3 if shape < 1.0 else 2  # outputs per candidate
        lam = math.sqrt(2.0 * a - 1.0)
        b, q = a - math.log(4.0), a + lam
        # GB accepts a candidate with probability Gamma(a) lam e^a / (4 a^a)
        accepted = math.exp(math.lgamma(a) + a - a * math.log(a)) * lam / 4.0
        filled = 0
        while filled < len(flat):
            need = len(flat) - filled
            expect = need / accepted
            u1, u2, t = self._rows(int(expect + 2.0 * math.sqrt(expect)) + 8)
            z1, z2, tmp = u1.view(np.uint64), u2.view(np.uint64), t.view(np.uint64)
            self._states(z1, 0, width)
            np.add(z1, np.uint64(_GOLDEN), out=z2)  # outputs position + 1 + i width
            u1 = _uniforms(z1, tmp)
            u2 = _uniforms(z2, tmp)
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
                self._states(z2, 2, width)
                u3 = _uniforms(z2, tmp)
                y *= np.power(u3, 1.0 / shape, out=u3)
            for start in range(0, len(accept), _SLICE):
                # mode="clip" takes in place, where "raise" would copy the output first
                picks = np.flatnonzero(accept[start:start + _SLICE])
                used = min(len(accept) - start, _SLICE)
                if len(picks) >= len(flat) - filled:  # stop at the candidate of the last draw
                    picks = picks[:len(flat) - filled]
                    used = int(picks[-1]) + 1
                np.take(y[start:start + used], picks, out=flat[filled:filled + len(picks)],
                        mode="clip")
                filled += len(picks)
                self.position += width * used
                del picks  # one index array at a time
                if filled == len(flat):
                    break
