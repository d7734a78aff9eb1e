"""Counter-based deterministic random streams.

Every draw is a pure function of (seed, counter), so shots can be evaluated
in any order, or in parallel, with bit-identical results. The core is the
SplitMix64 sequence: for counter n,

    state(n)  = seed + (n + 1) * 0x9E3779B97F4A7C15   (mod 2^64)
    output(n) = mix(state(n))

where mix is the standard SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Counter 0 with seed 0 therefore reproduces the first output of the
canonical sequentially-seeded SplitMix64 stream, 0xE220A8397B1DCDAF, which
the test suite pins. Uniforms map the top 53 bits b to (b + 1) * 2^-53 in
(0, 1], a map that is exact and strictly increasing in b; Gaussians use the
Box-Muller transform on two counters, and the radius of the first, which
bounds the draw's magnitude, can be drawn alone. Every draw can be written
into a caller's buffer (out=), so a caller that reuses its buffers
allocates nothing per draw; the bits are the same either way.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_UNIFORM_SHIFT = np.uint64(64 - 53)   # a uniform keeps the top 53 bits


def splitmix64(seed: int, counter, out: np.ndarray | None = None) -> np.ndarray:
    """Raw 64-bit output for the given counter(s). Vectorized over counter.

    out, a uint64 array of the counter's shape, receives the outputs and is
    returned; it may be the counter array itself. Without out, a scalar
    counter gives a scalar. The mod-2^64 wraparound is the algorithm, and
    numpy does not warn on it for arrays.
    """
    n = np.asarray(counter, dtype=np.uint64)
    # state(n) = n * golden + (seed + golden), the same sum mod 2^64
    z = np.multiply(n, GOLDEN, out=np.empty_like(n) if out is None else out)
    z += np.uint64((seed + int(GOLDEN)) & _U64_MASK)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return _returned(z, out)


def uniform_bits(seed: int, counter, out: np.ndarray | None = None) -> np.ndarray:
    """The 53-bit integer(s) b behind uniform(seed, counter) = (b + 1) * 2^-53."""
    bits = splitmix64(seed, counter, out)
    bits >>= _UNIFORM_SHIFT
    return bits


def bits_to_uniform(bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(b + 1) * 2^-53 for 53-bit integer(s) b: exact, and strictly increasing in b.

    bits is a uint64 array whose every b is below 2^53, as uniform_bits
    gives. Each b is read through an int64 view, whose conversion to float64
    is cheaper than uint64's; the precondition makes the view's value b
    itself and the conversion exact. out, a float64 array of the shape of
    bits, may share their memory.
    """
    u = np.add(bits.view(np.int64), 1.0, out=out)
    u *= 2.0 ** -53
    return u


def uniform(seed: int, counter, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform draw(s) in (0, 1]: top 53 bits, offset to exclude exact zero.

    out, a float64 array of the counter's shape, receives the draws; it may
    share the counter's memory.
    """
    n = np.asarray(counter, dtype=np.uint64)
    u = np.empty(n.shape) if out is None else out
    bits_to_uniform(uniform_bits(seed, n, u.view(np.uint64)), u)
    return _returned(u, out)


def gaussian(seed: int, counter_a, counter_b, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """Standard normal draw(s) via Box-Muller from two counter streams.

    out receives the draws and work holds the second stream's uniforms:
    float64 arrays of the counters' shape, each of which may share the
    memory of its own counter.
    """
    shape = np.shape(counter_a)
    g = _radius(seed, counter_a, np.empty(shape) if out is None else out)
    u2 = uniform(seed, counter_b, np.empty(shape) if work is None else work)
    # radius * cos(2 pi u2), in place
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    g *= u2
    return _returned(g, out)


def _radius(seed: int, counter, out: np.ndarray) -> np.ndarray:
    """The Box-Muller radius sqrt(-2 log u1) of gaussian's first stream, in place in out.

    gaussian multiplies this very float by a cosine, so |gaussian| <= radius
    holds exactly for each draw: |cos| <= 1 and rounding is monotone. out, a
    float64 array of the counter's shape, may share the counter's memory.
    """
    r = uniform(seed, counter, out)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    return r


def _returned(draws: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """out itself when the caller gave it; otherwise the draws, a scalar for a scalar counter."""
    return draws if out is not None else draws[()]


def derive_seed(seed: int, index: int) -> int:
    """Independent sub-seed for arm/trial `index` of a master seed."""
    return int(splitmix64(seed, np.uint64(index)))
