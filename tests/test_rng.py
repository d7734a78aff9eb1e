import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iongradim import rng


def test_splitmix64_reference_vector():
    # first outputs of the canonical SplitMix64 stream seeded with 0
    assert int(rng.splitmix64(0, 0)) == 0xE220A8397B1DCDAF
    assert int(rng.splitmix64(0, 1)) == 0x6E789E6AA1B965F4
    assert int(rng.splitmix64(0, 2)) == 0x06C45D188009454F


def test_counter_addressing_is_pure():
    scattered = rng.splitmix64(99, np.array([5, 2, 9], dtype=np.uint64))
    assert int(scattered[0]) == int(rng.splitmix64(99, 5))
    assert int(scattered[1]) == int(rng.splitmix64(99, 2))
    assert int(scattered[2]) == int(rng.splitmix64(99, 9))


def test_same_seed_same_sequence():
    a = rng.uniform(1234, np.arange(100, dtype=np.uint64))
    b = rng.uniform(1234, np.arange(100, dtype=np.uint64))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = rng.uniform(1, np.arange(64, dtype=np.uint64))
    b = rng.uniform(2, np.arange(64, dtype=np.uint64))
    assert not np.array_equal(a, b)


def test_uniform_in_half_open_unit_interval():
    u = rng.uniform(7, np.arange(100000, dtype=np.uint64))
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_gaussian_moments():
    n = 200000
    idx = np.arange(n, dtype=np.uint64)
    g = rng.gaussian(31, np.stack([2 * idx, 2 * idx + np.uint64(1)]))
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01
    assert np.all(np.isfinite(g))


def test_seed_wraps_to_64_bits():
    assert int(rng.splitmix64(2 ** 64 + 3, 0)) == int(rng.splitmix64(3, 0))


def test_derive_seed_distinct_and_stable():
    seeds = [rng.derive_seed(42, k) for k in range(100)]
    assert len(set(seeds)) == 100
    assert seeds[0] == rng.derive_seed(42, 0)
    assert all(0 <= s < 2 ** 64 for s in seeds)


# ---------------------------------------------------------------------------
# draws written into caller buffers

BLOCK = 2 ** 15
MASK = 2 ** 64 - 1


def _splitmix64_reference(seed, n):
    """SplitMix64 in Python integers, one counter at a time."""
    z = (seed + (n + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 99, MASK, MASK - 0x9E3779B97F4A7C15 + 1])
def test_splitmix64_matches_the_integer_reference(seed):
    counters = [0, 1, 2, 7, 2 ** 32, 2 ** 63, MASK - 1, MASK]
    got = rng.splitmix64(seed, np.array(counters, dtype=np.uint64))
    assert got.tolist() == [_splitmix64_reference(seed, n) for n in counters]


@pytest.mark.parametrize("size", [BLOCK, 1000], ids=["full-block", "short-last-block"])
def test_draws_into_buffers_equal_allocating_draws(size):
    seed = 0x5EED
    shot = np.arange(3 * BLOCK, 3 * BLOCK + size, dtype=np.uint64) * np.uint64(8)
    bits_buf, a_buf, b_buf = np.empty(BLOCK, dtype=np.uint64), np.empty(BLOCK), np.empty(BLOCK)
    bits, a, b = bits_buf[:size], a_buf[:size], b_buf[:size]   # a short block is a prefix

    assert rng.splitmix64(seed, shot, out=bits) is bits
    assert np.array_equal(bits, rng.splitmix64(seed, shot))
    assert rng.uniform(seed, shot + np.uint64(4), out=a) is a
    assert np.array_equal(a, rng.uniform(seed, shot + np.uint64(4)))
    want = rng.gaussian(seed, np.stack([shot + np.uint64(2), shot + np.uint64(3)]))
    pair = np.empty((2, BLOCK))[:, :size]   # a short block is a prefix of each row
    assert np.shares_memory(rng.gaussian(seed, np.stack([shot + np.uint64(2),
                                                         shot + np.uint64(3)]), out=pair), pair)
    assert np.array_equal(pair[0], want)
    # the counters may sit in the memory their draws are written to
    np.add(shot, np.array([[2], [3]], dtype=np.uint64), out=pair.view(np.uint64))
    assert np.array_equal(rng.gaussian(seed, pair.view(np.uint64), pair), want)
    np.add(shot, np.uint64(4), out=bits)
    assert np.array_equal(rng.uniform_bits(seed, bits, out=bits),
                          rng.splitmix64(seed, shot + np.uint64(4)) >> np.uint64(11))


def test_reference_vector_through_a_buffer():
    out = np.empty(3, dtype=np.uint64)
    rng.splitmix64(0, np.arange(3, dtype=np.uint64), out=out)
    assert out.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_uniform_is_its_bits_mapped_exactly_and_increasingly():
    # bits_to_uniform reads b through an int64 view, which holds b for every b below 2^53
    edges = [0, 1, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1]
    bits = np.array(edges, dtype=np.uint64)
    u = rng.bits_to_uniform(bits)
    assert u.tolist() == [2.0 ** -53, 2.0 ** -52, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53, 1.0]
    assert u.tolist() == [(b + 1) * 2 ** -53 for b in edges]
    rng.bits_to_uniform(bits, bits.view(np.float64))   # in place, as uniform calls it
    assert bits.view(np.float64).tolist() == u.tolist()
    counters = np.arange(50, dtype=np.uint64)
    assert np.array_equal(rng.uniform(8, counters),
                          rng.bits_to_uniform(rng.uniform_bits(8, counters)))


def test_scalar_counters_give_scalars():
    assert type(rng.splitmix64(0, 0)) is np.uint64
    assert type(rng.uniform_bits(0, 0)) is np.uint64
    assert type(rng.uniform(3, 5)) is np.float64
    assert type(rng.gaussian(3, (5, 6))) is np.float64
    assert rng.uniform(3, 5) == rng.uniform(3, np.arange(6, dtype=np.uint64))[5]
    assert rng.gaussian(3, (5, 6)) == rng.gaussian(3, np.array([[5], [6]], dtype=np.uint64))[0]


# ---------------------------------------------------------------------------
# derive_seed as the splitmix64 output, and both Gaussian streams in one pass

_U64 = st.integers(0, MASK)


@given(seed=_U64, index=_U64)
@example(seed=0, index=0)
@example(seed=2 ** 63, index=2 ** 63)
@example(seed=MASK, index=MASK)
@example(seed=MASK, index=0)
@example(seed=0, index=MASK)
def test_derive_seed_is_the_splitmix64_output(seed, index):
    assert rng.derive_seed(seed, index) == int(rng.splitmix64(seed, np.uint64(index)))


def test_derive_seed_pins_the_canonical_first_output():
    assert rng.derive_seed(0, 0) == 0xE220A8397B1DCDAF
    assert type(rng.derive_seed(0, 0)) is int


def _per_stream_gaussian(seed, a, b):
    """Box-Muller stream by stream: the radius from a's uniforms, the angle from b's."""
    radius = np.sqrt(np.log(rng.uniform(seed, a)) * -2.0)
    return radius * np.cos(rng.uniform(seed, b) * (2.0 * np.pi))


@given(seed=_U64, pairs=st.lists(st.tuples(_U64, _U64), min_size=1, max_size=50),
       spare=st.integers(0, 5))
@example(seed=0, pairs=[(0, 1), (MASK, 2 ** 63)], spare=0)
def test_gaussian_is_the_per_stream_draw(seed, pairs, spare):
    a, b = (np.array(column, dtype=np.uint64) for column in zip(*pairs))
    want = _per_stream_gaussian(seed, a, b).view(np.int64).tolist()
    assert rng.gaussian(seed, np.stack([a, b])).view(np.int64).tolist() == want
    # into the rows of a wider buffer that holds the counters themselves
    buffer = np.empty((2, len(pairs) + spare))[:, :len(pairs)]
    buffer.view(np.uint64)[:] = [a, b]
    draws = rng.gaussian(seed, buffer.view(np.uint64), buffer)
    assert np.shares_memory(draws, buffer[0]) and draws.view(np.int64).tolist() == want
