import numpy as np
import pytest

from filterstab import Xoshiro256StarStarLanes, derive_seed
from filterstab.rng import _jump, _jump_map, _segments, _splitmix64
from reference import Xoshiro256StarStar


def test_splitmix64_reference_sequence():
    # published reference outputs of splitmix64 for seed 0
    state, first = _splitmix64(0)
    assert first == 0xE220A8397B1DCDAF
    _, second = _splitmix64(state)
    assert second == 0x6E789E6AA1B965F4


def test_outputs_are_64_bit():
    g = Xoshiro256StarStar(123)
    for _ in range(1000):
        x = g.next_uint64()
        assert 0 <= x < 2**64


def test_same_seed_reproduces_stream():
    a = Xoshiro256StarStar(2024)
    b = Xoshiro256StarStar(2024)
    assert [a.next_uint64() for _ in range(200)] == [b.next_uint64() for _ in range(200)]


def test_different_seeds_differ():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_uint64() for _ in range(10)] != [b.next_uint64() for _ in range(10)]


def test_derive_seed_spreads_replicates():
    seeds = {derive_seed(7, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert {derive_seed(8, i) for i in range(100)}.isdisjoint(
        {derive_seed(7, i) for i in range(100)}
    )


def test_uniform_moments():
    g = Xoshiro256StarStar(5)
    draws = np.array([g.random() for _ in range(20_000)])
    assert np.all((draws >= 0.0) & (draws < 1.0))
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    g = Xoshiro256StarStar(6)
    draws = np.array([g.normal(2.0, 3.0) for _ in range(20_000)])
    assert abs(draws.mean() - 2.0) < 0.1
    assert abs(draws.std() - 3.0) < 0.1


def test_pick_matches_probabilities():
    g = Xoshiro256StarStar(7)
    probs = [0.1, 0.0, 0.5, 0.4]
    counts = np.zeros(4)
    n = 20_000
    for _ in range(n):
        counts[g.pick(probs)] += 1
    freq = counts / n
    assert freq[1] == 0.0
    np.testing.assert_allclose(freq, probs, atol=0.02)


def test_pick_rejects_zero_vector():
    g = Xoshiro256StarStar(8)
    with pytest.raises(ValueError):
        g.pick([0.0, 0.0])


def test_pick_handles_float_shortfall():
    g = Xoshiro256StarStar(9)
    # masses summing slightly below one must still land on a positive atom
    probs = [0.5 - 1e-12, 0.5 - 1e-12]
    for _ in range(1000):
        assert g.pick(probs) in (0, 1)


@pytest.mark.parametrize("lanes", [1, 2, 50])
def test_lanes_equal_scalar_streams(lanes):
    seeds = [derive_seed(7, r) for r in range(lanes)]
    generator = Xoshiro256StarStarLanes(seeds)
    words = generator.words(300)
    assert words.shape == (300, lanes) and words.dtype == np.uint64
    following = generator.words(1)[0]
    for r, seed in enumerate(seeds):
        scalar = Xoshiro256StarStar(seed)
        assert words[:, r].tolist() == [scalar.next_uint64() for _ in range(300)]
        assert int(following[r]) == scalar.next_uint64()


def test_lanes_take_any_64_bit_seed():
    seeds = [0, 1, 2**64 - 1, 2**63, 12345]
    words = Xoshiro256StarStarLanes(seeds).words(5)
    for r, seed in enumerate(seeds):
        scalar = Xoshiro256StarStar(seed)
        assert words[:, r].tolist() == [scalar.next_uint64() for _ in range(5)]


# ---------------------------------------------------------------------------
# jump-ahead segments: `words` cuts each stream into segments of J words
# (`_segments`) that advance as lanes; the words must be the scalar stream's

SEGMENT = _segments(40_001, 1)[1]
SEEDS = [0, 1, 2**64 - 1, derive_seed(7, 0), derive_seed(3, 5)]


_STREAMS = {}


def scalar_stream(seed, count):
    """The first `count` words of the scalar stream of `seed`."""
    generator, words = _STREAMS.setdefault(seed, (Xoshiro256StarStar(seed), []))
    while len(words) < count:
        words.append(generator.next_uint64())
    return words[:count]


def assert_lanes_equal_scalar_streams(seeds, count):
    generator = Xoshiro256StarStarLanes(seeds)
    words = generator.words(count)
    assert words.shape == (count, len(seeds)) and words.dtype == np.uint64
    following = generator.words(1)[0]
    for r, seed in enumerate(seeds):
        stream = scalar_stream(seed, count + 1)
        assert words[:, r].tolist() == stream[:count]
        assert int(following[r]) == stream[count]


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, SEGMENT - 1, SEGMENT, SEGMENT + 1,
                                   40_000, 40_001, 60_001, 70_000])
def test_one_lane_segments_equal_the_scalar_stream(count):
    # 40 000 = 200 full segments of 200; 40 001 leaves 1 word for the last
    # segment; 70 000 reaches the cap of 256 segments
    assert _segments(40_000, 1) == (200, 200) and _segments(70_000, 1)[0] == 256
    for seed in SEEDS:
        assert_lanes_equal_scalar_streams([seed], count)


@pytest.mark.parametrize("lanes", [2, 50])
@pytest.mark.parametrize("count", [1, 3, 99, 100, 101, 1_001])
def test_many_lane_segments_equal_the_scalar_streams(lanes, count):
    seeds = (SEEDS * 10)[:2] if lanes == 2 else SEEDS + [derive_seed(11, r) for r in range(45)]
    assert_lanes_equal_scalar_streams(seeds, count)


def test_successive_calls_continue_the_streams():
    generator = Xoshiro256StarStarLanes(SEEDS)
    first, second = generator.words(5_000), generator.words(7)
    for r, seed in enumerate(SEEDS):
        assert first[:, r].tolist() + second[:, r].tolist() == scalar_stream(seed, 5_007)


def test_segments_without_lanes_or_words():
    assert _segments(0, 0) == (1, 0) and _segments(5, 0) == (2, 3)
    assert Xoshiro256StarStarLanes([]).words(10).shape == (10, 0)
    assert Xoshiro256StarStarLanes([4, 5]).words(0).shape == (0, 2)


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 1_000])
def test_jump_map_equals_plain_steps(steps):
    states = np.random.default_rng(steps).integers(0, 2**64, size=(4, 6), dtype=np.uint64,
                                                   endpoint=False)
    states[:, 0] = [1, 0, 0, 0]
    states[:, 1] = [0, 0, 0, 2**63]
    jumped = _jump(_jump_map(steps), states)
    for lane in range(states.shape[1]):
        generator = Xoshiro256StarStar(0)
        generator._s0, generator._s1, generator._s2, generator._s3 = map(int, states[:, lane])
        for _ in range(steps):
            generator.next_uint64()
        assert jumped[:, lane].tolist() == [generator._s0, generator._s1, generator._s2,
                                            generator._s3]
