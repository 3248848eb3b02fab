import numpy as np
import pytest

from filterstab import Xoshiro256StarStar, Xoshiro256StarStarLanes, derive_seed
from filterstab.rng import _splitmix64


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
    following = generator.next_uint64()
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
