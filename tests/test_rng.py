"""The pure-Python stream against NumPy's `default_rng`, its oracle."""

import numpy as np
import pytest

from localcut.rng import Generator, pairwise_sum

SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 128 + 1,
         (1 << 300) - 12345]
SPANS = [1, 2, 3, 4, 24, 2 ** 31 + 5, 2 ** 32 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_draws_match_numpy(seed):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for k in SPANS * 20:
        assert ours.integers(0, k) == theirs.integers(0, k)
    for _ in range(50):
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_share_one_stream(seed):
    # an odd number of 32-bit draws leaves a spare half; random() must
    # pass it by and the next bounded draw must use it
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for step in range(300):
        k = SPANS[step % len(SPANS)]
        if step % 3 == 0:
            assert ours.random() == theirs.random()
        elif step % 5 == 0:
            m = step % 7
            assert ours.integers(0, 2, m) == theirs.integers(0, 2, m).tolist()
        else:
            assert ours.integers(0, k) == theirs.integers(0, k)


def test_offset_ranges_match_numpy():
    ours, theirs = Generator(9), np.random.default_rng(9)
    for low, high in [(5, 6), (-3, 4), (10, 8 + 2 ** 32)] * 20:
        assert ours.integers(low, high) == theirs.integers(low, high)


def test_normalized_choice_matches_numpy():
    # lengths 1 to 300 take every branch of NumPy's pairwise sum: one
    # running sum below 8, eight up to 128, halves above
    for length in range(1, 301):
        weights = np.random.default_rng(length).random(length) + 1e-3
        normed = weights / weights.sum()
        total = pairwise_sum(weights.tolist())
        assert total == weights.sum()
        p = [x / total for x in weights.tolist()]
        assert p == normed.tolist()
        ours, theirs = Generator(length), np.random.default_rng(length)
        for _ in range(20):
            assert ours.choice(p) == theirs.choice(length, p=normed)


@pytest.mark.parametrize("seed", [0, 3, 2 ** 40])
def test_choice_batches_match_numpy(seed):
    # a NumPy batch draws one uniform per entry, as scalar draws do
    p = [0.5, 0.25, 0.0, 0.125, 0.125]
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for trials in (1, 7, 1000):
        assert [ours.choice(p) for _ in range(trials)] == \
            theirs.choice(len(p), size=trials, p=p).tolist()
    assert ours.integers(0, 24) == theirs.integers(0, 24)


@pytest.mark.parametrize("p", [[0.5, float("nan")], [1.5, -0.5],
                               [0.5, 0.5 + 1e-7], []])
def test_choice_guards_its_weights_like_numpy(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), p=p)
    with pytest.raises(ValueError):
        Generator(0).choice(p)


def test_negative_seed_raises_like_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        Generator(-1)


@pytest.mark.parametrize("low, high", [(0, 0), (3, 2), (0, 2 ** 32)])
def test_spans_of_32_bits_or_more_are_refused(low, high):
    with pytest.raises(ValueError):
        Generator(0).integers(low, high)
