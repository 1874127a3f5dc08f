from collections import Counter

import pytest

from govsim.rng import DeterministicStream


def test_same_seed_same_sequence():
    a = DeterministicStream(42, "x")
    b = DeterministicStream(42, "x")
    assert [a.u64() for _ in range(50)] == [b.u64() for _ in range(50)]


def test_labels_are_independent_streams():
    a = DeterministicStream(42, "governance")
    b = DeterministicStream(42, "audit")
    assert [a.u64() for _ in range(10)] != [b.u64() for _ in range(10)]


def test_seed_changes_sequence():
    assert DeterministicStream(1, "x").u64() != DeterministicStream(2, "x").u64()


def test_randbelow_range_and_coverage():
    stream = DeterministicStream(7, "t")
    draws = [stream.randbelow(5) for _ in range(500)]
    assert all(0 <= d < 5 for d in draws)
    assert set(draws) == {0, 1, 2, 3, 4}


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        DeterministicStream(0, "t").randbelow(0)


def random(stream):
    """A uniform float in [0, 1) with 53 bits of precision, from the stream's draws."""
    return (stream.u64() >> 11) / float(1 << 53)


def test_random_unit_interval():
    stream = DeterministicStream(3, "t")
    values = [random(stream) for _ in range(200)]
    assert all(0.0 <= v < 1.0 for v in values)


def test_sample_distinct():
    stream = DeterministicStream(9, "t")
    population = list(range(20))
    picked = stream.sample(population, 8)
    assert len(set(picked)) == 8
    assert all(p in population for p in picked)


def test_sample_too_large():
    with pytest.raises(ValueError):
        DeterministicStream(0, "t").sample([1, 2], 3)


def shuffle(stream, seq):
    """Fisher-Yates over ``seq`` in place, with the stream's draws."""
    for i in range(len(seq) - 1, 0, -1):
        j = stream.randbelow(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def test_shuffle_is_permutation_and_deterministic():
    a, b = list(range(30)), list(range(30))
    shuffle(DeterministicStream(5, "s"), a)
    shuffle(DeterministicStream(5, "s"), b)
    assert a == b
    assert Counter(a) == Counter(range(30))


def test_bytes_requested_length():
    stream = DeterministicStream(11, "t")
    assert len(stream.bytes_(32)) == 32
    assert len(stream.bytes_(7)) == 7
