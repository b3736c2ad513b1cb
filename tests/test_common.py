"""Identifiers and seeded randomness."""

from hypothesis import given, strategies as st

from repro.common.ids import correlation_id, short_hash
from repro.common.rng import SeededRng


class TestIds:
    def test_short_hash_is_deterministic(self):
        assert short_hash({"a": 1}) == short_hash({"a": 1})

    def test_short_hash_respects_length(self):
        assert len(short_hash("x", length=8)) == 8

    def test_correlation_id_ignores_key_order(self):
        assert correlation_id({"a": 1, "b": 2}) == correlation_id({"b": 2, "a": 1})

    def test_correlation_id_is_full_width(self):
        assert len(correlation_id("x")) == 64

    @given(st.dictionaries(st.text(max_size=5), st.integers(), max_size=4))
    def test_correlation_distinct_for_distinct_values(self, value):
        tweaked = dict(value)
        tweaked["__extra__"] = 1
        assert correlation_id(value) != correlation_id(tweaked)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(7).fork("x")
        b = SeededRng(7).fork("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_give_independent_streams(self):
        root = SeededRng(7)
        a = root.fork("a")
        b = root.fork("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_stable_under_sibling_creation(self):
        # Adding a new consumer must not perturb existing streams.
        root1 = SeededRng(7)
        stream1 = root1.fork("target")
        values1 = [stream1.random() for _ in range(5)]

        root2 = SeededRng(7)
        root2.fork("new-sibling")  # extra fork before the target
        stream2 = root2.fork("target")
        values2 = [stream2.random() for _ in range(5)]
        assert values1 == values2

    def test_expovariate_positive(self, rng):
        assert all(rng.expovariate(2.0) > 0 for _ in range(100))

    def test_expovariate_rejects_bad_rate(self, rng):
        import pytest

        with pytest.raises(ValueError):
            rng.expovariate(0)

    def test_choice_rejects_empty(self, rng):
        import pytest

        with pytest.raises(ValueError):
            rng.choice([])

    def test_zipf_index_in_range(self, rng):
        draws = [rng.zipf_index(10) for _ in range(500)]
        assert all(0 <= draw < 10 for draw in draws)

    def test_zipf_is_skewed_toward_low_indices(self, rng):
        draws = [rng.zipf_index(50, skew=1.2) for _ in range(2000)]
        head = sum(1 for draw in draws if draw < 5)
        tail = sum(1 for draw in draws if draw >= 45)
        assert head > tail * 3

    def test_zipf_rejects_empty_domain(self, rng):
        import pytest

        with pytest.raises(ValueError):
            rng.zipf_index(0)

    def test_sample_follows_the_seed(self):
        population = list(range(20))
        first = SeededRng(7).fork("s").sample(population, 5)
        assert SeededRng(7).fork("s").sample(population, 5) == first
        assert len(set(first)) == 5

    def test_sample(self, rng):
        population = list(range(20))
        sample = rng.sample(population, 5)
        assert len(sample) == 5 and set(sample) <= set(population)
