"""Unit tests for the reproducible random-stream factory."""

import numpy as np
import pytest

from repro.sim.random import RandomStreams


class TestRandomStreams:
    def test_same_key_returns_same_generator_object(self):
        streams = RandomStreams(1)
        assert streams.get("a", 1) is streams.get("a", 1)

    def test_different_keys_produce_different_draws(self):
        streams = RandomStreams(1)
        a = streams.get("a").uniform(size=8)
        b = streams.get("b").uniform(size=8)
        assert not np.allclose(a, b)

    def test_same_seed_reproduces_draws(self):
        first = RandomStreams(99).get("app", "work", 0, 1).uniform(size=16)
        second = RandomStreams(99).get("app", "work", 0, 1).uniform(size=16)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").uniform(size=8)
        b = RandomStreams(2).get("x").uniform(size=8)
        assert not np.allclose(a, b)

    def test_fresh_replays_the_stream(self):
        streams = RandomStreams(5)
        first = streams.get("k").uniform(size=4)
        replay = streams.fresh("k").uniform(size=4)
        np.testing.assert_array_equal(first, replay)

    def test_spawn_creates_independent_namespace(self):
        parent = RandomStreams(7)
        child = parent.spawn("sub")
        assert child.seed != parent.seed
        a = parent.get("x").uniform(size=4)
        b = child.get("x").uniform(size=4)
        assert not np.allclose(a, b)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_keys_lists_created_streams(self):
        streams = RandomStreams(3)
        streams.get("one")
        streams.get("two", 2)
        assert set(streams.keys()) == {("one",), ("two", 2)}


class TestNamedDerivation:
    def test_derive_is_reproducible_across_instances(self):
        first = RandomStreams(11).derive("shard", 0).get("work").uniform(size=8)
        second = RandomStreams(11).derive("shard", 0).get("work").uniform(size=8)
        np.testing.assert_array_equal(first, second)

    def test_derive_does_not_perturb_parent_streams(self):
        expected = RandomStreams(11).get("work").uniform(size=8)
        streams = RandomStreams(11)
        streams.derive("shard", 0).get("work")  # derivation must be side-effect free
        np.testing.assert_array_equal(streams.get("work").uniform(size=8), expected)

    def test_derived_names_are_independent(self):
        streams = RandomStreams(11)
        a = streams.derive("shard", 0).get("work").uniform(size=8)
        b = streams.derive("shard", 1).get("work").uniform(size=8)
        c = streams.get("work").uniform(size=8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_nested_derivation_extends_the_path(self):
        streams = RandomStreams(11)
        child = streams.derive("outer")
        grandchild = child.derive("inner")
        assert streams.path == ()
        assert len(child.path) == 1
        assert len(grandchild.path) == 2
        assert grandchild.path[:1] == child.path
        a = child.get("x").uniform(size=8)
        b = grandchild.get("x").uniform(size=8)
        assert not np.allclose(a, b)

    def test_derive_requires_a_name(self):
        with pytest.raises(ValueError):
            RandomStreams(11).derive()

    def test_derive_preserves_seed(self):
        assert RandomStreams(42).derive("sub").seed == 42
