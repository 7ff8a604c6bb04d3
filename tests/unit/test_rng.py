"""Tests for deterministic RNG derivation."""

import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.util.rng as rng_module
from repro.util.rng import POOL_SIZE, Seed, StreamFamily, derive_seed_int


class TestDeriveSeedInt:
    def test_same_path_same_seed(self):
        assert derive_seed_int(42, ["a", "b"]) == derive_seed_int(42, ["a", "b"])

    def test_different_root_different_seed(self):
        assert derive_seed_int(42, ["a"]) != derive_seed_int(43, ["a"])

    def test_different_path_different_seed(self):
        assert derive_seed_int(42, ["a"]) != derive_seed_int(42, ["b"])

    def test_path_parts_not_concatenation_ambiguous(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert derive_seed_int(0, ["ab", "c"]) != derive_seed_int(0, ["a", "bc"])

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed_int(7, ["x"]) < 2**64


class TestSeed:
    def test_rng_streams_reproducible(self):
        a = Seed(1).rng("auction", 5)
        b = Seed(1).rng("auction", 5)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_rng_streams_independent(self):
        a = Seed(1).rng("auction", 5)
        b = Seed(1).rng("auction", 6)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_derive_equivalent_to_nested_path(self):
        child = Seed(9).derive("alexa")
        assert child.rng("x").random() == Seed(9).derive("alexa").rng("x").random()

    def test_returns_stdlib_random(self):
        assert isinstance(Seed(0).rng("z"), random.Random)

    def test_rejects_non_int_root(self):
        with pytest.raises(TypeError):
            Seed("42")  # type: ignore[arg-type]

    def test_equality_and_hash(self):
        assert Seed(5) == Seed(5)
        assert Seed(5) != Seed(6)
        assert len({Seed(5), Seed(5), Seed(6)}) == 2

    def test_repr(self):
        assert repr(Seed(12)) == "Seed(12)"


#: Three families, as a world holds them: two under one seed, one under
#: another.  Each gets more keys than the pool holds.
FAMILIES = [
    (Seed(7), ("faults", "mild")),
    (Seed(7), ("voice", "asr")),
    (Seed(8), ("skill-backend", "skill-1")),
]
KEYS_PER_FAMILY = POOL_SIZE + 32


def _key(family: int, k: int, as_text: bool) -> tuple:
    """Key ``k`` of ``family``, with its non-string parts or as text."""
    parts = [("device", k), (k,), (k, k % 3)][family]
    return tuple(map(str, parts)) if as_text else parts


def _reference(seed: Seed, namespace: tuple, key: tuple, draws: int) -> list:
    """The first ``draws`` of ``seed.rng(*namespace, *key)``, in order."""
    rng = seed.rng(*namespace, *key)
    return [rng.random() for _ in range(draws)]


#: Every (family, key) twice, so each key is drawn again after the pool
#: has turned over.
STEPS = [(f, k) for f in range(len(FAMILIES)) for k in range(KEYS_PER_FAMILY)] * 2


class TestStreamFamilyReplay:
    @settings(max_examples=15, deadline=None)
    @given(
        st.permutations(STEPS),
        st.lists(st.booleans(), min_size=len(STEPS), max_size=len(STEPS)),
    )
    def test_any_interleaving_draws_each_keys_sequential_stream(self, steps, as_text):
        families = [StreamFamily(seed, *namespace) for seed, namespace in FAMILIES]
        drawn = {}
        for (f, k), text in zip(steps, as_text):
            drawn.setdefault((f, k), []).append(families[f].random(*_key(f, k, text)))
        for (f, k), draws in drawn.items():
            seed, namespace = FAMILIES[f]
            assert draws == _reference(seed, namespace, _key(f, k, False), len(draws))
        assert len(rng_module._POOL) <= POOL_SIZE

    def test_an_evicted_key_replays_its_draws(self):
        seed, namespace = FAMILIES[1]
        family = StreamFamily(seed, *namespace)
        first = [family.random("k") for _ in range(5)]
        for k in range(POOL_SIZE):
            family.random(k)
        assert family._slots[("k",)][2] is None
        later = [family.random("k") for _ in range(3)]
        assert first + later == _reference(seed, namespace, ("k",), 8)

    def test_each_key_derives_its_seed_once(self, monkeypatch):
        counts = Counter()
        derive = rng_module.derive_seed_int

        def counting(root, parts):
            counts[tuple(parts)] += 1
            return derive(root, parts)

        monkeypatch.setattr(rng_module, "derive_seed_int", counting)
        family = StreamFamily(Seed(3), "ns")
        for _ in range(3):
            for k in range(POOL_SIZE + 10):
                family.random(k)
        assert len(counts) == POOL_SIZE + 10
        assert set(counts.values()) == {1}


class TestStreamFamilyThreads:
    """A world belongs to one thread, but the pool is shared: another
    thread's draws can evict a key's generator at any point, and the
    key's owner must still see its sequential stream."""

    KEYS = list(range(POOL_SIZE + 32))

    @staticmethod
    def _in_two_threads(worker):
        """``[worker(0), worker(1)]``, run at once in two threads, each
        drawing from its own ``StreamFamily(Seed(11), "ns")``."""
        results = [None, None]

        def run(index):
            results[index] = worker(index, StreamFamily(Seed(11), "ns"))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    @staticmethod
    def _expected(draws_per_key):
        return {k: _reference(Seed(11), ("ns",), (k,), n) for k, n in draws_per_key.items()}

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.sampled_from(KEYS), min_size=300, max_size=400))
    def test_lockstep_threads_each_draw_the_reference(self, keys):
        barrier = threading.Barrier(2, timeout=30)

        def worker(index, family):
            drawn = {}
            for k in keys if index == 0 else keys[::-1]:
                barrier.wait()
                drawn.setdefault(k, []).append(family.random(k))
            return drawn

        expected = self._expected(Counter(keys))
        assert self._in_two_threads(worker) == [expected, expected]

    def test_free_running_threads_each_draw_the_reference(self):
        """Switching threads every microsecond lands evictions between
        a draw's lookup and its use."""
        rounds = 20

        def worker(index, family):
            drawn = {}
            for _ in range(rounds):
                for k in self.KEYS if index == 0 else self.KEYS[::-1]:
                    drawn.setdefault(k, []).append(family.random(k))
            return drawn

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = self._in_two_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        expected = self._expected({k: rounds for k in self.KEYS})
        assert results == [expected, expected]
