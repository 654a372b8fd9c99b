"""Tests for the memory image, caches, and hierarchy."""

import random

import pytest

from repro.memsys.cache import Cache, CacheConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.memimg import MemoryImage


class TestMemoryImage:
    def test_reads_zero_by_default(self):
        assert MemoryImage().read(0x1234_5670, 8) == 0

    def test_write_read_roundtrip_4(self):
        mem = MemoryImage()
        mem.write(0x100, 0xDEADBEEF, 4)
        assert mem.read(0x100, 4) == 0xDEADBEEF

    def test_write_read_roundtrip_8(self):
        mem = MemoryImage()
        mem.write(0x100, 0x0123_4567_89AB_CDEF, 8)
        assert mem.read(0x100, 8) == 0x0123_4567_89AB_CDEF
        assert mem.read(0x100, 4) == 0x89AB_CDEF
        assert mem.read(0x104, 4) == 0x0123_4567

    def test_partial_overwrite(self):
        mem = MemoryImage()
        mem.write(0x100, 0x1111_1111_2222_2222, 8)
        mem.write(0x104, 0x33, 4)
        assert mem.read(0x100, 8) == (0x33 << 32) | 0x2222_2222

    def test_equality_ignores_explicit_zeros(self):
        a, b = MemoryImage(), MemoryImage()
        a.write(0x100, 0, 4)
        assert a == b

    def test_copy_is_independent(self):
        a = MemoryImage()
        a.write(0x100, 5, 4)
        b = a.copy()
        b.write(0x100, 9, 4)
        assert a.read(0x100, 4) == 5

    def test_initial_contents(self):
        mem = MemoryImage({0x10: 3, 0x14: 4})
        assert mem.read(0x10, 8) == (4 << 32) | 3


class TestCache:
    def _small(self, assoc=2):
        # 4 sets x assoc x 64B lines.
        return Cache(CacheConfig("t", 4 * assoc * 64, assoc))

    def test_cold_miss_then_hit(self):
        cache = self._small()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.access(0x1038)  # same line

    def test_lru_eviction_order(self):
        cache = self._small(assoc=2)
        # Three lines mapping to the same set (set stride = 4 * 64).
        a, b, c = 0x0, 4 * 64, 8 * 64
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is now MRU
        cache.access(c)  # evicts b (LRU)
        assert cache.probe(a)
        assert not cache.probe(b)
        assert cache.probe(c)

    def test_invalidate(self):
        cache = self._small()
        cache.access(0x2000)
        assert cache.invalidate(0x2000)
        assert not cache.probe(0x2000)
        assert not cache.invalidate(0x2000)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 3 * 64, 1)  # 3 sets: not a power of two

    def test_bank_interleaving(self):
        config = CacheConfig("b", 32 * 1024, 2, banks=2)
        assert config.bank_of(0x0) != config.bank_of(64)
        assert config.bank_of(0x0) == config.bank_of(128)

    def test_miss_rate_accounting(self):
        cache = self._small()
        cache.access(0x0)
        cache.access(0x0)
        assert cache.accesses == 2
        assert cache.miss_rate == pytest.approx(0.5)


class EagerCache:
    """Reference model: every set allocated up front, LRU by stamp."""

    def __init__(self, config: CacheConfig) -> None:
        self.sets = [dict() for _ in range(config.sets)]
        self.line_bytes = config.line_bytes
        self.assoc = config.assoc
        self.stamp = 0
        self.hits = self.misses = 0

    def _ways(self, addr):
        line = addr // self.line_bytes
        return self.sets[line % len(self.sets)], line

    def access(self, addr):
        """Returns (hit, evicted line or None)."""
        ways, line = self._ways(addr)
        self.stamp += 1
        if line in ways:
            ways[line] = self.stamp
            self.hits += 1
            return True, None
        self.misses += 1
        victim = None
        if len(ways) >= self.assoc:
            victim = min(ways, key=ways.get)
            del ways[victim]
        ways[line] = self.stamp
        return False, victim

    def probe(self, addr):
        ways, line = self._ways(addr)
        return line in ways

    def invalidate(self, addr):
        ways, line = self._ways(addr)
        return ways.pop(line, None) is not None

    def flash_clear(self):
        for ways in self.sets:
            ways.clear()


class TestLazySets:
    """Sets allocated on first touch behave exactly like eager ones."""

    @staticmethod
    def _resident(cache: Cache) -> dict[int, dict[int, int]]:
        return {index: dict(ways) for index, ways in cache._sets.items() if ways}

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("assoc", [1, 2, 8])
    def test_matches_eager_reference(self, seed, assoc):
        config = CacheConfig("t", 16 * assoc * 64, assoc)
        cache, eager = Cache(config), EagerCache(config)
        rng = random.Random(seed)
        lines = [rng.randrange(1 << 20) * 64 for _ in range(4 * 16 * assoc)]
        for _ in range(3000):
            addr = rng.choice(lines) + rng.randrange(64)
            op = rng.random()
            if op < 0.8:
                before = self._resident(cache)
                hit, victim = eager.access(addr)
                assert cache.access(addr) == hit
                after = self._resident(cache)
                evicted = {
                    line
                    for index, ways in before.items()
                    for line in ways
                    if line not in after.get(index, {})
                }
                assert evicted == (set() if victim is None else {victim})
            elif op < 0.9:
                assert cache.probe(addr) == eager.probe(addr)
            elif op < 0.99:
                assert cache.invalidate(addr) == eager.invalidate(addr)
            else:
                cache.flash_clear()
                eager.flash_clear()
            assert self._resident(cache) == {
                index: ways for index, ways in enumerate(eager.sets) if ways
            }
        assert (cache.hits, cache.misses) == (eager.hits, eager.misses)

    def test_sets_allocated_on_touch_only(self):
        cache = Cache(CacheConfig("L2", 2 * 1024 * 1024, 8))
        assert len(cache._sets) == 0
        assert not cache.probe(0x4000)
        assert not cache.invalidate(0x4000)
        assert len(cache._sets) == 0
        cache.access(0x4000)
        assert len(cache._sets) == 1
        cache.flash_clear()
        assert len(cache._sets) == 0
        assert not cache.probe(0x4000)


class TestHierarchy:
    def test_l1_hit_latency(self):
        hierarchy = MemoryHierarchy()
        first = hierarchy.load_access(0x5000)
        second = hierarchy.load_access(0x5000)
        assert second == hierarchy.config.l1d.latency
        assert first > second

    def test_miss_latency_ordering(self):
        hierarchy = MemoryHierarchy()
        cold = hierarchy.load_access(0x9000)  # L1+L2+memory
        assert cold == (
            hierarchy.config.l1d.latency
            + hierarchy.config.l2.latency
            + hierarchy.config.memory_latency
        )

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load_access(0x9000)
        # Touch enough conflicting lines to evict 0x9000 from the L1
        # (32KB 2-way, 64B lines -> 256 sets; stride 256*64).
        stride = 256 * 64
        for i in range(1, 3):
            hierarchy.load_access(0x9000 + i * stride)
        latency = hierarchy.load_access(0x9000)
        assert latency == hierarchy.config.l1d.latency + hierarchy.config.l2.latency

    def test_store_port_occupancy_is_one_cycle(self):
        hierarchy = MemoryHierarchy()
        assert hierarchy.store_access(0x100) == 1

    def test_invalidate_removes_from_both_levels(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load_access(0x7000)
        hierarchy.invalidate(0x7000)
        assert hierarchy.load_access(0x7000) > hierarchy.config.l1d.latency
