"""Unit and property tests for the memory hierarchy substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import AccessLevel, Hierarchy, HierarchyConfig


def tiny_cache(size=1024, assoc=2, line=64):
    return Cache(CacheConfig(size_bytes=size, associativity=assoc, line_bytes=line))


class TestCacheConfig:
    def test_geometry(self):
        cfg = CacheConfig(size_bytes=32 * 1024, associativity=4)
        assert cfg.num_sets == 128
        assert cfg.line_shift == 6

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, associativity=2, line_bytes=48)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=3 * 64 * 2, associativity=2, line_bytes=64)


class TestCache:
    def test_miss_then_hit(self):
        c = tiny_cache()
        assert not c.access(0x1000)
        assert c.access(0x1000)
        assert c.access(0x1004)  # same line
        assert c.hits == 2 and c.misses == 1

    def test_lru_eviction(self):
        # 2-way: fill a set with two lines, touch the first, add a third:
        # the second (LRU) must be evicted.
        c = tiny_cache(size=2 * 64 * 8, assoc=2)  # 8 sets
        stride = 8 * 64  # same-set stride
        a, b, d = 0, stride, 2 * stride
        c.access(a)
        c.access(b)
        c.access(a)  # a is MRU
        c.access(d)  # evicts b
        assert c.probe(a)
        assert not c.probe(b)
        assert c.probe(d)

    def test_probe_does_not_mutate(self):
        c = tiny_cache()
        c.access(0)
        hits, misses = c.hits, c.misses
        assert c.probe(0)
        assert not c.probe(1 << 20)
        assert (c.hits, c.misses) == (hits, misses)

    def test_fill_installs_without_counting(self):
        c = tiny_cache()
        c.fill(0x2000)
        assert c.accesses == 0
        assert c.access(0x2000)

    def test_invalidate(self):
        c = tiny_cache()
        c.access(0x40)
        assert c.invalidate(0x40)
        assert not c.invalidate(0x40)
        assert not c.probe(0x40)

    def test_flush_and_occupancy(self):
        c = tiny_cache()
        for i in range(5):
            c.access(i * 64)
        assert c.occupancy() == 5
        c.flush()
        assert c.occupancy() == 0

    def test_miss_ratio(self):
        c = tiny_cache()
        c.access(0)
        c.access(0)
        assert c.miss_ratio == 0.5
        c.reset_stats()
        assert c.miss_ratio == 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
def test_cache_occupancy_bounded_property(line_ids):
    """Occupancy never exceeds capacity; re-access of a resident line hits."""
    c = tiny_cache(size=4 * 64 * 4, assoc=4)  # 16 lines capacity
    capacity = 16
    for line in line_ids:
        c.access(line * 64)
        assert c.occupancy() <= capacity
    # Whatever probe says is consistent with an immediate access.
    for line in sorted(set(line_ids)):
        resident = c.probe(line * 64)
        assert c.access(line * 64) == resident


class _MRUListCache:
    """Reference model: the pre-optimization MRU-ordered-list cache.

    ``repro.memory.cache.Cache`` replaced per-set MRU lists with a
    per-set age counter; this model keeps the original representation
    so the property below can prove the two agree on *every* hit/miss
    outcome and on the exact eviction order.
    """

    def __init__(self, num_sets, assoc, line_shift=6):
        self._sets = [[] for _ in range(num_sets)]
        self._mask = num_sets - 1
        self._shift = line_shift
        self._assoc = assoc

    def access(self, addr):
        line = addr >> self._shift
        ways = self._sets[line & self._mask]
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            return True, None
        ways.insert(0, line)
        victim = ways.pop() if len(ways) > self._assoc else None
        return False, victim


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["access", "fill", "invalidate"]),
            st.integers(0, 127),
        ),
        min_size=1,
        max_size=300,
    )
)
def test_age_counter_matches_mru_list_eviction_order(ops):
    """The age-counter LRU evicts exactly what the MRU list would.

    Every access outcome (hit/miss) and every victim choice must match
    the reference model, op for op — the representation change is pure
    mechanism.  Evictions are observed as residency lost across an
    access that did not invalidate the line.
    """
    num_sets, assoc = 4, 4
    c = tiny_cache(size=num_sets * assoc * 64, assoc=assoc)
    model = _MRUListCache(num_sets, assoc)
    resident = set()
    for op, line_id in ops:
        addr = line_id * 64
        if op == "invalidate":
            was_resident = addr >> 6 in resident
            assert c.invalidate(addr) == was_resident
            resident.discard(addr >> 6)
            ways = model._sets[(addr >> 6) & model._mask]
            if addr >> 6 in ways:
                ways.remove(addr >> 6)
            continue
        hit, victim = model.access(addr)
        if op == "access":
            assert c.access(addr) == hit
        else:
            c.fill(addr)  # same replacement path, no stat counting
        resident.add(addr >> 6)
        if victim is not None:
            resident.discard(victim)
            assert not c.probe(victim * 64)
        # Full residency agreement, not just the victim just chosen.
        for line in resident:
            assert c.probe(line * 64)
    assert c.occupancy() == len(resident)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=100))
def test_fully_associative_set_is_true_lru(addresses):
    """With one set, the cache keeps exactly the most recent lines."""
    assoc = 8
    c = tiny_cache(size=assoc * 64, assoc=assoc)
    seen = []
    for a in addresses:
        line = a * 64
        c.access(line)
        if line in seen:
            seen.remove(line)
        seen.append(line)
    expected = seen[-assoc:]
    for line in expected:
        assert c.probe(line)


class TestHierarchy:
    def test_default_matches_paper(self):
        h = Hierarchy()
        assert h.config.l1i.size_bytes == 32 * 1024
        assert h.config.l1d.size_bytes == 32 * 1024
        assert h.config.l2.size_bytes == 2 * 1024 * 1024

    def test_miss_goes_offchip_once(self):
        h = Hierarchy()
        assert h.access_data(0x5000_0000) == AccessLevel.OFFCHIP
        assert h.access_data(0x5000_0000) == AccessLevel.L1
        assert h.offchip_accesses == 1

    def test_l2_hit_after_l1_eviction(self):
        h = Hierarchy()
        target = 0x1000
        assert h.access_data(target) == AccessLevel.OFFCHIP
        # Evict from the (32KB, 4-way) L1 by filling its set.
        l1_sets = h.config.l1d.num_sets
        for way in range(8):
            h.access_data(target + (way + 1) * l1_sets * 64)
        assert h.access_data(target) == AccessLevel.L2

    def test_shared_l2_serves_instructions(self):
        h = Hierarchy()
        pc = 0x0040_0000
        assert h.access_instruction(pc) == AccessLevel.OFFCHIP
        assert h.access_instruction(pc) == AccessLevel.L1

    def test_fill_data_prevents_miss(self):
        h = Hierarchy()
        h.fill_data(0x7000)
        assert h.access_data(0x7000) == AccessLevel.L1
        assert h.offchip_accesses == 0

    def test_with_l2_size(self):
        cfg = HierarchyConfig().with_l2_size(512 * 1024)
        assert cfg.l2.size_bytes == 512 * 1024
        assert cfg.l1d.size_bytes == 32 * 1024

    def test_reset_stats(self):
        h = Hierarchy()
        h.access_data(0)
        h.access_instruction(0)
        h.reset_stats()
        assert h.offchip_accesses == 0
        assert h.l1d.accesses == 0
