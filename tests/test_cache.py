"""Tests for the set-associative cache model."""

import pytest

from repro.mem.cache import LINE_DIRTY, LINE_PAGE_TABLE, Cache


def make_cache(size=1024, assoc=2, latency=4):
    return Cache("test", size_bytes=size, associativity=assoc, latency=latency)


def _flags(cache, address):
    """The flag word of the resident line holding ``address``."""
    line = cache.line_address(address)
    return cache._sets[cache._set_index(line)][line]


class TestGeometry:
    def test_sets_computed_from_geometry(self):
        cache = make_cache(size=1024, assoc=2)
        assert cache.num_sets == 1024 // (2 * 64)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache("bad", size_bytes=1000, associativity=3, latency=1)
        with pytest.raises(ValueError):
            Cache("bad", size_bytes=0, associativity=1, latency=1)

    def test_line_address_alignment(self):
        cache = make_cache()
        assert cache.line_address(0x12345) == 0x12345 & ~63


class TestAccessAndFill:
    def test_miss_then_fill_then_hit(self):
        cache = make_cache()
        assert not cache.access(0x1000)
        cache.fill(0x1000)
        assert cache.access(0x1000)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_line_offsets_hit(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.access(0x103F)

    def test_lru_eviction_within_set(self):
        cache = make_cache(size=128, assoc=1)  # 2 sets, direct mapped
        cache.fill(0x0000)
        victim = cache.fill(0x0000 + 128)  # same set (2 sets * 64B)
        assert victim == (0x0000, 0)
        assert not cache.contains(0x0000)

    def test_write_sets_dirty_and_writeback_counted(self):
        cache = make_cache(size=128, assoc=1)
        cache.fill(0x0000, is_write=True)
        victim = cache.fill(0x0000 + 128)
        assert victim == (0x0000, LINE_DIRTY)
        assert cache.stats.writebacks == 1

    def test_fill_preserves_page_table_flag(self):
        cache = make_cache()
        cache.fill(0x2000, is_page_table=True)
        cache.fill(0x2000)  # refresh without the flag
        assert _flags(cache, 0x2000) == LINE_PAGE_TABLE
        cache.fill(0x2000, is_write=True)  # a refresh ORs the bits in
        assert _flags(cache, 0x2000) == LINE_PAGE_TABLE | LINE_DIRTY

    def test_access_write_marks_dirty(self):
        cache = make_cache(size=128, assoc=1)
        cache.fill(0x0000)
        cache.access(0x0000)
        assert _flags(cache, 0x0000) == 0
        cache.access(0x0000, is_write=True)
        assert _flags(cache, 0x0000) == LINE_DIRTY
        victim = cache.fill(0x0080)
        assert victim == (0x0000, LINE_DIRTY)

    def test_victim_carries_both_flags(self):
        cache = make_cache(size=128, assoc=1)
        cache.fill(0x0000, is_write=True, is_page_table=True)
        assert cache.fill(0x0080) == (0x0000, LINE_DIRTY | LINE_PAGE_TABLE)
        assert cache.stats.writebacks == 1

    def test_write_access_keeps_lru_position(self):
        cache = make_cache(size=128, assoc=2)  # 1 set, 2 ways
        cache.fill(0x0000)
        cache.fill(0x0040)
        cache.access(0x0000, is_write=True)  # now most recently used
        assert cache.fill(0x0080) == (0x0040, 0)


class TestInvalidation:
    def test_invalidate_specific_line(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.invalidate(0x1000)
        assert not cache.contains(0x1000)

    def test_flush_clears_all(self):
        cache = make_cache()
        for i in range(10):
            cache.fill(0x1000 + i * 64)
        assert cache.flush() == 10
        assert len(cache) == 0
