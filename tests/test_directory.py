"""Tests for the dual-grain coherence directory."""

import pytest

from repro.coherence.directory import CoherenceDirectory, SharerKind


def make_directory(**kwargs):
    defaults = dict(num_cpus=4, capacity=16)
    defaults.update(kwargs)
    return CoherenceDirectory(**defaults)


class TestFillsAndSharers:
    def test_record_fill_adds_sharer(self):
        directory = make_directory()
        directory.record_fill(0x1000, 1)
        assert directory.sharers_of(0x1000) == {1}

    def test_multiple_sharers_accumulate(self):
        directory = make_directory()
        directory.record_fill(0x1000, 0)
        directory.record_fill(0x1000, 2, kind=SharerKind.TLB, is_nested_pt=True)
        assert directory.sharers_of(0x1000) == {0, 2}
        entry = directory.lookup(0x1000)
        assert entry.is_nested_pt
        assert not entry.is_guest_pt

    def test_invalid_cpu_rejected(self):
        directory = make_directory()
        with pytest.raises(ValueError):
            directory.record_fill(0x1000, 9)

    def test_mark_page_table_line_sets_bits(self):
        directory = make_directory()
        directory.mark_page_table_line(0x40, nested=True)
        directory.mark_page_table_line(0x40, guest=True)
        entry = directory.lookup(0x40)
        assert entry.is_nested_pt and entry.is_guest_pt


class TestWrites:
    def test_write_returns_other_sharers(self):
        directory = make_directory()
        directory.record_fill(0x1000, 0)
        directory.record_fill(0x1000, 1)
        directory.record_fill(0x1000, 2)
        outcome = directory.record_write(0x1000, writer=1)
        assert outcome.invalidate_cpus == {0, 2}

    def test_write_makes_writer_exclusive(self):
        directory = make_directory()
        directory.record_fill(0x1000, 0)
        directory.record_write(0x1000, writer=3)
        assert directory.sharers_of(0x1000) == {3}

    def test_write_reports_page_table_bits(self):
        directory = make_directory()
        directory.record_fill(0x1000, 0, is_nested_pt=True)
        outcome = directory.record_write(0x1000, writer=1)
        assert outcome.is_nested_pt
        assert directory.stats.pt_writes_observed == 1

    def test_write_to_untracked_line_allocates_entry(self):
        directory = make_directory()
        outcome = directory.record_write(0x2000, writer=0)
        assert outcome.invalidate_cpus == frozenset()
        assert directory.sharers_of(0x2000) == {0}


class TestEvictionsAndLaziness:
    def test_non_pt_eviction_removes_sharer(self):
        directory = make_directory()
        directory.record_fill(0x1000, 0)
        directory.record_eviction(0x1000, 0)
        assert directory.sharers_of(0x1000) == frozenset()

    def test_pt_eviction_is_lazy_by_default(self):
        directory = make_directory()
        directory.record_fill(0x1000, 0, is_nested_pt=True)
        directory.record_eviction(0x1000, 0)
        assert directory.sharers_of(0x1000) == {0}

    def test_pt_eviction_eager_when_configured(self):
        directory = make_directory(lazy_pt_sharer_updates=False)
        directory.record_fill(0x1000, 0, is_nested_pt=True)
        directory.record_eviction(0x1000, 0)
        assert directory.sharers_of(0x1000) == frozenset()

    def test_spurious_invalidation_demotes_sharer(self):
        directory = make_directory()
        directory.record_fill(0x1000, 0, is_nested_pt=True)
        directory.record_fill(0x1000, 1, is_nested_pt=True)
        directory.note_spurious_invalidation(0x1000, 0)
        assert directory.sharers_of(0x1000) == {1}
        assert directory.stats.spurious_invalidations == 1
        assert directory.stats.sharer_demotions == 1


class TestCapacityAndBackInvalidation:
    def test_capacity_eviction_returns_back_invalidation(self):
        directory = make_directory(capacity=2)
        directory.record_fill(0x1000, 0)
        directory.record_fill(0x2000, 1)
        back = directory.record_fill(0x3000, 2)
        assert len(back) == 1
        assert back[0].line == 0x1000
        assert back[0].cpus == {0}
        assert directory.stats.back_invalidations == 1

    def test_infinite_directory_never_back_invalidates(self):
        directory = make_directory(capacity=None)
        for i in range(100):
            assert directory.record_fill(0x1000 + 64 * i, i % 4) == []
        assert directory.stats.back_invalidations == 0

    def test_lru_order_respects_recent_lookups(self):
        directory = make_directory(capacity=2)
        directory.record_fill(0x1000, 0)
        directory.record_fill(0x2000, 1)
        directory.lookup(0x1000)  # refresh
        back = directory.record_fill(0x3000, 2)
        assert back[0].line == 0x2000


class TestFineGrainedTracking:
    def test_fine_grained_tracks_structure_kinds(self):
        directory = make_directory(fine_grained=True)
        directory.record_fill(0x1000, 0, kind=SharerKind.TLB, is_nested_pt=True)
        directory.record_fill(0x1000, 1, kind=SharerKind.CACHE)
        entry = directory.lookup(0x1000)
        assert entry.fine_sharers == {SharerKind.TLB: 0b01, SharerKind.CACHE: 0b10}

    def test_fine_grained_write_targets_union_of_kinds(self):
        directory = make_directory(fine_grained=True)
        directory.record_fill(0x1000, 0, kind=SharerKind.TLB)
        directory.record_fill(0x1000, 1, kind=SharerKind.MMU_CACHE)
        outcome = directory.record_write(0x1000, writer=2)
        assert outcome.invalidate_cpus == {0, 1}

    def test_kind_emptied_by_eviction_keeps_its_zero_mask(self):
        directory = make_directory(num_cpus=16, fine_grained=True)
        directory.record_fill(0x1000, 10, kind=SharerKind.TLB)
        directory.record_fill(0x1000, 13, kind=SharerKind.CACHE)
        directory.record_eviction(0x1000, 10, kind=SharerKind.TLB)
        entry = directory.lookup(0x1000)
        assert entry.fine_sharers == {SharerKind.TLB: 0, SharerKind.CACHE: 1 << 13}
        assert directory.sharers_of(0x1000) == {13}

    def test_coarse_entries_hold_no_fine_vectors(self):
        directory = make_directory()
        directory.record_fill(0x1000, 0, kind=SharerKind.TLB)
        assert directory.lookup(0x1000).fine_sharers is None


class TestSharerBitVectors:
    """Sharers are a CPU bit-vector, handed out as frozensets."""

    def test_sharers_are_a_cpu_bit_vector(self):
        directory = make_directory(num_cpus=16)
        directory.record_fill(0x1000, 12)
        directory.record_fill(0x1000, 4)
        assert directory.lookup(0x1000).sharers == 1 << 12 | 1 << 4
        assert directory.sharers_of(0x1000) == {4, 12}

    def test_write_counts_targets_by_popcount(self):
        directory = make_directory(num_cpus=16)
        for cpu in (15, 3, 8, 0):
            directory.record_fill(0x1000, cpu)
        outcome = directory.record_write(0x1000, writer=8)
        assert isinstance(outcome.invalidate_cpus, frozenset)
        assert outcome.invalidate_cpus == {0, 3, 15}
        assert directory.stats.invalidations_sent == 3
        assert directory.lookup(0x1000).sharers == 1 << 8

    def test_back_invalidation_names_every_sharer(self):
        directory = make_directory(num_cpus=16, capacity=1)
        directory.record_fill(0x1000, 9)
        directory.record_fill(0x1000, 14)
        [back] = directory.record_fill(0x2000, 1)
        assert isinstance(back.cpus, frozenset)
        assert back.cpus == {9, 14}
