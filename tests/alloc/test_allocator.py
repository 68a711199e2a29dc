"""Unit + property tests for the far-memory allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc import FarAllocator, PlacementHint, near, on_node, spread
from repro.fabric import Fabric, InterleavedPlacement, RangePlacement
from repro.fabric.errors import AllocationError

NODE_SIZE = 1 << 20


@pytest.fixture
def fabric():
    return Fabric(RangePlacement(node_count=4, node_size=NODE_SIZE))


@pytest.fixture
def allocator(fabric):
    return FarAllocator(fabric)


class TestBasicAllocation:
    def test_alloc_returns_nonzero(self, allocator):
        assert allocator.alloc(64) > 0

    def test_allocations_do_not_overlap(self, allocator):
        blocks = [(allocator.alloc(100), 100) for _ in range(50)]
        spans = sorted(blocks)
        for (a, sa), (b, _) in zip(spans, spans[1:]):
            assert a + sa <= b

    def test_default_alignment_is_word(self, allocator):
        for _ in range(10):
            assert allocator.alloc(3) % 8 == 0

    def test_custom_alignment(self, allocator):
        addr = allocator.alloc(8, PlacementHint(alignment=4096))
        assert addr % 4096 == 0

    def test_zero_size_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.alloc(0)

    def test_exhaustion(self, fabric):
        allocator = FarAllocator(fabric)
        with pytest.raises(AllocationError):
            allocator.alloc(fabric.total_size + 1)

    def test_alloc_words(self, allocator):
        addr = allocator.alloc_words(4)
        assert allocator.size_of(addr) == 32


class TestFree:
    def test_free_then_realloc_reuses(self, allocator):
        a = allocator.alloc(64)
        allocator.free(a)
        b = allocator.alloc(64)
        assert b == a

    def test_double_free_rejected(self, allocator):
        a = allocator.alloc(64)
        allocator.free(a)
        with pytest.raises(AllocationError):
            allocator.free(a)

    def test_free_unknown_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.free(12345)

    def test_coalescing_restores_large_blocks(self, allocator):
        total_free = allocator.free_bytes()
        blocks = [allocator.alloc(1000) for _ in range(20)]
        for b in blocks:
            allocator.free(b)
        assert allocator.free_bytes() == total_free
        assert allocator.fragmentation() == 0.0

    def test_size_of_live_block(self, allocator):
        a = allocator.alloc(100)
        assert allocator.size_of(a) == 100
        allocator.free(a)
        with pytest.raises(AllocationError):
            allocator.size_of(a)


class TestProvision:
    def test_writes_block_bytes(self, allocator, fabric):
        a = allocator.alloc(16)
        allocator.provision(a, b"\x01" * 16)
        assert fabric.read(a, 16).value == b"\x01" * 16

    def test_shorter_image_leaves_tail_untouched(self, allocator, fabric):
        a = allocator.alloc(16)
        allocator.provision(a, b"\x02" * 8)
        assert fabric.read(a, 16).value == b"\x02" * 8 + bytes(8)

    def test_interior_address_rejected(self, allocator, fabric):
        a = allocator.alloc(64)
        with pytest.raises(AllocationError):
            allocator.provision(a + 8, b"\x01" * 8)
        assert fabric.read(a, 64).value == bytes(64)

    def test_overflowing_image_rejected(self, allocator, fabric):
        a = allocator.alloc(16)
        neighbour = allocator.alloc(16)
        with pytest.raises(AllocationError):
            allocator.provision(a, b"\x01" * 24)
        assert fabric.read(a, 16).value == bytes(16)
        assert fabric.read(neighbour, 16).value == bytes(16)

    def test_freed_block_rejected(self, allocator):
        a = allocator.alloc(16)
        allocator.free(a)
        with pytest.raises(AllocationError):
            allocator.provision(a, b"\x01" * 8)


class TestHints:
    def test_on_node(self, allocator, fabric):
        for node in range(4):
            addr = allocator.alloc(64, on_node(node))
            assert fabric.node_of(addr) == node

    def test_near(self, allocator, fabric):
        anchor = allocator.alloc(64, on_node(2))
        buddy = allocator.alloc(64, near(anchor))
        assert fabric.node_of(buddy) == 2

    def test_spread_round_robins(self, allocator, fabric):
        nodes = [fabric.node_of(allocator.alloc(64, spread())) for _ in range(8)]
        assert nodes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_anti_near(self, allocator, fabric):
        anchor = allocator.alloc(64, on_node(0))
        other = allocator.alloc(64, PlacementHint(anti_near=anchor))
        assert fabric.node_of(other) != 0

    def test_node_hint_never_falls_back(self, fabric):
        allocator = FarAllocator(fabric)
        allocator.alloc(NODE_SIZE - 4096, on_node(1))  # nearly fill node 1
        with pytest.raises(AllocationError):
            allocator.alloc(NODE_SIZE // 2, on_node(1))

    def test_conflicting_hints_rejected(self):
        with pytest.raises(ValueError):
            PlacementHint(node=1, near=100)

    def test_hints_degrade_on_interleaved_placement(self):
        fabric = Fabric(
            InterleavedPlacement(node_count=2, node_size=NODE_SIZE, granularity=4096)
        )
        allocator = FarAllocator(fabric)
        allocator.alloc(64, on_node(1))  # does not raise; recorded instead
        assert allocator.stats.hint_unsatisfiable == 1

    def test_hint_stats(self, allocator):
        allocator.alloc(64, on_node(3))
        assert allocator.stats.hint_satisfied == 1


class TestStats:
    def test_live_tracking(self, allocator):
        a = allocator.alloc(100)
        b = allocator.alloc(200)
        assert allocator.stats.live_blocks == 2
        assert allocator.stats.live_bytes == 300
        allocator.free(a)
        assert allocator.stats.live_blocks == 1
        assert allocator.stats.live_bytes == 200
        del b

    def test_per_node_bytes(self, allocator, fabric):
        a = allocator.alloc(128, on_node(1))
        assert allocator.stats.per_node_bytes[1] >= 128
        allocator.free(a)
        assert allocator.stats.per_node_bytes[1] == 0

    def test_reserves_null_region(self, allocator):
        # Address 0 must never be handed out (it is the null pointer).
        addr = allocator.alloc(8)
        assert addr >= 8


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5000),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_alloc_free_invariants(self, script):
        fabric = Fabric(RangePlacement(node_count=2, node_size=NODE_SIZE))
        allocator = FarAllocator(fabric)
        initial_free = allocator.free_bytes()
        live: list[int] = []
        for size, do_free in script:
            if do_free and live:
                allocator.free(live.pop())
            else:
                live.append(allocator.alloc(size))
        # Conservation: free + live == initial free.
        assert allocator.free_bytes() + allocator.stats.live_bytes == initial_free
        # No overlaps among the live blocks.
        spans = sorted((a, allocator.size_of(a)) for a in live)
        for (a, sa), (b, _) in zip(spans, spans[1:]):
            assert a + sa <= b
        # Freeing everything restores a fully coalesced pool.
        for a in live:
            allocator.free(a)
        assert allocator.free_bytes() == initial_free
        assert allocator.fragmentation() == 0.0
