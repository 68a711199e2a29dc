"""Tests for the extent table: translation, slots, migration mechanics."""

import random

import pytest

from repro.fabric import (
    DEFAULT_EXTENT_SIZE,
    Fabric,
    MigrationWritePolicy,
    make_placement,
)
from repro.fabric.errors import AddressError, AllocationError, StaleEpochError
from repro.fabric.extent import ExtentTable

NODE_SIZE = 8 << 20
ES = DEFAULT_EXTENT_SIZE
LAYOUTS = pytest.mark.parametrize(
    "interleaved, nodes, small_extent",
    [(i, n, s) for i in (False, True) for n in (2, 4) for s in (False, True)],
)


class TestGeometry:
    def test_range_layout_defaults_to_256k_extents(self):
        table = ExtentTable(make_placement(2, NODE_SIZE))
        assert table.extent_size == ES
        assert table.virtual_size == 2 * NODE_SIZE
        assert table.extent_count == 2 * NODE_SIZE // ES

    def test_interleaved_layout_defaults_to_granularity(self):
        layout = make_placement(4, NODE_SIZE, interleaved=True, granularity=4096)
        table = ExtentTable(layout)
        assert table.extent_size == 4096

    def test_odd_node_size_shrinks_extent_to_gcd(self):
        table = ExtentTable(make_placement(2, ES + ES // 2))
        assert (ES + ES // 2) % table.extent_size == 0

    def test_extent_size_must_divide_node_size(self):
        with pytest.raises(ValueError):
            ExtentTable(make_placement(1, NODE_SIZE), extent_size=NODE_SIZE - 8)

    def test_extent_size_must_be_word_multiple(self):
        with pytest.raises(ValueError):
            ExtentTable(make_placement(1, NODE_SIZE), extent_size=1000)


class TestCleanTableEquivalence:
    """A table with no remaps translates exactly like the bare layout."""

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_locate_matches_layout(self, interleaved):
        layout = make_placement(4, NODE_SIZE, interleaved=interleaved)
        table = ExtentTable(layout)
        for address in (0, 7, 4096, NODE_SIZE - 1, NODE_SIZE, 3 * NODE_SIZE + 9):
            assert table.locate(address) == layout.locate(address)
            assert table.node_of(address) == layout.locate(address).node

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_split_matches_layout_bit_for_bit(self, interleaved):
        layout = make_placement(4, NODE_SIZE, interleaved=interleaved)
        table = ExtentTable(layout)
        for address, length in (
            (0, 64),
            (NODE_SIZE - 100, 200),
            (4096 - 8, 16),
            (0, 3 * 4096),
            (NODE_SIZE + 5, 2 * 4096),
        ):
            assert table.split(address, length) == layout.split(address, length)

    def test_same_node_span_matches_contiguous_extent(self):
        layout = make_placement(2, NODE_SIZE)
        table = ExtentTable(layout)
        for address in (0, 1024, NODE_SIZE - 64, NODE_SIZE):
            assert table.same_node_span(address) == layout.contiguous_extent(address)

    def test_globalize_round_trips(self):
        table = ExtentTable(make_placement(2, NODE_SIZE))
        for address in (0, ES, NODE_SIZE + 17):
            location = table.locate(address)
            assert table.globalize(location.node, location.offset) == address

    # The layout formulas are the reference for the table's map, over
    # range and interleaved layouts, 2 and 4 nodes, and both the default
    # extent size and one smaller than the stripe.

    @staticmethod
    def _fresh(interleaved, nodes, small_extent):
        layout = make_placement(nodes, NODE_SIZE, interleaved=interleaved)
        stripe = 4096 if interleaved else ES
        table = ExtentTable(layout, extent_size=stripe // 4 if small_extent else None)
        return layout, table

    @staticmethod
    def _probes(table):
        es, total = table.extent_size, table.virtual_size
        points = {0, 7, es - 8, es, 4096 - 8, 4096, 3 * 4096 + 16, NODE_SIZE - 8, NODE_SIZE}
        points.add(total - 8)
        rng = random.Random(12)
        points.update(rng.randrange(total) & ~7 for _ in range(40))
        return sorted(p for p in points if 0 <= p < total)

    @LAYOUTS
    def test_locate_matches_layout_everywhere(self, interleaved, nodes, small_extent):
        layout, table = self._fresh(interleaved, nodes, small_extent)
        for address in self._probes(table):
            assert table.locate(address) == layout.locate(address)

    @LAYOUTS
    def test_split_matches_layout_everywhere(self, interleaved, nodes, small_extent):
        layout, table = self._fresh(interleaved, nodes, small_extent)
        lengths = (0, 1, 8, 64, table.extent_size + 16, 3 * 4096 + 8, NODE_SIZE // 2 + 24)
        for address in self._probes(table):
            for length in lengths:
                if address + length <= table.virtual_size:
                    assert table.split(address, length) == layout.split(address, length)

    @LAYOUTS
    def test_same_node_span_matches_layout_everywhere(self, interleaved, nodes, small_extent):
        layout, table = self._fresh(interleaved, nodes, small_extent)
        for address in self._probes(table):
            expected = layout.contiguous_extent(address)
            assert table.same_node_span(address) == expected
            for limit in (8, 4096, ES):
                assert (table.same_node_span(address, limit=limit) >= limit) == (
                    expected >= limit
                )

    @LAYOUTS
    def test_globalize_matches_layout_everywhere(self, interleaved, nodes, small_extent):
        layout, table = self._fresh(interleaved, nodes, small_extent)
        offsets = [a for a in self._probes(table) if a < NODE_SIZE]
        for node in range(nodes):
            for offset in offsets:
                assert table.try_globalize(node, offset) == layout.globalize(node, offset)
                assert table.globalize(node, offset) == layout.globalize(node, offset)


class TestSingleMap:
    """Moves, growth, staging and frees edit the one map consistently."""

    def test_extent_migrated_away_and_back_translates_home(self):
        layout = make_placement(2, NODE_SIZE)
        table = ExtentTable(layout)
        table.add_node()  # node 2: headroom
        extent = 3
        base = extent * ES
        home = layout.locate(base)
        for target in (2, home.node):
            state = table.begin_migration(extent, target)
            table.advance_migration(extent, ES)
            table.commit_migration(extent)
            assert table.node_of(base) == target
            assert table.globalize(state.dst_node, state.dst_slot * ES + 24) == base + 24
            assert table.try_globalize(state.src_node, state.src_slot * ES) is None
        # Back in its original slot: indistinguishable from the layout.
        for address in (base, base + 8, base - 8, base + ES):
            assert table.locate(address) == layout.locate(address)
        assert table.split(base - 64, ES + 128) == layout.split(base - 64, ES + 128)
        assert table.same_node_span(base) == layout.contiguous_extent(base)
        assert table.extents_on_node(2) == []
        assert table.dump()["extents"][extent]["remapped"] is True

    def test_try_globalize_over_grown_headroom_staging_and_freed_slots(self):
        table = ExtentTable(make_placement(1, NODE_SIZE))
        grown, _ = table.add_node(grow_virtual=True)
        spare, _ = table.add_node()
        assert table.try_globalize(grown, 0) == NODE_SIZE
        assert table.try_globalize(grown, NODE_SIZE - 8) == 2 * NODE_SIZE - 8
        assert table.extents_on_node(grown)[0] == NODE_SIZE // ES
        assert table.try_globalize(spare, 0) is None  # headroom: free slot
        state = table.begin_migration(1, spare)
        staging = state.dst_slot * ES
        assert table.try_globalize(spare, staging + 16) is None  # staging slot
        table.advance_migration(1, ES)
        table.commit_migration(1)
        assert table.try_globalize(spare, staging + 16) == ES + 16
        assert table.try_globalize(0, ES) is None  # freed source slot
        for node, offset in ((grown, NODE_SIZE), (spare, NODE_SIZE), (3, 0), (-1, 0), (0, -8)):
            with pytest.raises(AddressError):
                table.try_globalize(node, offset)

    def test_out_of_range_and_negative_extents_raise(self):
        table = ExtentTable(make_placement(2, NODE_SIZE))
        table.add_node()
        for extent in (-1, -table.extent_count, table.extent_count):
            with pytest.raises(AddressError):
                table.sibling_replica_nodes(extent)
            with pytest.raises(AddressError):
                table.begin_migration(extent, 2)
        for address in (-8, -1, table.virtual_size):
            with pytest.raises(AddressError):
                table.locate(address)
            with pytest.raises(AddressError):
                table.split(address, 8)
            with pytest.raises(AddressError):
                table.same_node_span(address)
        assert table.extents_on_node(-1) == []
        assert table.extents_on_node(3) == []


class TestElasticMembership:
    def test_add_node_headroom_has_all_slots_free(self):
        table = ExtentTable(make_placement(1, NODE_SIZE))
        node, grown = table.add_node()
        assert (node, grown) == (1, 0)
        assert table.free_slot_count(1) == NODE_SIZE // table.extent_size
        assert table.virtual_size == NODE_SIZE  # virtual space unchanged

    def test_add_node_grow_virtual_extends_address_space(self):
        table = ExtentTable(make_placement(1, NODE_SIZE))
        node, grown = table.add_node(grow_virtual=True)
        assert grown == NODE_SIZE
        assert table.virtual_size == 2 * NODE_SIZE
        # The new range is identity-mapped onto the new node.
        assert table.node_of(NODE_SIZE) == node
        assert table.globalize(node, 0) == NODE_SIZE

    def test_add_node_size_must_align(self):
        table = ExtentTable(make_placement(1, NODE_SIZE))
        with pytest.raises(ValueError):
            table.add_node(table.extent_size + 8)

    def test_drained_node_refuses_staging(self):
        table = ExtentTable(make_placement(1, NODE_SIZE))
        table.add_node()
        table.mark_drained(1)
        with pytest.raises(AllocationError):
            table.alloc_slot(1)


class TestMigrationStateMachine:
    def _table(self):
        table = ExtentTable(make_placement(2, NODE_SIZE))
        table.add_node()  # node 2: headroom
        return table

    def test_begin_advance_commit_remaps_and_bumps_epoch(self):
        table = self._table()
        state = table.begin_migration(0, 2)
        assert table.migrating_extents == [0]
        table.advance_migration(0, table.extent_size)
        committed = table.commit_migration(0)
        assert committed is state
        assert table.node_of(0) == 2
        assert table.epoch_of(0) == 2
        assert table.migrating_extents == []
        # The old slot is free again, the new one is occupied.
        assert table.free_slot_count(2) == NODE_SIZE // table.extent_size - 1

    def test_commit_requires_complete_copy(self):
        table = self._table()
        table.begin_migration(0, 2)
        table.advance_migration(0, 8)
        with pytest.raises(AllocationError):
            table.commit_migration(0)

    def test_double_begin_rejected(self):
        table = self._table()
        table.begin_migration(0, 2)
        with pytest.raises(AllocationError):
            table.begin_migration(0, 2)

    def test_migrate_to_current_home_rejected(self):
        table = self._table()
        with pytest.raises(AllocationError):
            table.begin_migration(0, table.node_of(0))

    def test_abort_releases_staging_slot(self):
        table = self._table()
        before = table.free_slot_count(2)
        table.begin_migration(0, 2)
        assert table.free_slot_count(2) == before - 1
        table.abort_migration(0)
        assert table.free_slot_count(2) == before
        assert table.node_of(0) == 0  # unchanged
        assert table.epoch_of(0) == 1

    def test_staging_slot_is_not_globalizable(self):
        table = self._table()
        state = table.begin_migration(0, 2)
        offset = state.dst_slot * table.extent_size
        assert table.try_globalize(2, offset) is None
        table.advance_migration(0, table.extent_size)
        table.commit_migration(0)
        assert table.try_globalize(2, offset) == 0
        # The freed source slot is unmapped now.
        assert table.try_globalize(state.src_node, state.src_slot * table.extent_size) is None

    def test_commit_resets_heat_and_forward_telemetry(self):
        table = self._table()
        table.touch(0)
        table.note_forward(0, 1)
        table.begin_migration(0, 2)
        table.advance_migration(0, table.extent_size)
        table.commit_migration(0)
        assert table.heat_of(0) == 0
        assert table.forward_sources(0) == {}


class TestWriteIntercept:
    def _mid_migration(self, policy=MigrationWritePolicy.FORWARD):
        table = ExtentTable(make_placement(2, NODE_SIZE))
        table.add_node()
        state = table.begin_migration(0, 2, policy)
        table.advance_migration(0, 4096)  # copied prefix: [0, 4096)
        return table, state

    def test_no_migrations_is_free(self):
        table = ExtentTable(make_placement(2, NODE_SIZE))
        assert table.write_intercept(0, 64) == ()

    def test_forward_mirrors_copied_prefix_only(self):
        table, state = self._mid_migration()
        mirrors = table.write_intercept(4000, 200)  # straddles the cursor
        assert mirrors == [(0, 96, 2, state.dst_slot * table.extent_size + 4000)]
        assert state.forwards == 1
        assert table.forwards_total == 1

    def test_write_past_cursor_not_mirrored(self):
        table, state = self._mid_migration()
        assert table.write_intercept(8192, 64) == []
        assert state.forwards == 0

    def test_write_outside_migrating_extent_untouched(self):
        table, _ = self._mid_migration()
        assert table.write_intercept(table.extent_size, 64) == []

    def test_fence_raises_before_any_byte(self):
        table, state = self._mid_migration(MigrationWritePolicy.FENCE)
        with pytest.raises(StaleEpochError) as exc:
            table.write_intercept(0, 8)
        assert "extent:0" in str(exc.value)
        assert state.fences == 1
        assert table.fences_total == 1


class TestReplicaAnnotations:
    def test_sibling_nodes_cover_other_replicas(self):
        table = ExtentTable(make_placement(3, NODE_SIZE))
        table.annotate_replicas("r1", 0, ES)             # node 0
        table.annotate_replicas("r1", NODE_SIZE, ES)     # node 1
        extent0 = 0
        assert table.sibling_replica_nodes(extent0) == {1}
        assert table.replica_groups_of(extent0) == frozenset({"r1"})

    def test_clear_removes_annotation(self):
        table = ExtentTable(make_placement(3, NODE_SIZE))
        table.annotate_replicas("r1", 0, ES)
        table.annotate_replicas("r1", NODE_SIZE, ES)
        table.clear_replicas("r1", NODE_SIZE, ES)
        assert table.sibling_replica_nodes(0) == set()


class TestFabricIntegration:
    def test_fabric_exposes_extent_table(self):
        fabric = Fabric(make_placement(2, NODE_SIZE))
        assert fabric.extents.layout is fabric.placement
        assert fabric.node_count == 2
        assert fabric.supports_node_hints is True

    def test_add_node_appends_memory_node(self):
        fabric = Fabric(make_placement(1, NODE_SIZE))
        node = fabric.add_node()
        assert node == 1
        assert len(fabric.nodes) == 2
        assert fabric.total_size == NODE_SIZE  # headroom only

    def test_reads_touch_extent_heat(self):
        fabric = Fabric(make_placement(1, NODE_SIZE))
        fabric.write(0, b"\x01" * 8)
        fabric.read(0, 8)
        assert fabric.extents.heat_of(0) == 2

    def test_data_survives_commit_via_raw_fabric_copy(self):
        fabric = Fabric(make_placement(1, NODE_SIZE))
        fabric.add_node()
        payload = bytes(range(256))
        fabric.write(512, payload)
        table = fabric.extents
        state = table.begin_migration(0, 1)
        es = table.extent_size
        # Simulate the coordinator's copy with the raw dataplane.
        data = fabric.read(0, es).value
        fabric.write_phys(1, state.dst_slot * es, data)
        table.advance_migration(0, es)
        table.commit_migration(0)
        assert fabric.read(512, len(payload)).value == payload
        assert fabric.node_of(512) == 1

    def test_forwarded_write_lands_on_both_homes(self):
        fabric = Fabric(make_placement(1, NODE_SIZE))
        fabric.add_node()
        table = fabric.extents
        state = table.begin_migration(0, 1)
        es = table.extent_size
        fabric.write_phys(1, state.dst_slot * es, fabric.read(0, es).value)
        table.advance_migration(0, es)  # fully copied, not yet committed
        result = fabric.write(64, b"\xAB" * 8)
        assert result.forward_hops == 1
        # The mirror made the staged copy current before commit.
        table.commit_migration(0)
        assert fabric.read(64, 8).value == b"\xAB" * 8

    def test_fenced_write_raises_and_preserves_bytes(self):
        fabric = Fabric(make_placement(1, NODE_SIZE))
        fabric.add_node()
        fabric.write(64, b"\x11" * 8)
        fabric.extents.begin_migration(0, 1, MigrationWritePolicy.FENCE)
        with pytest.raises(StaleEpochError):
            fabric.write(64, b"\x22" * 8)
        # Fence-before-byte: the old value is intact on the source.
        fabric.extents.abort_migration(0)
        assert fabric.read(64, 8).value == b"\x11" * 8
