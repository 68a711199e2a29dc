"""Virtual far address space: the per-fabric extent table.

Global addresses are *virtual*. The fabric translates them extent-by-extent
to ``(node, offset)`` at its boundary, the way a NIC-side page table would
(section 7.1 discusses placement; Storm-style designs show the dataplane
must survive reconfiguration). :class:`~repro.fabric.address.RangePlacement`
and :class:`~repro.fabric.address.InterleavedPlacement` are reduced to
*initial-layout policies*: the table evaluates one of them once, at
construction, into an explicit extent map (extent → ``(node, slot)`` plus
its per-node inverse), and from then on reads only that map. Migration,
staging and elastic growth edit the map in place. Until an extent moves,
the map reproduces the layout's translation and segment splits exactly,
so a fresh table charges like the bare placement did.

Translation is free. The table is consulted on the memory side of the
interconnect (the NIC's address-translation unit), so no extra round trip
or traversal is ever charged for it; what *is* charged is every copy
round trip a live migration performs, via the ordinary client data path.

Writes that land on an extent mid-migration follow one of two policies:

* ``FORWARD`` (default, section 7.1 style) — the write applies at the old
  home and the already-copied prefix is mirrored to the new home, one
  forward hop per mirrored range. Never lost, never fenced.
* ``FENCE`` — the write is refused with
  :class:`~repro.fabric.errors.StaleEpochError` *before any byte moves*,
  mirroring the repair fence of PR 5; the writer retries after the remap
  commits and the extent epoch has advanced.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .address import InterleavedPlacement, Location, Placement
from .errors import AddressError, AllocationError, StaleEpochError
from .wire import WORD

DEFAULT_EXTENT_SIZE = 256 << 10
"""Preferred extent granularity (bytes); shrunk to divide the node size."""


class MigrationWritePolicy(enum.Enum):
    """What happens to a write that hits an extent mid-migration."""

    FORWARD = "forward"
    FENCE = "fence"


@dataclass
class ExtentMigrationState:
    """Book-keeping for one in-flight extent migration."""

    extent: int
    src_node: int
    src_slot: int
    dst_node: int
    dst_slot: int
    policy: MigrationWritePolicy
    cursor: int = 0
    forwards: int = 0
    fences: int = 0


@dataclass
class ExtentInfo:
    """One row of a topology dump (see :meth:`ExtentTable.dump`)."""

    extent: int
    base: int
    node: int
    slot: int
    epoch: int
    heat: int
    state: str
    replica_groups: list = field(default_factory=list)
    remapped: bool = False


class ExtentTable:
    """Per-fabric virtual→physical mapping at extent granularity.

    One explicit map, built once from ``layout`` and then edited in place:
    ``_homes[extent]`` is the extent's ``(node, slot)`` and
    ``_slots[node][slot]`` its inverse (``None`` for a free or staging
    slot). Every translation indexes that map; the layout formula is
    never consulted after construction.
    """

    def __init__(self, layout: Placement, extent_size: Optional[int] = None) -> None:
        if extent_size is None:
            if isinstance(layout, InterleavedPlacement):
                extent_size = layout.granularity
            else:
                extent_size = gcd(layout.node_size, DEFAULT_EXTENT_SIZE)
        if extent_size <= 0 or extent_size % WORD != 0:
            raise ValueError("extent_size must be a positive multiple of the word size")
        if layout.node_size % extent_size != 0:
            raise ValueError("node_size must be a multiple of the extent size")
        if isinstance(layout, InterleavedPlacement) and layout.granularity % extent_size != 0:
            raise ValueError("extent_size must divide the interleave granularity")
        self._layout = layout
        self._es = extent_size
        self._homes: list[tuple[int, int]] = []  # extent -> (node, slot)
        self._slots: list[list[Optional[int]]] = [
            [None] * (layout.node_size // extent_size) for _ in range(layout.node_count)
        ]  # node -> slot -> extent, None when free or staging
        for extent in range(layout.total_size // extent_size):
            location = layout.locate(extent * extent_size)
            slot = location.offset // extent_size
            self._homes.append((location.node, slot))
            self._slots[location.node][slot] = extent
        self._remapped: set[int] = set()  # extents moved at least once
        self._free_slots: dict[int, list[int]] = {}
        self._drained: set[int] = set()
        # Live-migration state and telemetry.
        self._migrating: dict[int, ExtentMigrationState] = {}
        self._epochs: dict[int, int] = {}
        self._heat: dict[int, int] = {}
        self._forward_sources: dict[int, dict[int, int]] = {}
        self._replica_groups: dict[int, set] = {}  # extent -> group ids
        self._group_extents: dict[object, set[int]] = {}  # group id -> extents
        self.forwards_total = 0
        self.fences_total = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def layout(self) -> Placement:
        """The initial-layout policy this table started from."""
        return self._layout

    @property
    def extent_size(self) -> int:
        return self._es

    @property
    def virtual_size(self) -> int:
        """Total bytes of the virtual far address space."""
        return len(self._homes) * self._es

    @property
    def extent_count(self) -> int:
        return len(self._homes)

    @property
    def node_count(self) -> int:
        return len(self._slots)

    def node_size_of(self, node: int) -> int:
        return len(self._slots[node]) * self._es

    def extent_of(self, address: int) -> int:
        return address // self._es

    def extent_base(self, extent: int) -> int:
        return extent * self._es

    def check(self, address: int, length: int) -> None:
        """Validate that ``[address, address + length)`` is inside the pool."""
        if length < 0:
            raise AddressError(address, length, "negative length")
        if address < 0 or address + length > len(self._homes) * self._es:
            raise AddressError(address, length, "outside the far memory pool")

    # ------------------------------------------------------------------
    # Translation (virtual -> physical)
    # ------------------------------------------------------------------

    def _mapping(self, extent: int) -> tuple[int, int]:
        """Current (node, slot) of ``extent``."""
        if not 0 <= extent < len(self._homes):
            raise AddressError(
                extent * self._es, self._es, "extent outside the virtual address space"
            )
        return self._homes[extent]

    def locate(self, address: int) -> Location:
        """Resolve a virtual address to its current (node, offset)."""
        self.check(address, 1)
        extent, within = divmod(address, self._es)
        node, slot = self._homes[extent]
        return Location(node=node, offset=slot * self._es + within)

    def node_of(self, address: int) -> int:
        return self.locate(address).node

    def try_globalize(self, node: int, offset: int) -> Optional[int]:
        """Virtual address of physical ``(node, offset)``, or ``None``.

        ``None`` means the slot is currently unmapped — a free slot, or a
        migration staging slot whose remap has not committed. Memory-side
        write hooks use this to skip notifications for staging traffic
        (exactly one notification per logical write).
        """
        if not 0 <= node < len(self._slots) or not 0 <= offset < self.node_size_of(node):
            raise AddressError(offset, 0, f"no such node/offset {node}/{offset}")
        slot, within = divmod(offset, self._es)
        extent = self._slots[node][slot]
        return None if extent is None else extent * self._es + within

    def globalize(self, node: int, offset: int) -> int:
        address = self.try_globalize(node, offset)
        if address is None:
            raise AddressError(offset, 0, f"unmapped slot on node {node}")
        return address

    def split(self, address: int, length: int) -> list[tuple[Location, int]]:
        """Split a virtual range into physically contiguous segments.

        Adjacent extents that land physically contiguous on one node are
        coalesced (the NIC issues one DMA for a physically contiguous
        range). On a fresh table over a range layout, or an interleaved
        layout of two or more nodes, that yields exactly the layout's own
        segments, so segment counts — and therefore network traversals —
        match the static placement until an extent moves.
        """
        self.check(address, length)
        es = self._es
        homes = self._homes
        segments: list[tuple[Location, int]] = []
        cursor = address
        end = address + length
        while cursor < end:
            extent, within = divmod(cursor, es)
            node, slot = homes[extent]
            offset = slot * es + within
            take = min(es - within, end - cursor)
            cursor += take
            if segments:
                prev_loc, prev_len = segments[-1]
                if prev_loc.node == node and prev_loc.offset + prev_len == offset:
                    segments[-1] = (prev_loc, prev_len + take)
                    continue
            segments.append((Location(node=node, offset=offset), take))
        return segments

    def same_node_span(self, address: int, limit: Optional[int] = None) -> int:
        """Bytes from ``address`` onward whose extents share one node.

        On a fresh table this equals the layout's ``contiguous_extent``
        (the allocator's legacy notion). ``limit`` allows early exit once
        enough span is proven.
        """
        self.check(address, 1)
        es = self._es
        homes = self._homes
        extent = address // es
        node = homes[extent][0]
        span = es - (address % es)
        extent += 1
        while (limit is None or span < limit) and extent < len(homes):
            if homes[extent][0] != node:
                break
            span += es
            extent += 1
        return span

    def extents_on_node(self, node: int) -> list[int]:
        """Extents currently mapped to ``node``, ascending."""
        if not 0 <= node < len(self._slots):
            return []
        return sorted(extent for extent in self._slots[node] if extent is not None)

    def node_extent_runs(self, node: int) -> list[tuple[int, int]]:
        """Virtually contiguous runs ``(start_address, length)`` on ``node``."""
        runs: list[tuple[int, int]] = []
        es = self._es
        for extent in self.extents_on_node(node):
            base = extent * es
            if runs and runs[-1][0] + runs[-1][1] == base:
                runs[-1] = (runs[-1][0], runs[-1][1] + es)
            else:
                runs.append((base, es))
        return runs

    # ------------------------------------------------------------------
    # Heat and forward-source telemetry (drives the rebalancer)
    # ------------------------------------------------------------------

    def touch(self, address: int) -> None:
        """Count one far access against the extent holding ``address``."""
        extent = address // self._es
        self._heat[extent] = self._heat.get(extent, 0) + 1

    def heat_of(self, extent: int) -> int:
        return self._heat.get(extent, 0)

    def reset_heat(self, extent: Optional[int] = None) -> None:
        if extent is None:
            self._heat.clear()
        else:
            self._heat.pop(extent, None)

    def heat_by_node(self) -> dict[int, int]:
        totals = {node: 0 for node in range(self.node_count)}
        for extent, heat in self._heat.items():
            totals[self._mapping(extent)[0]] += heat
        return totals

    def note_forward(self, address: int, source_node: int) -> None:
        """Record that ``source_node`` forwarded an indirection into
        the extent holding ``address`` (locality signal: moving the
        extent next to its dominant source removes the hop)."""
        extent = address // self._es
        sources = self._forward_sources.setdefault(extent, {})
        sources[source_node] = sources.get(source_node, 0) + 1

    def forward_sources(self, extent: int) -> dict[int, int]:
        return dict(self._forward_sources.get(extent, {}))

    # ------------------------------------------------------------------
    # Replica fault domains (annotated by the repair coordinator)
    # ------------------------------------------------------------------

    def annotate_replicas(self, group_id, base: int, size: int) -> None:
        """Mark the extents under one replica of group ``group_id``."""
        self.check(base, size)
        extents = self._group_extents.setdefault(group_id, set())
        for extent in range(base // self._es, (base + size - 1) // self._es + 1):
            self._replica_groups.setdefault(extent, set()).add(group_id)
            extents.add(extent)

    def clear_replicas(self, group_id, base: int, size: int) -> None:
        extents = self._group_extents.get(group_id)
        if extents is None:
            return
        for extent in range(base // self._es, (base + size - 1) // self._es + 1):
            groups = self._replica_groups.get(extent)
            if groups is not None:
                groups.discard(group_id)
                if not groups:
                    del self._replica_groups[extent]
            extents.discard(extent)

    def replica_groups_of(self, extent: int) -> frozenset:
        return frozenset(self._replica_groups.get(extent, ()))

    def sibling_replica_nodes(self, extent: int) -> set[int]:
        """Nodes holding other replicas of any group ``extent`` belongs
        to. A migration target inside this set would collapse the fault
        domain separation repair relies on."""
        own_node = self._mapping(extent)[0]
        nodes: set[int] = set()
        for group_id in self._replica_groups.get(extent, ()):
            for sibling in self._group_extents.get(group_id, ()):
                nodes.add(self._mapping(sibling)[0])
        nodes.discard(own_node)
        return nodes

    # ------------------------------------------------------------------
    # Membership: slots, elasticity, drain
    # ------------------------------------------------------------------

    def free_slot_count(self, node: int) -> int:
        return len(self._free_slots.get(node, ()))

    def alloc_slot(self, node: int) -> int:
        """Claim the lowest free physical slot on ``node`` for staging."""
        if node in self._drained:
            raise AllocationError(f"node {node} is drained")
        slots = self._free_slots.get(node)
        if not slots:
            raise AllocationError(f"no free extent slot on node {node}")
        return slots.pop(0)  # stays unmapped until the remap commits

    def free_slot(self, node: int, slot: int) -> None:
        self._slots[node][slot] = None
        insort(self._free_slots.setdefault(node, []), slot)

    def add_node(self, size: Optional[int] = None, *, grow_virtual: bool = False) -> tuple[int, int]:
        """Register a new memory node; returns ``(node_id, grown_bytes)``.

        By default the node is pure physical headroom — every slot free,
        available as a migration/rebalance target (the seed layout maps
        every virtual extent already, so headroom is what elasticity
        needs). With ``grow_virtual`` the node also extends the virtual
        address space by its full size, identity-mapped onto it.
        ``size`` defaults to the seed nodes' size.
        """
        size = self.node_size_of(0) if size is None else size
        if size <= 0 or size % self._es != 0:
            raise ValueError("node size must be a positive multiple of the extent size")
        node = self.node_count
        slots = size // self._es
        if grow_virtual:
            start = len(self._homes)
            self._homes.extend((node, slot) for slot in range(slots))
            self._slots.append(list(range(start, start + slots)))
            return node, size
        self._slots.append([None] * slots)
        self._free_slots[node] = list(range(slots))
        return node, 0

    def mark_drained(self, node: int) -> None:
        self._drained.add(node)

    def is_drained(self, node: int) -> bool:
        return node in self._drained

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------

    def epoch_of(self, extent: int) -> int:
        return self._epochs.get(extent, 1)

    def migration_state(self, extent: int) -> Optional[ExtentMigrationState]:
        return self._migrating.get(extent)

    @property
    def migrating_extents(self) -> list[int]:
        return sorted(self._migrating)

    def begin_migration(
        self, extent: int, dst_node: int, policy: MigrationWritePolicy = MigrationWritePolicy.FORWARD
    ) -> ExtentMigrationState:
        src_node, src_slot = self._mapping(extent)
        if extent in self._migrating:
            raise AllocationError(f"extent {extent} is already migrating")
        if dst_node == src_node:
            raise AllocationError(f"extent {extent} already lives on node {dst_node}")
        dst_slot = self.alloc_slot(dst_node)
        state = ExtentMigrationState(
            extent=extent,
            src_node=src_node,
            src_slot=src_slot,
            dst_node=dst_node,
            dst_slot=dst_slot,
            policy=policy,
        )
        self._migrating[extent] = state
        return state

    def advance_migration(self, extent: int, nbytes: int) -> ExtentMigrationState:
        state = self._migrating[extent]
        state.cursor = min(state.cursor + nbytes, self._es)
        return state

    def commit_migration(self, extent: int) -> ExtentMigrationState:
        """Atomically remap ``extent`` to its staged copy.

        Requires the copy cursor to cover the whole extent; advances the
        extent epoch (fenced writers observe the bump), frees the source
        slot, and resets the extent's heat and forward telemetry so the
        rebalancer judges the new home on fresh evidence.
        """
        state = self._migrating[extent]
        if state.cursor < self._es:
            raise AllocationError(
                f"extent {extent} copy incomplete ({state.cursor}/{self._es} bytes)"
            )
        del self._migrating[extent]
        self._homes[extent] = (state.dst_node, state.dst_slot)
        self._slots[state.dst_node][state.dst_slot] = extent
        self._remapped.add(extent)
        self.free_slot(state.src_node, state.src_slot)
        self._epochs[extent] = self.epoch_of(extent) + 1
        self._heat.pop(extent, None)
        self._forward_sources.pop(extent, None)
        return state

    def abort_migration(self, extent: int) -> ExtentMigrationState:
        state = self._migrating.pop(extent)
        self.free_slot(state.dst_node, state.dst_slot)
        return state

    def write_intercept(self, address: int, length: int):
        """Police a write against in-flight migrations.

        Returns mirror directives ``(data_offset, length, dst_node,
        dst_offset)`` for the portions overlapping an already-copied
        prefix under ``FORWARD`` — applied *after* the source write so
        the new home never misses an update. Under ``FENCE`` raises
        :class:`StaleEpochError` before any byte moves, for the whole
        write, even if only one touched extent is fenced.
        """
        if not self._migrating or length <= 0:
            return ()
        es = self._es
        end = address + length
        overlapping = [
            state
            for extent, state in sorted(self._migrating.items())
            if extent * es < end and (extent + 1) * es > address
        ]
        for state in overlapping:
            if state.policy is MigrationWritePolicy.FENCE:
                state.fences += 1
                self.fences_total += 1
                held = self.epoch_of(state.extent)
                raise StaleEpochError(f"extent:{state.extent}", held, held + 1)
        mirrors = []
        for state in overlapping:
            if state.cursor <= 0:
                continue
            base = state.extent * es
            lo = max(address, base)
            hi = min(end, base + state.cursor)
            if lo >= hi:
                continue
            state.forwards += 1
            self.forwards_total += 1
            mirrors.append((lo - address, hi - lo, state.dst_node, state.dst_slot * es + lo - base))
        return mirrors

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def dump(self) -> dict:
        """Full topology snapshot (``python -m repro topology``)."""
        extents = []
        for extent, (node, slot) in enumerate(self._homes):
            extents.append(
                ExtentInfo(
                    extent=extent,
                    base=extent * self._es,
                    node=node,
                    slot=slot,
                    epoch=self.epoch_of(extent),
                    heat=self._heat.get(extent, 0),
                    state="migrating" if extent in self._migrating else "active",
                    replica_groups=sorted(
                        str(g) for g in self._replica_groups.get(extent, ())
                    ),
                    remapped=extent in self._remapped,
                ).__dict__
            )
        nodes = []
        for node in range(self.node_count):
            nodes.append(
                {
                    "node": node,
                    "size": self.node_size_of(node),
                    "extents": sum(1 for row in extents if row["node"] == node),
                    "free_slots": self.free_slot_count(node),
                    "drained": node in self._drained,
                    "heat": self.heat_by_node().get(node, 0),
                }
            )
        return {
            "extent_size": self._es,
            "virtual_size": self.virtual_size,
            "extent_count": self.extent_count,
            "remapped": len(self._remapped),
            "migrating": self.migrating_extents,
            "forwards_total": self.forwards_total,
            "fences_total": self.fences_total,
            "nodes": nodes,
            "extents": extents,
        }

    def __repr__(self) -> str:
        return (
            f"ExtentTable(extents={self.extent_count}, extent_size={self._es}, "
            f"nodes={self.node_count}, remapped={len(self._remapped)}, "
            f"migrating={len(self._migrating)})"
        )
