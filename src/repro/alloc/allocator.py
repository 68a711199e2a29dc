"""A locality-aware far-memory allocator.

The allocator hands out ranges of the global far address space. It keeps a
sorted free list with first-fit allocation and coalescing on free, and
honours :class:`~repro.alloc.locality.PlacementHint` by constraining the
search to ranges on the hinted node (section 7.1).

Node targeting only makes sense when the initial layout gives nodes
contiguous virtual ranges (``fabric.supports_node_hints``, true for
:class:`~repro.fabric.address.RangePlacement`). Under interleaved layouts
every allocation is inherently striped, so node hints degrade to plain
allocation (with a counter recording that the hint was unsatisfiable, so
benchmarks can report it). Addresses are *virtual* (PR 7): a hint pins
the allocation-time placement, but live migration may later move the
extents — per-block accounting therefore remembers the allocation-time
node rather than re-deriving it at free time.

Allocation metadata (sizes of live blocks) is kept client-side in the
allocator, not in far memory: the paper's data structures carry their own
layout information, and a production allocator would likewise keep its
metadata in the allocating runtime.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from ..fabric.errors import AllocationError
from ..fabric.fabric import Fabric
from ..fabric.wire import align_up
from .locality import PlacementHint

_DEFAULT_HINT = PlacementHint()


@dataclass
class AllocStats:
    """Allocator bookkeeping for benchmarks and leak checks."""

    allocations: int = 0
    frees: int = 0
    live_blocks: int = 0
    live_bytes: int = 0
    hint_satisfied: int = 0
    hint_unsatisfiable: int = 0
    per_node_bytes: dict[int, int] = field(default_factory=dict)


class FarAllocator:
    """First-fit allocator over the global far-memory address space."""

    def __init__(self, fabric: Fabric, *, reserve_low: int = 0) -> None:
        """Create an allocator owning the whole pool.

        Args:
            fabric: the far-memory pool to allocate from.
            reserve_low: bytes at the bottom of the address space to leave
                unallocated (address 0 is reserved by default so that 0
                can serve as a null pointer; ``reserve_low`` is rounded up
                to at least one word).
        """
        self.fabric = fabric
        low = max(reserve_low, 8)
        total = fabric.total_size
        if low >= total:
            raise AllocationError("reserve_low exceeds the pool size")
        # Sorted list of (start, size) free ranges, non-overlapping,
        # non-adjacent (adjacent ranges are coalesced).
        self._free: list[tuple[int, int]] = [(low, total - low)]
        # address -> (size, allocation-time node). The node is recorded
        # because migration can move the bytes later; per-node accounting
        # tracks where the allocator *placed* them.
        self._live: dict[int, tuple[int, int]] = {}
        self._spread_cursor = 0
        self.stats = AllocStats()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc(self, size: int, hint: PlacementHint | None = None) -> int:
        """Allocate ``size`` bytes; returns the global base address.

        Raises :class:`AllocationError` when no (hint-compatible) range
        fits — a node-targeted request does not fall back to other nodes,
        because silently violating a locality hint would corrupt the very
        experiments the hints exist for.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        hint = hint or _DEFAULT_HINT
        target_node = self._resolve_node(hint)
        address = self._carve(size, hint.alignment, target_node, hint.anti_near)
        # Allocation-time placement decision; the node is recorded
        # per-block and never re-derived after migration.
        # fmlint: disable=FM007 — allocation-time placement, recorded per-block
        node = self.fabric.node_of(address)
        self._live[address] = (size, node)
        self.stats.allocations += 1
        self.stats.live_blocks += 1
        self.stats.live_bytes += size
        self.stats.per_node_bytes[node] = self.stats.per_node_bytes.get(node, 0) + size
        return address

    def alloc_words(self, count: int, hint: PlacementHint | None = None) -> int:
        """Allocate ``count`` 64-bit words."""
        return self.alloc(count * 8, hint)

    def _resolve_node(self, hint: PlacementHint) -> int | None:
        hintable = self.fabric.supports_node_hints
        if hint.node is not None or hint.near is not None or hint.spread:
            if not hintable:
                self.stats.hint_unsatisfiable += 1
                return None
        if hint.node is not None:
            return hint.node
        if hint.near is not None:
            # Resolving a locality hint at allocation time is exactly
            # what the hint asks for.
            # fmlint: disable=FM007 — locality-hint resolution at alloc time
            return self.fabric.node_of(hint.near)
        if hint.spread and hintable:
            node = self._spread_cursor % self.fabric.node_count
            self._spread_cursor += 1
            return node
        return None

    def _carve(
        self, size: int, alignment: int, node: int | None, anti_near: int | None
    ) -> int:
        avoid_node = (
            # fmlint: disable=FM007 — anti-affinity hint resolution at alloc time
            self.fabric.node_of(anti_near)
            if anti_near is not None and self.fabric.supports_node_hints
            else None
        )
        for i, (start, free_size) in enumerate(self._free):
            base = align_up(start, alignment)
            pad = base - start
            if pad + size > free_size:
                continue
            if node is not None and not self._fits_on_node(base, size, node):
                base2 = self._first_fit_on_node(start, free_size, size, alignment, node)
                if base2 is None:
                    continue
                base = base2
                pad = base - start
            # fmlint: disable=FM007 (placement check at allocation time)
            if avoid_node is not None and self.fabric.node_of(base) == avoid_node:
                base2 = self._first_fit_avoiding(start, free_size, size, alignment, avoid_node)
                if base2 is None:
                    continue
                base = base2
                pad = base - start
            self._take(i, start, free_size, base, size)
            if node is not None or avoid_node is not None:
                self.stats.hint_satisfied += 1
            return base
        where = f" on node {node}" if node is not None else ""
        raise AllocationError(f"no free range of {size} bytes{where}")

    def _fits_on_node(self, base: int, size: int, node: int) -> bool:
        # fmlint: disable=FM007 (hinted placement check at allocation time)
        if self.fabric.node_of(base) != node:
            return False
        return self.fabric.extents.same_node_span(base, limit=size) >= size

    def _first_fit_on_node(
        self, start: int, free_size: int, size: int, alignment: int, node: int
    ) -> int | None:
        """Scan one free range for an aligned sub-range on ``node``.

        Node-owned virtual ranges come from the extent table (on a clean
        range layout: one run per node, the legacy contiguous range), so
        hints keep working after extents migrate.
        """
        end = start + free_size
        for run_start, run_len in self.fabric.extents.node_extent_runs(node):
            base = align_up(max(start, run_start), alignment)
            if base + size <= min(end, run_start + run_len):
                return base
        return None

    def _first_fit_avoiding(
        self, start: int, free_size: int, size: int, alignment: int, avoid: int
    ) -> int | None:
        for node in range(self.fabric.node_count):
            if node == avoid:
                continue
            base = self._first_fit_on_node(start, free_size, size, alignment, node)
            if base is not None:
                return base
        return None

    def _take(self, index: int, start: int, free_size: int, base: int, size: int) -> None:
        """Remove ``[base, base+size)`` from free range ``index``."""
        del self._free[index]
        leading = base - start
        trailing = (start + free_size) - (base + size)
        if leading:
            insort(self._free, (start, leading))
        if trailing:
            insort(self._free, (base + size, trailing))

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------

    def provision(self, address: int, data: bytes) -> None:
        """Lay down a new structure's initial bytes at the block ``address``.

        The one set-up path that reaches far memory without a client:
        constructors call it right after :meth:`alloc`, before any client
        uses the structure. The write is unmetered (no far access, no
        fault draw) but, like any store, visible to the fabric's write
        hooks. Raises :class:`AllocationError` unless ``address`` is the
        base of a live block and ``data`` fits inside it.
        """
        size = self.size_of(address)
        if len(data) > size:
            raise AllocationError(
                f"{len(data)} bytes overflow the {size}-byte block at 0x{address:x}"
            )
        # fmlint: disable=FM003 (pre-attach provisioning)
        self.fabric.write(address, data)

    # ------------------------------------------------------------------
    # Free
    # ------------------------------------------------------------------

    def free(self, address: int) -> None:
        """Return a block to the free list, coalescing with neighbours."""
        entry = self._live.pop(address, None)
        if entry is None:
            raise AllocationError(f"free of unallocated address 0x{address:x}")
        size, node = entry
        self.stats.frees += 1
        self.stats.live_blocks -= 1
        self.stats.live_bytes -= size
        # Decrement against the allocation-time node: the block may have
        # migrated since, and the per-node ledger must stay balanced.
        self.stats.per_node_bytes[node] -= size
        insort(self._free, (address, size))
        self._coalesce_around(address)

    # ------------------------------------------------------------------
    # Elastic growth (Cluster.add_node with grow=True)
    # ------------------------------------------------------------------

    def grow(self, additional: int) -> None:
        """Adopt ``additional`` bytes just appended to the top of the
        virtual address space (``fabric.add_node(grow_virtual=True)``)."""
        if additional <= 0:
            raise AllocationError("grow requires a positive byte count")
        total = self.fabric.total_size
        if additional > total:
            raise AllocationError("grow exceeds the virtual address space")
        start = total - additional
        insort(self._free, (start, additional))
        self._coalesce_around(start)

    def _coalesce_around(self, address: int) -> None:
        idx = next(i for i, (start, _) in enumerate(self._free) if start == address)
        # Merge with successor.
        if idx + 1 < len(self._free):
            start, size = self._free[idx]
            nxt_start, nxt_size = self._free[idx + 1]
            if start + size == nxt_start:
                self._free[idx] = (start, size + nxt_size)
                del self._free[idx + 1]
        # Merge with predecessor.
        if idx > 0:
            prev_start, prev_size = self._free[idx - 1]
            start, size = self._free[idx]
            if prev_start + prev_size == start:
                self._free[idx - 1] = (prev_start, prev_size + size)
                del self._free[idx]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def size_of(self, address: int) -> int:
        """Size of the live block at ``address``."""
        try:
            return self._live[address][0]
        except KeyError:
            raise AllocationError(f"0x{address:x} is not a live allocation") from None

    def free_bytes(self) -> int:
        """Total bytes currently free."""
        return sum(size for _, size in self._free)

    def fragmentation(self) -> float:
        """1 - (largest free range / total free); 0 when perfectly compact."""
        free = self.free_bytes()
        if free == 0:
            return 0.0
        return 1.0 - max(size for _, size in self._free) / free

    def __repr__(self) -> str:
        return (
            f"FarAllocator(live={self.stats.live_blocks} blocks/"
            f"{self.stats.live_bytes}B, free={self.free_bytes()}B)"
        )
