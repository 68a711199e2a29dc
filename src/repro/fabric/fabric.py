"""The far-memory fabric: routing, base one-sided operations, indirection.

The fabric ties together the memory nodes (:mod:`repro.fabric.memory_node`),
a placement (:mod:`repro.fabric.address`), and the extended Fig. 1
primitives (:mod:`repro.fabric.primitives`). It is the "memory side" of
the simulator: everything here executes without any application processor,
exactly the constraint the paper imposes on far memory (section 2).

Cross-node indirection (section 7.1) is governed by
:class:`IndirectionPolicy`:

* ``FORWARD`` — the home node forwards the dereferenced request to the
  node holding the target; the client still sees one round trip, the
  fabric pays one extra traversal per forwarded segment.
* ``ERROR`` — the home node refuses, raising
  :class:`repro.fabric.errors.RemoteIndirectionError` which carries enough
  state for the client to complete the indirection itself with a second,
  direct round trip.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Protocol

from .address import Location, Placement, RangePlacement
from .errors import FarTimeoutError, NodeUnavailableError, RemoteIndirectionError
from .extent import ExtentTable
from .latency import CostModel
from .memory_node import MemoryNode
from .primitives import FarPrimitivesMixin
from .wire import WORD, align_down


class IndirectionPolicy(enum.Enum):
    """How a memory node handles a dereferenced pointer on another node."""

    FORWARD = "forward"
    ERROR = "error"


class Notifier(Protocol):
    """Interface the notification subsystem presents to the fabric."""

    def on_write(self, address: int, length: int, new_bytes: bytes) -> None:
        """Called after every mutation of far memory, with global addresses."""


@dataclass
class FabricResult:
    """Outcome of one memory-side operation, with routing facts attached.

    Attributes:
        value: operation result (``bytes`` for loads, ``int`` for atomics,
            ``None`` for stores).
        pointer: for indirect operations, the pointer value that was
            dereferenced (clients use it, e.g., for queue slack checks).
        forward_hops: memory-to-memory forwards taken (FORWARD policy).
        segments: per-node segments touched by the data transfer.
    """

    value: Optional[object] = None
    pointer: Optional[int] = None
    forward_hops: int = 0
    segments: int = 1


class Fabric(FarPrimitivesMixin):
    """A pool of far memory nodes behind a system interconnect."""

    def __init__(
        self,
        placement: Optional[Placement] = None,
        *,
        node_count: int = 1,
        node_size: int = 64 << 20,
        extent_size: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        indirection_policy: IndirectionPolicy = IndirectionPolicy.FORWARD,
    ) -> None:
        if placement is None:
            placement = RangePlacement(node_count=node_count, node_size=node_size)
        self.placement = placement  # initial-layout policy only; see self.extents
        self.extents = ExtentTable(placement, extent_size=extent_size)
        self.cost_model = cost_model or CostModel()
        self.indirection_policy = indirection_policy
        self.nodes = [
            MemoryNode(node_id, placement.node_size)
            for node_id in range(placement.node_count)
        ]
        self._notifier: Optional[Notifier] = None
        self._failed_nodes: set[int] = set()
        self._fault_injector = None
        for node in self.nodes:
            node.set_write_hook(self._on_node_write)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @property
    def total_size(self) -> int:
        """Total virtual far memory bytes in the pool."""
        return self.extents.virtual_size

    @property
    def node_count(self) -> int:
        """Number of memory nodes currently in the pool (grows elastically)."""
        return len(self.nodes)

    @property
    def supports_node_hints(self) -> bool:
        """Whether allocation-time node hints make sense under the initial layout."""
        return self.placement.supports_node_hints

    def check(self, address: int, length: int) -> None:
        """Validate a virtual range against the current address space."""
        self.extents.check(address, length)

    def split(self, address: int, length: int) -> list[tuple[Location, int]]:
        """Split a virtual range into physically contiguous segments."""
        return self.extents.split(address, length)

    def add_node(self, node_size: Optional[int] = None, *, grow_virtual: bool = False) -> int:
        """Elastically add a memory node; returns its id.

        By default the node is migration headroom (all slots free); with
        ``grow_virtual`` it also extends the virtual address space — the
        caller is responsible for handing the new range to its allocator.
        """
        node_id, _ = self.extents.add_node(node_size, grow_virtual=grow_virtual)
        node = MemoryNode(node_id, self.extents.node_size_of(node_id))
        node.set_write_hook(self._on_node_write)
        self.nodes.append(node)
        return node_id

    def set_notifier(self, notifier: Optional[Notifier]) -> None:
        """Attach the notification subsystem (section 4.3)."""
        self._notifier = notifier

    def _on_node_write(self, node_id: int, offset: int, length: int, data: bytes) -> None:
        if self._notifier is None:
            return
        address = self.extents.try_globalize(node_id, offset)
        if address is None:
            return  # migration staging slot: not yet a virtual address
        self._notifier.on_write(address, length, data)

    # ------------------------------------------------------------------
    # Fault injection (section 2: far memory is its own fault domain)
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Fail-stop one memory node: every access to addresses it owns
        raises :class:`NodeUnavailableError` until :meth:`repair_node`.
        Contents are retained across the outage (battery-backed /
        persistent far memory), matching the availability argument of
        section 2."""
        if not 0 <= node_id < len(self.nodes):
            raise ValueError(f"no such node {node_id}")
        self._failed_nodes.add(node_id)

    def repair_node(self, node_id: int) -> None:
        """Bring a failed node back (contents intact)."""
        self._failed_nodes.discard(node_id)

    def node_available(self, node_id: int) -> bool:
        """True unless the node is currently failed."""
        return node_id not in self._failed_nodes

    # -- transient faults (repro.fabric.faults) -------------------------

    @property
    def fault_injector(self):
        """The attached :class:`~repro.fabric.faults.FaultInjector`, or None."""
        return self._fault_injector

    def set_fault_injector(self, injector) -> None:
        """Attach (or detach, with ``None``) a transient-fault injector."""
        self._fault_injector = injector

    def fault_check(self, address: int, node: int, kind: Optional[str] = None) -> None:
        """Consult the fault injector at one operation boundary.

        Clients call this once per one-sided op, *before* the fabric
        executes anything, so an injected timeout has no memory-side
        effects and the op is always safe to retry (request-drop
        semantics — crucial for the non-idempotent ``faai``/``saai``/CAS
        family). Raises :class:`~repro.fabric.errors.FarTimeoutError`
        when a fault fires; latency spikes instead accumulate a pending
        multiplier read back via :meth:`consume_fault_latency`.

        ``node`` is the memory node holding ``address``, as the caller
        already resolved it for this op. ``kind`` names the fabric
        method about to run (``"write"``,
        ``"read"``, ...) so TORN rules match only multi-word writes. A
        CORRUPT rule that fires rots stored bytes near ``address`` here,
        silently, before the op body runs — so the op observes (or
        overwrites) the corruption exactly as real hardware would.
        """
        injector = self._fault_injector
        if injector is None:
            return
        injector.before_access(node, address, kind)
        flips = injector.take_corruption()
        if flips:
            total = self.extents.virtual_size
            for byte_off, bit in flips:
                target = address + byte_off
                if target >= total:
                    continue  # rot past the end of the pool lands nowhere
                location = self.extents.locate(target)
                # Applied even on a failed node: data decays while down.
                self.nodes[location.node].corrupt_bit(location.offset, bit)

    def consume_fault_latency(self) -> float:
        """Latency multiplier for the op just completed (1.0 when no
        injector is attached or no spike fired)."""
        if self._fault_injector is None:
            return 1.0
        return self._fault_injector.consume_latency_multiplier()

    def _node_for(self, location: Location, address: int) -> MemoryNode:
        if location.node in self._failed_nodes:
            raise NodeUnavailableError(location.node, address)
        return self.nodes[location.node]

    def locate(self, address: int) -> Location:
        """Resolve a virtual address to its *current* (node, offset).

        The answer is only valid for the duration of one operation: a
        live migration may remap the extent at any boundary. Code above
        the fabric/recovery/migration layers must not hold onto it
        (fmlint FM007 enforces this).
        """
        return self.extents.locate(address)

    def node_of(self, address: int) -> int:
        """Memory node id *currently* holding ``address`` (see :meth:`locate`)."""
        return self.extents.locate(address).node

    # ------------------------------------------------------------------
    # Base one-sided operations (section 2: loads/stores/atomics)
    # ------------------------------------------------------------------

    def read(self, address: int, length: int) -> FabricResult:
        """One-sided read of a virtual range (split across nodes if needed)."""
        pieces: list[bytes] = []
        segments = self.extents.split(address, length)
        cursor = address
        for location, seg_len in segments:
            node = self._node_for(location, cursor)
            self.extents.touch(cursor)
            pieces.append(node.read(location.offset, seg_len))
            cursor += seg_len
        return FabricResult(value=b"".join(pieces), segments=max(1, len(segments)))

    def write(self, address: int, data: bytes) -> FabricResult:
        """One-sided write of a global range (split across nodes if striped).

        A pending TORN fault (set by :meth:`fault_check` for this op)
        lands a word-aligned prefix of ``data``, then raises
        :class:`~repro.fabric.errors.FarTimeoutError` with ``torn=True``
        — the far bytes are now neither old nor new. ``wscatter`` and
        ``wgather`` funnel through here per buffer, so a torn replicated
        write tears its first target and never reaches the rest.
        """
        if self._fault_injector is not None:
            fraction = self._fault_injector.take_torn_fraction()
            if fraction is not None:
                prefix = align_down(int(len(data) * fraction), WORD)
                if prefix > 0:
                    self._write_segments(address, bytes(data[:prefix]))
                raise FarTimeoutError(
                    self.node_of(address), address,
                    reason=f"torn write ({prefix}/{len(data)} bytes applied)",
                    torn=True,
                )
        return self._write_segments(address, data)

    def _write_segments(self, address: int, data: bytes) -> FabricResult:
        # Police in-flight migrations first: a FENCE raises before any
        # byte moves, so a fenced write is all-or-nothing.
        mirrors = self.extents.write_intercept(address, len(data))
        segments = self.extents.split(address, len(data))
        cursor = 0
        for location, seg_len in segments:
            node = self._node_for(location, address + cursor)
            self.extents.touch(address + cursor)
            node.write(location.offset, data[cursor : cursor + seg_len])
            cursor += seg_len
        hops = self._apply_mirrors(data, mirrors)
        return FabricResult(segments=max(1, len(segments)), forward_hops=hops)

    def _apply_mirrors(self, data: bytes, mirrors) -> int:
        """FORWARD-policy dual writes: mirror the already-copied portion
        of a migrating extent to its new home (one forward hop each)."""
        hops = 0
        for data_off, length, dst_node, dst_offset in mirrors:
            if dst_node in self._failed_nodes:
                raise NodeUnavailableError(dst_node, dst_offset)
            self.nodes[dst_node].write(dst_offset, bytes(data[data_off : data_off + length]))
            hops += 1
        return hops

    def _mirror_word(self, address: int, mirrors) -> None:
        """Mirror the post-op value of an atomic's target word (the word
        re-read from the source is the linearised result)."""
        if not mirrors:
            return
        location = self.extents.locate(address)
        word = self.nodes[location.node].read(location.offset, WORD)
        self._apply_mirrors(word, [(0, WORD, m[2], m[3]) for m in mirrors])

    def write_phys(self, node: int, offset: int, data: bytes) -> FabricResult:
        """Raw write to a *physical* node-local range (migration staging).

        The destination slot of an in-flight migration has no virtual
        address until the remap commits, so the copy engine addresses it
        physically — this models the NIC-to-NIC DMA a real fabric would
        use. Deliberately bypasses fault injection (transient-fault rules
        key on virtual addresses); callers charge it like any far write.
        """
        if node in self._failed_nodes:
            raise NodeUnavailableError(node, offset)
        self.nodes[node].write(offset, bytes(data))
        return FabricResult(segments=1)

    def read_word(self, address: int) -> int:
        """Read one aligned word (always within a single node)."""
        location = self.extents.locate(address)
        self.extents.touch(address)
        return self._node_for(location, address).read_word(location.offset)

    def write_word(self, address: int, value: int) -> None:
        """Write one aligned word."""
        mirrors = self.extents.write_intercept(address, WORD)
        location = self.extents.locate(address)
        self.extents.touch(address)
        self._node_for(location, address).write_word(location.offset, value)
        self._mirror_word(address, mirrors)

    def compare_and_swap(self, address: int, expected: int, new: int) -> tuple[int, bool]:
        """Fabric-level atomic CAS on a word (section 2)."""
        mirrors = self.extents.write_intercept(address, WORD)
        location = self.extents.locate(address)
        self.extents.touch(address)
        result = self._node_for(location, address).compare_and_swap(
            location.offset, expected, new
        )
        self._mirror_word(address, mirrors)
        return result

    def fetch_add(self, address: int, delta: int) -> int:
        """Fabric-level atomic fetch-and-add on a word; returns old value."""
        mirrors = self.extents.write_intercept(address, WORD)
        location = self.extents.locate(address)
        self.extents.touch(address)
        old = self._node_for(location, address).fetch_add(location.offset, delta)
        self._mirror_word(address, mirrors)
        return old

    def swap(self, address: int, value: int) -> int:
        """Fabric-level atomic exchange on a word; returns old value."""
        mirrors = self.extents.write_intercept(address, WORD)
        location = self.extents.locate(address)
        self.extents.touch(address)
        old = self._node_for(location, address).swap(location.offset, value)
        self._mirror_word(address, mirrors)
        return old

    # ------------------------------------------------------------------
    # Indirection plumbing shared by the Fig. 1 primitives
    # ------------------------------------------------------------------

    def _indirection_hops(self, home_node: int, target: int, length: int) -> int:
        """Forward hops needed to touch ``[target, target+length)`` from
        ``home_node``, or raise under the ERROR policy."""
        length = max(length, WORD)
        segments = self.extents.split(target, length)
        remote = sum(1 for location, _ in segments if location.node != home_node)
        if remote == 0:
            return 0
        if self.indirection_policy is IndirectionPolicy.ERROR:
            first_remote = next(
                location.node for location, _ in segments if location.node != home_node
            )
            raise RemoteIndirectionError(target, home_node, first_remote)
        # Locality telemetry for the rebalancer: each forwarded segment
        # names home_node as a "forward source" of the target's extent.
        cursor = target
        for location, seg_len in segments:
            if location.node != home_node:
                self.extents.note_forward(cursor, home_node)
            cursor += seg_len
        return remote

    def __repr__(self) -> str:
        return (
            f"Fabric(nodes={len(self.nodes)}, "
            f"node_size={self.placement.node_size}, "
            f"policy={self.indirection_policy.value})"
        )
