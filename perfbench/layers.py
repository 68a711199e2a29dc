"""Per-layer self time and call counts, from runtime wrappers.

The traced run wraps public functions of each layer *from outside the
package*: the wrappers are installed on the classes (and module
functions) while a phase runs and removed afterwards, so ``src/`` is
never edited and an untraced run pays nothing.  Each wrapper pushes a
frame on one shared stack; when a call returns, its inclusive time is
charged to its caller's child total, and its *self* time (inclusive
minus the time of wrapped calls made inside it) to its layer.

Layers are named after the package modules they wrap::

    memory_node  repro.fabric.memory_node.MemoryNode.*
    extent       repro.fabric.extent.ExtentTable.locate / split
    fabric       repro.fabric.fabric.Fabric.* (incl. the primitives mixin)
    client       repro.fabric.client.Client one-sided ops, submit, fence,
                 and FarFuture construction (repro.fabric.pipeline)
    faults       repro.fabric.faults.FaultInjector hooks
    integrity    Client.read_verified / write_framed and the
                 repro.fabric.integrity frame codecs
    alloc        repro.alloc.allocator.FarAllocator.alloc / alloc_words
    httree       repro.core.ht_tree.HTTree public ops (+ its split)
    txn          repro.txn.txn.TxnSpace public ops
    obs          repro.obs Tracer hooks and TelemetryRegistry's sink
    fmcost       repro.analysis.fmcost.CostModel.load_paths / solve

Calls are counted per wrapped function, so ratios such as "extent
locates per far access" are measured where the work happens.  A wrapped
module function is also replaced in every loaded module that imported
it by name (``repro.txn.txn`` calls ``frame_block`` that way), so those
calls are charged to its layer too.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (owner, attribute names or None for every public callable, layer)
_CLIENT_OPS = (
    "read", "write", "read_u64", "write_u64", "write_phys", "cas", "faa",
    "swap", "load0", "store0", "load1", "store1", "load2", "store2",
    "faai", "saai", "fsaai", "add0", "add1", "add2", "rscatter", "rgather",
    "wscatter", "wgather", "load0_u64", "load2_u64", "store0_u64",
    "store2_u64", "submit", "fence", "touch_local", "charge_far_access",
)  # fmt: skip


def _targets() -> list[tuple[Any, Any, str]]:
    from repro.alloc.allocator import FarAllocator
    from repro.analysis.fmcost import CostModel
    from repro.core.ht_tree import HTTree
    from repro.fabric import integrity
    from repro.fabric.client import Client
    from repro.fabric.extent import ExtentTable
    from repro.fabric.fabric import Fabric
    from repro.fabric.faults import FaultInjector
    from repro.fabric.memory_node import MemoryNode
    from repro.fabric.pipeline import FarFuture
    from repro.obs.telemetry import TelemetryRegistry
    from repro.obs.trace import Tracer
    from repro.txn.txn import TxnSpace

    tracer_hooks = [n for n in vars(Tracer) if n.startswith("on_")]
    return [
        (MemoryNode, None, "memory_node"),
        (ExtentTable, ("locate", "split"), "extent"),
        (Fabric, None, "fabric"),
        (Client, _CLIENT_OPS, "client"),
        (FarFuture, ("__init__",), "client"),
        (FaultInjector, (
            "before_access", "consume_latency_multiplier", "take_corruption",
            "take_torn_fraction",
        ), "faults"),  # fmt: skip
        (Client, ("read_verified", "write_framed"), "integrity"),
        (integrity, ("frame_block", "try_unframe"), "integrity"),
        (FarAllocator, ("alloc", "alloc_words"), "alloc"),
        (HTTree, (
            "get", "put", "multiget", "multistore", "delete", "scan", "_split",
        ), "httree"),  # fmt: skip
        (TxnSpace, (
            "run", "begin", "read", "write", "commit", "abort", "track_slot",
            "register", "init_cell", "recover",
        ), "txn"),  # fmt: skip
        (Tracer, (*tracer_hooks, "current_span", "attach"), "obs"),
        (TelemetryRegistry, ("on_trace_event",), "obs"),
        (CostModel, ("load_paths", "solve"), "fmcost"),
    ]


def _public_callables(cls: type) -> list[str]:
    names = []
    for klass in cls.__mro__:
        if klass is object:
            continue
        for name, value in vars(klass).items():
            if name.startswith("_") or name in names:
                continue
            if inspect.isfunction(value):
                names.append(name)
    return names


def _binders(fn: Callable, name: str) -> list[Any]:
    """Every loaded module whose attribute ``name`` is ``fn``: the
    defining module and each module that imported ``fn`` by name."""
    return [
        module
        for module in list(sys.modules.values())
        if getattr(module, "__dict__", {}).get(name) is fn
    ]


def calls_with_prefix(calls: dict[str, int], prefix: str) -> int:
    """Calls to wrapped functions whose ``Owner.name`` key starts with
    ``prefix`` (e.g. ``"MemoryNode."`` for the whole layer)."""
    return sum(n for key, n in calls.items() if key.startswith(prefix))


class LayerProfiler:
    """Self time (ns) and call counts per layer and per wrapped function."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)  # "Owner.name" -> calls
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- bookkeeping -----------------------------------------------------

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.inclusive_ns.clear()

    # -- installation ----------------------------------------------------

    def _wrap(self, fn: Callable, key: str, layer: str) -> Callable:
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        inclusive = self.inclusive_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            calls[key] += 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                inclusive[key] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return functools.wraps(fn)(wrapper)

    def install(self) -> "LayerProfiler":
        if self._installed:
            raise RuntimeError("layer wrappers already installed")
        for owner, names, layer in _targets():
            is_module = inspect.ismodule(owner)
            if names is None:
                names = _public_callables(owner)
            label = owner.__name__.rsplit(".", 1)[-1]
            for name in names:
                if is_module:
                    original = getattr(owner, name)
                    wrapped = self._wrap(original, f"{label}.{name}", layer)
                    for module in _binders(original, name):
                        self._installed.append((module, name, original))
                        setattr(module, name, wrapped)
                    continue
                holder = next(k for k in owner.__mro__ if name in vars(k))
                original = vars(holder)[name]
                if not inspect.isfunction(original):
                    continue  # properties, static/class methods
                key = f"{label}.{name}"
                self._installed.append((owner, name, vars(owner).get(name)))
                setattr(owner, name, self._wrap(original, key, layer))
        return self

    def uninstall(self) -> None:
        for owner, name, previous in reversed(self._installed):
            if previous is None:
                delattr(owner, name)  # the attribute was inherited
            else:
                setattr(owner, name, previous)
        self._installed.clear()
        self._stack.clear()

    def __enter__(self) -> "LayerProfiler":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
