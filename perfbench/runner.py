"""The phase plan shared by the two fabric workloads (ycsb-a, txn-bank).

A workload module supplies a :class:`Workload`: how to generate its op
stream from the seed, and how to build a fresh, warmed :class:`Bench`
(cluster + structure + measuring clients + oracle).  Every phase runs
on its own fresh bench built after ``Client.reset_ids()``, so phases of
one seed start from bit-identical simulated state.

Untraced run (``--trace 0``), each phase in its own forked child
process so that each peak RSS reading is that phase's own::

    bare phase      setup, closed loop for half the time budget
                    (>= sim_ops ops), then one more setup
    observed phase  setup, the same loop with a Tracer + TelemetryRegistry
                    attached
    more setups     in this process, once both phases have ended, up to
                    the workload's ``setups``; setup_s is their median

Traced run (``--trace 1``)::

    bare phase      exactly sim_ops ops, no wrappers (the reference wall)
    traced setup    with layer wrappers (alloc, split figures)
    traced phase    exactly sim_ops ops with layer wrappers
    traced observed exactly sim_ops ops, wrappers + observers (obs figures)

The simulated counts of the first ``sim_ops`` ops must be identical in
every phase of a run (zero observer effect, benchmark wrappers
included); a difference fails the run.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from harness import Phase, Result, SimCounts, check_same_sim, closed_loop, in_child
from layers import LayerProfiler, calls_with_prefix
from speed import Timeline

# How strongly ycsb-a and txn-bank feel the host's slowdowns compared with
# the calibration chunk (speed.Timeline's exponent).  Fitted over sixty
# one-second windows of one process on a 2-core KVM guest whose chunk
# ranged 0.55-1.1 ms: ycsb-a 0.77 and 0.77, txn-bank 0.70 and 0.80.  With
# an exponent of 1 the slow host states over-corrected and the fabric
# metrics split into two modes ~15% apart across runs.
HOST_EXPONENT = 0.76


class Bench:
    """One freshly built, warmed instance of a workload's system."""

    clients: Sequence[Any] = ()
    items_loaded: int = 0  # setup inserts / accounts

    def do_op(self, op: Any) -> str:  # pragma: no cover - interface
        raise NotImplementedError

    def attach(self, tracer: Any) -> None:
        for client in self.clients:
            tracer.attach(client)

    def audit(self) -> None:
        """End-of-phase correctness check beyond the per-op oracle."""

    def structure_counters(self) -> dict[str, int]:
        """Structure-level event counters (e.g. HT-tree chain hops)."""
        return {}

    def sim_counts(self) -> SimCounts:
        return SimCounts.of(self.clients)

    def metric_sum(self, field: str) -> int:
        return sum(getattr(c.metrics, field) for c in self.clients)


@dataclass
class Workload:
    name: str
    generate: Callable[[int], Sequence[Any]]
    build: Callable[[int], Bench]
    sim_ops: int
    setups: int = 3  # timed setups per untraced run (>= 3); setup_s is their median


def _observe(bench: Bench):
    from repro.obs import TelemetryRegistry, Tracer

    tracer = Tracer()
    registry = TelemetryRegistry().observe(tracer)
    bench.attach(tracer)
    return tracer, registry


def _fresh(workload: Workload, seed: int) -> tuple[Bench, tuple[float, float]]:
    """A fresh bench plus the raw stamps bracketing its setup."""
    gc.collect()
    start = time.perf_counter()
    bench = workload.build(seed)
    return bench, (start, time.perf_counter())


def _phase(
    bench: Bench, stream: Sequence[Any], sim_ops: int, seconds: Optional[float]
) -> Phase:
    """One closed-loop phase; the caller audits once it has read the
    counters it needs (the audit itself issues far accesses)."""
    return closed_loop(
        stream,
        bench.do_op,
        sim_ops=sim_ops,
        sim_counts=bench.sim_counts,
        seconds=seconds,
    )


def _timed_phase(
    workload: Workload, seed: int, stream: Sequence[Any], seconds: float, observe: bool, setups: int
) -> tuple[Phase, list[float], float]:
    """An untraced phase, run in a forked child (:func:`harness.in_child`)
    so its peak RSS is its own: a fresh setup, the closed loop (with the
    observers attached if ``observe``), the audit, then ``setups - 1``
    more setups.  Returns the summarized phase, the setup times in
    reference seconds, and the host's mean slowdown."""
    took = []
    with Timeline(exponent=HOST_EXPONENT) as timeline:
        while len(took) < setups:
            bench, stamps = _fresh(workload, seed)
            took.append(stamps)
            if len(took) == 1:
                if observe:
                    _observe(bench)
                phase = _phase(bench, stream, workload.sim_ops, seconds)
                bench.audit()
            del bench
    phase.finish(timeline).summarize()
    return phase, [timeline.span(*stamps) for stamps in took], timeline.mean_slowdown


def run_untraced(workload: Workload, seed: int, seconds: float, result: Result) -> None:
    start = time.perf_counter()
    stream = workload.generate(seed)
    result.notes["generate_s"] = round(time.perf_counter() - start, 4)
    gc.collect()

    bare, bare_setups, bare_slowdown = in_child(
        _timed_phase, workload, seed, stream, seconds / 2, False, 2
    )
    result.attempted += bare.ops
    observed, observed_setups, observed_slowdown = in_child(
        _timed_phase, workload, seed, stream, seconds / 2, True, 1
    )
    result.attempted += observed.ops
    check_same_sim(bare.sim, observed.sim, "observed")
    more = []
    with Timeline(exponent=HOST_EXPONENT) as timeline:
        while len(more) < workload.setups - 3:
            bench, stamps = _fresh(workload, seed)
            more.append(stamps)
            del bench
    setup_s = bare_setups + observed_setups + [timeline.span(*stamps) for stamps in more]

    result.put("ops_per_s", bare.ops_per_s, "1/s")
    result.latency("read", bare.latencies_us["read"])
    result.latency("write", bare.latencies_us["write"])
    result.put("setup_s", statistics.median(setup_s), "s")
    result.put("peak_rss_mb", bare.rss_mb, "MB")
    result.put("far_accesses_per_op", bare.sim.far_accesses / bare.sim_ops, "count")
    result.put("observed_ops_per_s", observed.ops_per_s, "1/s")
    result.put("observed_peak_rss_mb", observed.rss_mb, "MB")
    result.notes["sim_round_trips_per_op"] = bare.sim.round_trips / bare.sim_ops
    result.notes["sim_us_per_op"] = bare.sim.sim_ns / 1e3 / bare.sim_ops
    result.notes["bare_ops"] = bare.ops
    result.notes["observed_ops"] = observed.ops
    result.notes["setup_runs_s"] = [round(s, 4) for s in setup_s]
    result.notes["host_slowdown"] = [round(bare_slowdown, 4), round(observed_slowdown, 4)]
    result.notes["zero_observer_effect"] = "bare == observed"


def run_traced(workload: Workload, seed: int, result: Result) -> None:
    stream = workload.generate(seed)
    k = workload.sim_ops
    put = result.put

    bench, _ = _fresh(workload, seed)
    reference = _phase(bench, stream, k, None).finish(None)
    bench.audit()
    del bench

    profiler = LayerProfiler()
    with profiler:
        bench, _ = _fresh(workload, seed)
        setup_calls, setup_ns = dict(profiler.calls), dict(profiler.self_ns)
        split_ns = profiler.inclusive_ns.get("HTTree._split", 0)
        at_setup, items = bench.structure_counters(), bench.items_loaded
        profiler.reset()
        before = _client_counters(bench)
        traced = _phase(bench, stream, k, None).finish(None)
        delta = {f: v - before[f] for f, v in _client_counters(bench).items()}
        hops = bench.structure_counters().get("chain_hops", 0) - at_setup.get("chain_hops", 0)
        layer_calls, layer_ns = dict(profiler.calls), dict(profiler.self_ns)
        bench.audit()
        del bench
    check_same_sim(reference.sim, traced.sim, "traced")

    bench, _ = _fresh(workload, seed)
    tracer, _ = _observe(bench)
    with profiler:
        profiler.reset()
        observed = _phase(bench, stream, k, None).finish(None)
        obs_ns = profiler.self_ns.get("obs", 0)
    events = len(tracer.events)
    bench.audit()
    del bench, tracer
    check_same_sim(reference.sim, observed.sim, "traced+observed")

    result.attempted += reference.ops + traced.ops + observed.ops
    far = traced.sim.far_accesses
    ops = traced.ops  # logical ops in the traced phase

    def per_op(ns: int) -> float:
        return ns / 1e3 / ops

    put("memory_node.calls_per_op", calls_with_prefix(layer_calls, "MemoryNode.") / ops, "1/op")
    put("memory_node.self_us_per_op", per_op(layer_ns.get("memory_node", 0)), "us/op")
    put("extent.locate_per_far_access", layer_calls.get("ExtentTable.locate", 0) / far, "1/access")
    put("extent.split_per_far_access", layer_calls.get("ExtentTable.split", 0) / far, "1/access")
    put("extent.self_us_per_op", per_op(layer_ns.get("extent", 0)), "us/op")
    put("fabric.calls_per_op", calls_with_prefix(layer_calls, "Fabric.") / ops, "1/op")
    put("fabric.self_us_per_op", per_op(layer_ns.get("fabric", 0)), "us/op")
    put("client.self_us_per_far_access", layer_ns.get("client", 0) / 1e3 / far, "us/access")
    put(
        "client.futures_per_far_access",
        layer_calls.get("FarFuture.__init__", 0) / far,
        "1/access",
    )
    flushes = delta["pipeline_flushes"]
    put("client.ops_per_flush", delta["pipeline_ops"] / flushes if flushes else 0.0, "1/flush")
    put("client.retries_per_op", delta["retries"] / ops, "1/op")
    put("client.timeouts_per_op", delta["timeouts"] / ops, "1/op")
    put("faults.self_us_per_op", per_op(layer_ns.get("faults", 0)), "us/op")
    put("integrity.self_us_per_op", per_op(layer_ns.get("integrity", 0)), "us/op")
    put("integrity.verify_misses_per_op", delta["verify_misses"] / ops, "1/op")
    put("alloc.calls_per_op", calls_with_prefix(setup_calls, "FarAllocator.") / items, "1/item")
    put("alloc.setup_self_s", setup_ns.get("alloc", 0) / 1e9, "s")
    put("httree.self_us_per_op", per_op(layer_ns.get("httree", 0)), "us/op")
    put("httree.chain_hops_per_op", hops / ops, "1/op")
    put("httree.splits", at_setup.get("splits", 0), "count")
    put("httree.setup_split_s", split_ns / 1e9, "s")
    commits, aborts = delta["txn_commits"], delta["txn_aborts"]
    attempts = commits + aborts
    put("txn.self_us_per_op", per_op(layer_ns.get("txn", 0)), "us/op")
    put("txn.commit_ratio", commits / attempts if attempts else 0.0, "ratio")
    put("txn.aborts_per_commit", aborts / commits if commits else 0.0, "ratio")
    put("obs.self_us_per_far_access", obs_ns / 1e3 / far, "us/access")
    put("obs.events_retained", events, "count")
    put("fmcost.index_s", 0.0, "s")
    put("fmcost.solve_s", 0.0, "s")
    put("fmcost.certificate_s", 0.0, "s")
    put("fmcost.ops_certified", 0, "count")
    put("trace.overhead_ratio", traced.elapsed_s / reference.elapsed_s, "ratio")
    put("sim.far_accesses_per_op", far / ops, "1/op")
    put("sim.round_trips_per_op", traced.sim.round_trips / ops, "1/op")
    put("sim.us_per_op", traced.sim.sim_ns / 1e3 / ops, "us/op")
    result.notes["zero_observer_effect"] = "bare == traced == traced+observed"


_CLIENT_FIELDS = (
    "pipeline_ops", "pipeline_flushes", "retries", "timeouts",
    "verify_misses", "txn_commits", "txn_aborts",
)  # fmt: skip


def _client_counters(bench: Bench) -> dict[str, int]:
    return {f: bench.metric_sum(f) for f in _CLIENT_FIELDS}
