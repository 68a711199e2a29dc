"""Shared machinery: the closed-loop phase runner, latency summaries,
simulated-count snapshots, peak RSS, forked phases, and the result record.

Every workload module builds on these pieces:

* :func:`closed_loop` drives one client loop (each op waits for its
  reply before the next is issued) over a pre-generated op stream, for a
  wall-clock budget or an exact op count, and snapshots the simulated
  counters at a fixed op index so two runs of one seed compare exactly.
* :class:`SimCounts` is that snapshot: far accesses, round trips and the
  per-client simulated clocks.  The zero-observer-effect guard compares
  them bit for bit across the bare, observed and traced phases.
* :func:`in_child` runs a phase in a forked child process, so the peak
  RSS it reads is that phase's own high-water mark.
* :class:`Result` collects metrics and op counts and renders
  the one-line JSON record the command prints last.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence


class CheckFailed(AssertionError):
    """A benchmark output did not match its oracle, or an op failed.

    ``attempted`` counts the ops issued in the failing phase, the
    failing one included, when the phase loop knows it."""

    attempted = 1


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return float(ordered[int(rank) - 1])


def latency_figures(samples: Sequence[float]) -> dict[str, float]:
    """p50, p99 and sample count of latencies in µs."""
    return {"p50": percentile(samples, 50), "p99": percentile(samples, 99), "n": len(samples)}


def peak_rss_mb() -> float:
    """High-water resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_child(fn: Callable[..., Any], *args: Any) -> Any:
    """Run ``fn(*args)`` in a forked child process and return its result.

    A forked child starts its RSS high-water mark at its current RSS,
    i.e. this process as it stands at the fork.  A peak RSS read inside
    ``fn`` therefore covers that fixed base plus what ``fn`` itself
    allocates, and none of what earlier phases allocated and freed.
    Return small results: what the parent keeps raises the base of the
    next child.  An exception in the child is raised again here.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        os.close(read_fd)
        try:
            try:
                payload = pickle.dumps((True, fn(*args)))
            except BaseException as err:  # noqa: BLE001 - handed to the parent
                try:
                    payload = pickle.dumps((False, err))
                except Exception:  # noqa: BLE001 - an unpicklable exception
                    payload = pickle.dumps((False, RuntimeError(repr(err))))
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"phase process ended without a result (wait status {status})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


# ---------------------------------------------------------------------------
# Simulated counters (the invariants)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimCounts:
    """Simulated cost of a prefix of a phase, summed over its clients."""

    far_accesses: int
    round_trips: int
    clocks_ns: tuple[float, ...]

    @classmethod
    def of(cls, clients: Iterable[Any]) -> "SimCounts":
        clients = list(clients)
        return cls(
            far_accesses=sum(c.metrics.far_accesses for c in clients),
            round_trips=sum(c.metrics.round_trips for c in clients),
            clocks_ns=tuple(c.clock.now_ns for c in clients),
        )

    def minus(self, base: "SimCounts") -> "SimCounts":
        return SimCounts(
            far_accesses=self.far_accesses - base.far_accesses,
            round_trips=self.round_trips - base.round_trips,
            clocks_ns=tuple(a - b for a, b in zip(self.clocks_ns, base.clocks_ns)),
        )

    @property
    def sim_ns(self) -> float:
        return float(sum(self.clocks_ns))


def check_same_sim(reference: SimCounts, other: SimCounts, label: str) -> None:
    """The zero-observer-effect guard: bit-identical simulated counts."""
    if reference != other:
        raise CheckFailed(
            f"observer effect: {label} simulated counts {other} differ from "
            f"the bare run's {reference}"
        )


# ---------------------------------------------------------------------------
# The closed-loop phase runner
# ---------------------------------------------------------------------------


def span(timeline: Optional[Any], t0: float, t1: float) -> float:
    """Seconds between two raw ``perf_counter`` stamps: reference seconds
    when a stopped :class:`speed.Timeline` covered them, else wall."""
    return timeline.span(t0, t1) if timeline is not None else t1 - t0


@dataclass
class Phase:
    """What one closed-loop phase measured.

    ``ops`` counts logical ops completed (one per latency sample; a
    stream entry may complete more than one, e.g. teller A's transaction
    and teller B's inside it).  ``stream_ops`` counts stream entries
    issued.  ``sim`` and ``sim_ops`` describe the fixed prefix
    of the first ``sim_ops`` stream entries.  Times are kept as raw
    stamps until :meth:`finish` converts them.
    """

    ops: int = 0
    stream_ops: int = 0
    start: float = 0.0
    end: float = 0.0
    # kind -> (t0, t1, h0, h1): the op ran from t0 to t1, minus [h0, h1)
    stamps: dict[str, list[tuple[float, float, float, float]]] = field(default_factory=dict)
    sim: Optional[SimCounts] = None  # simulated cost of the fixed prefix
    sim_ops: int = 0  # logical ops completed within the fixed prefix
    rss_mb: float = 0.0  # peak RSS when the fixed prefix completed
    elapsed_s: float = 0.0
    latencies_us: dict[str, list[float]] = field(default_factory=dict)

    def finish(self, timeline: Optional[Any]) -> "Phase":
        """Convert stamps into ``elapsed_s`` and per-kind latencies (µs)."""
        self.elapsed_s = span(timeline, self.start, self.end)
        self.latencies_us = {
            kind: [
                (span(timeline, t0, t1) - span(timeline, h0, h1)) * 1e6
                for t0, t1, h0, h1 in stamps
            ]
            for kind, stamps in self.stamps.items()
        }
        return self

    def summarize(self) -> "Phase":
        """Keep each kind's :func:`latency_figures`, drop the raw samples
        (what a forked phase sends back must stay small)."""
        self.latencies_us = {
            kind: latency_figures(samples) for kind, samples in self.latencies_us.items() if samples
        }
        self.stamps = {}
        return self

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed_s


def closed_loop(
    stream: Sequence[Any],
    do_op: Callable[[Any], Any],
    *,
    sim_ops: int,
    sim_counts: Callable[[], SimCounts],
    seconds: Optional[float] = None,
) -> Phase:
    """Issue ``stream`` entries one at a time, cycling through the stream.

    ``do_op(entry)`` performs the entry and returns either the latency
    class of the one op it performed (``"read"`` or ``"write"``; it is
    timed here) or a list of ``(class, t0, t1, h0, h1)`` stamps it took
    itself: an op from ``t0`` to ``t1`` that excludes the hole
    ``[h0, h1)``.  With ``seconds`` the loop runs until that much wall
    time is spent *and* at least ``sim_ops`` entries are done; without
    it, exactly ``sim_ops`` entries run.  Simulated counts and peak RSS
    are snapshotted right after entry number ``sim_ops``, so they do not
    depend on host speed.  No entry may fail: an entry that raises ends
    the loop with a :class:`CheckFailed` (the workloads inject no fault
    that their retry policies cannot absorb).
    """
    phase = Phase()
    stamps: dict[str, list] = {"read": [], "write": []}
    base = sim_counts()
    clock = time.perf_counter
    n = len(stream)
    phase.start = clock()
    deadline = phase.start + seconds if seconds is not None else None
    i = done = 0
    while True:
        entry = stream[i % n]
        t0 = clock()
        try:
            outcome = do_op(entry)
        except CheckFailed as err:
            err.attempted = done + 1
            raise
        except Exception as err:
            failed = CheckFailed(f"op {i} ({entry!r}) failed: {type(err).__name__}: {err}")
            failed.attempted = done + 1
            raise failed from err
        t1 = clock()
        if isinstance(outcome, str):
            stamps[outcome].append((t0, t1, t1, t1))
            done += 1
        else:
            for kind, *marks in outcome:
                stamps[kind].append(tuple(marks))
            done += len(outcome)
        i += 1
        if i == sim_ops:
            phase.sim = sim_counts().minus(base)
            phase.sim_ops = done
            phase.rss_mb = peak_rss_mb()
            if deadline is None:
                break
        if i >= sim_ops and deadline is not None and t1 >= deadline:
            break
    phase.end = clock()
    phase.ops = done
    phase.stream_ops = i
    phase.stamps = stamps
    return phase


# ---------------------------------------------------------------------------
# The result record
# ---------------------------------------------------------------------------


class Result:
    """Metrics and op counts of one benchmark run."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, Any] = {}
        self.attempted = 0  # ops issued; every one succeeded (else CheckFailed)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def latency(self, prefix: str, figures: dict[str, float]) -> None:
        """``<prefix>_p50_us`` and ``<prefix>_p99_us`` from
        :func:`latency_figures`."""
        self.put(f"{prefix}_p50_us", figures["p50"], "us")
        self.put(f"{prefix}_p99_us", figures["p99"], "us")
        self.notes[f"{prefix}_samples"] = figures["n"]

    def record(self, wanted: Sequence[str]) -> dict[str, Any]:
        """The final JSON object, restricted to the ``wanted`` metrics.
        Every check passed: a failed check raises :class:`CheckFailed`."""
        missing = [name for name in wanted if name not in self.metrics]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return {
            "correct": True,
            "attempted": int(self.attempted),
            "failed": 0,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in wanted
            },
        }
