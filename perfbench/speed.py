"""Reference time: host wall time with the host's momentary speed
factored out.

A shared host does not run at one speed. Neighbouring work changes how
fast this process executes, by up to ~2x, over a few seconds. Raw wall
times taken a minute apart therefore differ by more than most changes
this benchmark should detect.

While a :class:`Timeline` runs, a ``SIGALRM`` timer interrupts the
process every ``PERIOD_S`` seconds. Each interrupt runs a fixed
calibration chunk: pure-Python object, dict and bytes work that shares
no code with ``repro``. The chunk takes ``REF_CHUNK_S`` on the reference
host and ``c`` now, so the host currently runs ``c / REF_CHUNK_S`` times
slower. Each stretch between two interrupts is divided by that factor,
averaged over the chunks of the surrounding second (single chunks are
too noisy; the host's speed states last seconds) and raised to the
timeline's ``exponent``. Time spent inside interrupts counts as zero. A
change to ``repro`` cannot speed up or slow down the chunk, so a real
speed-up shows at full size, while a slow period of the host cancels
out.

The exponent says how strongly the measured code feels the host's
slowdowns compared with the chunk: the slope of log(op time) against
log(chunk time) over one-second windows of one process.  It is a
property of the measured code, so each workload passes its own measured
value (1.0 when its code slows down exactly as the chunk does).

Timing code records raw ``time.perf_counter()`` stamps. :meth:`span`
converts a pair of stamps into reference seconds once the timeline has
stopped.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_right
from typing import Optional

PERIOD_S = 0.02
REF_CHUNK_S = 0.001  # the chunk's duration on the reference host
SMOOTH = 25  # chunks on each side of a stretch whose mean sets its factor


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def step(self, k: int) -> int:
        self.x = (self.x * 31 + k) & 0xFFFF
        return self.x


class Calibration:
    """Fixed interpreter-bound work: small objects, method calls, dict
    lookups and int/bytes conversions, over a working set that stays in
    the core's caches.  (A variant that also did random reads over a
    4 MiB buffer tracked this benchmark's ops about half as well.)

    Changing this work rescales every host-time metric; treat it as the
    definition of the unit."""

    def __init__(self) -> None:
        self.table = {i: i * 3 for i in range(512)}
        self.items = list(range(600))

    def run(self) -> int:
        acc = 0
        table, from_bytes = self.table, int.from_bytes
        for j in self.items:
            cell = _Cell(j, j * 7)
            cell.x += cell.y
            acc += cell.step(j) + table.get(j & 511, 0)
            table[j & 255] = acc & 0xFFFF
            raw = (acc & 0xFFFFFFFF).to_bytes(8, "little")
            acc ^= from_bytes(raw[2:6], "little")
        return acc


class Timeline:
    """Converts raw ``perf_counter`` stamps into reference seconds."""

    def __init__(self, period_s: float = PERIOD_S, exponent: float = 1.0) -> None:
        self.period_s = period_s
        self.exponent = exponent
        self.starts: list[float] = []  # interrupt entry stamps
        self.ends: list[float] = []  # interrupt exit stamps
        self.chunks: list[float] = []  # calibration chunk durations
        self.calibration = Calibration()
        self._ref_at: list[float] = []  # reference seconds at interrupt k's entry
        self._slowdowns: list[float] = []  # the chunk's, around interrupt k
        self._factors: list[float] = []  # slowdown ** exponent
        self._previous = None
        self.running = False

    # -- sampling ------------------------------------------------------

    def _sample(self, *_: object) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.calibration.run()
            chunk = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        self.starts.append(start)
        self.chunks.append(chunk)
        self.ends.append(time.perf_counter())

    def start(self) -> "Timeline":
        self.calibration.run()  # first touch of the chunk's data
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self.running = True
        return self

    def stop(self) -> "Timeline":
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()
        self.running = False
        self._finalize()
        return self

    def __enter__(self) -> "Timeline":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- conversion ----------------------------------------------------

    def _finalize(self) -> None:
        chunks = self.chunks
        n = len(chunks)
        self._slowdowns = [0.0] * n  # of the stretch that ends at interrupt k
        self._factors = [0.0] * n
        self._ref_at = [0.0] * n
        for k in range(1, n):
            window = chunks[max(0, k - SMOOTH) : k + SMOOTH]
            slowdown = (sum(window) / len(window)) / REF_CHUNK_S
            self._slowdowns[k] = slowdown
            self._factors[k] = slowdown**self.exponent
            stretch = self.starts[k] - self.ends[k - 1]
            self._ref_at[k] = self._ref_at[k - 1] + stretch / self._factors[k]

    def at(self, stamp: float) -> float:
        """Reference seconds from the first interrupt to raw ``stamp``."""
        if self.running:
            raise RuntimeError("stop the timeline before converting stamps")
        k = bisect_right(self.ends, stamp)  # interrupts finished by ``stamp``
        if k == 0:
            raise ValueError("stamp precedes the timeline")
        if k >= len(self.ends):
            raise ValueError("stamp follows the timeline")
        base = self._ref_at[k - 1]
        if stamp >= self.starts[k]:
            return self._ref_at[k]  # inside interrupt k: frozen
        return base + (stamp - self.ends[k - 1]) / self._factors[k]

    def span(self, t0: float, t1: float) -> float:
        """Reference seconds between raw stamps ``t0`` <= ``t1``."""
        return self.at(t1) - self.at(t0)

    @property
    def mean_slowdown(self) -> Optional[float]:
        """Mean slowdown of the chunk against its reference duration,
        over the timeline."""
        slowdowns = self._slowdowns[1:]
        return sum(slowdowns) / len(slowdowns) if slowdowns else None
