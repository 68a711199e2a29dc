"""The client-side view of far memory: a NIC with accounting.

A :class:`Client` is one "processor in the cluster" (section 1): it issues
one-sided operations against the fabric, pays simulated latency on its own
:class:`~repro.fabric.latency.SimClock`, and records exact operation
counts in its :class:`~repro.fabric.metrics.Metrics`.

The NIC is modelled the way real RDMA/Gen-Z dataplanes work — an
asynchronous submission/completion pipeline (:mod:`repro.fabric.pipeline`)
with the synchronous API as a thin veneer:

* **Submission** (:meth:`submit`): post one operation, get a
  :class:`~repro.fabric.pipeline.FarFuture`. Up to :attr:`qp_depth`
  submissions stay outstanding in the current *overlap window*; hitting
  the bound rings the doorbell (the window flushes, costing ``max(op
  latencies) + (n - 1) * issue_ns`` — overlap hides latency, not work).
* **Completion** (:attr:`cq`): a completion queue with ``poll()`` /
  ``wait_all()``; ``FarFuture.result()`` completes through it.
* **Synchronous shims**: every classic method (:meth:`read`,
  :meth:`write`, :meth:`cas`, the Fig. 1 primitives, scatter/gather) is
  ``submit(...).result()`` — a one-deep window, charging exactly what the
  pre-pipeline client charged.
* **Batch windows** (:meth:`batch`): a scope that holds the window open
  regardless of depth, so every operation inside overlaps — the
  doorbell-batching façade, reimplemented on the pipeline.
* **Fences** (:meth:`fence`): an ordering point — the open window flushes,
  so operations before the fence complete before operations after it
  (section 2's memory-barrier assumption, "provided using request
  completion queues").
* **ERROR-policy completion**: when cross-node indirection is refused
  (section 7.1), the client transparently completes the pending access
  with a second, direct round trip — and the metrics show the cost.
* **Retry + circuit breaking**: every one-sided op passes through
  :meth:`Client._issue`, which transparently retries transient fabric
  faults (:mod:`repro.fabric.faults`) with exponential backoff and
  deterministic jitter (:mod:`repro.fabric.retry`), charges timeout and
  backoff time to the *operation's own* window contribution — so a
  retried future overlaps the rest of its window instead of stalling
  it — and fails fast per memory node via a circuit breaker once
  failures persist. Pass ``retry_policy=None`` / ``breaker_policy=None``
  to disable either layer. Either way every op runs the same attempt
  loop: with ``retry_policy=None`` it makes one attempt, and a timeout
  still costs ``timeout_ns`` and counts in ``metrics.timeouts``.

Clients also own a notification inbox; the notification subsystem
(:mod:`repro.notify`) delivers into it and :meth:`poll_notifications`
drains it.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

from .errors import (
    CircuitOpenError,
    ClientDeadError,
    FarCorruptionError,
    FarTimeoutError,
    NodeUnavailableError,
    RemoteIndirectionError,
)
from .fabric import Fabric, FabricResult
from .latency import SimClock
from .metrics import Metrics
from .pipeline import CompletionQueue, FarFuture
from .primitives import FarIovec, PendingIndirection
from .retry import BreakerPolicy, CircuitBreaker, RetryPolicy
from .wire import WORD, decode_u64, encode_u64

DEFAULT_RETRY_POLICY = RetryPolicy()
DEFAULT_BREAKER_POLICY = BreakerPolicy()

DEFAULT_QP_DEPTH = 16
"""Default bound on outstanding submissions (RDMA queue-pair depth)."""

# Observability hook: when set (see repro.obs.set_default_tracer), every
# subsequently-created client auto-attaches to the provided tracer. This
# is how `python -m repro trace <example>` observes unmodified scripts.
_default_tracer_provider = None


class _NullSpan:
    """The no-op span returned by Client.trace when no tracer is attached
    — so data structures can open spans unconditionally at zero cost."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Client:
    """One compute-node client of the far memory pool."""

    _next_id = 0

    def __init__(
        self,
        fabric: Fabric,
        name: Optional[str] = None,
        *,
        auto_complete_indirection: bool = True,
        retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
        breaker_policy: Optional[BreakerPolicy] = DEFAULT_BREAKER_POLICY,
        qp_depth: int = DEFAULT_QP_DEPTH,
    ) -> None:
        if qp_depth < 1:
            raise ValueError("qp_depth must be >= 1")
        self.fabric = fabric
        self.client_id = Client._next_id
        Client._next_id += 1
        self.name = name or f"client-{self.client_id}"
        self.clock = SimClock()
        self.metrics = Metrics()
        self.auto_complete_indirection = auto_complete_indirection
        self.retry_policy = retry_policy
        self.breaker_policy = breaker_policy
        self.breakers: dict[int, CircuitBreaker] = {}
        self.alive = True
        self.qp_depth = qp_depth
        self.cq = CompletionQueue(self)
        self._inbox: deque = deque()
        # The open overlap window: latency contributions awaiting the
        # doorbell, and the futures whose charges they are.
        self._window_charges: list[float] = []
        self._window_futures: list[FarFuture] = []
        self._batch_depth = 0
        # The future whose operation is currently executing; all latency
        # charged while it is set folds into that future's contribution.
        self._issue_ctx: Optional[FarFuture] = None
        # Observability (repro.obs). The tracer is a pure observer: every
        # hook below is bookkeeping only, so metrics and timestamps are
        # bit-identical with tracing on or off. _trace_node/_trace_addr/
        # _trace_target carry the memory node, issue address, and resolved
        # indirection target from _issue to _account_far (tracing only;
        # the race detector in repro.analysis.races consumes them).
        self._tracer = None
        self._trace_node: Optional[int] = None
        self._trace_addr: Optional[int] = None
        self._trace_target: Optional[int] = None
        if _default_tracer_provider is not None:
            tracer = _default_tracer_provider()
            if tracer is not None:
                tracer.attach(self)

    @classmethod
    def reset_ids(cls) -> None:
        """Reset the global client-id counter.

        Client ids seed names, lock tokens, and retry jitter; tests reset
        the counter (see ``tests/conftest.py``) so those stay
        deterministic regardless of which tests ran earlier in the
        process.
        """
        cls._next_id = 0

    # ------------------------------------------------------------------
    # Crash simulation (section 2: separate fault domains — a client
    # failure leaves far memory intact)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this client: volatile state (inbox, open window,
        unreaped completions) is lost, future operations raise, and any
        far-memory state it left behind (held locks, queue claims,
        half-migrated items) stays put for other clients to recover
        (:mod:`repro.recovery`)."""
        self.alive = False
        self._inbox.clear()
        self._window_charges = []
        doomed, self._window_futures = self._window_futures, []
        error = ClientDeadError(f"{self.name} has crashed")
        for future in doomed:
            future._fail(error)
            future._complete(self.clock.now_ns)
        self.cq._clear()

    def _check_alive(self) -> None:
        if not self.alive:
            raise ClientDeadError(f"{self.name} has crashed")

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------

    @property
    def tracer(self):
        """The attached :class:`repro.obs.Tracer`, or None."""
        return self._tracer

    def trace(self, label: str, **tags: Any):
        """Open a tracing span attributing this client's work to ``label``.

        With no tracer attached this returns a shared no-op context
        manager, so data structures call it unconditionally and untraced
        runs stay bit-identical (no allocation, no metric, no clock).
        """
        if self._tracer is None:
            return _NULL_SPAN
        return self._tracer.span(self, label, **tags)

    # ------------------------------------------------------------------
    # Transactions (repro.txn)
    # ------------------------------------------------------------------

    def transaction(self, space: Any, **kwargs: Any):
        """Open a single-attempt optimistic transaction scope on
        ``space`` (a :class:`repro.txn.TxnSpace`): commit on clean exit,
        abort on exception. Thin forwarder — the protocol lives in
        :meth:`TxnSpace.transaction`, which avoids an import cycle."""
        return space.transaction(self, **kwargs)

    def run_transaction(self, space: Any, fn: Any, **kwargs: Any) -> Any:
        """Run ``fn(txn)`` on ``space`` with bounded abort/retry and
        backoff folded into this client's window charge
        (:meth:`TxnSpace.run`)."""
        return space.run(self, fn, **kwargs)

    # ------------------------------------------------------------------
    # Time + accounting plumbing
    # ------------------------------------------------------------------

    @property
    def cost_model(self):
        """The fabric's cost model (shared by all clients)."""
        return self.fabric.cost_model

    def _advance(self, ns: float) -> None:
        """Charge ``ns`` of far latency.

        Inside an executing operation the charge folds into that
        operation's window contribution (this is what lets a retried op's
        timeout + backoff ladder overlap its window peers — see the
        retry/batch accounting note in :meth:`_issue`). A bare charge
        inside a batch scope becomes its own window entry; otherwise the
        clock advances immediately.
        """
        if self._issue_ctx is not None:
            self._issue_ctx.charge_ns += ns
        elif self._batch_depth > 0:
            self._window_charges.append(ns)
        else:
            self.clock.advance(ns)

    def _account_far(
        self,
        *,
        nbytes_read: int = 0,
        nbytes_written: int = 0,
        forward_hops: int = 0,
        segments: int = 1,
        atomic: bool = False,
    ) -> None:
        m = self.metrics
        m.far_accesses += 1
        m.round_trips += 1
        m.network_traversals += 2 * max(1, segments) + forward_hops
        m.bytes_read += nbytes_read
        m.bytes_written += nbytes_written
        m.indirection_forwards += forward_hops
        if atomic:
            m.atomic_ops += 1
        # A latency-spike fault slows this op without failing it; the
        # multiplier is 1.0 whenever no injector is attached or no spike
        # fired, so the fault-free path charges exactly what it always has.
        charge = self.fabric.consume_fault_latency() * self.cost_model.far_access_ns(
            nbytes_read + nbytes_written, forward_hops=forward_hops
        )
        self._advance(charge)
        if self._tracer is not None:
            self._tracer.on_far_access(
                self,
                op=self._issue_ctx.op if self._issue_ctx is not None else None,
                charge_ns=charge,
                node=self._trace_node,
                addr=self._trace_addr,
                target=self._trace_target,
                nbytes_read=nbytes_read,
                nbytes_written=nbytes_written,
                forward_hops=forward_hops,
                segments=segments,
                atomic=atomic,
            )
            self._trace_target = None

    def charge_far_access(
        self, *, nbytes_read: int = 0, nbytes_written: int = 0
    ) -> None:
        """Charge this client for one far access performed on its behalf
        by another subsystem (e.g. installing a notification subscription
        at a memory node)."""
        self._trace_node = None  # no address: the tracer sees "external"
        self._trace_addr = None
        self._account_far(nbytes_read=nbytes_read, nbytes_written=nbytes_written)

    def touch_local(self, count: int = 1) -> None:
        """Charge ``count`` client-local (near) accesses — data structures
        call this when they walk their caches (section 3: trading far
        accesses for near accesses). Near accesses never enter the NIC
        pipeline; they charge the clock directly."""
        self.metrics.near_accesses += count
        self.clock.advance(self.cost_model.near_access_ns(count))

    # ------------------------------------------------------------------
    # Submission / completion pipeline
    # ------------------------------------------------------------------

    def submit(
        self, op: str, *args: Any, signaled: bool = True, **kwargs: Any
    ) -> FarFuture:
        """Post one far operation to the submission queue.

        ``op`` names any one-sided method (``"read"``, ``"write"``,
        ``"cas"``, ``"load0"``, ``"rgather"``, ...); the operation
        executes with its latency deferred into the open overlap window
        and a :class:`FarFuture` is returned immediately. At most
        :attr:`qp_depth` submissions stay outstanding — the window
        flushes automatically when full (counted in
        ``metrics.pipeline_stalls``). Completions are reaped via
        :attr:`cq` or ``FarFuture.result()``.

        ``signaled=False`` posts an *unsignaled* work request (RDMA
        idiom): the future never lands in the completion queue, so a
        caller that holds the future and reaps it directly — the
        synchronous shims, the data structures' pipelined bulk paths —
        leaves no CQ entries behind.

        Errors (timeout after retries, open breaker, address faults)
        are captured in the future and raised at ``result()`` time, as a
        completion-queue error entry would be.
        """
        return self._submit(op, args, kwargs, tracked=signaled)

    def _submit(
        self, op: str, args: tuple, kwargs: dict, *, tracked: bool
    ) -> FarFuture:
        impl = getattr(self, "_op_" + op, None)
        if impl is None:
            raise ValueError(f"unknown far operation {op!r}")
        future = FarFuture(self, op)
        if self._issue_ctx is not None:
            # Nested issue (e.g. ERROR-policy completion re-entering
            # read/write): fold into the enclosing operation — its charge
            # and accounting belong to the outer future.
            try:
                future._resolve(impl(*args, **kwargs))
            except Exception as err:
                future._fail(err)
            future._complete(self.clock.now_ns)
            return future
        self._check_alive()
        self.metrics.pipeline_ops += 1
        if self._tracer is not None:
            span = self._tracer.current_span(self)
            future.span_id = span.span_id if span is not None else None
        self._issue_ctx = future
        try:
            future._resolve(impl(*args, **kwargs))
        except Exception as err:
            future._fail(err)
        finally:
            self._issue_ctx = None
        if tracked:
            future._tracked = True
        self._window_charges.append(future.charge_ns)
        self._window_futures.append(future)
        if self._batch_depth == 0 and len(self._window_futures) >= self.qp_depth:
            self.metrics.pipeline_stalls += 1
            if self._tracer is not None:
                self._tracer.on_stall(self)
            self._flush_window(reason="stall")
        return future

    def _flush_window(self, reason: str = "drain") -> None:
        """Ring the doorbell: charge the open window and complete its
        futures. The window costs ``max(contributions) + (n - 1) *
        issue_ns`` — overlap hides latency; the metrics counted every
        operation individually at issue time. ``reason`` is observability
        only (why the doorbell rang: stall/batch/fence/reap/drain)."""
        charges, self._window_charges = self._window_charges, []
        futures, self._window_futures = self._window_futures, []
        if charges:
            start_ns = self.clock.now_ns
            charged = self.cost_model.window_ns(charges)
            self.clock.advance(charged)
            m = self.metrics
            m.pipeline_flushes += 1
            m.pipeline_charged_ns += int(charged)
            serial = sum(charges)
            if serial > charged:
                m.overlap_saved_ns += int(serial - charged)
            if self._tracer is not None:
                self._tracer.on_window(
                    self,
                    start_ns=start_ns,
                    charged_ns=charged,
                    serial_ns=serial,
                    saved_ns=max(0.0, serial - charged),
                    reason=reason,
                    ops=[(f.op, f.charge_ns, f.span_id) for f in futures],
                    n_charges=len(charges),
                )
        now = self.clock.now_ns
        for future in futures:
            future._complete(now)
            if future._tracked and not future._reaped:
                self.cq._deliver(future)

    def _complete_future(self, future: FarFuture) -> None:
        """Drive ``future`` to completion (``FarFuture.result()``)."""
        if future.done():
            return
        if self._batch_depth > 0:
            # A batch scope defers the charge to scope exit; the value is
            # already known (eager execution) and returned uncharged.
            return
        if future in self._window_futures:
            self._flush_window(reason="reap")

    def _window_outstanding(self) -> int:
        return len(self._window_futures)

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Overlap the operations issued inside the ``with`` block.

        The scope pins the overlap window open past :attr:`qp_depth` —
        one doorbell for the whole block, costing ``max(latencies) +
        (n - 1) * issue_ns`` of simulated time; every operation is still
        counted individually in the metrics (overlap hides latency, not
        work). Nested batches flatten into the outer window.
        """
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._flush_window(reason="batch")

    def fence(self) -> None:
        """Ordering point: all prior operations complete before later ones.

        Flushes the open window (pipelined submissions and batch scopes
        alike), so earlier operations' latency is fully charged before
        any later operation issues. Outside any window it only marks
        intent (and is counted, for audit).
        """
        self.metrics.bump("fences")
        self._flush_window(reason="fence")

    # ------------------------------------------------------------------
    # Retry / circuit-breaker machinery
    # ------------------------------------------------------------------

    def _breaker_for(self, node: int) -> Optional[CircuitBreaker]:
        if self.breaker_policy is None:
            return None
        breaker = self.breakers.get(node)
        if breaker is None:
            breaker = self.breakers[node] = CircuitBreaker(node, self.breaker_policy)
        return breaker

    def _issue(self, address: int, op, *args):
        """Issue one fabric operation with retry, backoff, and breaking.

        Every one-sided op funnels through here. The flow per attempt is:
        circuit-breaker gate → fault-injection check (operation boundary,
        so a timeout has no memory-side effects) → the fabric call.
        Transient failures (:class:`FarTimeoutError`, and
        :class:`NodeUnavailableError` from fail-stop nodes) charge the
        timeout-detection interval plus exponential backoff *to the
        operation's own window contribution* — inside an overlap window
        the retry ladder overlaps the other outstanding ops (each QP slot
        waits out its own timeout independently on real NICs), while a
        synchronous call serialises exactly as before — and are retried
        up to the policy's attempt/time budgets. Failed attempts are
        *not* counted as far accesses (those count completed work); they
        appear in ``metrics.timeouts`` / ``retries`` / ``backoff_ns``
        instead. When the breaker for the target node is (or trips)
        open, the op fails fast with :class:`CircuitOpenError`.

        Breaker cooldowns compare against the client's clock as of the
        last doorbell; charges still in the open window are invisible to
        it, which is deterministic and matches a NIC consulting its
        completion timestamps.
        """
        self._check_alive()
        fabric = self.fabric
        policy = self.retry_policy
        kind = getattr(op, "__name__", None)
        node = fabric.node_of(address)
        if self._tracer is not None:
            self._trace_node = node
            self._trace_addr = address
        breaker = self._breaker_for(node)
        if breaker is not None and not breaker.allow(self.clock.now_ns):
            self.metrics.breaker_rejections += 1
            if self._tracer is not None:
                self._tracer.on_breaker_reject(self, node=node)
            raise CircuitOpenError(node, address)
        attempts = policy.max_attempts if policy is not None else 1
        token = (self.client_id << 48) ^ address
        spent = 0.0
        last: Optional[Exception] = None
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                backoff = policy.backoff_ns(attempt - 1, token)
                if (
                    policy.budget_ns is not None
                    and spent + backoff > policy.budget_ns
                ):
                    break
                spent += backoff
                self.metrics.retries += 1
                self.metrics.backoff_ns += int(backoff)
                self._advance(backoff)
                if self._tracer is not None:
                    self._tracer.on_backoff(
                        self,
                        op=self._issue_ctx.op if self._issue_ctx is not None else None,
                        node=node,
                        attempt=attempt,
                        backoff_ns=backoff,
                    )
            try:
                fabric.fault_check(address, node, kind)
                result = op(*args)
            except FarTimeoutError as err:
                self.metrics.timeouts += 1
                if self._tracer is not None:
                    self._tracer.on_timeout(
                        self,
                        op=self._issue_ctx.op if self._issue_ctx is not None else None,
                        node=node,
                        attempt=attempt,
                    )
                    if err.torn:
                        # A torn write is a timeout with teeth: a prefix
                        # landed. A later successful retry rewrites the
                        # full buffer, healing the tear.
                        self._tracer.on_torn_write(
                            self, op=kind, node=node, addr=address, attempt=attempt
                        )
                last = err
            except NodeUnavailableError as err:
                last = err
            else:
                if breaker is not None:
                    breaker.record_success()
                return result
            # Failed attempt: any pending latency spike died with it, and
            # the client only learns of the loss after a full timeout.
            fabric.consume_fault_latency()
            detect = self.cost_model.timeout_ns
            spent += detect
            self._advance(detect)
            if breaker is not None:
                if breaker.record_failure(self.clock.now_ns):
                    self.metrics.breaker_trips += 1
                    if self._tracer is not None:
                        self._tracer.on_breaker_trip(self, node=node)
                if not breaker.allow(self.clock.now_ns):
                    break  # breaker opened mid-op: stop hammering the node
            if policy is not None and policy.budget_ns is not None:
                if spent >= policy.budget_ns:
                    break
        assert last is not None
        raise last

    # ------------------------------------------------------------------
    # Base one-sided operations. The public methods are thin
    # ``submit(...).result()`` shims over the ``_op_*`` implementations —
    # a synchronous call is a one-deep pipeline window, charging exactly
    # what it always has.
    # ------------------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        """One-sided read: one far access."""
        return self._submit("read", (address, length), {}, tracked=False).result()

    def write(self, address: int, data: bytes) -> None:
        """One-sided write: one far access."""
        return self._submit("write", (address, data), {}, tracked=False).result()

    def read_u64(self, address: int) -> int:
        """Read one 64-bit word (one far access)."""
        return self._submit("read_u64", (address,), {}, tracked=False).result()

    def write_u64(self, address: int, value: int) -> None:
        """Write one 64-bit word (one far access)."""
        return self._submit("write_u64", (address, value), {}, tracked=False).result()

    def write_phys(self, node: int, offset: int, data: bytes) -> None:
        """Raw physical write to a migration staging slot: one far access.

        Migration-engine only (the destination slot has no virtual
        address until its remap commits). Charged and traced like any far
        write, but addressed ``(node, offset)`` — the NIC-to-NIC DMA leg
        of a live copy.
        """
        return self._submit("write_phys", (node, offset, data), {}, tracked=False).result()

    def cas(self, address: int, expected: int, new: int) -> tuple[int, bool]:
        """Atomic compare-and-swap (one far access)."""
        return self._submit(
            "cas", (address, expected, new), {}, tracked=False
        ).result()

    def faa(self, address: int, delta: int) -> int:
        """Atomic fetch-and-add (one far access); returns the old value."""
        return self._submit("faa", (address, delta), {}, tracked=False).result()

    def swap(self, address: int, value: int) -> int:
        """Atomic exchange (one far access); returns the old value."""
        return self._submit("swap", (address, value), {}, tracked=False).result()

    # ------------------------------------------------------------------
    # Verified I/O (repro.fabric.integrity): end-to-end checksums over
    # the same one-sided ops — far memory cannot verify what it stores.
    # ------------------------------------------------------------------

    def write_framed(self, address: int, payload: bytes, *, version: int = 0) -> None:
        """Write ``payload`` wrapped in a crc+version frame (one far
        access; the frame occupies ``frame_size(len(payload))`` bytes)."""
        from .integrity import frame_block

        self.write(address, frame_block(payload, version))

    def read_verified(
        self, address: int, payload_len: int, *, fallback: Sequence[int] = ()
    ) -> tuple[int, bytes]:
        """Read and checksum-verify one frame; returns ``(version, payload)``.

        On a checksum miss (corrupted bytes or a torn write) the read
        transparently fails over to each address in ``fallback`` — healthy
        replica copies of the same block — at **one extra far access per
        verify-miss**; when every copy fails verification the last miss is
        raised as :class:`FarCorruptionError`. Misses are counted in
        ``metrics.verify_misses`` (and successful verifications in
        ``metrics.verified_reads``), so detection overhead stays explicit
        in the ledger.
        """
        from .integrity import frame_size, try_unframe

        length = frame_size(payload_len)
        last: Optional[FarCorruptionError] = None
        for attempt_addr in (address, *fallback):
            frame = self.read(attempt_addr, length)
            self.metrics.verified_reads += 1
            decoded = try_unframe(frame)
            if decoded is not None:
                return decoded
            self.metrics.verify_misses += 1
            node = self.fabric.node_of(attempt_addr)
            if self._tracer is not None:
                self._tracer.on_corruption_detected(
                    self, node=node, addr=attempt_addr, payload_len=payload_len
                )
            last = FarCorruptionError(node, attempt_addr, payload_len)
        assert last is not None
        raise last

    def _op_read(self, address: int, length: int) -> bytes:
        result = self._issue(address, self.fabric.read, address, length)
        self._account_far(nbytes_read=length, segments=result.segments)
        return result.value

    def _op_write(self, address: int, data: bytes) -> None:
        result = self._issue(address, self.fabric.write, address, bytes(data))
        # forward_hops is nonzero only while the target extent is mid-
        # migration under the FORWARD policy: the already-copied prefix is
        # mirrored to the new home, one §7.1-style hop per mirrored range.
        self._account_far(
            nbytes_written=len(data),
            segments=result.segments,
            forward_hops=result.forward_hops,
        )

    def _op_write_phys(self, node: int, offset: int, data: bytes) -> None:
        # Physically addressed, so it skips _issue's virtual-address
        # machinery (fault rules, breakers, and retries key on virtual
        # addresses; the staging slot has none yet). Node failure still
        # surfaces as NodeUnavailableError from the fabric.
        if self._tracer is not None:
            self._trace_node = node
            self._trace_addr = None
        result = self.fabric.write_phys(node, offset, bytes(data))
        self._account_far(nbytes_written=len(data), segments=result.segments)

    def _op_read_u64(self, address: int) -> int:
        value = self._issue(address, self.fabric.read_word, address)
        self._account_far(nbytes_read=WORD)
        return value

    def _op_write_u64(self, address: int, value: int) -> None:
        self._issue(address, self.fabric.write_word, address, value)
        self._account_far(nbytes_written=WORD)

    def _op_cas(self, address: int, expected: int, new: int) -> tuple[int, bool]:
        old, ok = self._issue(
            address, self.fabric.compare_and_swap, address, expected, new
        )
        self._account_far(nbytes_read=WORD, nbytes_written=WORD, atomic=True)
        return old, ok

    def _op_faa(self, address: int, delta: int) -> int:
        old = self._issue(address, self.fabric.fetch_add, address, delta)
        self._account_far(nbytes_read=WORD, nbytes_written=WORD, atomic=True)
        return old

    def _op_swap(self, address: int, value: int) -> int:
        old = self._issue(address, self.fabric.swap, address, value)
        self._account_far(nbytes_read=WORD, nbytes_written=WORD, atomic=True)
        return old

    # ------------------------------------------------------------------
    # Fig. 1 primitives, with ERROR-policy completion
    # ------------------------------------------------------------------

    def _complete_pending(self, pending: PendingIndirection) -> FabricResult:
        """Finish an indirection the memory node refused (section 7.1:
        "leaving it up to the compute node to explicitly issue a request
        to the target memory node"). Costs one more far access."""
        self.metrics.indirection_errors += 1
        if pending.kind == "read":
            data = self.read(pending.target, pending.length)
            return FabricResult(value=data, pointer=pending.pointer)
        if pending.kind == "write":
            assert pending.payload is not None
            self.write(pending.target, pending.payload)
            return FabricResult(pointer=pending.pointer)
        if pending.kind == "add":
            old = self.faa(pending.target, pending.delta)
            return FabricResult(value=old, pointer=pending.pointer)
        if pending.kind == "swap":
            assert pending.payload is not None
            data = self.read(pending.target, pending.length)
            self.write(pending.target, pending.payload)
            return FabricResult(value=data, pointer=pending.pointer)
        raise ValueError(f"unknown pending indirection kind {pending.kind!r}")

    def _indirect(
        self, op, *args, nbytes_read: int = 0, nbytes_written: int = 0
    ) -> FabricResult:
        self._check_alive()
        try:
            # args[0] is always the pointer address ``ad`` — the home node
            # of the indirection, which is where a retry-worthy fault lands.
            result = self._issue(args[0], op, *args)
        except RemoteIndirectionError as err:
            # The failed attempt still cost a full round trip (the home
            # node resolved the pointer, then bounced the request).
            self._account_far(nbytes_read=WORD)
            pending = getattr(err, "pending", None)
            if pending is None or not self.auto_complete_indirection:
                raise
            return self._complete_pending(pending)
        if self._tracer is not None:
            # The resolved data address: where the indirection actually
            # landed (race-detector happens-before hinges on this word).
            self._trace_target = getattr(result, "pointer", None)
        self._account_far(
            nbytes_read=nbytes_read,
            nbytes_written=nbytes_written,
            forward_hops=result.forward_hops,
            segments=result.segments,
        )
        return result

    def load0(self, ad: int, length: int) -> FabricResult:
        """Indirect load: read ``length`` bytes at ``*ad``."""
        return self._submit("load0", (ad, length), {}, tracked=False).result()

    def store0(self, ad: int, value: bytes) -> FabricResult:
        """Indirect store: write ``value`` at ``*ad``."""
        return self._submit("store0", (ad, value), {}, tracked=False).result()

    def load1(self, ad: int, index: int, length: int) -> FabricResult:
        """Indexed indirect load: read at ``*(ad + index)``."""
        return self._submit("load1", (ad, index, length), {}, tracked=False).result()

    def store1(self, ad: int, index: int, value: bytes) -> FabricResult:
        """Indexed indirect store: write at ``*(ad + index)``."""
        return self._submit("store1", (ad, index, value), {}, tracked=False).result()

    def load2(self, ad: int, index: int, length: int) -> FabricResult:
        """Offset indirect load: read at ``*ad + index``."""
        return self._submit("load2", (ad, index, length), {}, tracked=False).result()

    def store2(self, ad: int, index: int, value: bytes) -> FabricResult:
        """Offset indirect store: write at ``*ad + index``."""
        return self._submit("store2", (ad, index, value), {}, tracked=False).result()

    def faai(self, ad: int, delta: int, length: int) -> FabricResult:
        """Fetch-and-add-indirect (queue dequeue fast path, section 5.3)."""
        return self._submit("faai", (ad, delta, length), {}, tracked=False).result()

    def saai(self, ad: int, delta: int, value: bytes) -> FabricResult:
        """Store-and-add-indirect (queue enqueue fast path, section 5.3)."""
        return self._submit("saai", (ad, delta, value), {}, tracked=False).result()

    def fsaai(self, ad: int, delta: int, value: bytes) -> FabricResult:
        """Fetch-store-and-add-indirect (the DESIGN.md extension): bump
        ``*ad``, atomically swap ``value`` into the old target, and return
        what was there — the fully-safe one-access dequeue."""
        return self._submit("fsaai", (ad, delta, value), {}, tracked=False).result()

    def add0(self, ad: int, delta: int) -> FabricResult:
        """``**ad += delta`` in one far access."""
        return self._submit("add0", (ad, delta), {}, tracked=False).result()

    def add1(self, ad: int, delta: int, index: int) -> FabricResult:
        """``**(ad + index) += delta`` in one far access."""
        return self._submit("add1", (ad, delta, index), {}, tracked=False).result()

    def add2(self, ad: int, delta: int, index: int) -> FabricResult:
        """``*(*ad + index) += delta`` in one far access (histogram bump)."""
        return self._submit("add2", (ad, delta, index), {}, tracked=False).result()

    def _op_load0(self, ad: int, length: int) -> FabricResult:
        return self._indirect(self.fabric.load0, ad, length, nbytes_read=length)

    def _op_store0(self, ad: int, value: bytes) -> FabricResult:
        return self._indirect(self.fabric.store0, ad, value, nbytes_written=len(value))

    def _op_load1(self, ad: int, index: int, length: int) -> FabricResult:
        return self._indirect(self.fabric.load1, ad, index, length, nbytes_read=length)

    def _op_store1(self, ad: int, index: int, value: bytes) -> FabricResult:
        return self._indirect(
            self.fabric.store1, ad, index, value, nbytes_written=len(value)
        )

    def _op_load2(self, ad: int, index: int, length: int) -> FabricResult:
        return self._indirect(self.fabric.load2, ad, index, length, nbytes_read=length)

    def _op_store2(self, ad: int, index: int, value: bytes) -> FabricResult:
        return self._indirect(
            self.fabric.store2, ad, index, value, nbytes_written=len(value)
        )

    def _op_faai(self, ad: int, delta: int, length: int) -> FabricResult:
        result = self._indirect(
            self.fabric.faai, ad, delta, length, nbytes_read=length + WORD
        )
        self.metrics.atomic_ops += 1
        return result

    def _op_saai(self, ad: int, delta: int, value: bytes) -> FabricResult:
        result = self._indirect(
            self.fabric.saai, ad, delta, value, nbytes_written=len(value) + WORD
        )
        self.metrics.atomic_ops += 1
        return result

    def _op_fsaai(self, ad: int, delta: int, value: bytes) -> FabricResult:
        result = self._indirect(
            self.fabric.fsaai,
            ad,
            delta,
            value,
            nbytes_read=len(value),
            nbytes_written=len(value) + WORD,
        )
        self.metrics.atomic_ops += 1
        return result

    def _op_add0(self, ad: int, delta: int) -> FabricResult:
        result = self._indirect(self.fabric.add0, ad, delta, nbytes_written=WORD)
        self.metrics.atomic_ops += 1
        return result

    def _op_add1(self, ad: int, delta: int, index: int) -> FabricResult:
        result = self._indirect(self.fabric.add1, ad, delta, index, nbytes_written=WORD)
        self.metrics.atomic_ops += 1
        return result

    def _op_add2(self, ad: int, delta: int, index: int) -> FabricResult:
        result = self._indirect(self.fabric.add2, ad, delta, index, nbytes_written=WORD)
        self.metrics.atomic_ops += 1
        return result

    # ------------------------------------------------------------------
    # Scatter / gather
    # ------------------------------------------------------------------

    def rscatter(self, ad: int, lengths: Sequence[int]) -> list[bytes]:
        """Read a far range into local buffers: one far access."""
        return self._submit("rscatter", (ad, lengths), {}, tracked=False).result()

    def rgather(self, iovec: FarIovec) -> bytes:
        """Read a far iovec into one local buffer: one far access."""
        return self._submit("rgather", (iovec,), {}, tracked=False).result()

    def wscatter(self, iovec: FarIovec, data: bytes) -> None:
        """Scatter a local buffer across a far iovec: one far access."""
        return self._submit("wscatter", (iovec, data), {}, tracked=False).result()

    def wgather(self, ad: int, buffers: Sequence[bytes]) -> None:
        """Gather local buffers into one far range: one far access."""
        return self._submit("wgather", (ad, buffers), {}, tracked=False).result()

    def _op_rscatter(self, ad: int, lengths: Sequence[int]) -> list[bytes]:
        result = self._issue(ad, self.fabric.rscatter, ad, lengths)
        self._account_far(nbytes_read=sum(lengths), segments=result.segments)
        return result.value

    def _op_rgather(self, iovec: FarIovec) -> bytes:
        anchor = iovec[0][0] if iovec else 0
        result = self._issue(anchor, self.fabric.rgather, iovec)
        self._account_far(
            nbytes_read=sum(length for _, length in iovec), segments=result.segments
        )
        return result.value

    def _op_wscatter(self, iovec: FarIovec, data: bytes) -> None:
        anchor = iovec[0][0] if iovec else 0
        result = self._issue(anchor, self.fabric.wscatter, iovec, bytes(data))
        self._account_far(nbytes_written=len(data), segments=result.segments)

    def _op_wgather(self, ad: int, buffers: Sequence[bytes]) -> None:
        result = self._issue(ad, self.fabric.wgather, ad, buffers)
        self._account_far(
            nbytes_written=sum(len(b) for b in buffers), segments=result.segments
        )

    # ------------------------------------------------------------------
    # Word-value conveniences for the indirect primitives
    # ------------------------------------------------------------------

    def load0_u64(self, ad: int) -> int:
        """Indirect load of one word, decoded."""
        return decode_u64(self.load0(ad, WORD).value)

    def load2_u64(self, ad: int, index: int) -> int:
        """Offset indirect load of one word, decoded."""
        return decode_u64(self.load2(ad, index, WORD).value)

    def store0_u64(self, ad: int, value: int) -> None:
        """Indirect store of one word."""
        self.store0(ad, encode_u64(value))

    def store2_u64(self, ad: int, index: int, value: int) -> None:
        """Offset indirect store of one word."""
        self.store2(ad, index, encode_u64(value))

    # ------------------------------------------------------------------
    # Notification inbox (filled by repro.notify)
    # ------------------------------------------------------------------

    def deliver(self, notification: Any) -> None:
        """Called by the notification subsystem to push one notification."""
        if not self.alive:
            return  # messages to a dead process vanish with it
        self.metrics.notifications_received += 1
        self.metrics.notification_bytes += getattr(notification, "size_bytes", 0)
        if getattr(notification, "is_loss_warning", False):
            self.metrics.loss_warnings += 1
        self._inbox.append(notification)

    def pending_notifications(self) -> int:
        """Number of undrained notifications."""
        return len(self._inbox)

    def poll_notifications(self, max_items: Optional[int] = None) -> list[Any]:
        """Drain up to ``max_items`` notifications (near-memory cost only:
        the whole point of notifications is avoiding far-memory probing)."""
        out: list[Any] = []
        while self._inbox and (max_items is None or len(out) < max_items):
            out.append(self._inbox.popleft())
        if out:
            self.touch_local(len(out))
        return out

    def __repr__(self) -> str:
        return f"Client({self.name!r}, t={self.clock.now_ns:.0f}ns)"
