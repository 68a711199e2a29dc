"""Workload ``txn-bank``: faulty bank transfers through ``TxnSpace.run``.

Setup builds two memory nodes with a small extent size and a
:class:`~repro.txn.TxnSpace`, then places ``ACCOUNTS`` framed balance
cells round-robin across the nodes, each in its own extent and on its
own version slot.  A seeded fault injector then adds background
timeouts and latency spikes, absorbed by the tellers'
``RetryPolicy(max_attempts=6)``.

The transaction mix is SmallBank's (Alomari et al., "The Cost of
Serializability on Platforms That Use Snapshot Isolation", ICDE 2008):
its read-only Balance transaction is 15% of the default mix and every
other transaction reads and writes.  Here each read-write transaction
is a two-account transfer, and Balance reads two accounts so that both
kinds track the same number of version slots.  Accounts are zipfian.
Amounts (1-10) and the opening balance (100) are those of the repo's
own contention bench (``benchmarks/bench_a11_txn.py``); they change no
cost, only which transfers find an empty account.

Two tellers share one thread, closed loop.  Each stream entry is one
transaction of teller A with one of teller B inside it: B runs after A
has read its balances, in A's first attempt, so A's commit conflicts
and ``TxnSpace.run`` retries it whenever B wrote an account A read.
Which entries conflict follows from the seeded zipfian draws alone.

Checks: every committed transaction read exactly the balances a
sequential oracle predicts (serializability; this covers every Balance
result), and an end-of-phase read-only audit proves the money total is
conserved, no balance is negative, and every balance equals the oracle.
"""

from __future__ import annotations

import time

from harness import CheckFailed
from runner import Bench, Workload

ACCOUNTS = 256
OPENING = 100
EXTENT = 1_024  # bytes: one account per extent, so one per version slot
NODE_SIZE = 1 << 20
N_SLOTS = 4_096
STREAM = 20_000  # entries; each is two transactions
SIM_OPS = 2_500
BALANCE_SHARE = 0.15  # SmallBank's Balance share
MAX_AMOUNT = 10
TIMEOUT_P = 0.01
SPIKE_P = 0.005
SPIKE_X = 4.0
RETRY_ATTEMPTS = 6
TXN_ATTEMPTS = 8
BALANCE, TRANSFER = 0, 1
LATENCY_CLASS = ("read", "write")  # by kind


def generate(seed: int) -> list[tuple[int, ...]]:
    """(kind, a, b, amount) for teller A, then the same for teller B."""
    import numpy as np

    from repro.workloads import Zipf

    rng = np.random.default_rng(seed)
    # One sampler for both tellers, so they share the hot accounts.
    accounts = Zipf(ACCOUNTS, seed=seed, s=1.1).sample(4 * STREAM).reshape(STREAM, 2, 2)
    kinds = rng.random((STREAM, 2)) >= BALANCE_SHARE  # BALANCE (0) or TRANSFER (1)
    amounts = rng.integers(1, MAX_AMOUNT + 1, size=(STREAM, 2))

    ops = []
    for i in range(STREAM):
        entry = []
        for teller in range(2):
            a, b = (int(x) for x in accounts[i, teller])
            b = b if a != b else (a + 1) % ACCOUNTS
            kind = int(kinds[i, teller])
            entry += [kind, a, b, int(amounts[i, teller]) if kind == TRANSFER else 0]
        ops.append(tuple(entry))
    return ops


class BankBench(Bench):
    def __init__(self, seed: int) -> None:
        from repro import Cluster
        from repro.alloc import PlacementHint
        from repro.fabric import FaultPlan, RetryPolicy
        from repro.fabric.client import Client
        from repro.fabric.wire import WORD, decode_u64, encode_u64

        self._word, self._decode, self._encode = WORD, decode_u64, encode_u64
        Client.reset_ids()
        self.cluster = Cluster(node_count=2, node_size=NODE_SIZE, extent_size=EXTENT)
        setup = self.cluster.client("bank-setup")
        self.space = self.cluster.txn_space(setup, n_slots=N_SLOTS)
        spread = PlacementHint(spread=True)
        self.cells: list[int] = []
        used: set[int] = set()
        while len(self.cells) < ACCOUNTS:
            address = self.cluster.allocator.alloc(EXTENT, spread)
            slot = self.space.slot_for_addr(address)
            if slot in used:
                continue  # shares a version slot with an earlier account
            used.add(slot)
            self.space.init_cell(setup, address, encode_u64(OPENING))
            self.cells.append(address)
        self.items_loaded = ACCOUNTS
        self.oracle = [OPENING] * ACCOUNTS

        plan = (
            FaultPlan()
            .random_timeouts(TIMEOUT_P)
            .random_spikes(SPIKE_P, multiplier=SPIKE_X)
        )
        self.cluster.inject_faults(seed=seed, plan=plan)
        policy = RetryPolicy(max_attempts=RETRY_ATTEMPTS)
        self.teller_a = self.cluster.client("teller-a", retry_policy=policy)
        self.teller_b = self.cluster.client("teller-b", retry_policy=policy)
        self.clients = (self.teller_a, self.teller_b)
        for client in self.clients:  # warm: registration + a first transaction
            self.space.register(client)
            self._txn(client, BALANCE, 0, 1, 0)

    # -- transactions ------------------------------------------------------

    def _balance(self, client, txn, account: int) -> int:
        raw = self.space.read(client, txn, self.cells[account], self._word)
        return self._decode(raw)

    def _txn(self, client, kind: int, src: int, dst: int, amount: int, interleave=None) -> None:
        """A Balance of ``src`` and ``dst``, or a transfer from ``src`` to
        ``dst``; ``interleave`` runs after the reads of the first attempt."""
        seen = []

        def body(txn):
            before = self._balance(client, txn, src), self._balance(client, txn, dst)
            if interleave is not None and txn.attempt == 1:
                interleave()
            seen.append(before)
            if kind == BALANCE:
                return 0
            moved = min(amount, before[0])
            self.space.write(client, txn, self.cells[src], self._encode(before[0] - moved))
            self.space.write(client, txn, self.cells[dst], self._encode(before[1] + moved))
            return moved

        moved = self.space.run(client, body, max_attempts=TXN_ATTEMPTS)
        # Serializability: the committed attempt read the oracle's state.
        want = (self.oracle[src], self.oracle[dst])
        if seen[-1] != want:
            name = "balance" if kind == BALANCE else "transfer"
            raise CheckFailed(
                f"txn-bank: {name} {src},{dst} committed on balances {seen[-1]}, oracle {want}"
            )
        self.oracle[src] -= moved
        self.oracle[dst] += moved

    def do_op(self, op: tuple[int, ...]):
        a_kind, a_src, a_dst, a_amount, b_kind, b_src, b_dst, b_amount = op
        clock = time.perf_counter
        hole = []

        def interleave() -> None:
            t0 = clock()
            self._txn(self.teller_b, b_kind, b_src, b_dst, b_amount)
            hole.extend((t0, clock()))

        t0 = clock()
        self._txn(self.teller_a, a_kind, a_src, a_dst, a_amount, interleave)
        t1 = clock()
        if not hole:  # B's failure was caught and retried as A's abort
            raise CheckFailed("txn-bank: teller B's transaction did not commit inside A's")
        # Teller A's latency excludes teller B's transaction inside it.
        return [
            (LATENCY_CLASS[a_kind], t0, t1, *hole),
            (LATENCY_CLASS[b_kind], *hole, hole[1], hole[1]),
        ]

    # -- checks ------------------------------------------------------------

    def audit(self) -> None:
        balances = self.read_all()
        if sum(balances) != ACCOUNTS * OPENING:
            raise CheckFailed(
                f"txn-bank: total {sum(balances)} != {ACCOUNTS * OPENING} (money not conserved)"
            )
        negative = [i for i, v in enumerate(balances) if v < 0 or v >= 1 << 63]
        if negative:
            raise CheckFailed(f"txn-bank: negative balances at accounts {negative[:8]}")
        if balances != self.oracle:
            wrong = [i for i, (x, y) in enumerate(zip(balances, self.oracle)) if x != y]
            raise CheckFailed(f"txn-bank: balances differ from the oracle at {wrong[:8]}")

    def read_all(self) -> list[int]:
        """Every balance, read in one read-only transaction."""

        def body(txn):
            return [self._balance(self.teller_a, txn, i) for i in range(ACCOUNTS)]

        return self.space.run(self.teller_a, body, max_attempts=TXN_ATTEMPTS)


# Setup takes ~0.7 s (ycsb-a's ~6 s), so nine setups are affordable and
# steady setup_s: with three its spread over six runs reached 0.2.
WORKLOAD = Workload("txn-bank", generate, BankBench, SIM_OPS, setups=9)
