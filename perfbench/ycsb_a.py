"""Workload ``ycsb-a``: HT-tree YCSB-A, one warmed client, closed loop.

Setup builds one 64 MiB memory node and an HT-tree
(``bucket_count=8192``, ``max_chain=4``) and bulk-loads ``PRELOAD`` keys
with seeded values — inserts with splits — then warms the measuring
client (tree cache, first-touch code paths) with untimed gets.  The
timed region runs the YCSB-A mix of :mod:`repro.workloads.ycsb` (50% get
/ 50% update) with zipf 1.1 keys over the loaded keys.  Every get is
checked against a dict oracle of the preload plus the updates issued so
far.

As in YCSB's scrambled zipfian, *which* keys are hot is one fixed
scramble of the keyspace, and the load order is fixed too; the seed
draws the op sequence and the values.  A seeded scramble would make a
run's cost hinge on where its few hottest keys sit in their hash chains
(far accesses per op ranged 1.55-1.93 over five seeds), which swamps
the host-time differences this workload is for.
"""

from __future__ import annotations

import random

import numpy as np

from harness import CheckFailed
from runner import Bench, Workload

PRELOAD = 20_000
ZIPF_S = 1.1
SCRAMBLE_SEED = 0x5C2A  # fixes the popularity order and the load order
STREAM = 60_000  # generated ops; the timed loop cycles through them
SIM_OPS = 15_000  # fixed prefix for simulated counts + the observed phase
WARM_GETS = 256
READ, UPDATE = 0, 1


def _scrambled_zipf(seed: int):
    from repro.workloads import KeyDistribution

    class ScrambledZipf(KeyDistribution):
        """Zipf ranks mapped through one fixed scramble of the keyspace."""

        order = np.random.default_rng(SCRAMBLE_SEED).permutation(PRELOAD).astype(np.uint64)

        def sample(self, count: int) -> np.ndarray:
            ranks = np.minimum(self.rng.zipf(ZIPF_S, size=count), self.keyspace) - 1
            return self.order[ranks]

    return ScrambledZipf(PRELOAD, seed=seed)


def generate(seed: int) -> list[tuple[int, int, int]]:
    from repro.workloads import OpKind, ycsb_workload
    from repro.workloads.opmix import generate as generate_ops

    ops = []
    mix = ycsb_workload("A").mix
    for op in generate_ops(mix, _scrambled_zipf(seed), STREAM, seed=seed):
        if op.kind is OpKind.READ:
            ops.append((READ, op.key, 0))
        elif op.kind is OpKind.UPDATE:
            ops.append((UPDATE, op.key, op.value))
        else:  # pragma: no cover - YCSB-A has only reads and updates
            raise ValueError(f"unexpected YCSB-A op {op.kind}")
    return ops


def preload(seed: int) -> list[tuple[int, int]]:
    """The bulk-load (key, value) pairs: a fixed insert order, seeded values."""
    keys = list(range(PRELOAD))
    random.Random(SCRAMBLE_SEED).shuffle(keys)
    values = random.Random(seed ^ 0xA11CE)
    return [(key, values.getrandbits(32)) for key in keys]


class YcsbBench(Bench):
    def __init__(self, seed: int) -> None:
        from repro import Cluster
        from repro.fabric.client import Client

        Client.reset_ids()
        self.cluster = Cluster(node_count=1, node_size=64 << 20)
        self.tree = self.cluster.ht_tree(bucket_count=8192, max_chain=4)
        loader = self.cluster.client("loader")
        pairs = preload(seed)
        for key, value in pairs:
            self.tree.put(loader, key, value)
        self.oracle = dict(pairs)
        self.items_loaded = len(pairs)
        self.client = self.cluster.client("ycsb")
        self.clients = (self.client,)
        for key, _ in pairs[:WARM_GETS]:
            self._get(key)

    def _get(self, key: int) -> None:
        got = self.tree.get(self.client, key)
        if got != self.oracle[key]:
            raise CheckFailed(f"ycsb-a: get({key}) = {got}, oracle {self.oracle[key]}")

    def do_op(self, op: tuple[int, int, int]) -> str:
        kind, key, value = op
        if kind == READ:
            self._get(key)
            return "read"
        self.tree.put(self.client, key, value)
        self.oracle[key] = value
        return "write"

    def structure_counters(self) -> dict[str, int]:
        stats = self.tree.stats
        return {"chain_hops": stats.chain_hops, "splits": stats.splits}


WORKLOAD = Workload("ycsb-a", generate, YcsbBench, SIM_OPS)
