"""The benchmark's own tests: its checks reject planted wrong results,
its guards and wrappers behave, and BENCHMARK.json keeps its format.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import certify
import runner
import txn_bank
import ycsb_a
from harness import CheckFailed, Result, SimCounts, check_same_sim, closed_loop, percentile
from layers import LayerProfiler

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def small_ycsb(monkeypatch):
    """ycsb-a at a size a unit test can afford."""
    monkeypatch.setattr(ycsb_a, "PRELOAD", 600)
    monkeypatch.setattr(ycsb_a, "STREAM", 400)
    monkeypatch.setattr(ycsb_a, "WARM_GETS", 16)
    return runner.Workload("ycsb-a", ycsb_a.generate, ycsb_a.YcsbBench, 200)


@pytest.fixture
def small_bank(monkeypatch):
    monkeypatch.setattr(txn_bank, "STREAM", 300)
    return runner.Workload("txn-bank", txn_bank.generate, txn_bank.BankBench, 120)


# -- must-fail: planted wrong results are rejected ------------------------


def test_ycsb_rejects_a_corrupted_oracle_value(small_ycsb):
    bench = ycsb_a.YcsbBench(3)
    key = next(iter(bench.oracle))
    assert bench.do_op((ycsb_a.READ, key, 0)) == "read"
    bench.oracle[key] ^= 1
    with pytest.raises(CheckFailed, match="get"):
        bench.do_op((ycsb_a.READ, key, 0))


def test_ycsb_rejects_a_lost_update(small_ycsb):
    bench = ycsb_a.YcsbBench(3)
    key = next(iter(bench.oracle))
    bench.do_op((ycsb_a.UPDATE, key, 77))
    bench.oracle[key] = 78  # the oracle says a later update landed
    with pytest.raises(CheckFailed):
        bench.do_op((ycsb_a.READ, key, 0))


def test_txn_bank_audit_rejects_a_leaked_unit_of_money():
    from repro.fabric.wire import encode_u64

    bench = txn_bank.BankBench(5)
    bench.audit()  # a clean bank passes
    minter = bench.cluster.client("minter")
    bench.space.init_cell(minter, bench.cells[0], encode_u64(txn_bank.OPENING + 1))
    with pytest.raises(CheckFailed, match="not conserved"):
        bench.audit()


def test_txn_bank_audit_rejects_balances_off_the_oracle():
    bench = txn_bank.BankBench(5)
    bench.oracle[0] -= 1
    bench.oracle[1] += 1  # conserved, but not what the bank holds
    with pytest.raises(CheckFailed, match="oracle"):
        bench.audit()


def test_txn_bank_rejects_a_stale_balance():
    bench = txn_bank.BankBench(5)
    bench.oracle[3] += 5
    with pytest.raises(CheckFailed, match="balances"):
        bench.do_op((txn_bank.BALANCE, 3, 4, 0, txn_bank.BALANCE, 5, 6, 0))


def test_txn_bank_interleaves_teller_b_and_retries_a_on_conflict():
    bench = txn_bank.BankBench(5)
    T = txn_bank.TRANSFER
    before = bench.metric_sum("txn_aborts")
    stamps = bench.do_op((T, 3, 4, 7, T, 3, 5, 2))  # B writes account 3, which A read
    assert [kind for kind, *_ in stamps] == ["write", "write"]
    assert bench.metric_sum("txn_aborts") == before + 1
    assert bench.oracle[3:6] == [100 - 2 - 7, 100 + 7, 100 + 2]
    bench.audit()


def test_txn_bank_mix_is_smallbank_balance_share():
    ops = txn_bank.generate(9)
    kinds = [op[0] for op in ops] + [op[4] for op in ops]
    share = kinds.count(txn_bank.BALANCE) / len(kinds)
    assert abs(share - txn_bank.BALANCE_SHARE) < 0.01


def _baseline():
    os.chdir(ROOT)
    from repro.analysis import fmcost

    return fmcost, fmcost.load_certificate(certify.BASELINE)


def test_certify_accepts_the_baseline_itself():
    fmcost, base = _baseline()
    assert certify.check({"cert": base, "diffs": []}) == len(base["records"])


def test_certify_rejects_baseline_drift():
    fmcost, base = _baseline()
    drifted = copy.deepcopy(base)
    drifted["records"][0]["inferred"]["worst"] = "99"
    diffs = fmcost.diff_certificates(base, drifted)
    with pytest.raises(CheckFailed, match="diverges"):
        certify.check({"cert": drifted, "diffs": diffs})


def test_certify_rejects_a_failing_verdict():
    fmcost, base = _baseline()
    failing = copy.deepcopy(base)
    failing["records"][0]["verdict"] = sorted(fmcost.FAILING_VERDICTS)[0]
    with pytest.raises(CheckFailed, match="failing"):
        certify.check({"cert": failing, "diffs": []})


def test_observer_guard_rejects_any_simulated_difference():
    same = SimCounts(far_accesses=10, round_trips=10, clocks_ns=(5.0,))
    check_same_sim(same, SimCounts(10, 10, (5.0,)), "observed")
    with pytest.raises(CheckFailed, match="observer effect"):
        check_same_sim(same, SimCounts(10, 10, (5.5,)), "observed")
    with pytest.raises(CheckFailed):
        check_same_sim(same, SimCounts(11, 10, (5.0,)), "traced")


def test_observer_guard_catches_an_observer_that_perturbs(small_ycsb, monkeypatch):
    class Meddler:
        def on_trace_event(self, client, event, span):
            client.metrics.far_accesses += 1

    attach = runner._observe

    def meddling(bench):
        tracer, registry = attach(bench)
        tracer.add_sink(Meddler())
        return tracer, registry

    monkeypatch.setattr(runner, "_observe", meddling)
    with pytest.raises(CheckFailed, match="observer effect"):
        runner.run_untraced(small_ycsb, 4, 0.05, Result())


# -- harness --------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_closed_loop_cycles_the_stream_and_fixes_the_prefix():
    calls = []

    def do_op(entry):
        calls.append(entry)
        return "read"

    phase = closed_loop(
        ["a", "b", "c"],
        do_op,
        sim_ops=7,
        sim_counts=lambda: SimCounts(len(calls), 0, ()),
    )
    assert phase.stream_ops == 7 and len(calls) == 7  # cycles the stream
    assert phase.ops == 7 and calls[6] == "a"
    assert phase.sim.far_accesses == 7


def test_closed_loop_fails_the_run_on_any_op_that_raises():
    def do_op(entry):
        if entry == "boom":
            raise RuntimeError("op failed")
        return "read"

    with pytest.raises(CheckFailed, match="RuntimeError: op failed") as caught:
        closed_loop(["a", "boom"], do_op, sim_ops=5, sim_counts=lambda: SimCounts(0, 0, ()))
    assert caught.value.attempted == 2


def test_command_exits_nonzero_when_an_op_fails(small_ycsb, monkeypatch, capsys):
    import run

    class LosesUpdates(ycsb_a.YcsbBench):
        def do_op(self, op):
            if op[0] == ycsb_a.UPDATE:
                raise RuntimeError("put lost")
            return super().do_op(op)

    broken = runner.Workload("ycsb-a", small_ycsb.generate, LosesUpdates, small_ycsb.sim_ops)
    monkeypatch.setattr(ycsb_a, "WORKLOAD", broken)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "ycsb-a", "--seed", "2", "--seconds", "0.05", "--trace", "0"])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert record["correct"] is False and record["failed"] == 1 and record["attempted"] >= 1


def test_closed_loop_subtracts_a_hole_from_self_timed_ops():
    def do_op(entry):
        return [("write", 1.0, 5.0, 2.0, 3.0), ("write", 2.0, 3.0, 3.0, 3.0)]

    phase = closed_loop([0], do_op, sim_ops=2, sim_counts=lambda: SimCounts(0, 0, ()))
    phase.finish(None)
    assert phase.ops == 4 and phase.stream_ops == 2
    assert phase.latencies_us["write"] == [3e6, 1e6, 3e6, 1e6]


def test_timeline_scales_by_the_calibration_chunk_and_skips_interrupts():
    import time

    import speed

    timeline = speed.Timeline(period_s=0.01).start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    t1 = time.perf_counter()
    with pytest.raises(RuntimeError):
        timeline.span(t0, t1)
    timeline.stop()
    assert len(timeline.chunks) >= 5
    in_interrupts = sum(
        e - s for s, e in zip(timeline.starts, timeline.ends) if t0 <= s and e <= t1
    )
    reference = timeline.span(t0, t1)
    expected = (t1 - t0 - in_interrupts) / timeline.mean_slowdown
    assert abs(reference - expected) / expected < 0.5
    inside = (timeline.starts[2] + timeline.ends[2]) / 2
    assert timeline.at(inside) == timeline.at(timeline.ends[2])  # frozen


@pytest.mark.parametrize("exponent, reference", [(1.0, 0.5), (0.5, 2**-0.5)])
def test_timeline_divides_by_the_slowdown_raised_to_its_exponent(exponent, reference):
    import speed

    timeline = speed.Timeline(exponent=exponent)
    timeline.starts = timeline.ends = [0.0, 1.0, 2.0]  # instant interrupts
    timeline.chunks = [2 * speed.REF_CHUNK_S] * 3  # the host runs 2x slower
    timeline._finalize()
    assert timeline.span(0.25, 1.25) == pytest.approx(reference)
    assert timeline.mean_slowdown == pytest.approx(2.0)


def test_closed_loop_stops_on_a_check_failure():
    def do_op(entry):
        raise CheckFailed("wrong")

    with pytest.raises(CheckFailed):
        closed_loop([1], do_op, sim_ops=3, sim_counts=lambda: SimCounts(0, 0, ()))


def test_layer_profiler_restores_every_wrapped_function():
    from repro.fabric.client import Client
    from repro.fabric.fabric import Fabric
    from repro.fabric.pipeline import FarFuture

    before = (vars(Client)["read"], vars(FarFuture)["__init__"], vars(Fabric).get("load0"))
    with LayerProfiler() as profiler:
        assert vars(Client)["read"] is not before[0]
        assert "load0" in vars(Fabric)  # mixin method wrapped on the class
    assert (vars(Client)["read"], vars(FarFuture)["__init__"], vars(Fabric).get("load0")) == before
    assert not profiler._installed


def test_layer_profiler_charges_by_name_imports_to_their_layer():
    from repro import Cluster
    from repro.fabric import integrity
    from repro.fabric.wire import encode_u64
    from repro.txn import txn as txn_module

    original = integrity.frame_block
    cluster = Cluster(node_count=1, node_size=1 << 20, extent_size=1024)
    client = cluster.client()
    space = cluster.txn_space(client, n_slots=64)
    cells = [cluster.allocator.alloc(1024) for _ in range(2)]
    for cell in cells:
        space.init_cell(client, cell, encode_u64(5))

    def transfer(txn):
        for cell in cells:
            space.write(client, txn, cell, encode_u64(6))

    with LayerProfiler() as profiler:
        assert txn_module.frame_block is not original  # the by-name binding
        space.run(client, transfer)
    assert txn_module.frame_block is original
    assert profiler.calls["integrity.frame_block"] >= 2  # one per written cell
    assert profiler.inclusive_ns["integrity.frame_block"] > 0


def test_layer_profiler_splits_self_time_by_layer():
    from repro import Cluster

    cluster = Cluster(node_count=1, node_size=1 << 20)
    client = cluster.client()
    with LayerProfiler() as profiler:
        for _ in range(20):
            client.write_u64(64, 1)
            client.read_u64(64)
    assert profiler.calls["Client.read_u64"] == 20
    assert profiler.calls["FarFuture.__init__"] == 40
    assert profiler.calls["MemoryNode.read_word"] == 20
    for layer in ("client", "fabric", "extent", "memory_node"):
        assert profiler.self_ns[layer] > 0
    total_self = sum(profiler.self_ns.values())
    outer = profiler.inclusive_ns["Client.read_u64"] + profiler.inclusive_ns["Client.write_u64"]
    assert total_self == outer  # self times partition the outermost calls


# -- the phase plans, at toy size -----------------------------------------


def test_untraced_run_reports_every_end_to_end_metric(small_ycsb):
    result = Result()
    runner.run_untraced(small_ycsb, 4, 0.05, result)
    record = result.record(list(_declared("end_to_end")))
    assert record["attempted"] > 0 and record["failed"] == 0
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("workload", ["small_ycsb", "small_bank"])
def test_traced_run_reports_layers_and_keeps_sim_counts(workload, request):
    result = Result()
    runner.run_traced(request.getfixturevalue(workload), 4, result)
    assert result.metrics["trace.overhead_ratio"][0] > 0
    assert result.notes["zero_observer_effect"].startswith("bare == traced")
    assert result.metrics["extent.locate_per_far_access"][0] > 1


def test_untraced_phases_read_peak_rss_in_processes_of_their_own(
    small_ycsb, monkeypatch, tmp_path
):
    import harness

    log = tmp_path / "rss_pids"
    real = harness.peak_rss_mb

    def logged() -> float:
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real()

    monkeypatch.setattr(harness, "peak_rss_mb", logged)
    runner.run_untraced(small_ycsb, 4, 0.05, Result())
    pids = log.read_text().split()
    assert len(pids) == 2 and len(set(pids)) == 2 and str(os.getpid()) not in pids


def test_same_seed_gives_the_same_streams():
    assert txn_bank.generate(9) == txn_bank.generate(9)
    assert txn_bank.generate(9) != txn_bank.generate(10)


# -- BENCHMARK.json and the command ---------------------------------------


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)[section]}


def test_benchmark_json_keeps_its_format():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == ["ycsb-a", "txn-bank", "certify"]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            assert name.match(entry["name"]) and entry["name"] not in seen
            seen.add(entry["name"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert spec["end_to_end"][[m["name"] for m in spec["end_to_end"]].index("setup_s")] == {
        "name": "setup_s", "unit": "s", "better": "lower",
        "bound": max(m["bound"] for m in spec["end_to_end"]),
    }  # fmt: skip
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_command_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb-a", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert out.returncode != 0
    assert out.stdout.strip() == ""
