"""Workload ``certify``: one fmcost certification of the live source tree.

The timed region is what ``python -m repro cost --check`` does: index
``src/repro`` (one ``CostModel.load_paths`` call per source file, in the
walk order ``load_paths`` itself uses), solve the fixpoint, build the
certificate and diff it against ``analysis/cost_baseline.json``.  The
input is the live tree on purpose; the run records how many ops it
certified.  No fabric layer is involved.

Checks: zero failing verdicts, and an empty diff against the baseline.

How the shared end-to-end metrics read on this workload:

* ``ops_per_s`` — ops certified per second of certify-and-diff.
* ``read_*`` — µs to index one source file (read, parse, index); per
  file, the median over the run's index passes (nine setups and two
  certifications).
* ``write_*`` — µs per certified op of the certificate step that
  ``repro cost --check`` runs once the model is solved:
  ``build_certificate`` plus ``diff_certificates`` against the baseline.
  After each of the two certifications, passes over the solved model
  run for ``PASSES_SHARE`` of ``--seconds``; each gives one sample, the
  pass time divided by the ops certified.  The passes take that long
  because the host's speed changes every few seconds, and reference time
  corrects this allocation-heavy step less well than the fabric
  workloads.  Two windows of about a second each spread ``write_p50_us``
  by 12% over five runs; with ``--seconds 20`` (two 5 s windows) the
  spread was 5.5%.
* ``setup_s`` — indexing the whole tree into a fresh ``CostModel``;
  the median of nine, three each before, between and after the
  certifications.
* ``far_accesses_per_op`` — the certified fast-path far accesses per op
  (static, exact; the certificate's counterpart of the simulated count).
* ``observed_*`` — the same certification with a default Tracer and a
  TelemetryRegistry installed, as ``repro trace`` does; it never touches
  a client, so the prediction is no change.

Each certification runs in its own forked child process, so each peak
RSS reading is that certification's own high-water mark.
"""

from __future__ import annotations

import os
import statistics
import time

from harness import CheckFailed, Result, in_child, latency_figures, peak_rss_mb
from speed import Timeline

SRC = os.path.join("src", "repro")
BASELINE = os.path.join("analysis", "cost_baseline.json")
SETUPS_PER_POINT = 3  # setups before, between and after the certifications
PASSES_SHARE = 0.25  # of --seconds, spent on certificate passes after each certification


def source_files(root: str = SRC) -> list[str]:
    """The ``.py`` files ``CostModel.load_paths`` indexes, in its order."""
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        files.extend(
            os.path.join(dirpath, name) for name in sorted(filenames) if name.endswith(".py")
        )
    return files


def index_files(model, files: list[str]) -> list[tuple[float, float]]:
    """Index ``files`` into ``model`` one at a time; raw stamps per file."""
    clock = time.perf_counter
    stamps = []
    for path in files:
        t0 = clock()
        model.load_paths([path])
        stamps.append((t0, clock()))
    return stamps


def certify(files: list[str]) -> dict:
    """Index, solve, certify, diff; returns raw stamps + the certificate."""
    from repro.analysis import fmcost

    clock = time.perf_counter
    start = clock()
    model = fmcost.CostModel()
    file_stamps = index_files(model, files)
    indexed = clock()
    model.solve()
    solved = clock()
    cert = fmcost.build_certificate(model)
    diffs = fmcost.diff_certificates(fmcost.load_certificate(BASELINE), cert)
    done = clock()
    return {
        "model": model,
        "cert": cert,
        "diffs": diffs,
        "file_stamps": file_stamps,
        "stamps": (start, indexed, solved, done),
    }


def check(run: dict) -> int:
    """Raise on failing verdicts or baseline drift; returns ops certified."""
    from repro.analysis import fmcost

    failures = fmcost.certificate_failures(run["cert"])
    if failures:
        raise CheckFailed(f"certify: {len(failures)} failing verdict(s): {failures[:3]}")
    if run["diffs"]:
        raise CheckFailed(f"certify: certificate diverges from {BASELINE}: {run['diffs'][:3]}")
    return len(run["cert"]["records"])


def certificate_passes(model, baseline: dict, seconds: float) -> list[tuple[float, float]]:
    """Build the certificate of the solved ``model`` and diff it against
    ``baseline``, again and again for ``seconds``; raw stamps per pass."""
    from repro.analysis import fmcost

    clock = time.perf_counter
    stamps = []
    deadline = clock() + seconds
    while not stamps or stamps[-1][1] < deadline:
        t0 = clock()
        fmcost.diff_certificates(baseline, fmcost.build_certificate(model))
        stamps.append((t0, clock()))
    return stamps


def _timed_certification(files: list[str], observe: bool, pass_seconds: float) -> dict:
    """One certification, run in a forked child (:func:`harness.in_child`)
    so its peak RSS is its own; with ``observe``, under a default Tracer
    and a TelemetryRegistry, as ``repro trace`` installs them.  Then
    times certificate passes for ``pass_seconds``, the tracer removed.
    Returns reference-time figures only."""
    from repro.analysis import fmcost
    from repro.obs import TelemetryRegistry, Tracer, set_default_tracer

    with Timeline() as timeline:
        if observe:
            tracer = Tracer()
            TelemetryRegistry().observe(tracer)
            set_default_tracer(tracer)
        try:
            run = certify(files)
        finally:
            set_default_tracer(None)
        ops = check(run)
        rss = peak_rss_mb()
        passes = certificate_passes(run["model"], fmcost.load_certificate(BASELINE), pass_seconds)
    start, *_, done = run["stamps"]
    return {
        "ops": ops,
        "certify_s": timeline.span(start, done),
        "rss_mb": rss,
        "file_us": [timeline.span(*s) * 1e6 for s in run["file_stamps"]],
        "per_op_us": [timeline.span(*s) * 1e6 / ops for s in passes],
        "fast": [r["inferred"]["fast_const"] for r in run["cert"]["records"]],
        "slowdown": timeline.mean_slowdown,
    }


def run_untraced(seed: int, seconds: float, result: Result) -> None:
    from repro.analysis import fmcost

    del seed  # the input is the live tree; one certification each
    files = source_files()
    fmcost.CostModel().load_paths(files)  # warm: imports, first-touch paths
    setups, file_us = [], []  # reference seconds per setup; µs per file per pass

    def interlude() -> None:
        """SETUPS_PER_POINT timed setups, under a timeline of their own
        (none runs in this process while a certification child does)."""
        passes = []
        with Timeline() as timeline:
            for _ in range(SETUPS_PER_POINT):
                start = time.perf_counter()
                passes.append(index_files(fmcost.CostModel(), files))
                passes[-1].insert(0, (start, time.perf_counter()))
        for stamps in passes:
            setups.append(timeline.span(*stamps[0]))
            file_us.append([timeline.span(*s) * 1e6 for s in stamps[1:]])

    interlude()
    pass_seconds = PASSES_SHARE * seconds
    bare = in_child(_timed_certification, files, False, pass_seconds)
    result.attempted += bare["ops"]
    interlude()
    observed = in_child(_timed_certification, files, True, pass_seconds)
    result.attempted += observed["ops"]
    interlude()
    file_us += [bare["file_us"], observed["file_us"]]

    ops = bare["ops"]
    result.put("ops_per_s", ops / bare["certify_s"], "1/s")
    # Per file, the median over passes; then the percentiles over files.
    result.latency("read", latency_figures([statistics.median(f) for f in zip(*file_us)]))
    result.latency("write", latency_figures(bare["per_op_us"] + observed["per_op_us"]))
    result.put("setup_s", statistics.median(setups), "s")
    result.put("peak_rss_mb", bare["rss_mb"], "MB")
    result.put("far_accesses_per_op", sum(bare["fast"]) / len(bare["fast"]), "count")
    result.put("observed_ops_per_s", ops / observed["certify_s"], "1/s")
    result.put("observed_peak_rss_mb", observed["rss_mb"], "MB")
    result.notes["ops_certified"] = ops
    result.notes["certify_s"] = bare["certify_s"]
    result.notes["observed_certify_s"] = observed["certify_s"]
    result.notes["setup_runs_s"] = [round(s, 4) for s in setups]
    result.notes["host_slowdown"] = [round(bare["slowdown"], 4), round(observed["slowdown"], 4)]


def run_traced(seed: int, result: Result) -> None:
    from layers import LayerProfiler

    del seed
    files = source_files()
    reference = certify(files)
    ops = check(reference)
    with LayerProfiler() as profiler:
        traced = certify(files)
        index_ns = profiler.inclusive_ns.get("CostModel.load_paths", 0)
        solve_ns = profiler.inclusive_ns.get("CostModel.solve", 0)
    check(traced)
    start, _, solved, done = traced["stamps"]
    ref_start, *_, ref_done = reference["stamps"]
    result.attempted += 2 * ops
    put = result.put
    put("fmcost.index_s", index_ns / 1e9, "s")
    put("fmcost.solve_s", solve_ns / 1e9, "s")
    put("fmcost.certificate_s", done - solved, "s")
    put("fmcost.ops_certified", ops, "count")
    put("trace.overhead_ratio", (done - start) / (ref_done - ref_start), "ratio")
