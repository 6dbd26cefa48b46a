"""Serial in-process replay of the all-figure sweep, for the traced run.

Usage::

    python perfbench/replay.py sweeps OUT_DIR RESULT.json [--spans]
                               [--scale N] [--probe-pool]
    python perfbench/replay.py served OUT_DIR RESULT.json --spans
                               --seed S --blocks B [--scale N]

``sweeps`` calls ``repro.harness.bench.run_bench`` for fig9a, fig9b and
qsweep in this process with ``jobs=1`` (the pool's serial in-process
mode) against ``OUT_DIR/.bench-cache`` -- whatever store state the
caller put there.  ``served`` replays the distinct work of the
serve-mixed nominal phase through the service worker's
``run_group_task`` (see :func:`replay_served`).

With ``--spans`` every call the replay makes into a layer's public
functions is wrapped, from outside, in a span (:func:`_install`); the
program's files are not touched and the wrappers live only in this
process.  Writes the wall time, the span records and the counters
derived from call results to ``RESULT.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time

import common

TIMEOUT_S = 170.0


def run(mode: str, out: str, traced: bool, *extra: str) -> dict:
    """Run ``replay.py`` in a fresh process; returns its result dict."""
    result_path = os.path.join(common.WORK, "replay.json")
    cmd = [sys.executable, os.path.join(common.HERE, "replay.py"), mode,
           out, result_path, *extra] + (["--spans"] if traced else [])
    proc = common.spawn(cmd)
    try:
        _, err = proc.communicate(timeout=TIMEOUT_S)
    finally:
        common.stop(proc)
    if proc.returncode != 0:
        raise RuntimeError("replay failed: "
                           + err.decode(errors="replace")[-500:])
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _install(spans: common.Spans, counters: dict) -> None:
    """Wrap each layer's public entry points in spans."""
    import importlib

    import repro.harness.bench as bench
    import repro.harness.runner as runner
    import repro.incr.stages as stages
    from repro.analysis.pdg import DependenceGraph
    from repro.core.splitter import LoopSplitter
    from repro.incr.store import ArtifactStore
    from repro.machine.batch import BatchedSimulator
    from repro.obs import MetricsRegistry
    from repro.workloads.base import Workload

    # ``repro.core`` re-exports the function under the module's name.
    core_dswp = importlib.import_module("repro.core.dswp")

    def add(name: str, value: float) -> None:
        counters[name] = counters.get(name, 0) + value

    def counted(name: str, fn, measure):
        inner = spans.wrap(name, fn)

        def call(*args, **kwargs):
            result = inner(*args, **kwargs)
            measure(result, *args)
            return result
        return call

    def sims(results) -> None:
        for sim in results:
            if sim is None:
                continue
            add("machine.sim_cycles", sim.cycles)
            add("machine.sim_instrs",
                sum(c.instructions_executed for c in sim.cores))

    # Layer: harness (the driver) and incr (plan, finalize, store).
    bench.build_figure_plan = counted(
        "incr.plan", bench.build_figure_plan, _plan_counts(add))
    bench.finalize_figure = spans.wrap("incr.finalize",
                                       bench.finalize_figure)
    for method in ("get_receipt", "get_artifact", "has_artifact"):
        setattr(ArtifactStore, method,
                spans.wrap("incr.store_get", getattr(ArtifactStore, method)))
    for method in ("put_receipt", "put_artifact"):
        setattr(ArtifactStore, method,
                spans.wrap("incr.store_put", getattr(ArtifactStore, method)))

    # Layer: workloads.
    Workload.build = spans.wrap("workloads.build", Workload.build)

    # Layer: interp (baseline run and the pipelined functional run).
    stages.run_baseline = counted(
        "interp.baseline", stages.run_baseline,
        lambda run, *a: add("interp.instrs", len(run.trace)))
    threads_fn = spans.wrap("interp.pipeline", runner.run_threads)

    def run_threads(*args, **kwargs):
        registry = kwargs.get("metrics") or MetricsRegistry()
        kwargs["metrics"] = registry
        result = threads_fn(*args, **kwargs)
        add("interp.instrs", sum(len(t) for t in result.traces()))
        for key, value in registry.scalars().items():
            if key.split("{", 1)[0] in ("interp.produce_waits",
                                        "interp.consume_waits"):
                add("interp.queue_blocks", value)
        return result
    runner.run_threads = run_threads

    # Layers: analysis and core (the DSWP transform's phases).
    runner.dswp = counted(
        "core.dswp", runner.dswp,
        lambda result, *a: add("core.loops_applied", int(result.applied)))
    core_dswp.build_dependence_graph = spans.wrap(
        "analysis.pdg", core_dswp.build_dependence_graph)
    DependenceGraph.dag_scc = spans.wrap("analysis.scc",
                                         DependenceGraph.dag_scc)
    core_dswp.estimated_scc_cycles = spans.wrap(
        "core.partition", core_dswp.estimated_scc_cycles)
    core_dswp.heuristic_partition = spans.wrap(
        "core.partition", core_dswp.heuristic_partition)
    LoopSplitter.split = spans.wrap("core.split", LoopSplitter.split)

    # Layer: machine (per-config oracle and batched engine).
    bench.simulate = counted("machine.simulate", bench.simulate,
                             lambda sim, *a: sims([sim]))

    def batch_measure(outcomes, bsim, *args) -> None:
        sims(out.result for out in outcomes)
        for lane in bsim.last_lanes:
            add("machine.vector_lanes", lane.get("vector", 0))
            add("machine.scalar_lanes", lane.get("scalar", 0))
            add("machine.oracle_lanes", lane.get("oracle", 0))
            add("machine.chunk_hits", lane.get("chunk_hits", 0))
            add("machine.chunk_misses", lane.get("chunk_misses", 0))
    BatchedSimulator.simulate_batch = counted(
        "machine.batch", BatchedSimulator.simulate_batch, batch_measure)


def _plan_counts(add):
    def measure(plan, *args) -> None:
        for row in plan.counts().values():
            add("incr.stages_served", row.get("hit", 0))
            add("incr.stages_scheduled", row.get("scheduled", 0))
    return measure


def _store_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def layers_from(records: list[dict], counters: dict) -> dict:
    """Per-layer metrics of the compute layers from one replay."""
    spans = common.Spans()
    spans.records = records
    totals, counts, c = spans.totals(), spans.counts(), counters
    sim_s = totals.get("machine.simulate", 0.0) + totals.get(
        "machine.batch", 0.0)
    chunks = c.get("machine.chunk_hits", 0) + c.get("machine.chunk_misses", 0)
    served = c.get("incr.stages_served", 0)
    scheduled = c.get("incr.stages_scheduled", 0)
    return {
        "workloads.build_s": totals.get("workloads.build", 0.0),
        "workloads.builds": counts.get("workloads.build", 0),
        "interp.baseline_s": totals.get("interp.baseline", 0.0),
        "interp.pipeline_s": totals.get("interp.pipeline", 0.0),
        "interp.instrs": c.get("interp.instrs", 0),
        "interp.queue_blocks": c.get("interp.queue_blocks", 0),
        "analysis.pdg_s": totals.get("analysis.pdg", 0.0),
        "analysis.scc_s": totals.get("analysis.scc", 0.0),
        "core.partition_s": totals.get("core.partition", 0.0),
        "core.split_s": totals.get("core.split", 0.0),
        "core.loops_applied": c.get("core.loops_applied", 0),
        "machine.simulate_s": totals.get("machine.simulate", 0.0),
        "machine.batch_s": totals.get("machine.batch", 0.0),
        "machine.sim_instrs": c.get("machine.sim_instrs", 0),
        "machine.sim_cycles": c.get("machine.sim_cycles", 0),
        "machine.host_ns_per_sim_instr": (
            sim_s * 1e9 / c["machine.sim_instrs"]
            if c.get("machine.sim_instrs") else 0.0),
        "machine.vector_lanes": c.get("machine.vector_lanes", 0),
        "machine.scalar_lanes": c.get("machine.scalar_lanes", 0),
        "machine.oracle_lanes": c.get("machine.oracle_lanes", 0),
        "machine.chunk_hit_ratio": (c.get("machine.chunk_hits", 0) / chunks
                                    if chunks else 0.0),
        "incr.plan_s": totals.get("incr.plan", 0.0),
        "incr.finalize_s": totals.get("incr.finalize", 0.0),
        "incr.stages_scheduled": scheduled,
        "incr.stages_served": served,
        "incr.served_ratio": (served / (served + scheduled)
                              if served + scheduled else 0.0),
        "incr.store_get_s": totals.get("incr.store_get", 0.0),
        "incr.store_put_s": totals.get("incr.store_put", 0.0),
        "incr.store_bytes": c.get("incr.store_bytes", 0),
    }


def replay_sweeps(out_dir: str, scale: int, spans: common.Spans) -> None:
    """The all-figure sweep, serially, as ``run_bench(jobs=1)``."""
    import repro.harness.bench as bench

    run_bench = spans.wrap("harness.run_bench", bench.run_bench)
    for figure in common.FIGURES:
        run_bench(figure, scale=scale, jobs=1, out_dir=out_dir,
                  compare=False)


def replay_served(out_dir: str, scale: int, seed: int, blocks: int,
                  spans: common.Spans) -> None:
    """The nominal serve mix's distinct work, serially, through the
    service worker's ``run_group_task`` -- as the daemon dispatches it:
    a request already answered is a response-cache hit and a request
    sent together with an identical one coalesces, so neither reaches a
    worker; requests sent together that share a source form one task."""
    import serve_mixed
    from repro.machine.cmp import simulate
    from repro.service import worker
    from repro.service.protocol import (
        functional_key,
        machine_key,
        parse_request,
    )

    worker.IRWorkload = spans.wrap("workloads.build", worker.IRWorkload)
    worker.simulate = spans.wrap("machine.simulate", simulate)
    run_task = spans.wrap("service.group_task", worker.run_group_task)
    mix = serve_mixed.make_mix(seed, blocks, serve_mixed.NOMINAL_RPS,
                               serve_mixed.ir_sources(seed, scale), scale)
    answered: set[bytes] = set()
    windows: dict[float, list] = {}
    for req in mix:
        windows.setdefault(req.due, []).append(req)
    for due in sorted(windows):
        groups: dict[str, list] = {}
        for req in windows[due]:
            if req.body in answered:
                continue
            answered.add(req.body)
            parsed = parse_request(json.loads(req.body))
            groups.setdefault(functional_key(parsed), []).append(parsed)
        for group, members in groups.items():
            result = run_task({
                "group": group, "source": members[0].source_dict(),
                "configs": [{"key": machine_key(m), "spec": m.machine}
                            for m in members],
                "cache_dir": os.path.join(out_dir, "artifacts")})
            if "fatal" in result:
                raise RuntimeError(f"replayed task failed: {result['fatal']}")


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("sweeps", "served"))
    parser.add_argument("out_dir")
    parser.add_argument("result")
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--scale", type=int, default=common.SCALE)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--probe-pool", action="store_true")
    args = parser.parse_args(argv)

    spans = common.Spans(pid=2, tid=1, enabled=args.spans)
    counters: dict[str, float] = {}
    if args.spans:
        _install(spans, counters)
    store_dir = os.path.join(args.out_dir, ".bench-cache"
                             if args.mode == "sweeps" else "artifacts")
    bytes_before = _store_bytes(store_dir)
    start = time.perf_counter_ns()
    if args.mode == "sweeps":
        replay_sweeps(args.out_dir, args.scale, spans)
    else:
        replay_served(args.out_dir, args.scale, args.seed, args.blocks,
                      spans)
    end = time.perf_counter_ns()
    counters["incr.store_bytes"] = _store_bytes(store_dir) - bytes_before

    warm_s = 0.0
    if args.probe_pool:
        from repro.parallel import WorkerPool

        pool = WorkerPool(2)
        warm = spans.wrap("parallel.warm", pool.warm)
        t0 = time.perf_counter()
        warm()
        warm_s = time.perf_counter() - t0
        pool.close()

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": (end - start) / 1e9, "start_ns": start,
                   "end_ns": end, "warm_s": warm_s,
                   "records": spans.records, "counters": counters}, fh)
    return 0


if __name__ == "__main__":
    common.ensure_src_on_path()
    sys.exit(main(sys.argv[1:]))
