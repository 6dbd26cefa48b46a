"""The repository benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload {sweep-cold,sweep-warm,serve-mixed}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` times the end-to-end metrics; ``--trace 1`` is a separate
run that times each layer from outside (see README.md) and writes a
Chrome trace to ``.perfbench-out/trace-<workload>.json``.  Every output
is checked against the reference lane; the last line printed is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit
code 0 when every output was correct, 1 when one was not, 2 when the
checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback

import common
import reference

WORKLOADS = ("sweep-cold", "sweep-warm", "serve-mixed")

#: End-to-end metrics (``--trace 0``), each defined on every workload.
#: The unit of work is one sweep (sweep workloads) or one served request.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics (``--trace 1``); 0 where a workload's traced run
#: does not reach the layer (README.md says which).
PER_LAYER = (
    ("workloads.build_s", "s"), ("workloads.builds", "count"),
    ("interp.baseline_s", "s"), ("interp.pipeline_s", "s"),
    ("interp.instrs", "count"), ("interp.queue_blocks", "count"),
    ("analysis.pdg_s", "s"), ("analysis.scc_s", "s"),
    ("core.partition_s", "s"), ("core.split_s", "s"),
    ("core.loops_applied", "count"),
    ("machine.simulate_s", "s"), ("machine.batch_s", "s"),
    ("machine.sim_instrs", "count"), ("machine.sim_cycles", "count"),
    ("machine.host_ns_per_sim_instr", "ns"),
    ("machine.vector_lanes", "count"), ("machine.scalar_lanes", "count"),
    ("machine.oracle_lanes", "count"),
    ("machine.chunk_hit_ratio", "ratio"),
    ("incr.plan_s", "s"), ("incr.finalize_s", "s"),
    ("incr.stages_scheduled", "count"), ("incr.stages_served", "count"),
    ("incr.served_ratio", "ratio"), ("incr.store_get_s", "s"),
    ("incr.store_put_s", "s"), ("incr.store_bytes", "bytes"),
    ("parallel.warm_s", "s"), ("parallel.tasks", "count"),
    ("parallel.utilization", "ratio"), ("parallel.steals", "count"),
    ("parallel.retries", "count"), ("parallel.degraded", "count"),
    ("harness.run_bench_s", "s"), ("harness.self_s", "s"),
    ("service.wait_ms", "ms"), ("service.compute_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"), ("service.coalesced", "count"),
    ("service.lanes_per_task", "count"), ("service.refused", "count"),
    ("setup.import_s", "s"), ("setup.daemon_ready_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead_pct", "%"),
    ("gen.late_ms", "ms"),
)


#: Chrome-trace process names per ``(pid, tid)`` track.
TRACK_NAMES = {
    (1, 2): "serve-mixed connection 0",
    (1, 3): "serve-mixed connection 1",
    (2, 1): "serial replay (benchmark process)",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=common.SCALE,
                        help="problem scale (self-tests only; expected "
                             "values are then computed in-process)")
    parser.add_argument("--expected", default=None,
                        help="expected-values file (self-tests only)")
    return parser.parse_args(argv)


def end_to_end(workload: str, result: dict, sweep_points: int) -> dict:
    """The end-to-end metrics, plus the per-workload names for humans."""
    if workload == "serve-mixed":
        named = {
            "setup_s": result["setup_s"],
            "req_p50_ms": result["req_p50_ms"],
            "req_tail_ms": result["req_tail_ms"],
            "max_rate_rps": result["max_rate_rps"] or 0.0,
            "capacity_rps": result["capacity_rps"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            "setup_s": named["setup_s"],
            "latency_p50_ms": named["req_p50_ms"],
            "latency_tail_ms": named["req_tail_ms"],
            # The ladder's highest passing step is a step function of
            # capacity (it flips between steps run to run); the gated
            # throughput is the saturation phase's completion rate.
            "throughput_per_s": named["capacity_rps"],
            "peak_rss_mb": named["peak_rss_mb"],
        }
    else:
        named = {
            "setup_s": result["setup_s"],
            "sweep_s": result["sweep_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            "setup_s": named["setup_s"],
            "latency_p50_ms": result["sweep_s"] * 1e3,
            "latency_tail_ms": result["sweep_tail_s"] * 1e3,
            # Sweep points completed per second of sweep wall clock.
            "throughput_per_s": sweep_points / result["sweep_s"],
            "peak_rss_mb": named["peak_rss_mb"],
        }
    return metrics, named


def print_human(workload: str, result: dict, named: dict,
                trace: bool) -> None:
    attempted = max(result["attempted"], 1)
    print(f"workload {workload}: {result['attempted']} operation(s) "
          f"attempted, {result['failed']} failed")
    if not trace:
        units = {"setup_s": "s", "sweep_s": "s", "req_p50_ms": "ms",
                 "req_tail_ms": "ms", "max_rate_rps": "req/s",
                 "capacity_rps": "req/s",
                 "peak_rss_mb": "MB"}
        for name, value in named.items():
            if value is None:
                continue
            note = ""
            if name == "req_tail_ms":
                note = f"  ({result['req_tail']})"
            elif name == "sweep_s":
                note = (f"  (median of {result['sweeps']} sweeps; tail "
                        f"{result['sweep_tail_s']:.3f} s, "
                        f"{result['sweep_tail']})")
            elif name == "setup_s" and "setup_samples" in result:
                note = f"  (median of {result['setup_samples']} daemons)"
            print(f"  {name:<13} {value:12.4f} {units[name]}{note}")
        print(f"  {'fail_ratio':<13} {result['failed'] / attempted:12.4f} "
              "ratio")
        for step in result.get("ladder", ()):
            print(f"  ladder {step['rate_rps']:g} req/s: "
                  f"{'pass' if step['passed'] else 'FAIL'}, tail "
                  f"{step['tail_ms']:.1f} ms ({step['tail']}), achieved "
                  f"{step['achieved_rps']:.2f} req/s"
                  + (", growing backlog" if step["growing"] else ""))
    if result.get("timings"):
        print("  run time: " + ", ".join(
            f"{name} {seconds:.1f} s"
            for name, seconds in result["timings"].items()))
    for problem in result.get("failures", ()):
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.require_program()
    except common.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    common.ensure_src_on_path()
    # Descendants orphaned by the program's processes are re-parented
    # here and waited for before the result line is printed.
    common.adopt_orphans()
    shutil.rmtree(common.WORK, ignore_errors=True)
    os.makedirs(common.WORK)
    spans = common.Spans(pid=1, tid=1)
    expected = reference.load_expected(args.scale, args.expected)
    try:
        if args.workload == "serve-mixed":
            import serve_mixed

            result = serve_mixed.run(args.seed, args.seconds,
                                     bool(args.trace), expected, spans,
                                     args.scale)
        else:
            import sweeps

            result = sweeps.run(args.workload == "sweep-warm", args.seconds,
                                bool(args.trace), expected, args.scale,
                                spans)
    except Exception as exc:  # noqa: BLE001 -- reported as a failed run
        # The workloads count their own failures; anything that still
        # escapes is one failed operation, and the result line follows.
        traceback.print_exc()
        result = {"attempted": 1, "failed": 1,
                  "failures": [f"{type(exc).__name__}: {exc}"]}
    finally:
        common.stop_own_tracker()
        leftover = common.reap_orphans()
        for cmdline in leftover:
            print(f"note: stopped a leftover process: {cmdline}",
                  file=sys.stderr)
        shutil.rmtree(common.WORK, ignore_errors=True)

    correct = result["failed"] == 0
    if args.trace:
        layers = {name: 0.0 for name, _ in PER_LAYER}
        layers.update({k: v for k, v in result.get("layers", {}).items()
                       if k in layers})
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in PER_LAYER}
        out_dir = os.path.join(common.ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}.json")
        origin = min((r["start"] for r in spans.records), default=0)
        tracks = {(r["pid"], r["tid"]) for r in spans.records}
        try:
            events = common.write_trace(path, spans.chrome(origin, {
                track: TRACK_NAMES.get(track, f"track {track}")
                for track in tracks}))
        except ValueError as exc:
            correct = False
            result["failures"] = [*result.get("failures", ()),
                                  f"chrome trace rejected: {exc}"]
            events = None
        print_human(args.workload, result, {}, trace=True)
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {layers[name]:14.6f} {unit}")
        if events is not None:
            print(f"  chrome trace: {path} ({events} events, validated)")
    else:
        # A run whose timed phases failed has no metrics to report.
        metrics, named = {}, {}
        if result.get("setup_s"):
            points = sum(len(v) for v in expected["sweeps"].values())
            values, named = end_to_end(args.workload, result, points)
            if None not in values.values():
                metrics = {name: {"value": float(values[name]), "unit": unit}
                           for name, unit in END_TO_END}
        if not metrics:
            correct = False
        print_human(args.workload, result, named, trace=False)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def _terminated(signum, frame):
    # SIGTERM unwinds like an error, so every daemon and sweep process
    # is still stopped and waited for on the way out.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    sys.exit(main())
