"""The ``sweep-cold`` and ``sweep-warm`` workloads.

Both run ``python -m repro bench --figure all --scale 800 --jobs 2
--no-compare`` (the CLI default), each sweep in its own fresh output
directory: ``repro bench`` writes its reports, journals and store into
``--out`` and fits its scheduler's cost model from any ``BENCH_*.json``
it finds there, so a reused directory would change scheduling from run
to run.

* ``sweep-cold`` starts every sweep against an empty store: every
  compute layer does its full work.
* ``sweep-warm`` starts every sweep against a pristine copy of a store
  prepared by one untimed cold sweep: plan, workload builds, store
  reads and import dominate; interpret, transform, simulate and the
  pool do nothing.

A sweep is timed from process launch until its last ``BENCH_*.json``
is written; set-up is launch until ``repro.harness.bench`` is imported.
Every sweep's points are checked against the reference lane.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import common
import reference
import replay

#: Timed sweeps per second of ``--seconds``, per workload (4 cold and
#: 20 warm at ``--seconds 15``).  The count depends only on the
#: arguments, never on elapsed time, so the tail is the same statistic
#: on every run.
SWEEPS_PER_SECOND = {False: 0.25, True: 4 / 3}
#: Sweeps per run at least (medians need several samples).
MIN_SWEEPS = 3
#: The sweep tail: this nearest-rank percentile of the run's sweeps
#: (the slowest of 4 cold sweeps, the 18th of 20 warm ones).
TAIL_PERCENTILE = 90.0
SWEEP_TIMEOUT_S = 170.0


def _sweep_args(out_dir: str, scale: int) -> list[str]:
    args = list(common.SWEEP_ARGS)
    args[args.index("--scale") + 1] = str(scale)
    return args + ["--out", out_dir]


def one_sweep(out_dir: str, scale: int, expected: dict) -> dict:
    """Launch one sweep into ``out_dir``; time, check and measure it."""
    stamp = os.path.join(common.WORK, "sweep-stamp.json")
    wall0 = time.time() - time.monotonic()
    proc, t0 = common.launch(_sweep_args(out_dir, scale), stamp)
    try:
        _, err = proc.communicate(timeout=SWEEP_TIMEOUT_S)
    finally:
        common.stop(proc)
    result = {"exit": proc.returncode, "problems": []}
    if proc.returncode != 0:
        result["problems"].append(
            f"sweep exited {proc.returncode}: "
            + err.decode(errors="replace").strip()[-300:])
        return result
    info = common.read_stamp(stamp)
    last = max(os.stat(os.path.join(out_dir, f"BENCH_{f}.json")).st_mtime_ns
               for f in common.FIGURES)
    result.update({
        "setup_s": info["imported"] - t0,
        "import_s": info["imported"] - info["started"],
        "sweep_s": last / 1e9 - wall0 - t0,
        "peak_rss_kb": info["peak_rss_kb"],
    })
    result["problems"] = reference.check_sweep(out_dir, expected)
    return result


def _prepare_store(scale: int, expected: dict) -> tuple[str, dict]:
    """One untimed cold sweep; returns its store as the pristine copy."""
    prep = common.fresh_dir("prepared")
    sweep = one_sweep(prep, scale, expected)
    pristine = os.path.join(common.WORK, "pristine-store")
    shutil.rmtree(pristine, ignore_errors=True)
    shutil.copytree(os.path.join(prep, ".bench-cache"), pristine)
    shutil.rmtree(prep, ignore_errors=True)
    return pristine, sweep


def _fresh_out(name: str, pristine) -> str:
    out = common.fresh_dir(name)
    if pristine is not None:
        shutil.copytree(pristine, os.path.join(out, ".bench-cache"))
    return out


def run(warm: bool, seconds: int, trace: bool, expected: dict,
        scale: int, spans: common.Spans) -> dict:
    attempted = failed = 0
    problems: list[str] = []

    def account(sweep: dict) -> None:
        nonlocal attempted, failed
        attempted += 1
        if sweep["problems"]:
            failed += 1
            problems.extend(sweep["problems"])

    pristine = None
    if warm:
        pristine, prep = _prepare_store(scale, expected)
        account(prep)

    if trace:
        result = _traced(pristine, scale, expected, spans, account)
    else:
        sweeps = []
        for _ in range(sweep_count(warm, seconds)):
            out = _fresh_out("sweep", pristine)
            sweep = one_sweep(out, scale, expected)
            shutil.rmtree(out, ignore_errors=True)
            account(sweep)
            if sweep["exit"] != 0:
                break
            sweeps.append(sweep)
        result = _summarise(sweeps)
    result.update({"attempted": attempted, "failed": failed,
                   "failures": problems[:10]})
    return result


def sweep_count(warm: bool, seconds: int) -> int:
    """Timed sweeps in one run of ``--seconds``."""
    return max(MIN_SWEEPS, round(seconds * SWEEPS_PER_SECOND[warm]))


def _summarise(sweeps: list[dict]) -> dict:
    if not sweeps:
        return {}
    walls = [s["sweep_s"] for s in sweeps]
    tail_value = common.percentile(walls, TAIL_PERCENTILE)
    tail_label = f"p{TAIL_PERCENTILE:g} of n={len(walls)}"
    return {
        "setup_s": common.median([s["setup_s"] for s in sweeps]),
        "sweep_s": common.median(walls),
        "sweep_tail_s": tail_value,
        "sweep_tail": tail_label,
        "sweeps": len(sweeps),
        "peak_rss_mb": common.median([s["peak_rss_kb"]
                                      for s in sweeps]) / 1024.0,
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

def _replay(pristine, scale: int, traced: bool, probe_pool: bool) -> dict:
    out = _fresh_out("replay", pristine)
    data = replay.run("sweeps", out, traced, "--scale", str(scale),
                      *(["--probe-pool"] if probe_pool else []))
    data["out_dir"] = out
    return data


def _bench_metrics(out_dir: str) -> dict:
    """Pool counters from the ``metrics`` blocks the sweep wrote."""
    totals = {"tasks": 0.0, "steals": 0.0, "retries": 0.0, "workers": 0.0,
              "degraded": 0.0}
    utilization = []
    for figure in common.FIGURES:
        with open(os.path.join(out_dir, f"BENCH_{figure}.json"),
                  encoding="utf-8") as fh:
            report = json.load(fh)
        totals["degraded"] += len(report.get("degraded_points", ()))
        for key, value in report.get("metrics", {}).items():
            name = key.split("{", 1)[0]
            if name in ("pool.tasks", "pool.steals", "pool.retries"):
                totals[name[5:]] += value
            elif name == "pool.utilization":
                utilization.append(value)
            elif name == "pool.workers":
                totals["workers"] = max(totals["workers"], value)
    totals["utilization"] = (sum(utilization) / len(utilization)
                             if utilization else 0.0)
    return totals


def _traced(pristine, scale, expected, spans, account) -> dict:
    # The real sweep on the same store state, for the pool's counters.
    out = _fresh_out("sweep", pristine)
    sweep = one_sweep(out, scale, expected)
    account(sweep)
    pool = _bench_metrics(out) if sweep["exit"] == 0 else {}
    shutil.rmtree(out, ignore_errors=True)

    try:
        plain = _replay(pristine, scale, traced=False, probe_pool=False)
        account({"problems": reference.check_sweep(plain["out_dir"],
                                                   expected)})
        traced = _replay(pristine, scale, traced=True,
                         probe_pool=pool.get("workers", 0) > 0)
        account({"problems": reference.check_sweep(traced["out_dir"],
                                                   expected)})
    except RuntimeError as exc:
        # A failed replay is one failed operation, not the run's end.
        account({"problems": [str(exc)]})
        return {"layers": {}}

    spans.records.extend(traced["records"])
    layers = replay.layers_from(traced["records"], traced["counters"])
    layers.update({
        "parallel.warm_s": traced.get("warm_s", 0.0),
        "parallel.tasks": pool.get("tasks", 0),
        "parallel.utilization": pool.get("utilization", 0.0),
        "parallel.steals": pool.get("steals", 0),
        "parallel.retries": pool.get("retries", 0),
        "parallel.degraded": pool.get("degraded", 0),
        "harness.run_bench_s": spans.totals().get("harness.run_bench", 0.0),
        "harness.self_s": spans.self_seconds("harness.run_bench"),
        "setup.import_s": sweep.get("import_s", 0.0),
        "trace.coverage": _layer_coverage(spans, traced),
        "trace.overhead_pct": 100.0 * (traced["wall_s"] - plain["wall_s"])
        / plain["wall_s"],
    })
    for run in (plain, traced):
        shutil.rmtree(run["out_dir"], ignore_errors=True)
    return {"layers": layers}


def _layer_coverage(spans: common.Spans, traced: dict) -> float:
    """Share of the replay's wall time inside a layer span below the
    driver (anything but the top-level ``harness.run_bench``)."""
    inner = common.Spans()
    inner.records = [dict(r, depth=0) for r in spans.records
                     if r["name"] != "harness.run_bench"]
    return inner.coverage(traced["start_ns"], traced["end_ns"])
