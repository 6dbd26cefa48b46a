"""Expected outputs from the preserved reference lane, and the checks.

The reference lane is the pre-optimisation pipeline the program keeps
for differential testing: the object-at-a-time interpreter
(``repro.interp.reference``) and timing model
(``repro.machine.reference``), with ``repro.harness.bench.run_point_naive``
as the per-sweep-point driver.  Nothing the benchmark times is used to
produce the expected values.

``expected.json`` (committed beside this file) holds

* ``sweeps`` -- per figure, every point's ``cycles``/``ipcs``/
  ``instructions`` for ``repro bench --figure all --scale 800``;
* ``served`` -- per registered workload and machine config, the
  baseline and DSWP summaries a served ``check: true`` request must
  report.

Regenerate it (about a minute) with::

    python3 perfbench/reference.py

Served raw-IR requests carry seeded inputs, so their expected values
are computed during the run (untimed) and memoised by request content.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

import common

EXPECTED_PATH = os.path.join(common.HERE, "expected.json")
REGENERATE = "python3 perfbench/reference.py"


def _summary(sim) -> dict:
    return {"cycles": sim.cycles, "ipcs": sim.ipcs(),
            "instructions": [c.instructions_executed for c in sim.cores]}


class CaseReference:
    """Reference-lane results for one case, memoised per machine."""

    def __init__(self, case) -> None:
        from repro.analysis.profiling import LoopProfile
        from repro.harness.runner import MAX_STEPS, BaselineRun, run_dswp
        from repro.interp.reference import run_function_reference

        # Profile and trace in two object-at-a-time interpretations,
        # exactly as the naive bench lane does.
        profiled = run_function_reference(
            case.function, case.memory.clone(),
            initial_regs=case.initial_regs, max_steps=MAX_STEPS,
            record_profile=True, call_handlers=case.call_handlers)
        traced = run_function_reference(
            case.function, case.fresh_memory(),
            initial_regs=case.initial_regs, max_steps=MAX_STEPS,
            record_trace=True, call_handlers=case.call_handlers)
        counts = profiled.block_counts or {}
        profile = LoopProfile(counts, counts.get(case.loop.header, 0),
                              case.loop)
        baseline = BaselineRun(case, traced.trace or [], profile)
        self.base_traces = [baseline.trace]
        self.dswp_traces = [t.to_entries()
                            for t in run_dswp(case, baseline).traces]
        self._memo: dict[tuple, dict] = {}

    def summary(self, kind: str, machine: dict) -> dict:
        from repro.machine.reference import simulate_reference
        from repro.service.protocol import machine_from_spec

        key = (kind, json.dumps(machine, sort_keys=True))
        if key not in self._memo:
            traces = self.base_traces if kind == "base" else self.dswp_traces
            self._memo[key] = _summary(simulate_reference(
                traces, machine_from_spec(machine), burst=1 << 30))
        return self._memo[key]


def sweep_expected(scale: int) -> dict:
    """Every sweep point of ``--figure all`` through the naive lane."""
    common.ensure_src_on_path()
    from repro.harness.bench import FIGURES, run_point_naive, sweep_points

    return {figure: [run_point_naive(spec)[0]
                     for spec in sweep_points(figure, scale)]
            for figure in FIGURES}


def served_expected(machines: list[dict]) -> dict:
    """Registered-workload served results for every machine config."""
    common.ensure_src_on_path()
    from repro.workloads import TABLE1_WORKLOADS

    out: dict[str, dict] = {}
    for workload in TABLE1_WORKLOADS:
        ref = CaseReference(workload.build(scale=common.SCALE))
        out[workload.name] = {
            json.dumps(m, sort_keys=True): {
                "base": ref.summary("base", m),
                "dswp": ref.summary("dswp", m)}
            for m in machines}
    return out


def load_expected(scale: int, path: Optional[str] = None) -> dict:
    """Expectations from ``path``, else the committed ones at scale 800,
    else (a test-sized scale) computed in-process."""
    if path is None and scale == common.SCALE:
        path = EXPECTED_PATH
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    return {"scale": scale, "sweeps": sweep_expected(scale), "served": {}}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_sweep(out_dir: str, expected: dict) -> list[str]:
    """Compare every ``BENCH_<figure>.json`` point with the reference."""
    problems = []
    for figure, points in expected["sweeps"].items():
        path = os.path.join(out_dir, f"BENCH_{figure}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"{figure}: unreadable report ({exc})")
            continue
        got = [{k: v for k, v in p.items() if k != "degraded"}
               for p in report.get("points", ())]
        if got != points:
            bad = [e["id"] for e, g in zip(points, got) if e != g]
            problems.append(f"{figure}: {len(bad) or 'count'} point(s) "
                            f"differ from the reference {bad[:3]}")
    return problems


def _served_summaries(payload: dict) -> tuple[dict, dict]:
    base = payload["baseline"]
    pipe = payload.get("pipeline") or {}
    return ({"cycles": base["cycles"], "ipc": base["ipc"],
             "instructions": base["instructions"]},
            {"cycles": pipe.get("cycles"), "ipcs": pipe.get("per_core_ipc")})


def _as_served(ref: dict) -> tuple[dict, dict]:
    base, dswp = ref["base"], ref["dswp"]
    return ({"cycles": base["cycles"], "ipc": base["ipcs"][0],
             "instructions": sum(base["instructions"])},
            {"cycles": dswp["cycles"], "ipcs": dswp["ipcs"]})


#: Reference computations run in at most this many processes.
CHECK_PROCESSES = 2


def _source_reference(task: tuple) -> dict:
    """Reference summaries of one source on several machines (runs in a
    check process).  ``task`` is ``(name, build_seed | None, scale,
    machines)``; the build seed ``None`` means the workload's own."""
    name, build_seed, scale, machines = task
    common.ensure_src_on_path()
    from repro.workloads import get_workload

    workload = get_workload(name)
    case = (workload.build(scale=scale) if build_seed is None
            else workload.build(scale=scale, seed=build_seed))
    ref = CaseReference(case)
    return {m: {"base": ref.summary("base", json.loads(m)),
                "dswp": ref.summary("dswp", json.loads(m))}
            for m in machines}


def served_references(case_keys, expected: dict, scale: int) -> dict:
    """Reference results for every distinct served case, by case key.

    Registered workloads come from ``expected`` when it has them; every
    other case is computed once per source, in ``CHECK_PROCESSES``
    spawned processes (the daemons are stopped by then)."""
    import concurrent.futures
    import multiprocessing

    refs: dict[tuple, dict] = {}
    todo: dict[tuple, set] = {}
    for key in set(case_keys):
        if key[0] == "workload":
            stored = expected.get("served", {}).get(key[1], {}).get(key[2])
            if stored is not None:
                refs[key] = stored
                continue
            source = (key[1], None)
        else:
            source = (key[1], key[2])
        todo.setdefault(source, set()).add(key[-1])
    if todo:
        tasks = [(name, build_seed, scale, sorted(machines))
                 for (name, build_seed), machines in sorted(
                     todo.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0))]
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=CHECK_PROCESSES,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            for (name, build_seed, _, _), result in zip(
                    tasks, pool.map(_source_reference, tasks)):
                for machine, summary in result.items():
                    kind = "workload" if build_seed is None else "ir"
                    key = ((kind, name, machine) if build_seed is None
                           else (kind, name, build_seed, machine))
                    refs[key] = summary
    return refs


def check_served(outcomes, expected: dict, scale: int) -> list[str]:
    """One problem string per failed or wrong served request."""
    refs = served_references(
        [out.request.case_key for out in outcomes], expected, scale)
    problems = []
    for out in outcomes:
        req = out.request
        where = f"request {req.index} ({req.kind})"
        if out.error is not None:
            problems.append(f"{where}: {out.error}")
        elif out.status != 200 or not isinstance(out.payload, dict):
            problems.append(f"{where}: HTTP {out.status}")
        elif out.payload.get("status") != "ok":
            problems.append(f"{where}: {out.payload.get('error')}")
        elif (_served_summaries(out.payload["payload"])
              != _as_served(refs[req.case_key])):
            problems.append(f"{where}: result differs from the reference")
    return problems


def main() -> int:
    import serve_mixed

    common.ensure_src_on_path()
    data = {
        "command": REGENERATE,
        "scale": common.SCALE,
        "sweeps": sweep_expected(common.SCALE),
        "served": served_expected(serve_mixed.machine_set()),
    }
    tmp = EXPECTED_PATH + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, EXPECTED_PATH)
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
