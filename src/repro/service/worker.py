"""The pool-side half of the service: one task per functional group.

:func:`run_group_task` is the module-level function the daemon's
dispatcher puts into every :class:`~repro.parallel.PoolTask` -- it must
be importable by name because it crosses the fork into worker
processes.  One task carries one *functional group*: requests that
share source, scale and check flag, and therefore share interpretation
and transform work, differing only in machine configuration.  The task
runs the functional stages once (through the worker's content-addressed
:class:`~repro.incr.store.ArtifactStore`, arena-pinned so repeat
groups hit warm state -- and shared on disk with bench sweeps that use
the same store directory) and replays the timing model across all configs
through a :class:`~repro.machine.batch.BatchedSimulator` lane group,
exactly as :func:`~repro.harness.runner.run_experiment` would
config-by-config -- the batched engine is bit-identical by
construction (PR "batched multi-config simulation"), and a config the
engine bypasses or fails is replayed through the reference
:func:`~repro.machine.cmp.simulate` so a batching gap degrades to the
oracle lane, never to an error.

Contract with the dispatcher: **this function never raises.**  A
raising task is a :class:`~repro.parallel.TaskFailed` that fails every
config of its group with one opaque ``task-failed`` error; so every
failure -- unknown workload, unparseable IR, a checker rejection -- is
folded into the returned dict, per-config where possible and as a
group-level ``fatal`` record otherwise.
"""

from __future__ import annotations

import traceback

from repro.harness.runner import ExperimentResult
from repro.incr.stages import interpret_stage, transform_stage
from repro.incr.store import ArtifactStore
from repro.interp.memory import Memory
from repro.ir.parser import parse_function
from repro.ir.types import parse_register
from repro.ir.verifier import verify_function
from repro.machine.batch import BatchedSimulator
from repro.machine.cmp import simulate
from repro.parallel import worker_arena
from repro.service.protocol import experiment_payload, machine_from_spec
from repro.workloads.base import Workload, WorkloadCase
from repro.workloads.registry import get_workload


class IRWorkload(Workload):
    """A one-off workload wrapped around client-submitted IR text.

    Raw IR has no oracle, so the checker accepts anything and requests
    are forced to ``check=False`` at the protocol layer; the Table-1
    metadata is filled with neutral values (``exec_fraction`` 0.5 makes
    the Amdahl projection well-defined without claiming anything).
    """

    paper_benchmark = "client-ir"
    exec_fraction = 0.5

    def __init__(self, source: dict) -> None:
        self.name = f"ir:{source['loop_header']}"
        function = parse_function(source["ir"])
        verify_function(function)
        memory = Memory()
        for addr, value in source.get("memory", {}).items():
            memory.write(int(addr, 0) if isinstance(addr, str) else int(addr),
                         value)
        regs = {parse_register(name): value
                for name, value in source.get("initial_regs", {}).items()}
        self._case = WorkloadCase(
            name=self.name,
            function=function,
            loop_header=source["loop_header"],
            memory=memory,
            initial_regs=regs,
            checker=lambda mem, final_regs: None,
        )
        # Fail on a bad loop header at build time, not mid-experiment.
        _ = self._case.loop

    def build(self, scale=None, seed: int = 7) -> WorkloadCase:
        return self._case


def _build_workload(source: dict) -> Workload:
    if source["kind"] == "workload":
        return get_workload(source["workload"])
    return IRWorkload(source)


def _error(exc: BaseException) -> dict:
    return {
        "error": type(exc).__name__,
        "detail": str(exc),
        "traceback": traceback.format_exc(limit=8),
    }


def run_group_task(payload: dict) -> dict:
    """Run one functional group across its machine configs (in-worker).

    ``payload``::

        {"source": <ExperimentRequest.source_dict()>,
         "configs": [{"key": <machine_key>, "spec": <machine spec>}],
         "cache_dir": str | None}

    Returns ``{"results": {machine_key: {"payload": ...} |
    {"error": ...}}}``, or ``{"fatal": {...}}`` when the functional
    stages themselves failed (nothing per-config to report).
    """
    try:
        source = payload["source"]
        configs = payload["configs"]
        cache_dir = payload.get("cache_dir")
        arena = worker_arena()
        skey = ("service-store", cache_dir)
        store = arena.get(skey)
        if store is None:
            store = arena[skey] = ArtifactStore(persist_dir=cache_dir)
        key = ("service", payload["group"], cache_dir)
        entry = arena.get(key)
        if entry is None:
            workload = _build_workload(source)
            case = workload.build(scale=source.get("scale"))
            entry = arena[key] = (workload, case)
        workload, case = entry
        bkey = ("service-batched-simulator", cache_dir)
        bsim = arena.get(bkey)
        if bsim is None:
            bsim = arena[bkey] = BatchedSimulator(annotation_cache=store.objects)

        # The functional prefix runs through the incremental stage
        # wrappers: a store directory shared with a bench sweep serves
        # the same interpret/transform receipts here, and a code edit
        # rolls the stage keys instead of serving stale artefacts.
        check = bool(source.get("check", False))
        interp = interpret_stage(store, case, check=check)
        baseline = interp.value
        transformed = transform_stage(store, case, interp, check=check).value
    except BaseException as exc:  # noqa: BLE001 -- see module docstring
        return {"fatal": _error(exc)}

    machines = [machine_from_spec(cfg["spec"]) for cfg in configs]
    try:
        base_lane = bsim.simulate_batch([baseline.trace], machines)
        dswp_lane = bsim.simulate_batch(transformed.traces, machines)
    except BaseException:  # noqa: BLE001 -- degrade to the oracle lane
        blank = type("_Miss", (), {"result": None, "error": "lane-failed",
                                   "batched": False})()
        base_lane = [blank] * len(machines)
        dswp_lane = [blank] * len(machines)

    results: dict[str, dict] = {}
    for cfg, machine, base_out, dswp_out in zip(
            configs, machines, base_lane, dswp_lane):
        try:
            base_sim = (base_out.result if base_out.error is None
                        else simulate([baseline.trace], machine))
            dswp_sim = (dswp_out.result if dswp_out.error is None
                        else simulate(transformed.traces, machine))
            result = ExperimentResult(
                workload, base_sim, dswp_sim, transformed.result)
            results[cfg["key"]] = {"payload": experiment_payload(result)}
        except BaseException as exc:  # noqa: BLE001
            results[cfg["key"]] = _error(exc)
    return {"results": results}
