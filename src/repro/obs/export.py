"""Exporters: Chrome ``trace_event`` JSON and flat metrics snapshots.

The cycle-domain pipeline timeline is *derived* from telemetry the
timing simulation already collects (per-core stall records, the
synchronization array's visible/freed event lists) rather than being
recorded inside the simulator's hot loop -- so producing a trace costs
nothing when disabled and cannot perturb timing when enabled.

Per :class:`~repro.machine.stats.SimResult` the builder emits:

* one Chrome *thread* track per core (``tid`` = core id) under the
  cycle-domain process (:data:`~repro.obs.spans.CYCLE_PID`), named via
  ``thread_name`` metadata;
* ``X`` slices alternating ``execute`` with queue-stall intervals
  (``produce_full`` / ``consume_empty``, tagged with the queue id);
* ``s``/``f`` flow arrows from each produce's issue cycle on the
  producer core to the matching consume's issue cycle on the consumer
  core (FIFO matching per queue, exactly the §2.1 protocol);
* ``C`` counter samples of per-queue occupancy over time.

Wall-clock harness spans recorded by a :class:`~repro.obs.spans.Tracer`
ride along under their own process, so one file shows both "what did
the harness spend time on" and "what did the pipeline do, cycle by
cycle".

:func:`validate_chrome_trace` is the strict schema check the
``obs_smoke`` tier round-trips through; it accepts exactly the JSON
object form Perfetto loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import CYCLE_PID, WALL_PID, Tracer

#: Flow-event cap per trace: a long run has one arrow per produced
#: token, which Perfetto renders fine into the tens of thousands but
#: makes files large; beyond the cap, flows are sampled evenly.
DEFAULT_MAX_FLOWS = 20_000

#: Counter samples kept per queue occupancy track.
DEFAULT_COUNTER_SAMPLES = 512


# ----------------------------------------------------------------------
# Cycle-domain timeline from simulation telemetry
# ----------------------------------------------------------------------

def _queue_endpoints(cores) -> dict[int, dict[str, list[int]]]:
    """queue id -> {"producers": [core ids], "consumers": [core ids]}
    from the static instructions of each core's trace."""
    from repro.ir.types import Opcode  # local: keep module import-light

    endpoints: dict[int, dict[str, list[int]]] = {}
    for core in cores:
        for static in core.trace.statics:
            op = static.inst.opcode
            if op not in (Opcode.PRODUCE, Opcode.CONSUME):
                continue
            sides = endpoints.setdefault(
                static.inst.queue, {"producers": [], "consumers": []})
            side = "producers" if op is Opcode.PRODUCE else "consumers"
            if core.core_id not in sides[side]:
                sides[side].append(core.core_id)
    return endpoints


def _core_slices(core) -> list[dict]:
    """Alternating execute/stall ``X`` slices for one core's track."""
    events: list[dict] = []

    def slice_event(name: str, start: int, end: int, **args) -> None:
        if end <= start:
            return
        event = {"name": name, "cat": "sim", "ph": "X", "ts": start,
                 "dur": end - start, "pid": CYCLE_PID, "tid": core.core_id}
        if args:
            event["args"] = args
        events.append(event)

    cursor = 0
    for stall in sorted(core.stalls, key=lambda s: (s.start, s.end)):
        start = max(stall.start, cursor)
        end = max(stall.end, start)
        slice_event("execute", cursor, start)
        slice_event(stall.kind, start, end, queue=stall.queue)
        cursor = max(cursor, end)
    slice_event("execute", cursor, core.last_completion)
    return events


def _sample(items: list, limit: int) -> list:
    """At most ``limit`` items, evenly spread, always keeping the last."""
    if limit <= 0 or len(items) <= limit:
        return items
    stride = -(-len(items) // limit)  # ceil division
    sampled = items[::stride]
    if sampled[-1] is not items[-1]:
        sampled.append(items[-1])
    return sampled


def _flow_events(sim, max_flows: int) -> list[dict]:
    """s/f arrow pairs: k-th produce on queue q -> k-th consume."""
    queues = sim.queues
    if queues is None:
        return []
    endpoints = _queue_endpoints(sim.cores)
    pairs: list[tuple[int, int, int, int, int, int]] = []
    for qid in sorted(queues.visible):
        sides = endpoints.get(qid, {})
        producers = sides.get("producers", [])
        consumers = sides.get("consumers", [])
        if not producers or not consumers:
            continue
        producer, consumer = producers[0], consumers[0]
        visible = queues.visible[qid]
        freed = queues.freed.get(qid, [])
        # Produce issue cycle = visible time minus the produce pipeline
        # latency (record_produce adds 1 + comm_latency).
        lat = 1 + queues.comm_latency
        for k in range(min(len(visible), len(freed))):
            pairs.append((qid, k, visible[k] - lat, freed[k],
                          producer, consumer))
    pairs = _sample(pairs, max_flows)
    events: list[dict] = []
    for qid, k, ts_s, ts_f, producer, consumer in pairs:
        flow_id = f"q{qid}:{k}"
        events.append({"name": f"q{qid}", "cat": "flow", "ph": "s",
                       "id": flow_id, "ts": max(ts_s, 0),
                       "pid": CYCLE_PID, "tid": producer})
        events.append({"name": f"q{qid}", "cat": "flow", "ph": "f",
                       "bp": "e", "id": flow_id,
                       "ts": max(ts_f, max(ts_s, 0)),
                       "pid": CYCLE_PID, "tid": consumer})
    return events


def _occupancy_counters(sim, samples: int) -> list[dict]:
    queues = sim.queues
    if queues is None:
        return []
    events: list[dict] = []
    for qid in queues.queue_ids():
        level = 0
        track: list[tuple[int, int]] = [(0, 0)]
        for t, delta in queues.occupancy_events_for(qid):
            level += delta
            track.append((t, level))
        for t, value in _sample(track, samples):
            events.append({"name": "queue occupancy", "cat": "sim",
                           "ph": "C", "ts": t, "pid": CYCLE_PID, "tid": 0,
                           "args": {f"q{qid}": value}})
    return events


def sim_trace_events(
    sim,
    max_flows: int = DEFAULT_MAX_FLOWS,
    counter_samples: int = DEFAULT_COUNTER_SAMPLES,
) -> list[dict]:
    """The cycle-domain Chrome events for one finished simulation."""
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": CYCLE_PID, "tid": 0,
         "args": {"name": "pipeline (simulated cycles)"}},
    ]
    for core in sim.cores:
        events.append({"name": "thread_name", "ph": "M", "pid": CYCLE_PID,
                       "tid": core.core_id,
                       "args": {"name": f"core {core.core_id} "
                                        f"(stage {core.core_id})"}})
        events.extend(_core_slices(core))
    events.extend(_flow_events(sim, max_flows))
    events.extend(_occupancy_counters(sim, counter_samples))
    return events


def build_chrome_trace(
    tracer: Optional[Tracer] = None,
    sim=None,
    base_sim=None,
    max_flows: int = DEFAULT_MAX_FLOWS,
    counter_samples: int = DEFAULT_COUNTER_SAMPLES,
) -> dict:
    """Assemble a complete Chrome JSON-object trace.

    ``tracer`` contributes the wall-clock harness spans, ``sim`` the
    pipeline's cycle-domain timeline; ``base_sim`` (optional) adds the
    single-threaded baseline as its own process for side-by-side
    comparison.  Any argument may be ``None``.
    """
    events: list[dict] = []
    if tracer is not None and tracer.events:
        events.append({"name": "process_name", "ph": "M", "pid": WALL_PID,
                       "tid": 0, "args": {"name": "harness (wall clock)"}})
        events.append({"name": "thread_name", "ph": "M", "pid": WALL_PID,
                       "tid": 0, "args": {"name": "driver"}})
        events.extend(tracer.events)
    if sim is not None:
        events.extend(sim_trace_events(sim, max_flows=max_flows,
                                       counter_samples=counter_samples))
    if base_sim is not None:
        base_pid = CYCLE_PID + 2
        events.append({"name": "process_name", "ph": "M", "pid": base_pid,
                       "tid": 0,
                       "args": {"name": "baseline (simulated cycles)"}})
        for core in base_sim.cores:
            events.append({"name": "thread_name", "ph": "M", "pid": base_pid,
                           "tid": core.core_id,
                           "args": {"name": f"core {core.core_id}"}})
            for event in _core_slices(core):
                event = dict(event)
                event["pid"] = base_pid
                events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, payload: dict) -> str:
    """Validate and write ``payload`` to ``path``; returns the path."""
    validate_chrome_trace(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# Strict trace_event schema validation
# ----------------------------------------------------------------------

class TraceValidationError(ValueError):
    """The payload is not a loadable Chrome trace_event JSON object."""


_KNOWN_PHASES = frozenset("BEXiIsftCM")
_NUMERIC = (int, float)


def validate_chrome_trace(payload) -> int:
    """Strictly validate a Chrome JSON-object trace.

    Checks structure (``traceEvents`` list of dicts), per-phase
    required fields and types, balanced ``B``/``E`` nesting per
    ``(pid, tid)``, matched ``s``/``f`` flow ids, and numeric counter
    arguments.  Returns the number of events; raises
    :class:`TraceValidationError` listing every problem found.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        raise TraceValidationError(
            f"top level must be a JSON object, got {type(payload).__name__}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise TraceValidationError("top level must carry a 'traceEvents' list")

    stacks: dict[tuple, list[str]] = {}
    flow_starts: dict[tuple, int] = {}
    flow_finishes: dict[tuple, int] = {}

    for i, event in enumerate(events):
        where = f"event {i}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where} (ph={ph}): missing/empty 'name'")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where} (ph={ph}): '{field}' must be an int")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, _NUMERIC) or isinstance(ts, bool):
                problems.append(f"{where} (ph={ph}): 'ts' must be a number")
            elif ts < 0:
                problems.append(f"{where} (ph={ph}): negative ts {ts}")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where} (ph={ph}): 'args' must be an object")

        key = (event.get("pid"), event.get("tid"))
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, _NUMERIC) or isinstance(dur, bool) or dur < 0:
                problems.append(f"{where}: X event needs numeric dur >= 0")
        elif ph == "B":
            stacks.setdefault(key, []).append(event.get("name", ""))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(f"{where}: E without matching B on {key}")
            else:
                stack.pop()
        elif ph in ("s", "f", "t"):
            if "id" not in event:
                problems.append(f"{where}: flow event without 'id'")
            else:
                flow_key = (event.get("cat"), event["id"])
                if ph == "s":
                    flow_starts[flow_key] = flow_starts.get(flow_key, 0) + 1
                elif ph == "f":
                    flow_finishes[flow_key] = (
                        flow_finishes.get(flow_key, 0) + 1)
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: C event needs non-empty args")
            else:
                for k, v in args.items():
                    if not isinstance(v, _NUMERIC) or isinstance(v, bool):
                        problems.append(
                            f"{where}: counter arg {k!r} not numeric")
        elif ph == "M":
            if event.get("name") in ("process_name", "thread_name"):
                args = event.get("args", {})
                if not isinstance(args.get("name"), str):
                    problems.append(
                        f"{where}: {event.get('name')} metadata needs "
                        f"args.name string")

    for key, stack in stacks.items():
        if stack:
            problems.append(
                f"unbalanced B/E on pid/tid {key}: open spans {stack}")
    for flow_key, n in flow_finishes.items():
        if flow_starts.get(flow_key, 0) == 0:
            problems.append(f"flow finish without start: id {flow_key}")
    for flow_key, n in flow_starts.items():
        if flow_finishes.get(flow_key, 0) == 0:
            problems.append(f"flow start without finish: id {flow_key}")

    if problems:
        shown = "; ".join(problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise TraceValidationError(
            f"{len(problems)} trace schema problem(s): {shown}{more}")
    return len(events)


# ----------------------------------------------------------------------
# Metrics snapshots and provenance
# ----------------------------------------------------------------------

def write_metrics(path: str, registry: MetricsRegistry) -> str:
    """Write a flat snapshot; ``.csv`` suffix selects CSV, else JSON."""
    if path.endswith(".csv"):
        text = registry.to_csv()
    else:
        text = registry.to_json() + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def machine_config_digest(machine) -> str:
    """Stable short hash of a :class:`MachineConfig` (dataclass repr is
    deterministic and covers every timing knob)."""
    return hashlib.sha256(repr(machine).encode()).hexdigest()[:16]


_commit_memo: dict = {}


def git_commit(repo_dir: Optional[str] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout.

    Resolved once per process and checkout: the code a process runs was
    loaded from the commit it first saw, and every sweep of a
    ``--figure all`` run (or a test session) would otherwise spawn
    ``git`` again for the same answer."""
    if repo_dir is None:
        repo_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
    if repo_dir not in _commit_memo:
        _commit_memo[repo_dir] = _read_git_commit(repo_dir)
    return _commit_memo[repo_dir]


def _read_git_commit(repo_dir: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_dir,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    commit = out.stdout.strip()
    return commit or None


def record_provenance(registry: MetricsRegistry, machine=None,
                      extra: Optional[dict] = None) -> dict:
    """Record ``provenance.*`` info metrics; returns them as a dict.

    Captures the git commit (when available), the machine-config hash,
    and any ``extra`` key/values (e.g. ``bench_scale``) -- the
    attribution block embedded in ``BENCH_*.json`` so a bench
    trajectory stays explainable across PRs.
    """
    values: dict[str, str] = {}
    commit = git_commit()
    if commit is not None:
        values["git_commit"] = commit
    if machine is not None:
        values["machine_config"] = machine_config_digest(machine)
    for key, value in (extra or {}).items():
        values[str(key)] = str(value)
    for key, value in values.items():
        registry.info(f"provenance.{key}").set(value)
    return values


def provenance_from_snapshot(snapshot: dict) -> dict:
    """Extract the ``provenance.*`` entries of a metrics snapshot."""
    prefix = "provenance."
    return {key[len(prefix):]: value for key, value in snapshot.items()
            if key.startswith(prefix)}
