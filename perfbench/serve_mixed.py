"""The ``serve-mixed`` workload: a seeded open loop against ``repro serve``.

One benchmark process feeds a ``python -m repro serve --jobs 2`` daemon
over at most two connections.  Requests are sent on a fixed schedule
(open loop) and each one's latency is timed from the moment it was
*due*, so a stall also charges the requests queued behind it.

The mix (see :func:`make_mix`) is built from blocks of ten requests:

* six raw-IR requests for new (source, machine) pairs -- three singles,
  one *pair* (one source, two configs, sent together: one batched
  pool task) and one *duplicate* (the same request twice at once: the
  second coalesces onto the first);
* one raw-IR *repeat* of an earlier request (a response-cache hit);
* two registered-workload requests, which run the program's own
  oracle (``check: true``).

These shares are assumptions chosen to make every service path run,
not measured traffic; README.md gives the basis of each.

Raw IR is a Table 1 loop built with ``Workload.build(scale=800,
seed=<input seed>)`` and rendered with ``ir.printer.render_function``,
plus its memory image, registers and loop header; the input seeds (and
which earlier request each repeat repeats) come from ``--seed``, the
order of the requests from a fixed schedule seed.  Machine configs come
from the fig9a/fig9b/qsweep set.

Every daemon starts on a fresh ``--cache-dir`` and a free port and is
stopped with a SIGTERM drain.  Every response is checked against the
preserved reference lane (:mod:`reference`) after the timed phases.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import subprocess
import threading
import time
from typing import Optional

import common
import reference
import replay

HOST = "127.0.0.1"
#: Nominal open-loop rate (requests/s).  A nominal phase lasts
#: ``NOMINAL_SHARE`` x ``--seconds``, up to ``PLAN_BLOCKS`` blocks of ten
#: requests: the blocks ``IR_PLAN`` and ``WORKLOAD_PLAN`` fill with every
#: kind of request in whole rounds over the sources.
NOMINAL_RPS = 5.0
NOMINAL_SHARE = 0.7
PLAN_BLOCKS = 20
#: Raw-IR inputs per Table 1 loop: each loop is built with this many
#: input seeds, so a run's mix holds twenty distinct raw-IR sources.
INPUTS_PER_LOOP = 2
#: Rate ladder for ``max_rate_rps`` (requests/s) and blocks per step.
LADDER_RPS = (5.0, 10.0, 20.0)
LADDER_BLOCKS = 1
#: "Rate" of the saturation phases: every request is due at once.
SATURATION_RPS = 1e9
#: Nominal and saturation phases per untraced run (fresh daemon each,
#: samples pooled).  With 50 requests a nominal phase (``--seconds
#: 15``) the pooled tail is the p90 of 150, with 15 samples beyond it.
NOMINAL_PHASES = 3
SATURATION_PHASES = 2
#: Latency limit on the tail at every ladder step (ms).
LATENCY_LIMIT_MS = 1000.0
#: A step has a growing backlog when the last third of its requests
#: are sent (median) more than ``BACKLOG_MS`` late and more than
#: ``BACKLOG_FACTOR`` times as late as the first third.
BACKLOG_MS = 100.0
BACKLOG_FACTOR = 2.0
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# The mix
# ----------------------------------------------------------------------

class Request:
    """One scheduled request: its due offset, wire body and identity."""

    __slots__ = ("index", "due", "kind", "body", "case_key")

    def __init__(self, index: int, due: float, kind: str, body: bytes,
                 case_key: tuple) -> None:
        self.index = index
        self.due = due
        self.kind = kind
        self.body = body
        #: What the reference check needs: ``("ir", loop, input seed,
        #: machine)`` or ``("workload", name, machine)``.
        self.case_key = case_key


def machine_set() -> list[dict]:
    """The distinct machine configs of the fig9a/fig9b/qsweep sweeps, in
    the served protocol's canonical form."""
    common.ensure_src_on_path()
    from repro.harness.bench import FIGURES, sweep_points

    seen: dict[str, dict] = {}
    for figure in FIGURES:
        for spec in sweep_points(figure, common.SCALE):
            machine = {"core": spec["machine"]["core"],
                       "comm_latency": spec["machine"].get("comm_latency", 1),
                       "queue_size": spec["machine"].get("queue_size", 32)}
            seen.setdefault(json.dumps(machine, sort_keys=True), machine)
    return [seen[key] for key in sorted(seen)]


def ir_sources(seed: int,
               scale: int = common.SCALE) -> dict[tuple, dict]:
    """Raw-IR request sources: every Table 1 loop at ``scale``, built
    ``INPUTS_PER_LOOP`` times with input seeds derived from ``seed``.
    Keyed by ``(loop name, input seed)``."""
    common.ensure_src_on_path()
    from repro.ir.printer import render_function
    from repro.workloads import TABLE1_WORKLOADS

    sources = {}
    for workload in TABLE1_WORKLOADS:
        for k in range(INPUTS_PER_LOOP):
            build_seed = INPUTS_PER_LOOP * seed + k
            case = workload.build(scale=scale, seed=build_seed)
            sources[(workload.name, build_seed)] = {
                "ir": render_function(case.function),
                "loop_header": case.loop_header,
                "memory": {str(addr): value for addr, value
                           in sorted(case.memory.snapshot().items())},
                "initial_regs": {str(reg): value for reg, value
                                 in sorted(case.initial_regs.items(),
                                           key=lambda kv: str(kv[0]))},
            }
    return sources


def _block_layout(rng: random.Random) -> list[str]:
    """One block's request kinds, in a seeded order."""
    slots = ["ir", "ir", "ir", "pair", "dup", "repeat", "workload",
             "workload"]
    rng.shuffle(slots)
    return slots


#: The configs each kind of request uses, as offsets into the machine
#: list: source ``i``'s offset ``k`` is machine ``(i + k) mod 10``.  Over
#: twenty raw-IR sources (ten workloads) every machine serves every kind
#: equally often, so the mix's (source, machine, kind) composition is
#: the same for every seed; the seed changes the order and the inputs.
IR_PLAN = {"ir": [[0], [1], [2]], "pair": [[3, 4]], "dup": [[5]]}
WORKLOAD_PLAN = [[0], [1], [2], [3]]
#: Seeds the schedule (see :func:`make_mix`), which ``--seed`` does not
#: change: with a seeded schedule the p95 latency moved between 175 and
#: 223 ms across seeds, while one seed repeated moved by about 5%.
SCHEDULE_SEED = 0


class _Rounds:
    """Seeded draws of one request kind's (source, configs) items.

    Sources are visited in rounds -- every source with items left once
    per round, in a fresh seeded order -- so a mix of whole rounds holds
    each source equally often."""

    def __init__(self, rng: random.Random, plan: dict) -> None:
        self.rng = rng
        self.plan = {name: list(items) for name, items in plan.items()}
        self.order: list = []

    def draw(self, among=None) -> tuple:
        """The next source (preferring those in ``among`` when any of
        them has items left) and its next item of machine indices."""
        candidates = [n for n in reversed(self.order) if self.plan[n]]
        if not candidates:
            self.order = self.rng.sample(sorted(self.plan), len(self.plan))
            candidates = [n for n in reversed(self.order) if self.plan[n]]
        if not candidates:
            raise ValueError("mix longer than its plan")
        preferred = [n for n in candidates if among is None or n in among]
        name = (preferred or candidates)[0]
        self.order.remove(name)
        return name, self.plan[name].pop(0)


def _plan(names: list, offsets: list, machines: int) -> dict:
    return {name: [[(i + k) % machines for k in item] for item in offsets]
            for i, name in enumerate(names)}


def make_mix(seed: int, blocks: int, rate: float,
             sources: Optional[dict] = None,
             scale: int = common.SCALE) -> list[Request]:
    """``blocks`` blocks of ten requests at ``rate`` requests/s.

    The same ``seed`` always yields the same requests, bodies and due
    times.  Pairs and duplicates share one due time; each request
    advances the schedule by ``1/rate``, so the mean rate is ``rate``."""
    rng = random.Random(seed)
    # The schedule -- which kind of request goes where, and the order
    # sources are visited in -- is the same for every seed; the seed
    # changes the inputs and which request each repeat repeats.
    order = random.Random(SCHEDULE_SEED)
    sources = sources if sources is not None else ir_sources(seed, scale)
    machines = machine_set()
    names = sorted(sources)
    ir_draws = {kind: _Rounds(order, _plan(names, offsets, len(machines)))
                for kind, offsets in IR_PLAN.items()}
    wl_draws = _Rounds(order, _plan(sorted({name for name, _ in sources}),
                                  WORKLOAD_PLAN, len(machines)))
    encoded: dict[tuple, str] = {}

    def ir_body(source: tuple, mi: int) -> tuple[bytes, tuple]:
        if source not in encoded:
            # The source half is encoded once; the machine is spliced in.
            encoded[source] = json.dumps(sources[source])[:-1]
        machine = machines[mi]
        body = (encoded[source] + ', "machine": '
                + json.dumps(machine) + "}").encode()
        return body, ("ir", *source, json.dumps(machine, sort_keys=True))

    def wl_body(name: str, mi: int) -> tuple[bytes, tuple]:
        machine = machines[mi]
        body = json.dumps({"workload": name, "scale": scale,
                           "check": True, "machine": machine}).encode()
        return body, ("workload", name,
                      json.dumps(machine, sort_keys=True))

    requests: list[Request] = []
    ir_sent: list[tuple[bytes, tuple]] = []
    introduced: set = set()

    def add(kind: str, body: bytes, key: tuple, due: float) -> None:
        requests.append(Request(len(requests), due, kind, body, key))

    for block in range(blocks):
        layout = _block_layout(order)
        if block == 0:
            # The mix opens with a single: nothing to repeat, pair or
            # duplicate exists before it.
            layout.remove("ir")
            layout.insert(0, "ir")
        for kind in layout:
            due = len(requests) / rate
            if kind in ("ir", "dup", "pair"):
                # A source's first request is a single, so the cold cost
                # of a new source never rides on a pair or a duplicate.
                loop, picks = ir_draws[kind].draw(
                    among=None if kind == "ir" else introduced)
                introduced.add(loop)
                for mi in picks:
                    body, key = ir_body(loop, mi)
                    add(kind, body, key, due)
                    ir_sent.append((body, key))
                if kind == "dup":
                    add(kind, body, key, due)
            elif kind == "workload":
                name, (mi,) = wl_draws.draw()
                add(kind, *wl_body(name, mi), due)
            else:  # repeat: an earlier raw-IR request
                add(kind, *rng.choice(ir_sent), due)
    return requests


def mix_digest(requests: list[Request]) -> str:
    """Content digest of a mix (the self-tests compare seeds with it)."""
    import hashlib

    h = hashlib.sha256()
    for req in requests:
        h.update(f"{req.due:.6f}|{req.kind}|".encode())
        h.update(req.body)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro serve --jobs 2`` on a fresh cache dir and free port."""

    def __init__(self, name: str) -> None:
        self.dir = common.fresh_dir("serve", name)
        self.port = _free_port()
        self.stamp = os.path.join(self.dir, "stamp.json")
        self.proc, self.t0 = common.launch(
            ["serve", "--port", str(self.port), "--jobs", "2",
             "--cache-dir", os.path.join(self.dir, "cache")],
            self.stamp, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            self.ready_s = self._wait_ready()
        except BaseException:
            self.kill()
            raise

    def _wait_ready(self) -> float:
        deadline = self.t0 + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    "it was ready")
            try:
                status, _ = get_json(self.port, "/healthz", timeout=2.0)
                if status == 200:
                    return time.monotonic() - self.t0
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon not ready in time")

    def metrics(self) -> dict:
        status, payload = get_json(self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return payload

    def drain(self) -> dict:
        """SIGTERM drain; returns the launch stamp (peak RSS, exit)."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("daemon did not drain within 60 s")
        stamp = common.read_stamp(self.stamp)
        if self.proc.returncode != 0 or stamp.get("exit") != 0:
            raise RuntimeError(
                f"daemon drain exited {self.proc.returncode}")
        return stamp

    def kill(self) -> None:
        common.stop(self.proc, timeout=10)


def get_json(port: int, path: str, timeout: float = 10.0):
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------

class Outcome:
    __slots__ = ("request", "start", "end", "status", "payload", "error",
                 "events")

    def __init__(self, request: Request) -> None:
        self.request = request
        self.start = self.end = None
        self.status = None
        self.payload = None
        self.error = None
        #: ``{event name: monotonic arrival}`` (streamed runs only).
        self.events: dict[str, float] = {}


def _send(port: int, req: Request, out: Outcome, stream: bool) -> None:
    conn = http.client.HTTPConnection(HOST, port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", "/v1/experiments?stream=1" if stream
                     else "/v1/experiments", body=req.body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        out.status = response.status
        if not stream or response.status != 200:
            out.payload = json.loads(response.read().decode())
            return
        while True:
            line = response.readline()
            if not line:
                break
            now = time.monotonic()
            line = line.strip()
            if not line:
                continue
            event = json.loads(line.decode())
            out.events.setdefault(event.get("event", "?"), now)
            if event.get("event") == "done":
                out.payload = event
    finally:
        conn.close()


def run_open_loop(port: int, requests: list[Request],
                  stream: bool = False) -> tuple[list[Outcome], float]:
    """Send ``requests`` on schedule over ``CONNECTIONS`` connections.

    Returns the outcomes (schedule order) and the schedule origin
    (``time.monotonic()`` at which offset 0 was due)."""
    outcomes = [Outcome(req) for req in requests]
    lock = threading.Lock()
    cursor = [0]
    origin = time.monotonic() + 0.05

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(requests):
                return
            out = outcomes[i]
            delay = origin + out.request.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            out.start = time.monotonic()
            try:
                _send(port, out.request, out, stream)
            except Exception as exc:  # noqa: BLE001 -- counted as failed
                out.error = f"{type(exc).__name__}: {exc}"
            out.end = time.monotonic()

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * len(requests))
    return outcomes, origin


def served_ok(out: Outcome) -> bool:
    return (out.error is None and out.status == 200
            and isinstance(out.payload, dict)
            and out.payload.get("status") == "ok")


def latencies_ms(outcomes: list[Outcome], origin: float) -> list[float]:
    """Latency of every request from its due time (ms)."""
    return [(out.end - (origin + out.request.due)) * 1e3
            for out in outcomes if out.end is not None]


def lateness_ms(outcomes: list[Outcome], origin: float) -> list[float]:
    """How late the generator sent each request (ms)."""
    return [(out.start - (origin + out.request.due)) * 1e3
            for out in outcomes if out.start is not None]


def step_verdict(outcomes: list[Outcome], origin: float) -> dict:
    """Did one ladder step meet the latency limit without a growing
    backlog?  A failed request misses the limit by definition.  The
    backlog is read from send lateness, which (unlike latency) does not
    depend on which kinds of request happen to fall late in the step."""
    lat = latencies_ms(outcomes, origin)
    ok = all(served_ok(out) for out in outcomes)
    value, label = common.tail(lat)
    late = lateness_ms(outcomes, origin)
    third = max(len(late) // 3, 1)
    first = common.median(late[:third])
    last = common.median(late[-third:])
    growing = last > max(BACKLOG_MS, BACKLOG_FACTOR * first)
    ends = [out.end for out in outcomes if out.end is not None]
    span = max(ends) - origin if ends else float("inf")
    return {"ok": ok, "tail_ms": value, "tail": label, "growing": growing,
            "passed": ok and not growing and value <= LATENCY_LIMIT_MS,
            "achieved_rps": len(ends) / span if span > 0 else 0.0}


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------

class Phase:
    """One daemon's life: start, one open-loop mix, SIGTERM drain.

    A daemon that does not become ready, a failed ``/metrics`` read or
    a drain that does not exit 0 is recorded in ``error`` (one failed
    operation) instead of ending the run; the requests answered before
    it are still checked."""

    def __init__(self, name: str, requests: list[Request],
                 stream: bool = False, snapshot: bool = False) -> None:
        self.outcomes: list[Outcome] = []
        self.origin = 0.0
        self.ready_s = self.peak_rss_kb = self.import_s = None
        self.before = self.after = None
        self.error: Optional[str] = None
        daemon = None
        try:
            daemon = Daemon(name)
            self.ready_s = daemon.ready_s
            self.before = daemon.metrics() if snapshot else None
            self.outcomes, self.origin = run_open_loop(
                daemon.port, requests, stream=stream)
            self.after = daemon.metrics() if snapshot else None
            stamp = daemon.drain()
            self.peak_rss_kb = stamp["peak_rss_kb"]
            self.import_s = stamp["imported"] - stamp["started"]
        except Exception as exc:  # noqa: BLE001 -- counted as failed
            self.error = f"daemon {name}: {type(exc).__name__}: {exc}"
        finally:
            if daemon is not None:
                daemon.kill()
        self.latencies = latencies_ms(self.outcomes, self.origin)


def run(seed: int, seconds: int, trace: bool, expected: dict,
        spans: common.Spans, scale: int = common.SCALE) -> dict:
    """One serve-mixed run.

    Untraced: ``NOMINAL_PHASES`` nominal-rate phases, alternating with
    the rate ladder (for ``max_rate_rps``) and ``SATURATION_PHASES``
    saturation phases.  Traced: the nominal phase twice, plain and with
    ``?stream=1`` events plus ``/metrics`` snapshots, on fresh daemons;
    the difference of their medians is the tracing overhead.  Every
    daemon is one operation and every request another; a failed one is
    counted, never raised."""
    sources = ir_sources(seed, scale)
    blocks = min(PLAN_BLOCKS, max(1, round(
        NOMINAL_SHARE * seconds * NOMINAL_RPS / 10)))
    nominal = make_mix(seed, blocks, NOMINAL_RPS, sources, scale)
    phases: list[Phase] = []
    ladder: list[dict] = []
    max_rate = capacity = None
    clock = time.monotonic()

    def run_ladder() -> None:
        nonlocal max_rate
        for rate in LADDER_RPS:
            mix = make_mix(seed, min(LADDER_BLOCKS, blocks), rate, sources,
                           scale)
            phases.append(Phase(f"ladder-{rate:g}", mix))
            if phases[-1].error:
                return
            verdict = step_verdict(phases[-1].outcomes, phases[-1].origin)
            verdict["rate_rps"] = rate
            ladder.append(verdict)
            if not verdict["passed"]:
                return
            max_rate = rate

    # Saturation: every request due at once, so both connections always
    # have one outstanding; the completion rate is the most the daemon
    # sustains over two connections.
    saturation = make_mix(seed, blocks, SATURATION_RPS, sources, scale)
    if trace:
        mains = [Phase("nominal-0", nominal)]
        phases.extend(mains)
    else:
        # The nominal phases alternate with the ladder and the
        # saturation phases, so each metric's samples are spread over
        # the whole run rather than one stretch of it.
        mains, saturated = [], []
        for i in range(NOMINAL_PHASES):
            mains.append(Phase(f"nominal-{i}", nominal))
            phases.append(mains[-1])
            if i == 0:
                run_ladder()
            if i < SATURATION_PHASES:
                saturated.append(Phase(f"saturation-{i}", saturation))
                phases.append(saturated[-1])
        if not any(phase.error for phase in saturated):
            capacity = _completion_rate(saturated)
    traced = None
    if trace:
        traced = Phase("nominal-traced", nominal, stream=True,
                       snapshot=True)
        phases.append(traced)

    checked = [out for phase in phases for out in phase.outcomes]
    measured_s = time.monotonic() - clock
    failures = [phase.error for phase in phases if phase.error]
    failures += reference.check_served(checked, expected, scale)
    check_s = time.monotonic() - clock - measured_s
    result = {
        "attempted": len(checked) + len(phases),
        "failed": len(failures),
        "failures": failures[:10],
        "max_rate_rps": max_rate,
        "capacity_rps": capacity,
        "ladder": ladder,
        "timings": {"daemons": measured_s, "check": check_s},
    }
    if any(main.error for main in mains):
        return result
    lat = [value for main in mains for value in main.latencies]
    _write_samples(mains)
    late = [value for main in mains
            for value in lateness_ms(main.outcomes, main.origin)]
    tail_value, tail_label = common.tail(lat)
    ready = [p.ready_s for p in phases if p.ready_s is not None]
    result.update({
        "setup_s": common.median(ready),
        "setup_samples": len(ready),
        "req_p50_ms": common.median(lat),
        "req_tail_ms": tail_value,
        "req_tail": tail_label,
        "peak_rss_mb": max(main.peak_rss_kb for main in mains) / 1024.0,
        "requests": len(lat),
    })
    if trace and not traced.error:
        layers = _serve_layers(traced, spans)
        # The compute layers below the service run in the daemon's
        # workers; replay the nominal phase's distinct work serially.
        out = common.fresh_dir("served-replay")
        try:
            data = replay.run("served", out, True, "--seed", str(seed),
                              "--blocks", str(blocks), "--scale",
                              str(scale))
        except RuntimeError as exc:
            result["attempted"] += 1
            result["failed"] += 1
            result["failures"].append(str(exc))
            return result
        spans.records.extend(data["records"])
        layers.update(replay.layers_from(data["records"], data["counters"]))
        layers["gen.late_ms"] = common.median(late)
        layers["setup.daemon_ready_s"] = result["setup_s"]
        layers["setup.import_s"] = common.median(
            [p.import_s for p in phases if p.import_s is not None])
        layers["trace.overhead_pct"] = 100.0 * (
            common.median(traced.latencies) - common.median(lat)
        ) / common.median(lat)
        result["layers"] = layers
    return result


def _completion_rate(phases: list[Phase]) -> float:
    """Requests completed per second over the phases' pooled spans."""
    done = span = 0.0
    for phase in phases:
        ends = [out.end for out in phase.outcomes if out.end is not None]
        done += len(ends)
        span += max(ends) - phase.origin
    return done / span


def _write_samples(phases: list[Phase]) -> None:
    """Keep the nominal phases' per-request samples beside the traces
    (``.perfbench-out/serve-mixed-requests.json``)."""
    out_dir = os.path.join(common.ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    rows = [{"phase": i, "index": out.request.index,
             "kind": out.request.kind, "due_s": out.request.due,
             "latency_ms": (out.end - phase.origin - out.request.due) * 1e3,
             "late_ms": (out.start - phase.origin - out.request.due) * 1e3}
            for i, phase in enumerate(phases)
            for out in phase.outcomes if out.end is not None]
    with open(os.path.join(out_dir, "serve-mixed-requests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(rows, fh)


def _counter(snapshot: dict, name: str) -> float:
    total = 0.0
    for key, value in snapshot.get("metrics", {}).items():
        if key.split("{", 1)[0] == name and isinstance(value, (int, float)):
            total += value
    return total


def _serve_layers(phase: Phase, spans: common.Spans) -> dict:
    """Per-layer numbers from NDJSON event arrivals and /metrics deltas;
    every request also becomes a span tree on its connection's track."""
    # Event stamps are time.monotonic(); spans use perf_counter_ns.
    shift = time.perf_counter_ns() - int(time.monotonic() * 1e9)

    def ns(t: float) -> int:
        return int(t * 1e9) + shift

    wait, compute = [], []
    for out in phase.outcomes:
        ev = out.events
        if out.start is None:
            continue
        tid = 2 + out.request.index % CONNECTIONS
        due = phase.origin + out.request.due
        spans.add("request", ns(due), ns(out.end), tid=tid,
                  kind=out.request.kind)
        if "queued" in ev and "dispatched" in ev and "result" in ev:
            wait.append((ev["dispatched"] - ev["queued"]) * 1e3)
            compute.append((ev["result"] - ev["dispatched"]) * 1e3)
            spans.add("service.wait", ns(ev["queued"]), ns(ev["dispatched"]),
                      tid=tid, depth=1)
            spans.add("service.compute", ns(ev["dispatched"]),
                      ns(ev["result"]), tid=tid, depth=1)
    window = (ns(phase.origin),
              ns(max(out.end for out in phase.outcomes if out.end)))
    before, after = phase.before, phase.after

    def delta(name: str) -> float:
        return _counter(after, name) - _counter(before, name)

    requests = delta("service.requests")
    tasks = delta("service.tasks_dispatched")
    utilization = [value for key, value in after.get("metrics", {}).items()
                   if key.startswith("pool.utilization{")]
    inner = common.Spans()
    inner.records = [dict(r, depth=0) for r in spans.records
                     if r["name"].startswith("service.")]
    return {
        "service.wait_ms": common.median(wait) if wait else 0.0,
        "service.compute_ms": common.median(compute) if compute else 0.0,
        "service.cache_hit_ratio": (delta("service.response_cache_hits")
                                    / requests if requests else 0.0),
        "service.coalesced": delta("service.coalesced"),
        "service.lanes_per_task": (delta("service.configs_dispatched")
                                   / tasks if tasks else 0.0),
        "service.refused": delta("service.rejected"),
        "parallel.tasks": delta("pool.tasks"),
        "parallel.utilization": (sum(utilization) / len(utilization)
                                 if utilization else 0.0),
        "parallel.steals": delta("pool.steals"),
        "parallel.retries": delta("pool.retries"),
        "parallel.degraded": delta("pool.fallbacks"),
        "trace.coverage": inner.coverage(*window),
    }
