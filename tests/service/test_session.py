"""Session-level tests: coalescing, batching, caching, drain, errors.

The satellite coverage for concurrent cache readers + coalesced
writers lives here: N clients submitting an identical request must
produce ONE pool task, N identical responses, and metric counts that
add up.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.harness.runner import run_experiment
from repro.service import session as session_module
from repro.service.admission import Draining
from repro.service.protocol import (
    experiment_payload,
    machine_from_spec,
    parse_request,
)
from repro.service.session import ServiceSession
from repro.service.worker import run_group_task
from repro.workloads.registry import get_workload

SCALE = 40
#: Scales that select ``gated_group_task``'s special behaviours.
GATED_SCALE = 41
RAISING_SCALE = 42

#: Where ``gated_group_task`` looks for its gate files.  Set before the
#: session forks its pool, so pool workers inherit it.
GATE = {"dir": None}


def gated_group_task(payload):
    """``run_group_task``, except that a group at ``GATED_SCALE`` waits
    for a ``go`` file (after touching ``started``) and a group at
    ``RAISING_SCALE`` raises."""
    scale = payload["source"]["scale"]
    if scale == RAISING_SCALE:
        raise RuntimeError("injected task failure")
    if scale == GATED_SCALE:
        open(os.path.join(GATE["dir"], "started"), "w").close()
        while not os.path.exists(os.path.join(GATE["dir"], "go")):
            time.sleep(0.01)
    return run_group_task(payload)


@pytest.fixture
def gated(monkeypatch, tmp_path):
    """Patch the session's task function before a session forks its
    pool; yields a callable opening the gate."""
    monkeypatch.setitem(GATE, "dir", str(tmp_path))
    monkeypatch.setattr(session_module, "run_group_task", gated_group_task)

    def open_gate():
        open(tmp_path / "go", "w").close()

    yield open_gate
    open_gate()  # never leave a worker blocked


def _wait_for(path, timeout=120.0):
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


@pytest.fixture
def session():
    sess = ServiceSession(jobs=1, batch_window=0.05)
    yield sess
    sess.drain(timeout=30)


def _request(comm_latency: int = 1, scale: int = SCALE, **extra):
    return parse_request({"workload": "wc", "scale": scale,
                          "machine": {"comm_latency": comm_latency},
                          **extra})


def test_identical_requests_coalesce_to_one_task(session):
    n = 6
    futures = [session.submit(_request()) for _ in range(n)]
    outcomes = [f.result(timeout=120) for f in futures]
    assert all(o["status"] == "ok" for o in outcomes)
    blobs = {json.dumps(o["payload"], sort_keys=True) for o in outcomes}
    assert len(blobs) == 1, "coalesced clients must get identical bytes"

    snap = session.metrics.snapshot()
    assert snap["service.requests{tenant=default}"] == n
    # Duplicates either joined the in-flight entry or (when they landed
    # after it resolved) hit the response cache; between them all n-1
    # are accounted for, and only one task reached the pool.
    coalesced = snap.get("service.coalesced", 0)
    cache_hits = snap.get("service.response_cache_hits", 0)
    assert coalesced + cache_hits == n - 1
    assert snap["service.tasks_dispatched"] == 1
    assert snap["service.configs_dispatched"] == 1
    assert all(o["request_key"] == outcomes[0]["request_key"]
               for o in outcomes)


def test_concurrent_submitters_across_threads(session):
    n = 8
    outcomes: list = [None] * n
    barrier = threading.Barrier(n)

    def client(i: int) -> None:
        barrier.wait()
        future = session.submit(_request())
        outcomes[i] = future.result(timeout=120)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert all(o is not None and o["status"] == "ok" for o in outcomes)
    assert len({json.dumps(o["payload"], sort_keys=True)
                for o in outcomes}) == 1
    snap = session.metrics.snapshot()
    assert (snap.get("service.coalesced", 0)
            + snap.get("service.response_cache_hits", 0)) == n - 1
    assert snap["service.tasks_dispatched"] == 1


def test_functional_group_batches_configs_into_one_task(session):
    futures = [session.submit(_request(comm_latency=c)) for c in (1, 5, 10)]
    outcomes = [f.result(timeout=120) for f in futures]
    assert all(o["status"] == "ok" for o in outcomes)
    cycles = [o["payload"]["pipeline"]["cycles"] for o in outcomes]
    assert cycles[0] < cycles[1] < cycles[2], \
        "higher comm latency must cost cycles"
    snap = session.metrics.snapshot()
    assert snap["service.tasks_dispatched"] == 1
    assert snap["service.configs_dispatched"] == 3


def test_served_payload_is_bit_identical_to_in_process(session):
    req = _request(comm_latency=5)
    outcome = session.submit(req).result(timeout=120)
    assert outcome["status"] == "ok"
    reference = experiment_payload(run_experiment(
        get_workload("wc"), machine=machine_from_spec(req.machine),
        scale=SCALE))
    assert (json.dumps(outcome["payload"], sort_keys=True)
            == json.dumps(reference, sort_keys=True))


def test_response_cache_serves_repeats_without_dispatch(session):
    first = session.submit(_request()).result(timeout=120)
    assert first["status"] == "ok"
    second = session.submit(_request()).result(timeout=120)
    assert second["status"] == "ok"
    assert second["cached"] is True
    assert (json.dumps(first["payload"], sort_keys=True)
            == json.dumps(second["payload"], sort_keys=True))
    snap = session.metrics.snapshot()
    assert snap["service.tasks_dispatched"] == 1
    assert snap["service.response_cache_hits"] == 1


def test_response_cache_persists_across_sessions(tmp_path):
    cache_dir = str(tmp_path / "svc")
    first = ServiceSession(jobs=1, batch_window=0.02, cache_dir=cache_dir)
    try:
        a = first.submit(_request()).result(timeout=120)
    finally:
        first.drain(timeout=30)
    second = ServiceSession(jobs=1, batch_window=0.02, cache_dir=cache_dir)
    try:
        b = second.submit(_request()).result(timeout=120)
        assert b["cached"] is True
        assert (json.dumps(a["payload"], sort_keys=True)
                == json.dumps(b["payload"], sort_keys=True))
        assert second.metrics.snapshot().get(
            "service.tasks_dispatched", 0) == 0
    finally:
        second.drain(timeout=30)


def test_unknown_workload_is_an_error_outcome_not_a_crash(session):
    bad = parse_request({"workload": "no-such-workload"})
    outcome = session.submit(bad).result(timeout=120)
    assert outcome["status"] == "error"
    assert "no-such-workload" in outcome.get("detail", "")
    assert session.incidents, "group failures are recorded as incidents"
    # The session is still healthy afterwards.
    good = session.submit(_request()).result(timeout=120)
    assert good["status"] == "ok"


def test_error_in_one_group_does_not_poison_the_batch(session):
    bad = parse_request({"workload": "no-such-workload"})
    good = _request()
    futures = [session.submit(bad), session.submit(good)]
    outcomes = [f.result(timeout=120) for f in futures]
    assert outcomes[0]["status"] == "error"
    assert outcomes[1]["status"] == "ok"


def test_drain_finishes_inflight_then_refuses(session):
    future = session.submit(_request())
    assert session.drain(timeout=60)
    assert future.result(timeout=1)["status"] == "ok"
    with pytest.raises(Draining):
        session.submit(_request())
    assert session.status()["status"] == "draining"
    # Idempotent.
    assert session.drain(timeout=5)


def test_ir_request_round_trips(session):
    ir = """
func f entry=entry
entry:
    mov r1 = 0
    mov r2 = 0
    jmp loop
loop:
    add r2 = r2, r1
    add r1 = r1, 1
    cmp.lt p1 = r1, 20
    br p1, loop, done
done:
    ret
"""
    req = parse_request({"ir": ir, "loop_header": "loop"})
    outcome = session.submit(req).result(timeout=120)
    assert outcome["status"] == "ok", outcome
    payload = outcome["payload"]
    assert payload["workload"] == "ir:loop"
    assert payload["baseline"]["cycles"] > 0


def test_fast_group_is_not_held_behind_a_slow_one(gated):
    """Head-of-line: with two workers, group B resolves while group A
    is still running on the other worker."""
    sess = ServiceSession(jobs=2, batch_window=0.02)
    try:
        slow = sess.submit(_request(scale=GATED_SCALE))
        fast = sess.submit(_request(scale=SCALE))
        assert fast.result(timeout=120)["status"] == "ok"
        assert not slow.done(), "the slow group must still be gated"
        gated()
        assert slow.result(timeout=120)["status"] == "ok"
    finally:
        gated()
        sess.drain(timeout=60)


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_task_fails_only_its_own_requests(gated, jobs):
    sess = ServiceSession(jobs=jobs, batch_window=0.02)
    try:
        futures = [sess.submit(_request(scale=scale))
                   for scale in (SCALE, RAISING_SCALE, SCALE + 3)]
        first, bad, last = [f.result(timeout=120) for f in futures]
        assert first["status"] == "ok"
        assert last["status"] == "ok"
        assert bad["status"] == "error"
        assert bad["error"] == "task-failed"
        assert "injected task failure" in bad["detail"]
        assert [i["requests"] for i in sess.incidents] == \
            [[bad["request_key"]]]
        assert sess.metrics.snapshot()["service.task_errors"] == 1
        # The run is still serving.
        assert sess.submit(_request(comm_latency=3)).result(
            timeout=120)["status"] == "ok"
    finally:
        sess.drain(timeout=60)


def test_healthz_queued_counts_work_waiting_for_a_busy_worker(
        gated, tmp_path):
    """Requests submitted together but not started by the single
    (busy) worker count as ``queued``."""
    sess = ServiceSession(jobs=1, batch_window=0.25)
    try:
        slow = sess.submit(_request(scale=GATED_SCALE))
        waiting = [sess.submit(_request(scale=SCALE)),
                   sess.submit(_request(scale=SCALE, comm_latency=5)),
                   sess.submit(_request(scale=SCALE + 3))]
        _wait_for(tmp_path / "started")
        assert sess.status()["queued"] == 3
        gated()
        outcomes = [f.result(timeout=120) for f in [slow] + waiting]
        assert all(o["status"] == "ok" for o in outcomes)
        assert sess.status()["queued"] == 0
        # The two configs of one source that queued together rode one
        # task: the gated task plus two.
        assert sess.metrics.snapshot()["service.tasks_dispatched"] == 3
    finally:
        sess.drain(timeout=60)
