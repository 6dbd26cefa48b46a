"""Fed (open-ended) pool runs: the dispatch mode the compile service uses.

A run given a :class:`~repro.parallel.TaskFeed` pulls tasks while it is
live, delivers each result through ``on_result`` as it lands, isolates
a raising task, keeps no per-task bookkeeping, places a task on the
worker that already holds its affinity group unless that worker is
busy, and ends once the feed is closed and drained.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel import PoolTask, TaskFailed, TaskFeed, WorkerPool
from repro.parallel import pool as pool_module

pytestmark = pytest.mark.parallel_smoke


def square(payload):
    return {"pid": os.getpid(), "value": payload["x"] * payload["x"]}


def explode(payload):
    raise ValueError(f"bad payload {payload['x']}")


def gated(payload):
    """Touches ``<gate>.started``, then blocks until ``<gate>`` exists."""
    open(payload["gate"] + ".started", "w").close()
    while not os.path.exists(payload["gate"]):
        time.sleep(0.01)
    return {"pid": os.getpid(), "value": payload["x"]}


def _wait_for(path: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


class ListFeed(TaskFeed):
    """Every queued task is ready at once; the best-ranked (then the
    oldest) goes first."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()
        self._tasks: deque = deque()
        self.failures: list[tuple[str, TaskFailed]] = []

    def put(self, task: PoolTask) -> None:
        with self._lock:
            self._tasks.append(task)
        self.notify()

    def due_in(self):
        with self._lock:
            return 0.0 if self._tasks else None

    def pull(self, rank):
        with self._lock:
            ranked = [(score, i) for i, task in enumerate(self._tasks)
                      if (score := rank(task.affinity)) is not None]
            if not ranked:
                return None
            _, index = min(ranked)
            task = self._tasks[index]
            del self._tasks[index]
            return task

    def failed(self, task, error) -> None:
        self.failures.append((task.id, error))


class FedRun:
    """A fed run on a background thread; results collected by task id."""

    def __init__(self, pool: WorkerPool) -> None:
        self.feed = ListFeed()
        self.results: dict = {}
        self.returned = None
        self._landed = threading.Condition()
        self._thread = threading.Thread(target=self._run, args=(pool,),
                                        daemon=True)
        self._thread.start()

    def _run(self, pool: WorkerPool) -> None:
        self.returned = pool.run(on_result=self._record, feed=self.feed)

    def _record(self, result) -> None:
        with self._landed:
            self.results[result.task.id] = result
            self._landed.notify_all()

    def wait_for(self, task_id: str, timeout: float = 60.0):
        with self._landed:
            assert self._landed.wait_for(
                lambda: task_id in self.results, timeout), task_id
            return self.results[task_id]

    def close(self) -> None:
        self.feed.close()
        self._thread.join(timeout=60)
        assert not self._thread.is_alive()
        self.feed.release()


@pytest.mark.parametrize("jobs", [1, 2])
def test_fed_run_delivers_every_result_then_ends_on_close(jobs):
    with WorkerPool(jobs) as pool:
        run = FedRun(pool)
        for i in range(12):
            run.feed.put(PoolTask(f"t{i}", square, {"x": i}))
        for i in range(12):
            assert run.wait_for(f"t{i}").value["value"] == i * i
        run.close()
    assert run.returned == []


def test_fed_run_takes_no_task_list():
    with WorkerPool(1) as pool:
        feed = ListFeed()
        with pytest.raises(ValueError):
            pool.run([PoolTask("t0", square, {"x": 0})], feed=feed)
        feed.release()


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_task_fails_alone_and_the_run_keeps_serving(jobs):
    with WorkerPool(jobs) as pool:
        run = FedRun(pool)
        run.feed.put(PoolTask("good-1", square, {"x": 2}))
        run.feed.put(PoolTask("bad", explode, {"x": 3}))
        run.feed.put(PoolTask("good-2", square, {"x": 4}))
        assert run.wait_for("good-1").value["value"] == 4
        assert run.wait_for("good-2").value["value"] == 16
        run.close()
    assert [task_id for task_id, _ in run.feed.failures] == ["bad"]
    assert "bad payload 3" in run.feed.failures[0][1].detail
    assert "bad" not in run.results


@pytest.mark.parametrize("jobs", [1, 2])
def test_long_fed_run_keeps_bounded_bookkeeping(monkeypatch, jobs):
    states = []

    class SpyState(pool_module._RunState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(pool_module, "_RunState", SpyState)
    sizes = []
    n = 400
    with WorkerPool(jobs) as pool:
        feed = ListFeed()
        done = threading.Event()

        def record(result):
            state = states[-1]
            sizes.append((len(state.results), len(state.scheduler.owner)))
            if len(sizes) == n:
                done.set()

        thread = threading.Thread(
            target=pool.run, kwargs={"on_result": record, "feed": feed},
            daemon=True)
        thread.start()
        for i in range(n):
            feed.put(PoolTask(f"t{i}", square, {"x": i},
                              affinity=f"g{i % 5}"))
        assert done.wait(120)
        feed.close()
        thread.join(60)
        feed.release()
    assert len(sizes) == n
    assert all(results == 0 for results, _ in sizes)
    assert max(owners for _, owners in sizes) <= pool.jobs


def test_group_stays_on_its_home_worker_while_it_is_free():
    with WorkerPool(2) as pool:
        run = FedRun(pool)
        pids = {"a": set(), "b": set()}
        for i in range(6):
            group = "ab"[i % 2]
            run.feed.put(PoolTask(f"{group}{i}", square, {"x": i},
                                  affinity=group))
            # One at a time: both workers are idle at every pull.
            pids[group].add(run.wait_for(f"{group}{i}").value["pid"])
        run.close()
    assert len(pids["a"]) == 1 and len(pids["b"]) == 1


def test_group_spills_to_an_idle_worker_when_its_home_is_busy(tmp_path):
    gate = str(tmp_path / "gate")
    with WorkerPool(2) as pool:
        run = FedRun(pool)
        try:
            run.feed.put(PoolTask("a0", square, {"x": 0}, affinity="a"))
            home = run.wait_for("a0").value["pid"]
            # A new group goes to the first idle worker -- group a's
            # home, as a0 did -- and keeps it busy ...
            run.feed.put(PoolTask("b0", gated, {"x": 1, "gate": gate},
                                  affinity="b"))
            _wait_for(gate + ".started")
            # ... so group a's next task runs on the other worker.
            run.feed.put(PoolTask("a1", square, {"x": 2}, affinity="a"))
            spilled = run.wait_for("a1")
            assert "b0" not in run.results
        finally:
            open(gate, "w").close()
        assert run.wait_for("b0").value["pid"] == home
        run.close()
    assert spilled.value["pid"] != home
    assert spilled.stolen


def test_group_never_runs_on_two_workers_at_once(tmp_path):
    gate = str(tmp_path / "gate")
    with WorkerPool(2) as pool:
        run = FedRun(pool)
        try:
            run.feed.put(PoolTask("a0", gated, {"x": 0, "gate": gate},
                                  affinity="a"))
            run.feed.put(PoolTask("a1", square, {"x": 1}, affinity="a"))
            run.feed.put(PoolTask("c0", square, {"x": 2}))
            # The idle worker skips a1 and serves c0 ...
            idle = run.wait_for("c0").value["pid"]
            assert "a1" not in run.results
        finally:
            open(gate, "w").close()
        # ... and a1 follows a0 on a0's worker.
        home = run.wait_for("a0").value["pid"]
        assert run.wait_for("a1").value["pid"] == home != idle
        run.close()


def test_pool_telemetry_is_live_during_a_fed_run():
    registry = MetricsRegistry()
    with WorkerPool(2, metrics=registry) as pool:
        run = FedRun(pool)
        run.feed.put(PoolTask("t0", square, {"x": 3}))
        worker = run.wait_for("t0").worker
        snapshot = registry.snapshot()
        assert snapshot[f"pool.tasks{{worker={worker}}}"] == 1
        assert snapshot[f"pool.busy_seconds{{worker={worker}}}"] > 0
        assert 0 < snapshot[f"pool.utilization{{worker={worker}}}"] <= 1
        run.close()
