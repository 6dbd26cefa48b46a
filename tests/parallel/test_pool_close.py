"""Pool lifecycle hardening: idempotent close, warm(), serialised runs.

The service closes the pool from its SIGTERM drain path, which can
race a normal close (or interrupt one mid-flight from a signal
handler).  A second close must be a no-op: re-escalating the
terminate -> kill sequence against workers the first close already
reaped would miscount ``workers_killed`` and could signal reused pids.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.parallel import PoolTask, WorkerPool

pytestmark = pytest.mark.parallel_smoke


def square(payload):
    return {"pid": os.getpid(), "value": payload["x"] * payload["x"]}


def nap(payload):
    time.sleep(0.01)
    return payload["x"]


def _tasks(n):
    return [PoolTask(f"t{i}", square, {"x": i}) for i in range(n)]


class TestIdempotentClose:
    def test_double_close_is_a_noop(self):
        pool = WorkerPool(2)
        pool.run(_tasks(4))
        pool.close()
        killed, reaped = pool.workers_killed, pool.workers_reaped
        pool.close()
        pool.close()
        assert pool.workers_killed == killed
        assert pool.workers_reaped == reaped

    def test_reentrant_close_mid_flight_returns_immediately(self):
        """A close() that interrupts a close in progress (the signal-
        handler shape) must return instead of re-escalating."""
        pool = WorkerPool(2)
        pool.run(_tasks(2))
        reentered = []
        original = pool._close_impl

        def interrupting_close():
            # Simulates SIGTERM arriving mid-close: the handler calls
            # close() again while the first call is inside the body.
            pool.close()
            reentered.append(True)
            original()

        pool._close_impl = interrupting_close
        pool.close()
        assert reentered == [True]
        assert pool._closed
        # And the pool is genuinely shut down afterwards.
        with pytest.raises(RuntimeError):
            pool.run(_tasks(1))

    def test_concurrent_closers_dont_collide(self):
        pool = WorkerPool(2)
        pool.run(_tasks(2))
        errors = []
        barrier = threading.Barrier(4)

        def closer():
            barrier.wait()
            try:
                pool.close()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert pool._closed

    def test_serial_pool_close_is_also_idempotent(self):
        pool = WorkerPool(1)
        pool.run(_tasks(2))
        pool.close()
        pool.close()


class TestWarm:
    def test_warm_pre_forks_before_first_run(self):
        pool = WorkerPool(2)
        try:
            pool.warm()
            if pool.jobs > 1:
                assert len(pool._workers) == pool.jobs
                pids = {w.process.pid for w in pool._workers}
                results = pool.run(_tasks(8))
                assert {r.value["pid"] for r in results} <= pids
        finally:
            pool.close()

    def test_warm_after_close_raises(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.warm()


class TestRunSerialisation:
    """Threads sharing one warm pool queue on its run lock: each run
    gets exact scheduling and accounting because only one executes at a
    time."""

    @staticmethod
    def _run_from_threads(pool, holders=3):
        order = []
        lock = threading.Lock()

        def holder(name):
            def record(result):
                with lock:
                    order.append(name)
            tasks = [PoolTask(f"{name}-{i}", nap, {"x": i})
                     for i in range(3)]
            results = pool.run(tasks, on_result=record)
            assert [r.task.id for r in results] == [t.id for t in tasks]

        threads = [threading.Thread(target=holder, args=(f"h{i}",))
                   for i in range(holders)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        return order

    @staticmethod
    def _assert_contiguous(order, holders=3):
        # Strict serialisation: each run's results form one unbroken
        # stretch (no interleaving between runs).
        assert len(order) == 3 * holders
        stretches = [name for i, name in enumerate(order)
                     if i == 0 or order[i - 1] != name]
        assert len(stretches) == holders == len(set(stretches))

    def test_concurrent_runs_serialise(self):
        with WorkerPool(2) as pool:
            self._assert_contiguous(self._run_from_threads(pool))

    def test_concurrent_serial_runs_serialise(self):
        with WorkerPool(1) as pool:
            self._assert_contiguous(self._run_from_threads(pool))

    def test_run_on_closed_pool_raises(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run(_tasks(1))
