"""Persistent warm worker pool with crash, hang and flake recovery.

The pool is the execution half of the fabric (scheduling lives in
:mod:`repro.parallel.scheduler`, transport in
:mod:`repro.parallel.shm`).  Design points:

* **Warm workers.**  Workers are forked once and live for the pool's
  lifetime.  Each keeps a process-local *arena* (:func:`worker_arena`)
  where task functions park expensive state -- decoded programs, an
  open :class:`~repro.harness.cache.ExperimentCache` handle -- so
  repeated tasks on the same workload never re-decode or re-pickle.
* **Pull dispatch.**  The driver hands each idle worker exactly one
  task; completion triggers the next dispatch.  All scheduling
  decisions (affinity, longest-first order, stealing) happen in the
  driver, so accounting is exact.
* **Lock-free result channels.**  Each worker incarnation reports
  results over its own single-writer pipe; the driver multiplexes them
  with :func:`multiprocessing.connection.wait`.  A shared queue would
  reintroduce the classic fork hazard this design exists to avoid: a
  worker dying inside the queue's locked critical section (its feeder
  thread mid-``send``) leaves the shared lock held forever and
  deadlocks every surviving worker.  With per-incarnation pipes a
  crash can only ever damage the dead worker's own channel.
* **Crash recovery.**  A worker that dies mid-task (OOM kill, induced
  crash in tests) is detected by liveness polling; its pipe is drained
  first -- a fully sent result is still honoured -- then the task is
  retried on a fresh incarnation, and a task that kills its worker
  twice runs *in the driver process* with the result marked
  ``degraded``.  The sweep always completes, and the caller can report
  exactly which results took the fallback path.  Deterministic task
  exceptions are not retried: they surface as :class:`TaskFailed`.
* **Hang recovery.**  A task may carry a deadline
  (:attr:`~repro.parallel.scheduler.PoolTask.timeout`); a worker that
  blows it is *reaped* -- ``terminate()``, escalating to ``kill()``
  when it ignores the signal -- and the task is rerouted exactly like
  a crash.  Its pipe is drained first, so a result that was fully sent
  moments before the deadline is still honoured.
* **Transient retry.**  A task that raises :class:`TransientTaskError`
  (or whose result arrives undecodable -- e.g. a corrupted
  shared-memory segment) is redispatched to the same worker after a
  jittered exponential backoff, up to ``max_task_retries`` times,
  before the in-driver fallback.  Deterministic failures stay
  fail-fast.
* **Forensics.**  Every crash, reap, transient retry and driver
  fallback appends an :class:`~repro.resilience.incident.IncidentReport`
  (``domain="pool"``) to :attr:`WorkerPool.incidents`, so a degraded
  sweep is diagnosable from artifacts alone.
* **Fed runs.**  ``run(feed=...)`` keeps one run open for a long-lived
  caller (the compile service): whenever a worker goes idle the pool
  pulls the next ready task from the :class:`~repro.parallel.feed.TaskFeed`,
  preferring the worker whose arena already holds the task's affinity
  group and spilling to another idle worker only while that one is
  busy with other work (a group never runs on two workers at once).
  Results reach the caller through ``on_result`` only (the run keeps
  no per-task record), a deterministic failure fails only its own task
  (:meth:`TaskFeed.failed`), and the run ends when the feed is closed
  and drained.
* **Serial fallback.**  ``jobs <= 1`` -- or a platform that cannot
  fork -- runs every task in-process in the same scheduled order, so
  callers never need a second code path and results are bit-identical
  by construction.
* **Segment hygiene.**  Shared-memory segments created by workers are
  unlinked as results are decoded; on shutdown the pool probes past
  each worker incarnation's last acknowledged allocation and sweeps
  anything a crash left behind.
* **Chaos injection.**  ``WorkerPool(chaos=plan)`` arms a
  :class:`~repro.chaos.ChaosPlan`: workers consult it before and after
  each task attempt and deterministically kill, hang, slow, flake or
  corrupt themselves (see ``docs/CHAOS.md``).  The driver is never
  perturbed, so the recovery paths above -- not the fault injection --
  decide what the caller observes.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Optional

from repro.parallel.feed import TaskFeed
from repro.parallel.scheduler import PoolTask, StealScheduler, TaskResult
from repro.parallel.shm import (
    SegmentAllocator,
    decode_result,
    encode_result,
    release_result,
    shm_available,
    sweep_worker_segments,
)
from repro.resilience.incident import IncidentReport

#: Seconds between liveness checks while waiting for results.
POLL_INTERVAL = 0.05

#: Seconds a worker gets to exit cleanly before being terminated, and
#: to die after ``terminate()`` before the escalation to ``kill()``.
JOIN_TIMEOUT = 2.0

#: Retained :class:`IncidentReport` objects per pool (counters keep
#: exact totals past the cap; the reports are forensic samples).
INCIDENT_CAP = 64

#: Process-local arena task functions share across a worker's lifetime.
_ARENA: dict = {}


def worker_arena() -> dict:
    """The current process's task arena (worker or driver)."""
    return _ARENA


class fresh_arena:
    """Context manager giving the enclosed code an empty arena.

    Used by in-driver execution lanes (serial runs, verification
    re-runs) so their cache behaviour matches a cold worker.
    """

    def __enter__(self):
        global _ARENA
        self._saved = _ARENA
        _ARENA = {}
        return _ARENA

    def __exit__(self, *exc):
        global _ARENA
        _ARENA = self._saved
        return False


class TaskFailed(RuntimeError):
    """A task raised a (deterministic) exception in its worker."""

    def __init__(self, task_id: str, detail: str) -> None:
        super().__init__(f"task {task_id!r} failed:\n{detail}")
        self.task_id = task_id
        self.detail = detail


class TransientTaskError(RuntimeError):
    """A task failure worth retrying (flaky I/O, injected chaos flake).

    Raised by task functions -- or by the chaos injector on their
    behalf -- to request the bounded backoff-retry path instead of the
    fail-fast :class:`TaskFailed` surface.  A task that keeps raising
    it past ``max_task_retries`` falls back to the driver process; if
    it still raises there, the failure is treated as deterministic.
    """


def _first_line(text: str) -> str:
    lines = [line for line in str(text).strip().splitlines() if line.strip()]
    return lines[-1] if lines else ""


def _worker_main(worker_id: int, incarnation: int, inbox, conn,
                 pool_uid: str, use_shm: bool, chaos=None) -> None:
    _ARENA.clear()  # fork copies the driver arena; workers start cold
    allocator = (SegmentAllocator(pool_uid, worker_id, incarnation)
                 if use_shm else None)

    def seq() -> int:
        return allocator.seq if allocator is not None else 0

    while True:
        message = inbox.get()
        if message is None:
            break
        task_id, fn, payload, dispatch = message
        action = chaos.action(task_id, dispatch) if chaos is not None else None
        start = time.perf_counter()
        try:
            if action is not None:
                action.apply_before()
            value = fn(payload)
            wire = encode_result(value, allocator)
            if action is not None:
                action.apply_after(wire)
        except TransientTaskError:
            conn.send((task_id, "transient", time.perf_counter() - start,
                       seq(), traceback.format_exc()))
            continue
        except BaseException:
            conn.send((task_id, "err", time.perf_counter() - start, seq(),
                       traceback.format_exc()))
            continue
        conn.send((task_id, "ok", time.perf_counter() - start, seq(), wire))
    conn.close()


@dataclass
class _Flight:
    task: PoolTask
    attempts: int = 1
    stolen: bool = False
    #: Transient redispatches consumed so far.
    retries: int = 0
    #: Total sends to any worker (the attempt index chaos plans see).
    dispatches: int = 0
    #: Monotonic deadline of the current attempt (None = no watchdog).
    deadline: Optional[float] = None
    timed_out: bool = False


class _Worker:
    def __init__(self, worker_id: int, process, inbox, conn,
                 incarnation: int) -> None:
        self.worker_id = worker_id
        self.process = process
        self.inbox = inbox
        #: Driver-side read end of this incarnation's result pipe.
        self.conn = conn
        self.incarnation = incarnation


class WorkerPool:
    """Fork-based persistent pool; see module docstring.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) receives
    per-worker ``pool.*`` telemetry: task counts, busy seconds,
    utilization, steal counts, crash/hang/retry/fallback counters and
    the shared-memory sweep tally.

    ``chaos`` arms a chaos plan (see :mod:`repro.chaos`) that workers
    consult per task attempt; ``max_task_retries``, ``retry_base`` and
    ``retry_cap`` bound the transient-retry backoff loop.
    """

    def __init__(self, jobs: int, metrics=None, use_shm: Optional[bool] = None,
                 max_worker_attempts: int = 2, chaos=None,
                 max_task_retries: int = 3, retry_base: float = 0.05,
                 retry_cap: float = 2.0) -> None:
        self.requested = max(1, jobs)
        self._metrics = metrics
        self._use_shm = shm_available() if use_shm is None else use_shm
        self.max_worker_attempts = max(1, max_worker_attempts)
        self.max_task_retries = max(0, max_task_retries)
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self._chaos = chaos
        self._uid = os.urandom(4).hex()
        self._ctx = None
        if self.requested > 1:
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:
                self._ctx = None
        #: Worker count actually in effect (1 = serial in-process).
        self.jobs = self.requested if self._ctx is not None else 1
        self._workers: list[_Worker] = []
        self._acked_seq: dict[tuple[int, int], int] = {}
        self._closed = False
        #: Reentrancy guard for :meth:`close` (a signal handler that
        #: interrupts a close in progress must return, not escalate).
        self._closing = False
        self._close_lock = threading.Lock()
        #: Serialises :meth:`run` calls from concurrent threads.
        self._run_lock = threading.Lock()
        self.crashes = 0
        self.fallbacks = 0
        self.timeouts = 0
        self.retries = 0
        self.workers_reaped = 0
        self.workers_killed = 0
        self.segments_swept = 0
        #: Pool-level forensics: one report per crash/reap/retry/
        #: fallback, capped at INCIDENT_CAP (counters stay exact).
        self.incidents: list[IncidentReport] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _start_workers(self) -> None:
        if self._workers or self._ctx is None:
            return
        for worker_id in range(self.jobs):
            inbox = self._ctx.SimpleQueue()
            self._workers.append(self._spawn(worker_id, inbox, 0))

    def warm(self) -> None:
        """Fork the workers now instead of lazily on the first run.

        Long-lived callers (the compile service) warm the pool from
        their main thread *before* starting auxiliary threads: forking
        a multi-threaded process can copy another thread's held locks
        into the child, and a pool warmed early never has to.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self._start_workers()

    def _spawn(self, worker_id: int, inbox, incarnation: int) -> _Worker:
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, incarnation, inbox, send_conn,
                  self._uid, self._use_shm, self._chaos),
            daemon=True,
        )
        process.start()
        # The worker owns the only write end now: when it dies, the
        # driver sees EOF instead of waiting for a liveness poll.
        send_conn.close()
        self._acked_seq.setdefault((worker_id, incarnation), 0)
        return _Worker(worker_id, process, inbox, recv_conn, incarnation)

    def _respawn(self, worker_id: int) -> None:
        old = self._workers[worker_id]
        try:
            old.conn.close()
        except OSError:
            pass
        self._workers[worker_id] = self._spawn(worker_id, old.inbox,
                                               old.incarnation + 1)

    def _reap(self, worker_id: int) -> None:
        """Forcibly retire a hung worker incarnation and respawn it.

        ``terminate()`` first; a worker that ignores SIGTERM (stuck in
        uninterruptible state, masked signals) is escalated to
        ``kill()``.  Fully sent results are drained and their segments
        released before the pipe is replaced.
        """
        worker = self._workers[worker_id]
        worker.process.terminate()
        worker.process.join(JOIN_TIMEOUT)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(JOIN_TIMEOUT)
            self.workers_killed += 1
        self.workers_reaped += 1
        for message in self._drain(worker):
            if message[1] == "ok":
                release_result(message[4])
        self._respawn(worker_id)

    def close(self) -> None:
        """Shut workers down and sweep leaked shared-memory segments.

        Shutdown escalates: cooperative sentinel, then ``terminate()``,
        then ``kill()`` for a worker that still lingers past
        ``JOIN_TIMEOUT`` -- a closed pool never leaves processes
        behind.  Escalations are counted in ``workers_killed`` and the
        ``pool.workers_killed`` metric.

        ``close()`` is idempotent and safe to call from signal
        handlers: a second call -- including one that interrupts a
        close already in progress on this or another thread -- returns
        immediately instead of re-escalating terminate/kill against
        workers the first close already reaped (the service's SIGTERM
        drain path closes the pool it may also be closing normally).
        """
        if self._closed or self._closing:
            return
        if not self._close_lock.acquire(blocking=False):
            # A close is mid-flight on another thread (or this call
            # interrupted it from a signal handler): it owns shutdown.
            return
        try:
            if self._closed:
                return
            self._closing = True
            self._closed = True
            self._close_impl()
        finally:
            self._closing = False
            self._close_lock.release()

    def _close_impl(self) -> None:
        killed_before = self.workers_killed
        for worker in self._workers:
            if worker.process.is_alive():
                try:
                    worker.inbox.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + JOIN_TIMEOUT
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(JOIN_TIMEOUT)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(JOIN_TIMEOUT)
                self.workers_killed += 1
                self._incident(
                    "worker-kill",
                    f"worker {worker.worker_id} (incarnation "
                    f"{worker.incarnation}) survived terminate() at "
                    f"shutdown; escalated to kill()",
                    worker=worker.worker_id, incarnation=worker.incarnation)
        for worker in self._workers:
            for message in self._drain(worker):
                if message[1] == "ok":
                    release_result(message[4])
            try:
                worker.conn.close()
            except OSError:
                pass
        for (worker_id, incarnation), acked in sorted(self._acked_seq.items()):
            self.segments_swept += sweep_worker_segments(
                self._uid, worker_id, incarnation, acked)
        if self._metrics is not None:
            if self.segments_swept:
                self._metrics.counter("pool.shm_swept").inc(
                    self.segments_swept)
            if self.workers_killed > killed_before:
                self._metrics.counter("pool.workers_killed").inc(
                    self.workers_killed - killed_before)
        self._workers = []

    def _drain(self, worker: _Worker) -> list[tuple]:
        """Read every fully delivered message off a worker's pipe."""
        messages = []
        while True:
            try:
                if not worker.conn.poll(0):
                    return messages
                message = worker.conn.recv()
            except (EOFError, OSError):
                return messages
            self._acked_seq[(worker.worker_id, worker.incarnation)] = \
                message[3]
            messages.append(message)

    # ------------------------------------------------------------------
    # Forensics
    # ------------------------------------------------------------------
    def _incident(self, kind: str, message: str, **extra) -> None:
        if len(self.incidents) < INCIDENT_CAP:
            self.incidents.append(IncidentReport(
                kind=kind, message=message, domain="pool", extra=extra))
        if self._metrics is not None:
            self._metrics.counter("pool.incidents", kind=kind).inc()

    def _backoff_delay(self, flight: _Flight) -> float:
        """Jittered exponential backoff for transient retry N.

        The jitter is seeded from ``(task id, retry index)`` so replays
        of a chaos schedule sleep identically -- determinism all the
        way down."""
        step = min(self.retry_cap,
                   self.retry_base * (2 ** max(flight.retries - 1, 0)))
        rng = random.Random(f"{flight.task.id}:{flight.retries}")
        return step * (0.5 + 0.5 * rng.random())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, tasks: list[PoolTask] = (),
            cancel: Optional[Callable[[TaskResult], bool]] = None,
            on_result: Optional[Callable[[TaskResult], None]] = None,
            feed: Optional[TaskFeed] = None,
            ) -> list[TaskResult]:
        """Run ``tasks``; returns results in task order.

        ``cancel`` is called after every completed task; returning True
        drops all still-queued tasks (in-flight ones finish), so the
        returned list may omit cancelled tasks.  ``on_result`` is
        called with each :class:`TaskResult` the moment it completes
        (execution order, not task order) -- the hook sweep journals
        use to persist progress incrementally.

        With ``feed`` the run is open-ended (see module docstring):
        ``tasks`` must be empty, every task comes from the feed, each
        result is delivered only through ``on_result``, and the call
        returns ``[]`` once the feed is closed and drained.  Concurrent
        calls from several threads run one at a time.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        tasks = list(tasks)
        if feed is not None and tasks:
            raise ValueError("a fed run takes its tasks from the feed")
        if feed is None and not tasks:
            return []
        ids = [t.id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task ids must be unique")
        with self._run_lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if self.jobs > 1:
                self._start_workers()
            state = _RunState(self, StealScheduler(tasks, self.jobs), cancel,
                              on_result, feed)
            if self.jobs <= 1:
                self._run_serial(state)
            else:
                self._run_parallel(state)
        return [state.results[t.id] for t in tasks if t.id in state.results]

    def _run_serial(self, state: "_RunState") -> None:
        feed = state.feed
        with fresh_arena():  # cache behaviour matches a cold worker
            while True:
                item = state.next_task(0)
                if item is None:
                    if feed is None or feed.done():
                        break
                    feed.wait(feed.due_in())
                    continue
                task, _ = item
                state.in_flight[0] = _Flight(task)
                state.tick()
                start = time.perf_counter()
                try:
                    value = task.fn(task.payload)
                except Exception:
                    failure = traceback.format_exc()
                else:
                    failure = None
                duration = time.perf_counter() - start
                del state.in_flight[0]
                state.tick()
                if failure is not None:
                    state.fail(task, failure)
                else:
                    state.complete(TaskResult(task, value, 0, duration))
        self._finish_run(state)

    def _run_parallel(self, state: "_RunState") -> None:
        feed = state.feed
        state.fill()
        while (state.in_flight or state.delayed
               or (feed is not None and not feed.done())):
            state.tick()
            timeout = state.wait_timeout()
            conns = {self._workers[w].conn: w for w in state.in_flight}
            waitables = list(conns) + ([feed] if feed is not None else [])
            if waitables:
                try:
                    ready = mp_connection.wait(waitables, timeout=timeout)
                except OSError:
                    ready = []
            else:
                # Only backoff retries pending: just wait them out.
                time.sleep(timeout)
                ready = []
            progressed = False
            for conn in ready:
                if conn is feed:
                    feed.clear()  # new work: offered by fill() below
                    continue
                worker_id = conns[conn]
                worker = self._workers[worker_id]
                try:
                    if not conn.poll(0):
                        continue
                    message = conn.recv()
                except (EOFError, OSError):
                    # Writer died: handled by the crash pass below.
                    continue
                progressed = True
                self._acked_seq[(worker_id, worker.incarnation)] = message[3]
                state.deliver(worker_id, message)
            state.release_due_retries()
            # Deadlines are checked every iteration: a hung worker must
            # not hide behind healthy workers' steady message flow.
            self._handle_timeouts(state)
            if not progressed:
                self._handle_crashes(state)
            if feed is not None:
                state.fill()
        self._finish_run(state)

    def _finish_run(self, state: "_RunState") -> None:
        state.tick()
        self._record_run(state)
        if state.error is not None:
            raise state.error

    def _handle_crashes(self, state: "_RunState") -> None:
        """Deal with workers that died with a task in flight.

        The dead incarnation's pipe is drained first: a result that was
        fully sent before the crash is honoured (and can never race a
        retry, because the pipe is closed before one is issued).
        """
        for worker_id in list(state.in_flight):
            worker = self._workers[worker_id]
            if worker.process.is_alive():
                continue
            flight = state.in_flight[worker_id]
            delivered = False
            for message in self._drain(worker):
                state.deliver(worker_id, message)
                delivered = delivered or message[0] == flight.task.id
            self.crashes += 1
            exitcode = worker.process.exitcode
            self._respawn(worker_id)
            if delivered or state.in_flight.get(worker_id) is not flight:
                continue
            del state.in_flight[worker_id]
            self._incident(
                "worker-crash",
                f"worker {worker_id} (incarnation {worker.incarnation}) "
                f"died with task {flight.task.id!r} in flight "
                f"(exit code {exitcode}, attempt {flight.attempts})",
                task=flight.task.id, worker=worker_id,
                incarnation=worker.incarnation, exitcode=exitcode,
                attempt=flight.attempts)
            if state.error is not None:
                continue
            if flight.attempts < self.max_worker_attempts:
                flight.attempts += 1
                state.send(worker_id, flight)
                continue
            # The task killed every worker it touched: run it here, in
            # the driver, and mark the result degraded.
            self._fallback(state, worker_id, flight)

    def _handle_timeouts(self, state: "_RunState") -> None:
        """Reap workers whose in-flight task blew its deadline.

        Mirrors the crash path: drain first (a result fully sent just
        before the deadline is honoured), then terminate -> kill ->
        respawn, then reroute the task -- retry on the fresh
        incarnation, or the in-driver fallback once worker attempts are
        exhausted.  The fallback runs without a deadline: a task that
        is genuinely slow (rather than hung) still completes there.
        """
        now = time.monotonic()
        for worker_id in list(state.in_flight):
            flight = state.in_flight.get(worker_id)
            if (flight is None or flight.deadline is None
                    or now < flight.deadline):
                continue
            worker = self._workers[worker_id]
            if not worker.process.is_alive():
                continue  # dead, not hung: the crash pass owns it
            for message in self._drain(worker):
                state.deliver(worker_id, message)
            if state.in_flight.get(worker_id) is not flight:
                continue  # the drain delivered its result after all
            del state.in_flight[worker_id]
            self.timeouts += 1
            self._count("pool.timeouts", worker=worker_id)
            flight.timed_out = True
            self._incident(
                "worker-hang",
                f"task {flight.task.id!r} missed its "
                f"{flight.task.timeout:.3f}s deadline on worker "
                f"{worker_id} (incarnation {worker.incarnation}, attempt "
                f"{flight.attempts}); reaping the worker",
                task=flight.task.id, worker=worker_id,
                incarnation=worker.incarnation,
                deadline_seconds=flight.task.timeout,
                attempt=flight.attempts)
            self._reap(worker_id)
            if state.error is not None:
                continue
            if flight.attempts < self.max_worker_attempts:
                flight.attempts += 1
                state.send(worker_id, flight)
            else:
                self._fallback(state, worker_id, flight)

    def _transient(self, state: "_RunState", worker_id: int, flight: _Flight,
                   detail: str, kind: str = "task-transient") -> None:
        """Route a transient failure: backoff retry, then fallback."""
        if state.in_flight.get(worker_id) is flight:
            del state.in_flight[worker_id]
        if state.error is not None:
            return
        if flight.retries < self.max_task_retries:
            flight.retries += 1
            self.retries += 1
            self._count("pool.retries", worker=worker_id)
            delay = self._backoff_delay(flight)
            self._incident(
                kind,
                f"task {flight.task.id!r} failed transiently on worker "
                f"{worker_id} ({_first_line(detail)}); retry "
                f"{flight.retries}/{self.max_task_retries} in {delay:.3f}s",
                task=flight.task.id, worker=worker_id,
                retry=flight.retries, backoff_seconds=round(delay, 6),
                detail=_first_line(detail))
            state.delayed[worker_id] = (time.monotonic() + delay, flight)
            return
        self._incident(
            kind,
            f"task {flight.task.id!r} exhausted {self.max_task_retries} "
            f"transient retries ({_first_line(detail)}); running in the "
            f"driver",
            task=flight.task.id, worker=worker_id,
            retry=flight.retries, detail=_first_line(detail))
        self._fallback(state, worker_id, flight)

    def _fallback(self, state: "_RunState", worker_id: int,
                  flight: _Flight) -> None:
        """Run a task in the driver process; the result is degraded."""
        self.fallbacks += 1
        self._incident(
            "driver-fallback",
            f"task {flight.task.id!r} degraded to in-driver execution "
            f"(attempts {flight.attempts}, transient retries "
            f"{flight.retries}, timed out: {flight.timed_out})",
            task=flight.task.id, attempts=flight.attempts,
            retries=flight.retries, timed_out=flight.timed_out)
        start = time.perf_counter()
        try:
            value = flight.task.fn(flight.task.payload)
        except Exception:
            state.fail(flight.task, traceback.format_exc())
        else:
            state.complete(TaskResult(
                flight.task, value, -1, time.perf_counter() - start,
                attempts=flight.attempts, degraded=True,
                stolen=flight.stolen, retries=flight.retries,
                timed_out=flight.timed_out))
        state.dispatch(worker_id)

    # ------------------------------------------------------------------
    def _counter_totals(self) -> dict[str, int]:
        return {
            "crashes": self.crashes,
            "fallbacks": self.fallbacks,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "workers_reaped": self.workers_reaped,
            "workers_killed": self.workers_killed,
        }

    def _count(self, name: str, amount: float = 1, **labels) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, **labels).inc(amount)

    def _publish(self, state: "_RunState", result: TaskResult) -> None:
        """Telemetry for one completed task, recorded as it lands: a fed
        run lasts a daemon's lifetime, and ``/metrics`` must show it
        long before :meth:`_record_run`."""
        if self._metrics is None:
            return
        if result.worker < 0:
            self._count("pool.fallback_tasks")
        else:
            self._count("pool.tasks", worker=result.worker)
            self._count("pool.busy_seconds", result.duration,
                        worker=result.worker)
        self._publish_run(state)

    def _publish_run(self, state: "_RunState") -> None:
        """Per-worker utilization and the pool-level counters' deltas.

        Utilization is busy seconds over the run's *active* seconds
        (time with a task in flight or awaiting a retry), so the idle
        stretches of a fed run do not dilute it."""
        registry = self._metrics
        active = max(state.active_seconds(), 1e-9)
        for worker_id in range(self.jobs):
            registry.gauge("pool.utilization", worker=worker_id).set(
                min(state.busy.get(worker_id, 0.0) / active, 1.0))
        # The attributes are pool-lifetime totals; a registry shared
        # across runs records each run's delta, never a total twice.
        totals = self._counter_totals()
        for name, total in totals.items():
            registry.counter(f"pool.{name}").inc(total - state.published[name])
        state.published = totals

    def _record_run(self, state: "_RunState") -> None:
        registry = self._metrics
        if registry is None:
            return
        registry.gauge("pool.workers").set(self.jobs)
        # Every worker reports, idle ones as zero.
        for worker_id in range(self.jobs):
            for name in ("pool.tasks", "pool.busy_seconds", "pool.steals",
                         "pool.retries", "pool.timeouts"):
                registry.counter(name, worker=worker_id)
        registry.counter("pool.fallback_tasks")
        self._publish_run(state)
        registry.gauge("pool.wall_seconds").set(
            max(time.perf_counter() - state.wall_start, 1e-9))


class _RunState:
    """Book-keeping for one :meth:`WorkerPool.run` invocation."""

    def __init__(self, pool: WorkerPool, scheduler: StealScheduler,
                 cancel, on_result=None,
                 feed: Optional[TaskFeed] = None) -> None:
        self.pool = pool
        self.scheduler = scheduler
        self.cancel = cancel
        self.on_result = on_result
        self.feed = feed
        #: task id -> result (a fed run keeps none: see :meth:`complete`).
        self.results: dict[str, TaskResult] = {}
        self.in_flight: dict[int, _Flight] = {}
        #: worker id -> (monotonic due time, flight) backoff retries.
        self.delayed: dict[int, tuple[float, _Flight]] = {}
        self.busy: dict[int, float] = {}
        self.error: Optional[TaskFailed] = None
        self.wall_start = time.perf_counter()
        #: Seconds with work in flight or awaiting a retry (see tick()).
        self.active = 0.0
        self._active_since: Optional[float] = None
        #: Pool counter totals already published to the registry.
        self.published = pool._counter_totals()

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the active-time clock to now."""
        now = time.perf_counter()
        if self._active_since is not None:
            self.active += now - self._active_since
        self._active_since = now if (self.in_flight or self.delayed) else None

    def active_seconds(self) -> float:
        if self._active_since is None:
            return self.active
        return self.active + time.perf_counter() - self._active_since

    def idle(self, worker_id: int) -> bool:
        """No task in flight and no backoff retry owns the worker."""
        return worker_id not in self.in_flight and worker_id not in self.delayed

    def wait_timeout(self) -> Optional[float]:
        """How long the dispatch loop may sleep before the next liveness
        poll, deadline, backoff retry or held feed work comes due
        (``None``: until the feed wakes it)."""
        now = time.monotonic()
        dues = [POLL_INTERVAL] if self.in_flight or self.delayed else []
        dues += [flight.deadline - now for flight in self.in_flight.values()
                 if flight.deadline is not None]
        dues += [due - now for due, _ in self.delayed.values()]
        if self.feed is not None and any(
                self.idle(w) for w in range(self.pool.jobs)):
            held = self.feed.due_in()
            if held is not None:
                dues.append(held)
        return max(0.0, min(dues)) if dues else None

    def release_due_retries(self) -> None:
        now = time.monotonic()
        for worker_id in list(self.delayed):
            due, flight = self.delayed[worker_id]
            if now < due and self.error is None:
                continue
            del self.delayed[worker_id]
            if self.error is not None:
                continue  # an aborted run abandons its retries
            self.send(worker_id, flight)

    def send(self, worker_id: int, flight: _Flight) -> None:
        """(Re)dispatch ``flight`` to ``worker_id``; arms its deadline."""
        flight.dispatches += 1
        flight.deadline = (time.monotonic() + flight.task.timeout
                           if flight.task.timeout is not None else None)
        self.in_flight[worker_id] = flight
        self.pool._workers[worker_id].inbox.put(
            (flight.task.id, flight.task.fn, flight.task.payload,
             flight.dispatches))

    def fill(self) -> None:
        """Offer work to every idle worker until none takes any: a group
        one worker leaves for its idle home worker is offered again
        once that worker is busy."""
        while any([self.dispatch(w) for w in range(self.pool.jobs)]):
            pass

    def dispatch(self, worker_id: int) -> bool:
        """Send ``worker_id`` its next task if it is idle; True if sent."""
        if self.error is not None or not self.idle(worker_id):
            return False
        item = self.next_task(worker_id)
        if item is None:
            return False
        task, stolen = item
        self.send(worker_id, _Flight(task, attempts=1, stolen=stolen))
        return True

    def next_task(self, worker_id: int) -> Optional[tuple[PoolTask, bool]]:
        """The scheduler's next ``(task, stolen)`` for an idle worker,
        pulling one from the feed once the deques are empty.  A pulled
        task is placed like any other, so one that leaves a busy home
        worker for this one counts as a steal."""
        item = self.scheduler.next_for(worker_id)
        if item is None and self.feed is not None:
            task = self.feed.pull(
                lambda affinity: self._rank(worker_id, affinity))
            if task is None:
                return None
            self.scheduler.add([task], prefer=worker_id)
            item = self.scheduler.next_for(worker_id)
        if item is not None and item[1]:
            self.pool._count("pool.steals", worker=worker_id)
        return item

    def _rank(self, worker_id: int, affinity) -> Optional[int]:
        """Feed preference for ``worker_id``: groups homed on it first,
        then new groups, then groups whose home worker is busy with
        other work.  A group whose home worker is idle is left to that
        worker, and a group with a task in flight waits for it: a
        second worker would repeat the group's work, and what waits
        meanwhile joins the group's next task."""
        if affinity is not None and any(
                flight.task.affinity == affinity for flight in
                [*self.in_flight.values(),
                 *(flight for _, flight in self.delayed.values())]):
            return None
        home = self.scheduler.home(affinity)
        if home is None:
            return 1
        if home == worker_id:
            return 0
        return None if self.idle(home) else 2

    def fail(self, task: PoolTask, detail: str) -> None:
        """A deterministic task failure: a fed run hands it to the feed
        and carries on; a task-list run aborts."""
        error = TaskFailed(task.id, detail)
        if self.feed is not None:
            self.scheduler.owner.pop(task.id, None)
            self.feed.failed(task, error)
        elif self.error is None:
            self.error = error
            self.scheduler.clear_pending()

    def complete(self, result: TaskResult) -> None:
        if self.feed is None:
            self.results[result.task.id] = result
        else:
            # A fed run may last a daemon's lifetime: keep nothing per task.
            self.scheduler.owner.pop(result.task.id, None)
        if result.worker >= 0:
            self.busy[result.worker] = \
                self.busy.get(result.worker, 0.0) + result.duration
        self.pool._publish(self, result)
        if self.on_result is not None:
            self.on_result(result)
        if (self.cancel is not None and self.error is None
                and self.cancel(result)):
            self.scheduler.clear_pending()

    def deliver(self, worker_id: int, message: tuple) -> None:
        """Process one pipe message from ``worker_id``."""
        task_id, status, duration, _seq, body = message
        flight = self.in_flight.get(worker_id)
        if flight is None or flight.task.id != task_id:
            # A message for a task this run no longer tracks (e.g. it
            # already completed via the driver fallback): discard, but
            # never leak its segments.
            if status == "ok":
                release_result(body)
            return
        if status == "transient":
            self.pool._transient(self, worker_id, flight, body)
            return
        del self.in_flight[worker_id]
        if status == "err":
            self.fail(flight.task, body)
        else:
            try:
                value = decode_result(body)
            except Exception:
                # Undecodable result (e.g. a corrupted shared-memory
                # segment): release whatever the failed decode left
                # linked, then retry -- the worker itself is healthy.
                release_result(body)
                self.pool._transient(self, worker_id, flight,
                                     traceback.format_exc(),
                                     kind="result-decode")
                return
            self.complete(TaskResult(flight.task, value, worker_id, duration,
                                     flight.attempts, stolen=flight.stolen,
                                     retries=flight.retries,
                                     timed_out=flight.timed_out))
        if self.error is None:
            self.dispatch(worker_id)
