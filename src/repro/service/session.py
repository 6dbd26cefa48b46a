"""The daemon's engine room: coalescing, micro-batching, dispatch, drain.

A :class:`ServiceSession` owns everything behind the HTTP front end and
is fully usable without it (the unit tests drive it directly with
threads):

* the shared warm :class:`~repro.parallel.WorkerPool`, pre-forked via
  :meth:`~repro.parallel.WorkerPool.warm` *before* the dispatcher
  thread starts (fork-before-threads safety);
* the :class:`~repro.service.admission.AdmissionController` gate;
* a :class:`~repro.harness.cache.ShardedExperimentCache` of finished
  response payloads keyed by full request content hash;
* the in-flight table that **coalesces** identical requests -- the
  second submit of a content hash joins the first's computation and
  both get the same bytes back;
* the dispatcher thread, which keeps **one open-ended pool run** fed
  by the session (:class:`~repro.parallel.TaskFeed`).  Submits join a
  waiting *functional group* (same source, scale and check flag ->
  same interpretation work); whenever a worker goes idle the pool pulls
  the oldest group whose ``batch_window`` has passed since its first
  submit -- preferring the worker whose arena already holds it -- as
  one :class:`~repro.parallel.PoolTask` carrying every distinct machine
  config, which the worker replays as one
  :class:`~repro.machine.batch.BatchedSimulator` lane group.  Configs
  that arrive while every worker is busy keep joining their group, and
  each task's requests resolve the moment that task finishes, never
  waiting on a slower neighbour.

Lifecycle: :meth:`submit` -> future; :meth:`drain` on SIGTERM (stop
admitting, finish in-flight, flush incidents, close the pool).  All
metrics go through one :class:`~repro.obs.MetricsRegistry` under
``service.*`` keys, alongside the pool's own ``pool.*`` telemetry.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from typing import Callable, Optional

from repro.harness.cache import ShardedExperimentCache
from repro.obs import MetricsRegistry, TraceEnvelope
from repro.parallel import PoolTask, TaskFeed, WorkerPool
from repro.service.admission import AdmissionController
from repro.service.protocol import (
    ExperimentRequest,
    functional_key,
    machine_key,
    request_key,
)
from repro.service.worker import run_group_task

#: An event callback: ``subscriber(event_dict)``; see :meth:`submit`.
Subscriber = Callable[[dict], None]


class _Waiter:
    """One submitted request waiting on an in-flight computation."""

    __slots__ = ("future", "subscriber", "envelope")

    def __init__(self, envelope: TraceEnvelope,
                 subscriber: Optional[Subscriber]) -> None:
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.subscriber = subscriber
        self.envelope = envelope


class _Entry:
    """One unique in-flight computation (possibly many waiters)."""

    def __init__(self, req: ExperimentRequest, key: str) -> None:
        self.req = req
        self.key = key
        self.group = functional_key(req)
        self.machine = machine_key(req)
        self.waiters: list[_Waiter] = []
        self.resolved = False


class _GroupFeed(TaskFeed):
    """The session's waiting room: functional groups no worker has
    started yet, oldest first.

    A group becomes ready ``batch_window`` seconds after its first
    entry (at once while draining); until a worker takes it, later
    entries of the same functional key join it."""

    def __init__(self, session: "ServiceSession") -> None:
        super().__init__()
        self._session = session
        self._lock = threading.Lock()
        #: functional key -> (monotonic ready time, entries).
        self._groups: dict[str, tuple[float, list[_Entry]]] = {}

    def add(self, entry: _Entry) -> None:
        with self._lock:
            group = self._groups.get(entry.group)
            if group is None:
                group = self._groups[entry.group] = (
                    time.monotonic() + self._session.batch_window, [])
            group[1].append(entry)
        self.notify()

    def queued(self) -> int:
        with self._lock:
            return sum(len(entries) for _, entries in self._groups.values())

    def take_all(self) -> list[_Entry]:
        with self._lock:
            groups, self._groups = self._groups, {}
        return [entry for _, entries in groups.values() for entry in entries]

    # -- TaskFeed hooks ------------------------------------------------
    def due_in(self) -> Optional[float]:
        with self._lock:
            if not self._groups:
                return None
            if self.closed:
                return 0.0
            ready = min(ready for ready, _ in self._groups.values())
        return max(0.0, ready - time.monotonic())

    def pull(self, rank) -> Optional[PoolTask]:
        now = time.monotonic()
        best = best_rank = None
        with self._lock:
            for key, (ready, _) in self._groups.items():
                if ready > now and not self.closed:
                    continue
                score = rank(key)
                if score is not None and (best is None or score < best_rank):
                    best, best_rank = key, score
            if best is None:
                return None
            _, entries = self._groups.pop(best)
        return self._session._task_for(best, entries)

    def failed(self, task: PoolTask, error) -> None:
        self._session._task_failed(task, error)


class ServiceSession:
    """Everything behind the HTTP front end; see module docstring."""

    def __init__(
        self,
        jobs: int = 2,
        cache_dir: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_inflight: int = 64,
        quota_rate: float = 0.0,
        quota_burst: float = 8.0,
        batch_window: float = 0.02,
        shards: int = 8,
        task_timeout: Optional[float] = None,
        warm: bool = True,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache_dir = cache_dir
        # Response payloads and worker artefacts partition the cache
        # directory so the sharded bank and per-worker caches never
        # share a file.
        self._response_dir = (os.path.join(cache_dir, "responses")
                              if cache_dir else None)
        self._artifact_dir = (os.path.join(cache_dir, "artifacts")
                              if cache_dir else None)
        self.batch_window = batch_window
        self.task_timeout = task_timeout
        self.admission = AdmissionController(
            max_inflight=max_inflight, quota_rate=quota_rate,
            quota_burst=quota_burst, metrics=self.metrics)
        self.responses = ShardedExperimentCache(
            persist_dir=self._response_dir, shards=shards,
            metrics=self.metrics)
        self.pool = WorkerPool(jobs, metrics=self.metrics)
        if warm:
            # Fork workers now, before any thread exists in this
            # process; a fork taken after threads start can inherit a
            # lock mid-acquisition.
            self.pool.warm()
        #: Group-level task failures observed so far (drain flushes
        #: these into the ``service.incidents`` info metric).
        self.incidents: list[dict] = []
        self._lock = threading.Lock()
        self._inflight_entries: dict[str, _Entry] = {}
        #: task id -> the entries a started pool task will resolve.
        self._running: dict[str, list[_Entry]] = {}
        self._feed = _GroupFeed(self)
        self._task_seq = 0
        self._req_seq = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch",
            daemon=True)
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Submit path
    # ------------------------------------------------------------------
    def submit(
        self,
        req: ExperimentRequest,
        envelope: Optional[TraceEnvelope] = None,
        subscriber: Optional[Subscriber] = None,
    ) -> concurrent.futures.Future:
        """Admit one request; the future resolves to its outcome dict.

        Raises :class:`~repro.service.admission.AdmissionError` when
        refused (the caller never holds a slot in that case).  The
        outcome is always a dict -- ``{"status": "ok", "payload": ...}``
        or ``{"status": "error", ...}`` -- the future itself only fails
        on session teardown.

        ``subscriber`` receives progress events (dicts with an
        ``event`` field: ``queued``, ``dispatched``, ``result``) from
        session threads; the HTTP layer bridges them onto the event
        loop for NDJSON streaming.
        """
        self.admission.admit(req.tenant)
        try:
            return self._enqueue(req, envelope, subscriber)
        except BaseException:
            self.admission.release()
            raise

    def _enqueue(self, req, envelope, subscriber):
        key = request_key(req)
        with self._lock:
            self._req_seq += 1
            request_id = f"req-{self._req_seq}"
        env = envelope if envelope is not None else TraceEnvelope()
        env.request_id = env.request_id or request_id
        waiter = _Waiter(env, subscriber)
        self.metrics.counter("service.requests", tenant=req.tenant).inc()

        cached = self.responses.get_object("response", key)
        if cached is not None:
            self.metrics.counter("service.response_cache_hits").inc()
            self._emit(waiter, {"event": "result", "cached": True})
            self._finish(waiter, {"status": "ok", "payload": cached,
                                  "cached": True, "request_key": key})
            return waiter.future

        with self._lock:
            entry = self._inflight_entries.get(key)
            if entry is not None:
                self.metrics.counter("service.coalesced").inc()
                entry.waiters.append(waiter)
                self._emit(waiter, {"event": "queued", "coalesced": True,
                                    "request_key": key})
                return waiter.future
            entry = _Entry(req, key)
            entry.waiters.append(waiter)
            self._inflight_entries[key] = entry
        self._emit(waiter, {"event": "queued", "coalesced": False,
                            "request_key": key})
        self._feed.add(entry)
        return waiter.future

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        try:
            while True:
                try:
                    self.pool.run(on_result=self._on_result, feed=self._feed)
                    return  # drained: the feed closed and emptied
                except Exception as exc:  # noqa: BLE001
                    # The run broke (not a task: those fail alone).
                    # Fail what it held and open a new one.
                    self._fail_pending(exc)
                    if self._feed.closed:
                        return
                    time.sleep(self.batch_window)
        finally:
            self._feed.release()

    def _task_for(self, group_key: str, entries: list[_Entry]) -> PoolTask:
        """One pool task for a waiting group (a worker is taking it)."""
        with self._lock:
            self._task_seq += 1
            task_id = f"svc-{self._task_seq}"
            self._running[task_id] = entries
        payload = {
            "group": group_key,
            "source": entries[0].req.source_dict(),
            "configs": [{"key": e.machine, "spec": e.req.machine}
                        for e in entries],
            "cache_dir": self._artifact_dir,
        }
        self.metrics.counter("service.tasks_dispatched").inc()
        self.metrics.counter("service.configs_dispatched").inc(len(entries))
        for entry in entries:
            for waiter in entry.waiters:
                self._emit(waiter, {"event": "dispatched", "task": task_id,
                                    "configs": len(entries)})
        return PoolTask(id=task_id, fn=run_group_task, payload=payload,
                        cost=float(len(entries)), affinity=group_key,
                        timeout=self.task_timeout)

    def _take(self, task_id: str) -> list[_Entry]:
        with self._lock:
            return self._running.pop(task_id, [])

    def _on_result(self, result) -> None:
        entries = self._take(result.task.id)
        try:
            self._resolve_task(result.value, entries)
        except Exception as exc:  # noqa: BLE001 -- fail this task only
            self._fail_entries(entries, "dispatch-failed",
                               f"{type(exc).__name__}: {exc}")

    def _resolve_task(self, value, entries: list[_Entry]) -> None:
        value = value if isinstance(value, dict) else {}
        if "fatal" in value:
            self._record_incident(value["fatal"], entries)
            outcome = {"status": "error", **value["fatal"]}
            for entry in entries:
                self._resolve(entry, dict(outcome))
            return
        per_config = value.get("results", {})
        for entry in entries:
            got = per_config.get(entry.machine)
            if got is None:
                self._resolve(entry, {
                    "status": "error", "error": "missing-result",
                    "detail": "worker returned no result for this "
                              "machine config"})
            elif "payload" in got:
                self.responses.put_object(
                    "response", entry.key, got["payload"])
                self._resolve(entry, {
                    "status": "ok", "payload": got["payload"],
                    "cached": False, "request_key": entry.key})
            else:
                self._record_incident(got, [entry])
                self._resolve(entry, {"status": "error", **got})

    def _task_failed(self, task: PoolTask, error) -> None:
        """A raising task fails its own entries; the run keeps serving."""
        self._fail_entries(self._take(task.id), "task-failed",
                           f"{type(error).__name__}: {error}")

    def _fail_pending(self, exc: BaseException) -> None:
        with self._lock:
            running, self._running = self._running, {}
        entries = self._feed.take_all()
        entries += [entry for group in running.values() for entry in group]
        self._fail_entries(entries, "dispatch-failed",
                           f"{type(exc).__name__}: {exc}")

    def _fail_entries(self, entries: list[_Entry], error: str,
                      detail: str) -> None:
        entries = [entry for entry in entries if not entry.resolved]
        if not entries:
            return
        self._record_incident({"error": error, "detail": detail}, entries)
        for entry in entries:
            self._resolve(entry, {"status": "error", "error": error,
                                  "detail": detail})

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve(self, entry: _Entry, outcome: dict) -> None:
        with self._lock:
            if entry.resolved:
                return
            entry.resolved = True
            if self._inflight_entries.get(entry.key) is entry:
                del self._inflight_entries[entry.key]
        outcome = dict(outcome)
        outcome.setdefault("request_key", entry.key)
        outcome["coalesced_with"] = len(entry.waiters) - 1
        for waiter in entry.waiters:
            self._emit(waiter, {"event": "result",
                                "status": outcome.get("status")})
            self._finish(waiter, outcome)

    def _finish(self, waiter: _Waiter, outcome: dict) -> None:
        try:
            waiter.future.set_result(outcome)
        finally:
            self.admission.release()

    def _emit(self, waiter: _Waiter, event: dict) -> None:
        if waiter.subscriber is None:
            return
        event = dict(event)
        event["trace"] = waiter.envelope.to_dict()
        try:
            waiter.subscriber(event)
        except Exception:  # noqa: BLE001 -- a broken stream must not
            pass           # take the computation down

    def _record_incident(self, record: dict, entries: list[_Entry]) -> None:
        incident = dict(record)
        incident["requests"] = [e.key for e in entries]
        self.incidents.append(incident)
        self.metrics.counter("service.task_errors").inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight, close.

        Idempotent.  Returns False when in-flight work did not finish
        within ``timeout`` (the pool is still closed -- a drain is a
        shutdown, not a suggestion).
        """
        self.admission.start_draining()
        finished = self.admission.wait_idle(timeout)
        self._feed.close()
        self._dispatcher.join(timeout=10.0)
        # Flush incidents where an operator will find them: the final
        # metrics snapshot.
        self.metrics.gauge("service.incidents").set(len(self.incidents))
        self.pool.close()
        return finished

    close = drain

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """The ``/healthz`` body.

        ``queued`` counts the distinct computations no worker has
        started yet -- those still in their batch window and those ready
        but waiting for a busy worker alike."""
        return {
            "status": "draining" if self.admission.draining else "ok",
            "inflight": self.admission.inflight,
            "queued": self._feed.queued(),
            "workers": self.pool.jobs,
            "incidents": len(self.incidents),
        }
