"""Cost-aware work-stealing scheduler for the worker pool.

Placement happens in two phases:

1. **Static assignment** -- tasks are grouped by *affinity* (a bench
   sweep groups by ``workload:scale``, so every point of one workload
   prefers the worker whose arena already holds that workload's decoded
   program and cache entries).  Groups are placed longest-first onto
   the least-loaded worker (LPT), which bounds the makespan at 4/3 of
   optimal even before stealing; within a worker's deque the tasks stay
   in descending cost order, so the expensive work starts first.

2. **Stealing** -- a worker that drains its own deque takes the last
   (cheapest, least affine) task from the back of the most-loaded
   victim's deque.  Stealing trades arena warmth for load balance; the
   shared on-disk cache keeps the functional part of that trade cheap.

Tasks can also join after construction (:meth:`StealScheduler.add`, the
pool's fed runs).  An affinity group keeps the *home* worker it was
first placed on, so a later task of the group joins that worker's deque
and a different worker that takes it counts as a steal.

The scheduler is driven from the pool's dispatch loop in the parent
process, so steal accounting is exact and free of races.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class PoolTask:
    """One unit of work for the pool.

    ``fn`` must be a module-level callable (it crosses the process
    boundary by reference) taking ``payload`` as its only argument.
    """

    id: str
    fn: Callable
    payload: object
    cost: float = 1.0
    affinity: Optional[str] = None
    #: Per-task deadline in seconds; ``None`` disables the hung-worker
    #: watchdog for this task.  Only enforced on the parallel path (the
    #: serial lane cannot reap itself).
    timeout: Optional[float] = None


@dataclass
class TaskResult:
    """Outcome of one task, with execution provenance."""

    task: PoolTask
    value: object
    worker: int
    duration: float
    attempts: int = 1
    #: Ran in the driver process after exhausting worker retries.
    degraded: bool = False
    #: Executed by a worker other than its statically assigned owner.
    stolen: bool = False
    #: Transient-failure redispatches (flaky task, undecodable result)
    #: absorbed by the backoff-retry loop before this result landed.
    retries: int = 0
    #: At least one attempt blew its deadline and the worker was reaped.
    timed_out: bool = False


#: Affinity homes remembered per scheduler (least recently placed
#: forgotten first), so a long-lived fed run stays bounded.
HOME_CAP = 4096


@dataclass
class _WorkerQueue:
    tasks: deque = field(default_factory=deque)
    load: float = 0.0


class StealScheduler:
    """Static LPT-with-affinity assignment plus dispatch-time stealing."""

    def __init__(self, tasks: list[PoolTask], workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self._queues = [_WorkerQueue() for _ in range(workers)]
        self.owner: dict[str, int] = {}
        self.steals = [0] * workers
        #: affinity -> the worker its group was first placed on.
        self._homes: OrderedDict = OrderedDict()
        self.add(tasks)

    # ------------------------------------------------------------------
    def add(self, tasks: list[PoolTask], prefer: Optional[int] = None) -> None:
        """Place ``tasks`` onto the worker deques.

        A group whose affinity already has a home joins that worker's
        deque.  A new group goes to ``prefer`` when given, else to the
        least-loaded worker; groups are placed longest-first.
        """
        groups: dict[object, list[PoolTask]] = {}
        for index, task in enumerate(tasks):
            # Affinity-less tasks form singleton groups (unique key).
            key = task.affinity if task.affinity is not None else (
                "__solo__", index)
            groups.setdefault(key, []).append(task)
        ordered = sorted(
            groups.values(),
            key=lambda members: (-sum(t.cost for t in members),
                                 members[0].id),
        )
        for members in ordered:
            affinity = members[0].affinity
            target = self.home(affinity)
            if target is None:
                target = prefer if prefer is not None else min(
                    range(self.workers),
                    key=lambda w: (self._queues[w].load, w))
            if affinity is not None:
                self._homes[affinity] = target
                self._homes.move_to_end(affinity)
                if len(self._homes) > HOME_CAP:
                    self._homes.popitem(last=False)
            queue = self._queues[target]
            for task in sorted(members, key=lambda t: (-t.cost, t.id)):
                queue.tasks.append(task)
                queue.load += task.cost
                self.owner[task.id] = target

    def home(self, affinity) -> Optional[int]:
        """The worker ``affinity``'s group was first placed on, if any."""
        return self._homes.get(affinity) if affinity is not None else None

    # ------------------------------------------------------------------
    def pending(self) -> int:
        return sum(len(q.tasks) for q in self._queues)

    def assigned_order(self, worker: int) -> list[str]:
        """The task ids currently queued for ``worker`` (test hook)."""
        return [t.id for t in self._queues[worker].tasks]

    def next_for(self, worker: int) -> Optional[tuple[PoolTask, bool]]:
        """The next task ``worker`` should run, or ``None`` when the
        sweep is drained.  Returns ``(task, stolen)``."""
        queue = self._queues[worker]
        if queue.tasks:
            task = queue.tasks.popleft()
            queue.load -= task.cost
            return task, False
        victim = max(
            (w for w in range(self.workers)
             if w != worker and self._queues[w].tasks),
            key=lambda w: self._queues[w].load,
            default=None,
        )
        if victim is None:
            return None
        task = self._queues[victim].tasks.pop()
        self._queues[victim].load -= task.cost
        self.steals[worker] += 1
        return task, True

    def requeue(self, task: PoolTask, worker: int) -> None:
        """Put ``task`` back at the front of ``worker``'s deque (used
        when a crashed worker's in-flight task is retried)."""
        self._queues[worker].tasks.appendleft(task)
        self._queues[worker].load += task.cost

    def clear_pending(self) -> int:
        """Drop every queued task (cancellation); in-flight tasks are
        unaffected.  Returns how many tasks were dropped."""
        dropped = 0
        for queue in self._queues:
            dropped += len(queue.tasks)
            queue.tasks.clear()
            queue.load = 0.0
        return dropped
