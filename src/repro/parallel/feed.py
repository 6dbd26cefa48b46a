"""Open-ended task source for :meth:`WorkerPool.run`.

A run given a :class:`TaskFeed` does not end when its tasks are done:
it asks the feed for the next task whenever a worker goes idle, and it
ends only once the feed is closed, holds nothing and nothing is in
flight.  The feed decides *what* is ready (a long-lived service holds
requests back for a batch window, so configs of one source still share
a task); the pool decides *where* it runs, passing :meth:`TaskFeed.pull`
a ranking of affinities for the asking worker.

Producers run on other threads.  They call :meth:`TaskFeed.notify`
after making work available; the pool's dispatch loop sleeps on
:meth:`TaskFeed.fileno` (a self-pipe) between worker messages, so a new
task wakes it at once instead of at the next liveness poll.
"""

from __future__ import annotations

import os
import threading
from multiprocessing import connection as mp_connection
from typing import Callable, Optional

from repro.parallel.scheduler import PoolTask

#: ``rank(affinity)`` for the asking worker: lower is better, ``None``
#: means "leave it for another worker".
Rank = Callable[[object], Optional[int]]


class TaskFeed:
    """Base class for a fed run's task source; see module docstring.

    Subclasses implement :meth:`pull`, :meth:`due_in` and
    :meth:`failed`.
    """

    def __init__(self) -> None:
        self._read_fd, self._write_fd = os.pipe()
        os.set_blocking(self._read_fd, False)
        os.set_blocking(self._write_fd, False)
        #: Orders producers' writes before :meth:`release` closes the pipe.
        self._fd_lock = threading.Lock()
        #: Set by :meth:`close`: no new work will arrive.
        self.closed = False

    # ------------------------------------------------------------------
    # Subclass hooks (called from the pool's dispatch thread)
    # ------------------------------------------------------------------
    def pull(self, rank: Rank) -> Optional[PoolTask]:
        """The next ready task for an idle worker, or ``None``.

        Among ready tasks, prefer the lowest ``rank(task.affinity)`` and
        skip those ranked ``None``."""
        raise NotImplementedError

    def due_in(self) -> Optional[float]:
        """Seconds until held work becomes ready (0: ready now), or
        ``None`` when the feed holds nothing."""
        raise NotImplementedError

    def failed(self, task: PoolTask, error) -> None:
        """``task`` raised :class:`~repro.parallel.pool.TaskFailed`;
        the run carries on with the other tasks."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Wake-ups and lifecycle
    # ------------------------------------------------------------------
    def fileno(self) -> int:
        """Readable when :meth:`notify` was called since :meth:`clear`."""
        return self._read_fd

    def notify(self) -> None:
        """Wake the dispatch loop (any thread)."""
        with self._fd_lock:
            if self._write_fd < 0:
                return  # released: the fd number may belong to a new file
            try:
                os.write(self._write_fd, b"\0")
            except OSError:
                pass  # the pipe is full: it is readable already

    def clear(self) -> None:
        """Consume pending wake-ups."""
        try:
            while os.read(self._read_fd, 4096):
                pass
        except OSError:
            pass  # drained (EAGAIN)

    def wait(self, timeout: Optional[float]) -> None:
        """Sleep until notified or ``timeout`` seconds pass."""
        if mp_connection.wait([self], timeout):
            self.clear()

    def done(self) -> bool:
        """Closed and holding nothing: the run may end."""
        return self.closed and self.due_in() is None

    def close(self) -> None:
        """No more work will arrive; held work is still handed out."""
        self.closed = True
        self.notify()

    def release(self) -> None:
        """Close the wake-up pipe (after the run that used it ended)."""
        with self._fd_lock:
            fds, self._read_fd, self._write_fd = (
                (self._read_fd, self._write_fd), -1, -1)
            for fd in fds:
                if fd >= 0:
                    os.close(fd)
