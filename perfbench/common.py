"""Shared helpers for the benchmark: paths, statistics, spans, processes.

Everything here is benchmark-side: the program under test (``src/repro``)
is only ever imported or launched, never modified.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Optional

#: Root of the checkout the benchmark runs in (the parent of this
#: directory); every file the benchmark reads or writes lives under it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
#: Scratch space for one benchmark run (git-ignored, removed at exit).
WORK = os.path.join(ROOT, ".perfbench-work")

#: The sweep every sweep workload runs: ``repro bench``'s CLI default.
SCALE = 800
SWEEP_ARGS = ["bench", "--figure", "all", "--scale", str(SCALE),
              "--jobs", "2", "--no-compare"]
FIGURES = ("fig9a", "fig9b", "qsweep")

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def require_program() -> None:
    """Fail fast when ``src/repro`` is absent (a bare benchmark copy)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no program sources under {SRC}")


def child_env() -> dict:
    """Environment for every process the benchmark starts: the program
    on ``PYTHONPATH`` and temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    # Set-up is timed with the bytecode cache a user's repeated runs
    # have, whatever the calling environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def fresh_dir(*parts: str) -> str:
    """An empty directory under the run's scratch space."""
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def ensure_src_on_path() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (the value at rank ceil(pct/100 * n))."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(min(rank, len(ordered))) - 1])


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, label)``; with fewer than eleven samples no
    percentile qualifies and the maximum is reported, labelled so."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return percentile(values, pct), f"p{pct:g} of n={n}"
    return float(max(values)), f"max of n={n}"


# ----------------------------------------------------------------------
# Spans (the traced runs' only timing source)
# ----------------------------------------------------------------------

class Spans:
    """In-memory span recorder; written out once as a Chrome trace.

    A span is ``(name, start_ns, end_ns, depth, args)`` on one
    ``(pid, tid)`` track; nesting is by time containment on a track.
    """

    def __init__(self, pid: int = 1, tid: int = 1,
                 enabled: bool = True) -> None:
        self.pid = pid
        self.tid = tid
        self.enabled = enabled
        self.records: list[dict] = []
        self._depth = 0

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as one span named ``name``."""
        if not self.enabled:
            return fn
        spans = self

        def wrapped(*args, **kwargs):
            spans._depth += 1
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                spans._depth -= 1
                spans.records.append({"name": name, "start": start,
                                      "end": end, "depth": spans._depth,
                                      "pid": spans.pid, "tid": spans.tid})
        return wrapped

    def add(self, name: str, start_ns: int, end_ns: int,
            tid: Optional[int] = None, depth: int = 0, **args) -> None:
        """Record a span measured elsewhere (on track ``tid``)."""
        if self.enabled:
            self.records.append({"name": name, "start": start_ns,
                                 "end": end_ns, "depth": depth,
                                 "pid": self.pid, "tid": tid or self.tid,
                                 "args": args})

    def totals(self) -> dict[str, float]:
        """Seconds per span name (summed over calls)."""
        out: dict[str, float] = {}
        for rec in self.records:
            out[rec["name"]] = out.get(rec["name"], 0.0) + \
                (rec["end"] - rec["start"]) / 1e9
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec["name"]] = out.get(rec["name"], 0) + 1
        return out

    def self_seconds(self, name: str) -> float:
        """Summed self time of ``name`` spans: each span's duration
        minus the part of it its child spans (one level deeper, same
        track, inside its interval) cover."""
        total = 0
        for parent in self.records:
            if parent["name"] != name:
                continue
            covered = _union_ns([
                (c["start"], c["end"]) for c in self.records
                if c["depth"] == parent["depth"] + 1
                and (c["pid"], c["tid"]) == (parent["pid"], parent["tid"])
                and c["start"] >= parent["start"]
                and c["end"] <= parent["end"]])
            total += (parent["end"] - parent["start"]) - covered
        return total / 1e9

    def coverage(self, start_ns: int, end_ns: int) -> float:
        """Share of ``[start_ns, end_ns]`` covered by top-level spans."""
        window = max(end_ns - start_ns, 1)
        covered = _union_ns([
            (max(r["start"], start_ns), min(r["end"], end_ns))
            for r in self.records if r["depth"] == 0
            and r["end"] > start_ns and r["start"] < end_ns])
        return covered / window

    def chrome(self, origin_ns: int, names: Optional[dict] = None) -> dict:
        """Chrome trace_event JSON (complete ``X`` events, microseconds)."""
        events = []
        for (pid, tid), label in sorted((names or {}).items()):
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": label}})
        for rec in sorted(self.records, key=lambda r: (r["start"],
                                                       r["depth"])):
            events.append({
                "ph": "X", "name": rec["name"], "cat": "perfbench",
                "pid": rec["pid"], "tid": rec["tid"],
                "ts": max(rec["start"] - origin_ns, 0) / 1e3,
                "dur": (rec["end"] - rec["start"]) / 1e3,
                "args": rec.get("args") or {},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _union_ns(intervals) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def write_trace(path: str, payload: dict) -> int:
    """Validate with the program's own Chrome-trace validator, write."""
    ensure_src_on_path()
    from repro.obs.export import validate_chrome_trace

    count = validate_chrome_trace(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return count


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (Linux ``PR_SET_CHILD_SUBREAPER``).
PR_SET_CHILD_SUBREAPER = 36
#: Pids of the processes started through :func:`spawn` and not yet
#: stopped; :func:`reap_orphans` leaves them to their ``Popen``.
_LIVE: set[int] = set()


def adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants.

    The program's pool workers use shared memory, and each process that
    does starts a ``multiprocessing`` resource tracker that outlives it
    by a moment.  Adopted, such a process is waited for by
    :func:`reap_orphans` instead of running on after the benchmark has
    exited.  Returns False where the kernel does not offer it."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_orphans(grace: float = 10.0) -> list[str]:
    """Wait for every child of this process that :func:`spawn` is not
    tracking -- adopted orphans above all -- to end.

    A child still running after ``grace`` seconds gets SIGTERM, and one
    still running two seconds later SIGKILL; each is waited for.
    Returns the command lines of those that had to be signalled."""
    deadline = time.monotonic() + grace
    signalled: dict[int, str] = {}
    escalation = [signal.SIGTERM, signal.SIGKILL]
    keep = set(_LIVE)
    tracker = _own_tracker()
    if getattr(tracker, "_pid", None) is not None:
        keep.add(tracker._pid)
    while True:
        live = []
        for pid in _children():
            if pid in keep:
                continue
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            if not done:
                live.append(pid)
        if not live:
            return list(signalled.values())
        if time.monotonic() >= deadline:
            if not escalation:
                for pid in live:
                    try:
                        os.waitpid(pid, 0)
                    except ChildProcessError:
                        pass
                continue
            sig = escalation.pop(0)
            for pid in live:
                signalled.setdefault(pid, _cmdline(pid))
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 2.0
        time.sleep(0.01)


def _own_tracker():
    """This process's ``multiprocessing`` resource tracker (started by
    the spawn-context check processes of :mod:`reference`), or None."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    return getattr(module, "_resource_tracker", None)


def stop_own_tracker() -> None:
    """Stop and wait for this process's resource tracker, which would
    otherwise end only after this process has (through the tracker's
    private ``_stop``, where this Python has it)."""
    stop_tracker = getattr(_own_tracker(), "_stop", None)
    if stop_tracker is not None:
        try:
            stop_tracker()
        except (OSError, ChildProcessError):
            pass


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return f"pid {pid}"


def spawn(cmd: list[str], stdout=subprocess.DEVNULL,
          stderr=subprocess.PIPE) -> subprocess.Popen:
    """Start ``cmd`` from the checkout root in a process group of its
    own, so :func:`stop` can end everything it starts."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout,
                            stderr=stderr, start_new_session=True)
    _LIVE.add(proc.pid)
    return proc


def launch(argv: list[str], stamp_path: str,
           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE):
    """Start ``python -m repro <argv>`` through :mod:`launch`, which
    stamps the moment the program's modules are imported and, at exit,
    its process tree's peak RSS into ``stamp_path``.

    Returns ``(process, launch_monotonic)``."""
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), stamp_path,
           *argv]
    t0 = time.monotonic()
    return spawn(cmd, stdout=stdout, stderr=stderr), t0


def read_stamp(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stop(proc, timeout: float = 30.0) -> None:
    """End ``proc`` (SIGTERM, then SIGKILL) and wait for it; then wait
    for the descendants it left (:func:`reap_orphans`) and SIGKILL
    whatever is still left of its process group."""
    try:
        if proc.poll() is None:
            _signal_group(proc.pid, signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                _signal_group(proc.pid, signal.SIGKILL)
                proc.wait()
    finally:
        _LIVE.discard(proc.pid)
        reap_orphans()
        _signal_group(proc.pid, signal.SIGKILL)


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass
