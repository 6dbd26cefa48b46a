"""Each workload case is built at most once per sweep, and a warm sweep
builds none.

``Workload.build`` is patched in the driver before ``run_bench``; forked
pool workers inherit the patch, so one line per call lands in a shared
log from every process: the planner and the pool's workers (first,
retried and respawned incarnations) and the in-driver fallback.  The
naive comparison lane is left out (``compare=False``): it reproduces
the pre-optimisation pipeline, one build per point included.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.harness.bench import run_bench, sweep_points
from repro.workloads.base import Workload

FIGURE = "fig9a"
SCALE = 40


@pytest.fixture
def build_log(tmp_path, monkeypatch):
    log = tmp_path / "builds.log"
    original = Workload.build

    def counted(self, scale=None, seed=7):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {self.name} {scale}\n")
        return original(self, scale=scale, seed=seed)

    monkeypatch.setattr(Workload, "build", counted)

    def calls() -> Counter:
        if not log.exists():
            return Counter()
        with open(log, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        log.unlink()
        return Counter(tuple(line.split()[1:]) for line in lines)
    return calls


@pytest.mark.parametrize("crash", [None, "once", "always"])
def test_cold_builds_each_case_once_and_warm_builds_none(
        tmp_path, monkeypatch, build_log, crash):
    if crash is not None:
        # A crashing worker is respawned (forked again) and retried; a
        # group that keeps crashing falls back to the driver.
        monkeypatch.setenv("REPRO_BENCH_CRASH_WORKLOAD", "compress")
        if crash == "once":
            marker_dir = tmp_path / "markers"
            marker_dir.mkdir()
            monkeypatch.setenv("REPRO_BENCH_CRASH_ONCE_DIR", str(marker_dir))
    cold = run_bench(FIGURE, scale=SCALE, jobs=2, out_dir=str(tmp_path),
                     compare=False)
    assert cold["jobs"] == 2 and cold["num_tasks"] > 0
    assert bool(cold["degraded_points"]) == (crash == "always")
    workloads = {spec["workload"] for spec in sweep_points(FIGURE, SCALE)}
    calls = build_log()
    assert set(calls) == {(name, str(SCALE)) for name in workloads}
    assert max(calls.values()) == 1, calls

    warm = run_bench(FIGURE, scale=SCALE, jobs=2, out_dir=str(tmp_path),
                     compare=False)
    assert warm["incr"]["scheduled_total"] == 0
    assert warm["points"] == [{k: v for k, v in point.items()
                               if k != "degraded"}
                              for point in cold["points"]]
    assert build_log() == Counter()
