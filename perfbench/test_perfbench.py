"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench

Each workload gets a tiny-scale pass (``--scale 24``, one second) that
must print every metric by name with its unit; a deliberately wrong
expected value must fail the run; a daemon that fails to start must be
counted, not raised; no process may outlive a run; the serve-mixed
inputs must be a pure function of the seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import reference  # noqa: E402
import run as bench_run  # noqa: E402
import serve_mixed  # noqa: E402

TINY = 24
OUT = os.path.join(common.ROOT, ".perfbench-out", "selftest")


def _run(*args: str) -> tuple[int, str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3",
         "--seconds", "1", "--scale", str(TINY), *args],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, proc.stdout, json.loads(lines[-1])


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_prints_every_metric(workload, trace):
    code, stdout, result = _run("--workload", workload, "--trace", trace)
    assert code == 0, stdout
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = bench_run.PER_LAYER if trace == "1" else bench_run.END_TO_END
    assert set(result["metrics"]) == {name for name, _ in wanted}
    for name, unit in wanted:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], float)
        if trace == "0":
            assert metric["value"] > 0, name
    if trace == "0":
        # The human-readable block prints the per-workload names too.
        names = (["sweep_s"] if workload.startswith("sweep")
                 else ["req_p50_ms", "req_tail_ms", "max_rate_rps"])
        for name in ["setup_s", "peak_rss_mb", "fail_ratio", *names]:
            assert f"  {name} " in stdout, name
    else:
        path = os.path.join(common.ROOT, ".perfbench-out",
                            f"trace-{workload}.json")
        with open(path, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        assert any(e["ph"] == "X" for e in events)


def test_wrong_expected_value_fails_the_run():
    expected = reference.load_expected(TINY)
    expected["sweeps"]["fig9b"][3]["cycles"] += 1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "wrong-expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh)
    code, stdout, result = _run("--workload", "sweep-cold", "--trace", "0",
                                "--expected", path)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    fail_ratio = float(stdout.split("fail_ratio")[1].split()[0])
    assert fail_ratio > 0
    assert "fig9b" in stdout


def test_failed_daemon_is_counted_and_the_result_line_follows(monkeypatch,
                                                             capsys):
    def broken(name):
        raise RuntimeError("daemon exited with 1 before it was ready")

    monkeypatch.setattr(serve_mixed, "Daemon", broken)
    code = bench_run.main(["--workload", "serve-mixed", "--seed", "3",
                           "--seconds", "1", "--scale", str(TINY),
                           "--trace", "0"])
    stdout = capsys.readouterr().out
    result = json.loads(stdout.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["attempted"] >= result["failed"]
    assert "daemon exited with 1" in stdout


#: Runs its arguments as a child while adopting orphans, then prints
#: how many processes are still its children (running or unreaped).
LEFTOVER_PROBE = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
import common
if not common.adopt_orphans():
    print("unsupported")
    sys.exit(0)
subprocess.run([sys.executable, *sys.argv[2:]], check=True,
               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
print(len(common._children()))
"""


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_no_process_outlives_the_run(workload):
    probe = subprocess.run(
        [sys.executable, "-c", LEFTOVER_PROBE, HERE,
         os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         "3", "--seconds", "1", "--scale", str(TINY), "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600)
    assert probe.returncode == 0, probe.stderr
    if probe.stdout.strip() == "unsupported":
        pytest.skip("no PR_SET_CHILD_SUBREAPER on this kernel")
    assert probe.stdout.split() == ["0"]


def test_seed_reproduces_serve_mix():
    first = serve_mixed.mix_digest(serve_mixed.make_mix(5, 2, 6.0))
    again = serve_mixed.mix_digest(serve_mixed.make_mix(5, 2, 6.0))
    other = serve_mixed.mix_digest(serve_mixed.make_mix(6, 2, 6.0))
    assert first == again
    assert first != other


def test_tail_needs_ten_samples_beyond():
    assert common.tail(list(range(1, 11))) == (10.0, "max of n=10")
    value, label = common.tail(list(range(1, 101)))
    assert (value, label) == (90.0, "p90 of n=100")
    value, label = common.tail(list(range(1, 201)))
    assert (value, label) == (190.0, "p95 of n=200")


def test_self_time_subtracts_children():
    spans = common.Spans()
    spans.add("parent", 0, 100, depth=0)
    spans.add("child", 10, 30, depth=1)
    spans.add("child", 20, 50, depth=1)
    spans.add("grandchild", 25, 28, depth=2)
    assert spans.self_seconds("parent") == pytest.approx(60e-9)
    assert spans.coverage(0, 200) == pytest.approx(0.5)
