"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Each workload runs on a few small inputs and must pass; a corrupted
frozen answer must make the run fail.
"""

import copy
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

C2 = run.Group("C2", "sc")
A2U = run.Group("A2", "sc", (1, 0))
# X sizes and strong-real-form sizes as the README and the demo print them
TINY_LADDER = {"C2 sc": {"taus": 6, "elements": 17, "forms": [1, 4, 1, 11]},
               "A2 sc 2,1": {"taus": 4, "elements": 4, "forms": [4]}}


@pytest.fixture(scope="module")
def golden():
    g = run.load_golden()
    g["x-ladder"].update(TINY_LADDER)
    return g


def tiny(name, golden):
    if name == "x-ladder":
        return run.XLadder(golden, groups=(C2, A2U))
    if name == "sp2n":
        return run.Sp2n(golden, ns=(1, 2, 3))
    return run.CliSession(golden, groups=(A2U,))


def corrupt(name, golden):
    g = copy.deepcopy(golden)
    if name == "x-ladder":
        g["x-ladder"]["C2 sc"]["elements"] = 18
    elif name == "sp2n":
        g["sp2n"]["3"] = 89
    else:
        g["cli-session"]["A2 sc 2,1"][4][1] = "0" * 16
    return g


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_workload_passes(name, golden):
    lines, result = run.run(tiny(name, golden), seed=5, seconds=0, trace=0)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_of_a_window_uses_the_probes_in_and_beside_it():
    meter = run.SpeedMeter()
    meter.times, meter.speeds = [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.5, 1.0]
    assert meter.speed(0.9, 2.1) == pytest.approx(0.75)
    assert meter.speed(1.2, 1.3) == pytest.approx(0.5)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_corrupted_answer_fails(name, golden):
    _, result = run.run(tiny(name, corrupt(name, golden)), seed=5,
                        seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_corrupted_demo_fails(golden):
    g = copy.deepcopy(golden)
    g["demo"]["expected"] = g["demo"]["expected"].replace("18", "19", 1)
    _, result = run.run(tiny("cli-session", g), seed=5, seconds=0, trace=0)
    assert not result["correct"] and result["failed"] == 1


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_reports_every_declared_metric(trace, kind, golden, tmp_path,
                                       monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    _, result = run.run(tiny("sp2n", golden), seed=5, seconds=0, trace=trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared(kind)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_seed_changes_order_only(name, golden):
    w = run.WORKLOADS[name](golden)

    def items(inputs):
        if name == "cli-session":
            inputs = [cmd for block in inputs for cmd in block]
        return sorted(map(str, inputs))

    a = w.inputs(run.random.Random(1))
    b = w.inputs(run.random.Random(2))
    assert a != b and items(a) == items(b)
    assert a == w.inputs(run.random.Random(1))


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sp2n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
