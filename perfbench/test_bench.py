"""Self-test of the benchmark at its smallest sizes.

    python3 -m pytest perfbench -q

Checks that one command prints every metric by name and unit, that the key
set matches BENCHMARK.json and does not change with the seed, that a
failed output check fails the run, and that the benchmark refuses to run
without the kuramem sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(*args, script=HERE / "run.py", cwd=ROOT):
    cmd = [sys.executable, str(script), "--size", "small", "--seconds", "0.5", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def _ran(stdout: str) -> list[str]:
    """The workloads a run of `--workload all` reports on: those
    BENCHMARK.json lists, and any the benchmark runs beyond them."""
    ran = [line.split()[1] for line in stdout.splitlines() if line.startswith("workload ")]
    assert set(WORKLOADS) <= set(ran), ran
    return ran


def _per_workload(result: dict, workload: str) -> dict:
    prefix = workload + "."
    return {k[len(prefix):]: v for k, v in result["metrics"].items() if k.startswith(prefix)}


def test_one_command_prints_every_end_to_end_metric():
    proc = _run("--workload", "all", "--seed", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    ran = _ran(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(ran)
    expected = _units("end_to_end")
    for workload in ran:
        metrics = _per_workload(result, workload)
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        assert all(v["value"] > 0 for v in metrics.values()), metrics
    for name, unit in expected.items():
        printed = [line for line in lines
                   if line.startswith(f"metric {name} ") and line.endswith(f" {unit}")]
        assert len(printed) == len(ran), name


def test_traced_run_reports_every_layer_metric_and_adds_up():
    proc = _run("--workload", "all", "--seed", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    expected = _units("per_layer")
    for workload in _ran(proc.stdout):
        metrics = _per_workload(result, workload)
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        value = {k: v["value"] for k, v in metrics.items()}
        # Along the single-threaded blocking path, the library layers' self
        # times plus the tracer's measured bookkeeping cover the traced
        # operations' time. A layer left untraced would show as a gap.
        covered = value["trace.library_self_s"] + value["trace.self_s"]
        gap = value["trace.op_s"] - covered
        assert value["trace.unattributed_s"] == pytest.approx(gap, abs=1e-9)
        assert abs(gap) <= 0.01 * value["trace.op_s"] + 1e-3, (workload, gap, covered)
        assert value["trace.self_s"] > 0
        assert value["dynamics.rhs.calls"] > 0 and value["graphs.build.s"] > 0


def test_key_set_does_not_depend_on_the_seed():
    keys = []
    for seed in (1, 2):
        proc = _run("--workload", "census", "--seed", str(seed), "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        keys.append(list(json.loads(proc.stdout.splitlines()[-1])["metrics"]))
    assert keys[0] == keys[1] == list(_units("end_to_end"))


def test_failed_output_check_fails_the_run():
    # Every retrieval reads back the wrong pattern.
    code = (
        "import runpy, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import kuramem\n"
        "real = kuramem.retrieve\n"
        "def wrong(*a, **k):\n"
        "    bits, diag = real(*a, **k)\n"
        "    return ''.join('1' if b == '0' else '0' for b in bits), diag\n"
        "kuramem.retrieve = wrong\n"
        f"sys.argv = [{str(HERE / 'run.py')!r}, '--workload', 'recall', '--seed', '0',"
        " '--seconds', '0.5', '--size', 'small']\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600, cwd=ROOT)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "check failed" in proc.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "audit", "--seed", "0",
                script=tmp_path / HERE.name / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_books_its_own_cost_and_shows_untraced_time():
    sys.path.insert(0, str(HERE))
    from tracing import TRACE, Tracer

    tracer = Tracer()
    leaf = tracer._wrap_leaf("lib.leaf", lambda: None)
    span = tracer._wrap_span("lib.span", lambda: [leaf() for _ in range(1000)])
    tracer.op = 0
    run = tracer.begin("bench.run")
    span()
    time.sleep(0.01)    # work no wrapper sees
    tracer.end(run)
    selfs = tracer.self_seconds(in_ops=True)
    # One booking per leaf call and one for the span.
    assert tracer.leaf_calls()[TRACE] == 1001 and selfs[TRACE] > 0
    # The untraced sleep stays with the caller, not with a library layer.
    assert selfs["bench.run"] >= 0.01
    assert selfs["lib.span"] + selfs["lib.leaf"] < 0.01
    # The library span's inclusive time leaves out the bookkeeping inside it.
    rec = tracer.spans[1]
    assert tracer.inclusive_seconds()["lib.span"] == pytest.approx(rec[2] - rec[1] - rec[6])
    assert 0 < rec[6] < rec[2] - rec[1]
