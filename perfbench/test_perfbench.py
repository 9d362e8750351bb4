"""Self-tests of the benchmark, on the tiny size of each workload.

    python3 -m pytest perfbench

They check the output contract against BENCHMARK.json, that a corrupted
reference value is counted as a failed job (not ignored, not a crash), that
the traced self times add up to the traced cycle time, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int = 0, refs: Path | None = None, root: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    return out


def spec_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_and_reports_end_to_end(workload):
    out = result(run(workload))
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec_units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_that_add_up(workload):
    out = result(run(workload, trace=1))
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == spec_units("per_layer")
    self_times = sum(v["value"] for k, v in metrics.items() if k.endswith((".s", ".self_s")))
    # The root span of each cycle is a bench span, so self times partition
    # the cycle; the small remainder is the loop around the root span.
    assert self_times == pytest.approx(metrics["trace.wall_s"]["value"], rel=0.05)


CORRUPTIONS = {
    "exact-oracle": lambda refs: refs["tiny"]["bfs"]["hist"].__setitem__(1, 99),
    "envelope-cube": lambda refs: refs["tiny"]["cube"].__setitem__("ratio_hi", 1.0),
    "formula-drift": lambda refs: [rec["means"].__setitem__(3, 0.5) for rec in refs["tiny"]["drift"].values()],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failed(workload, tmp_path):
    refs = json.loads((HERE / "refs.json").read_text())
    CORRUPTIONS[workload](refs)
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(refs))
    out = result(run(workload, refs=path))
    assert not out["correct"]
    assert 0 < out["failed"] <= out["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children_and_generator_steps():
    tracer = Tracer()

    def items():
        yield from range(3)

    child = tracer.wrap(lambda: None, "child")
    gen = tracer.wrap_iter(items, "gen")

    def parent():
        child()
        return list(gen())

    traced_parent = tracer.wrap(parent, "parent")
    assert traced_parent() == [0, 1, 2]
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["child"].parent == by_name["parent"].id
    assert by_name["gen"].parent == by_name["parent"].id
    assert tracer.counts()["gen"] == {"items": 3}
    self_times = tracer.self_times()
    assert sum(self_times.values()) == pytest.approx(by_name["parent"].busy)
    assert self_times["parent"] == pytest.approx(
        by_name["parent"].busy - by_name["child"].busy - by_name["gen"].busy)
