"""Smoke test of the benchmark at its smallest size (one round per phase).

    python3 -m pytest perfbench/tests

Each workload runs once untraced and once traced.  The test checks that
every metric BENCHMARK.json names is printed with its unit, that tracing
leaves the program's outputs byte-identical, and that nothing under src/
changes.  A last test checks that the benchmark refuses to run, without
printing a result, when the sources are missing.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def src_state() -> dict:
    return {
        str(p.relative_to(ROOT)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((ROOT / "src").rglob("*"))
        if p.is_file() and "__pycache__" not in p.parts
    }


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def printed(proc: subprocess.CompletedProcess, group: str) -> list[str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
    for m in SPEC[group]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert any(line.split()[:2] == ["metric", m["name"]] and line.split()[3] == m["unit"]
                   for line in lines), m["name"]
    return lines


# Every workload run.py offers; BENCHMARK.json lists only `sweep` and `cli`.
@pytest.mark.parametrize("workload", ["basis", "sweep", "classify", "cli"])
def test_workload_prints_every_metric_and_tracing_changes_no_output(workload):
    before = src_state()
    untraced = printed(bench(ROOT, workload, 0), "end_to_end")
    traced = printed(bench(ROOT, workload, 1), "per_layer")
    assert src_state() == before

    def digest(lines):
        return next(line for line in lines if line.startswith("outputs_sha256 "))

    assert digest(untraced) == digest(traced)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
