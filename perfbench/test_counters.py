"""Checks of the benchmark itself (not part of the package's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_counters.py

Each workload is run twice, traced, with the same seed: the exact work
counters of the warm-up cycle must repeat bit for bit. The metric names
a run prints must be the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(command, check=True, capture_output=True, text=True, cwd=ROOT, timeout=600)
    final = json.loads(out.stdout.splitlines()[-1])
    result = ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return final, json.loads(result.read_text())


@pytest.mark.parametrize("workload", ["dense-sweep", "scalar-eval", "entangle-pipeline"])
def test_counters_repeat_exactly(workload: str) -> None:
    first_final, first = _run(workload, 7, trace=1)
    _, second = _run(workload, 7, trace=1)
    assert first_final["correct"] and first_final["failed"] == 0
    assert first["counters"] == second["counters"]
    assert any(value > 0 for value in first["counters"].values())
    assert list(first_final["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_end_to_end_names_and_units() -> None:
    final, _ = _run(SPEC["workloads"][0]["name"], 7, trace=0)
    assert final["correct"] and final["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in final["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in final["metrics"].values())
