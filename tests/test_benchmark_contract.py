"""The benchmark's contract with the package, checked on a short run.

``perfbench/child.py`` patches package names where their callers look
them up and checks every CSV artifact against ``perfbench/digests.json``.
A full traced child per workload therefore fails when a refactor drops
a traced name, stops calling a live one or changes an artifact byte.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_acceptance import GRID_CONFIG

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("grid-train-preorder", "grid-train-scalar", "grid-evaluate-report")
# Traced names the package no longer calls on each workload.  A live hot
# call that moves off its traced name loses its per-layer numbers and
# shows up in ``uncovered``; this keeps that from passing unnoticed.
_OLD_SCORERS = [f"comparators.{fn}.{kind}" for fn in ("classify_pairs", "action_scores")
                for kind in ("qd", "cvar", "mv")]
DEAD_SPANS = {
    "grid-train-preorder": {"comparators.zscore_normalize", *_OLD_SCORERS},
    "grid-train-scalar": set(),
    "grid-evaluate-report": {"comparators.zscore_normalize", "comparators.classify_pairs.qd",
                             "comparators.action_scores.qd"},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_child_matches_digests(workload, tmp_path) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
         "--phase", "full", "--trace", "1", "--work", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert set(result["uncovered"]) <= DEAD_SPANS[workload]


def test_benchmark_grid_config_is_the_acceptance_grid_config(monkeypatch) -> None:
    # The workloads scale only the episode and seed counts of this config,
    # so a setting changed in one copy alone would time another run.
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # Registered while it runs: its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.GRID_CONFIG == GRID_CONFIG
