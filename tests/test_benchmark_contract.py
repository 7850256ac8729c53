"""The benchmark's contract with the package, checked on a short run.

``perfbench/child.py`` patches package names where their callers look
them up and checks every CSV artifact against ``perfbench/digests.json``.
A full traced child per workload therefore fails when a refactor drops
a traced name or changes an artifact byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("grid-train-preorder", "grid-train-scalar", "grid-evaluate-report")


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
