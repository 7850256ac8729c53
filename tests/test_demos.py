"""Every quick demo runs to completion against the current package.

``demos/05_crossing_the_grid.py`` trains on the crossing grid for about
20 s and is left out.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_priority_graphs", "02_comparing_quantile_profiles",
         "03_filtering_down_the_hierarchy", "04_training_on_the_bandit",
         "06_run_lifecycle_and_stats")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path) -> None:
    # TMPDIR keeps the run directory demo 06 creates inside tmp_path.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
