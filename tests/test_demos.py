"""Every quick demo and every README example runs against the current package,
the README module table lists every module, and the export list resolves.

``demos/05_crossing_the_grid.py`` trains on the crossing grid for about
20 s and is left out.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import preorder_rl
from preorder_rl.cli import _build_parser
from preorder_rl.config import parse_config

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


def _readme_blocks(language: str) -> list[str]:
    # Fences pair up in order, so a closing fence never opens a block.
    text = (ROOT / "README.md").read_text()
    return [body for lang, body in re.findall(r"^```(\w*)\n(.*?)^```", text, re.S | re.M)
            if lang == language]


def test_readme_examples_match_the_package() -> None:
    (quickstart,) = _readme_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart, "README.md", "exec"), {})
    assert out.getvalue()

    (run_config,) = _readme_blocks("json")
    config = parse_config(json.loads(run_config))
    assert [v.label for v in config.variants] == ["priority", "weighted"]

    commands = [line for block in _readme_blocks("")
                for line in block.splitlines() if line.startswith("preorder-rl ")]
    assert {shlex.split(line)[1] for line in commands} == {
        "train", "evaluate", "compare", "select", "stats"}
    parser = _build_parser()
    for line in commands:
        # Drop the [optional] brackets the synopsis uses; keep the flags inside.
        argv = shlex.split(re.sub(r"[\[\]]", "", line))[1:]
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_readme_module_table_lists_every_module() -> None:
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\|", text, re.M)
    modules = {path.stem for path in (ROOT / "src" / "preorder_rl").glob("*.py")}
    assert len(rows) == len(set(rows))
    assert set(rows) == modules - {"__init__", "__main__"}


def test_every_exported_name_resolves() -> None:
    # A star import fails on an __all__ entry the package no longer defines.
    namespace: dict = {}
    exec("from preorder_rl import *", namespace)
    assert len(preorder_rl.__all__) == len(set(preorder_rl.__all__))
    for name in preorder_rl.__all__:
        assert hasattr(preorder_rl, name), name
        assert namespace[name] is getattr(preorder_rl, name)
