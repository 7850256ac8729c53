"""Artifact layout and CSV contracts of the run orchestration."""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from preorder_rl import learner
from preorder_rl.artifacts import SCORE_HEADER, load_scores, read_rows, write_rows
from preorder_rl.comparators import ComparatorConfig, QuantileMatrix
from preorder_rl.config import config_hash, parse_config
from preorder_rl.errors import ConfigError, MissingArtifact, ShapeMismatch
from preorder_rl.preorder import build_graph
from preorder_rl.runner import (
    artifact_dir,
    run_compare,
    run_dir,
    run_evaluate,
    run_select,
    run_stats,
    run_train,
)
from preorder_rl.selection import global_leaf_survivors, select


def bandit_raw() -> dict:
    return {
        "schema_version": 1,
        "env": {"name": "conflict-bandit", "episode_cap": 1},
        "preorder": {"n_objectives": 2, "edges": [[0, 1]]},
        "learner": {"gammas": 0.9, "epsilon_start": 1.0, "epsilon_end": 0.2,
                    "epsilon_decay_episodes": 40},
        "episodes": 60,
        "seeds": [0, 1],
        "eval_runs": 2,
        "eval_episodes": 30,
        "variants": [
            {"label": "pr", "comparator": {"kind": "qd", "epsilon": 0.1}},
            {"label": "ws", "mode": "weighted-sum", "weights": [1, 1],
             "training_preorder": False},
        ],
    }


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def run_space(tmp_path_factory) -> tuple:
    out = tmp_path_factory.mktemp("runs")
    config = parse_config(bandit_raw())
    base = run_train(config, out)
    run_evaluate(config, out)
    run_compare(config, out)
    return config, out, base


def test_artifact_layout(run_space) -> None:
    config, out, base = run_space
    assert base == run_dir(config, out)
    assert base.name == config_hash({k: v for k, v in config.raw.items()
                                     if k not in ("seeds", "eval_runs", "eval_episodes")})
    for label in ("pr", "ws"):
        for seed in (0, 1):
            target = artifact_dir(config, out, label, seed)
            assert target == base / label / str(seed)
            assert (target / "tensor.csv").is_file()
            assert (target / "episodes.csv").is_file()


def test_evaluation_budget_and_seeds_reuse_the_trained_tensors(tmp_path) -> None:
    raw = bandit_raw()
    raw.update(seeds=[0], eval_runs=1)
    config = parse_config(raw)
    base = run_train(config, tmp_path)
    raw.update(seeds=[0, 5], eval_runs=2, eval_episodes=7)
    wider = parse_config(raw)
    assert run_dir(wider, tmp_path) == base
    run_evaluate(wider, tmp_path, seeds=[0])
    _, rows = read_csv(base / "evaluate.csv")
    assert [row[:3] for row in rows] == [["pr", "0", "0"], ["pr", "0", "1"],
                                         ["ws", "0", "0"], ["ws", "0", "1"]]
    raw["episodes"] += 1
    assert run_dir(parse_config(raw), tmp_path) != base


def test_config_snapshot_is_canonical(run_space) -> None:
    config, _, base = run_space
    text = (base / "config.json").read_text()
    keyed = {k: v for k, v in config.raw.items()
             if k not in ("seeds", "eval_runs", "eval_episodes")}
    assert text == json.dumps(keyed, indent=2, sort_keys=True) + "\n"


def test_config_snapshot_holds_the_key_after_a_wider_evaluation(tmp_path) -> None:
    raw = bandit_raw()
    raw.update(seeds=[0], eval_runs=1)
    base = run_train(parse_config(raw), tmp_path)
    raw.update(eval_runs=2)
    wider = parse_config(raw)
    run_evaluate(wider, tmp_path)
    _, rows = read_csv(base / "evaluate.csv")
    assert {row[2] for row in rows} == {"0", "1"}
    snapshot = json.loads((base / "config.json").read_text())
    assert not {"seeds", "eval_runs", "eval_episodes"} & set(snapshot)
    assert config_hash(snapshot) == run_dir(wider, tmp_path).name == base.name


def test_evaluate_summary_layout(run_space) -> None:
    config, _, base = run_space
    header, rows = read_csv(base / "evaluate.csv")
    assert header == ["variant", "seed", "run", "success_rate", "collision_rate",
                      "offroad_rate", "progress", "return_0", "return_1"]
    assert len(rows) == 2 * 2 * 2
    for row in rows:
        assert row[0] in ("pr", "ws")
        assert int(row[1]) in (0, 1) and int(row[2]) in (0, 1)
        for value in row[3:7]:
            assert 0.0 <= float(value) <= 1.0

    score_header, score_rows = read_csv(base / "scores.csv")
    assert score_header == ["algorithm", "seed", "run", "score"]
    assert [r[:3] for r in score_rows] == [r[:3] for r in rows]
    assert [r[3] for r in score_rows] == [r[3] for r in rows]


def test_evaluate_is_deterministic(run_space) -> None:
    config, out, base = run_space
    before = (base / "evaluate.csv").read_bytes()
    run_evaluate(config, out)
    assert (base / "evaluate.csv").read_bytes() == before


def test_evaluation_filters_each_state_once_per_tensor(run_space, monkeypatch) -> None:
    # eval_runs is 2, and every run of one frozen tensor shares its filter results.
    config, out, _ = run_space
    requested, filtered = [], []
    matrices, select_fn = learner.QuantileTensor.matrices, learner.select

    def recording_matrices(tensor, state):
        requested.append((tensor, state))
        return matrices(tensor, state)

    def counting_select(*args, **kwargs):
        filtered.append(requested.pop())
        return select_fn(*args, **kwargs)

    monkeypatch.setattr(learner.QuantileTensor, "matrices", recording_matrices)
    monkeypatch.setattr(learner, "select", counting_select)
    run_evaluate(config, out)
    # The tensors stay referenced in ``filtered``, so their ids are distinct.
    counts = Counter((id(tensor), state) for tensor, state in filtered)
    assert counts and max(counts.values()) == 1


def test_compare_aggregates_evaluation(run_space) -> None:
    config, _, base = run_space
    _, eval_rows = read_csv(base / "evaluate.csv")
    header, rows = read_csv(base / "ablation.csv")
    assert header == ["variant", "mode", "comparator", "epsilon", "training_preorder",
                      "success_rate", "collision_rate", "offroad_rate", "progress"]
    assert [r[0] for r in rows] == ["pr", "ws"]
    assert rows[0][1:5] == ["preorder", "qd", "0.1", "1"]
    assert rows[1][1:5] == ["weighted-sum", "qd", "0.0", "0"]
    for row in rows:
        sample = [r for r in eval_rows if r[0] == row[0]]
        expected = np.mean([[float(v) for v in r[3:7]] for r in sample], axis=0)
        assert np.allclose([float(v) for v in row[5:]], expected)


def test_compare_reports_reward_deltas(run_space) -> None:
    config, _, base = run_space
    header, rows = read_csv(base / "rewards.csv")
    assert header == ["variant", "return_0", "return_1", "delta_pct_0", "delta_pct_1"]
    by_label = {r[0]: r for r in rows}
    ws = [float(v) for v in by_label["ws"][1:3]]
    pr = [float(v) for v in by_label["pr"][1:3]]
    assert [float(v) for v in by_label["ws"][3:]] == [0.0, 0.0]
    for delta, value, ref in zip(by_label["pr"][3:], pr, ws):
        expected = 100.0 * (value - ref) / abs(ref) if abs(ref) > 1e-12 else 0.0
        assert float(delta) == pytest.approx(expected)


def test_compare_renders_text_table(run_space) -> None:
    _, _, base = run_space
    lines = (base / "ablation.txt").read_text().splitlines()
    assert lines[0].startswith("variant")
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 2 + 2
    assert lines[2].startswith("pr") and lines[3].startswith("ws")


def test_train_accepts_seed_subset(tmp_path) -> None:
    config = parse_config(bandit_raw())
    base = run_train(config, tmp_path, seeds=[7])
    assert (base / "pr" / "7" / "tensor.csv").is_file()
    assert not (base / "pr" / "0").exists()


@pytest.mark.parametrize(("kwargs", "message"), [
    ({"seeds": (-1,)}, "seeds: expected a non-empty list of ints >= 0"),
    ({"seeds": (0, 0)}, "seeds: duplicate seeds"),
    ({"seeds": ()}, "seeds: expected a non-empty list of ints >= 0"),
    ({"jobs": 0}, "jobs: must be >= 1, got 0"),
    # 2.5 wrote config.json before a bare TypeError, and True trained serially.
    ({"jobs": 2.5}, "jobs must be one integer, got 2.5"),
    ({"jobs": True}, "jobs must be one integer, got True")],
    ids=["negative-seed", "duplicate-seeds", "no-seeds", "zero-jobs", "float-jobs", "bool-jobs"])
def test_train_rejects_bad_seeds_and_jobs_before_writing(tmp_path, kwargs, message) -> None:
    # Library callers get the rules the config and the CLI apply.
    config = parse_config(bandit_raw())
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        run_train(config, tmp_path, **kwargs)
    assert list(tmp_path.iterdir()) == []


def test_evaluate_rejects_duplicate_seeds_before_writing(tmp_path) -> None:
    config = parse_config(bandit_raw())
    base = run_train(config, tmp_path)
    trained = sorted(tmp_path.rglob("*"))
    with pytest.raises(ConfigError, match="^seeds: duplicate seeds"):
        run_evaluate(config, tmp_path, seeds=(0, 0))
    assert sorted(tmp_path.rglob("*")) == trained
    assert not (base / "evaluate.csv").exists()


def test_parallel_training_matches_serial(tmp_path) -> None:
    config = parse_config(bandit_raw())
    serial = run_train(config, tmp_path / "serial")
    parallel = run_train(config, tmp_path / "parallel", jobs=2)
    for label in ("pr", "ws"):
        for seed in (0, 1):
            rel = Path(label) / str(seed) / "tensor.csv"
            assert (parallel / rel).read_bytes() == (serial / rel).read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_first_pair_leaves_no_run_directory(tmp_path, jobs) -> None:
    # config.json used to be written before the first pair trained, so a
    # diverging run left a key directory holding no tensor.
    raw = bandit_raw()
    raw["learner"]["learning_rate"] = 1e308
    raw["seeds"], raw["variants"] = [0], raw["variants"][:1]
    config = parse_config(raw)
    with pytest.raises(ValueError, match=r"^variant pr, seed 0: episode \d+: "):
        run_train(config, tmp_path, jobs=jobs)
    assert list(tmp_path.iterdir()) == []


def test_importing_the_runner_leaves_multiprocessing_unloaded() -> None:
    # Serial runs never start a pool, so they should not pay its imports.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, preorder_rl.runner; "
            "sys.exit('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr or "multiprocessing was imported"


def test_evaluate_requires_trained_tensor(tmp_path) -> None:
    config = parse_config(bandit_raw())
    with pytest.raises(MissingArtifact):
        run_evaluate(config, tmp_path)


def test_compare_requires_evaluation(tmp_path) -> None:
    config = parse_config(bandit_raw())
    with pytest.raises(MissingArtifact, match="run evaluate first"):
        run_compare(config, tmp_path)


def test_compare_names_the_line_of_a_non_numeric_evaluation_cell(run_space, tmp_path) -> None:
    config, _, base = run_space
    header, rows = read_csv(base / "evaluate.csv")
    rows[1][-1] = "n/a"
    target = run_dir(config, tmp_path) / "evaluate.csv"
    target.parent.mkdir(parents=True)
    target.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    with pytest.raises(ShapeMismatch, match=r"evaluate\.csv, line 3: .*'n/a'"):
        run_compare(config, tmp_path)


def test_select_writes_survivor_table(tmp_path) -> None:
    graph = build_graph(2, [(0, 1)])
    matrices = [
        QuantileMatrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])),
        QuantileMatrix(np.array([[0.5, 1.0, 0.0], [0.5, 1.0, 0.0]])),
    ]
    comparator = ComparatorConfig("qd", epsilon=0.2)
    path = run_select(graph, matrices, comparator, tmp_path)
    header, rows = read_csv(path)
    assert header == ["objective", "actions"]
    assert [r[0] for r in rows] == ["0", "1", "global"]

    state = select(graph, matrices, comparator)
    for obj in range(2):
        expected = sorted(state.survivors[obj])
        assert [int(v) for v in rows[obj][1].split()] == expected
    leaf = sorted(global_leaf_survivors(state, graph))
    assert [int(v) for v in rows[2][1].split()] == leaf


def test_load_scores_groups_by_algorithm(tmp_path) -> None:
    path = tmp_path / "scores.csv"
    path.write_text("algorithm,seed,run,score\n"
                    "a,0,0,1.0\na,0,1,3.0\nb,0,0,2.0\n")
    grouped = load_scores(path)
    assert sorted(grouped) == ["a", "b"]
    assert np.array_equal(grouped["a"], [1.0, 3.0])
    assert np.array_equal(grouped["b"], [2.0])

    with pytest.raises(MissingArtifact, match="no score file"):
        load_scores(tmp_path / "absent.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("name,value\nx,1\n")
    with pytest.raises(ShapeMismatch, match="expected header"):
        load_scores(bad)
    short = tmp_path / "short.csv"
    short.write_text("algorithm,seed,run,score\na,0,0,1.0\na,0\n")
    with pytest.raises(ShapeMismatch, match="line 3"):
        load_scores(short)


def test_only_the_artifacts_module_imports_csv() -> None:
    package = Path(__file__).resolve().parents[1] / "src" / "preorder_rl"
    importers = [path.name for path in sorted(package.glob("*.py"))
                 if re.search(r"^\s*(import csv\b|from csv import)", path.read_text(), re.M)]
    assert importers == ["artifacts.py"]


def scores_fixture(tmp_path: Path) -> Path:
    path = tmp_path / "scores.csv"
    rows = [("a", i, 0, s) for i, s in enumerate((0.0, 0.25, 0.5, 0.75))]
    rows += [("b", i, 0, 0.5) for i in range(4)]
    path.write_text("algorithm,seed,run,score\n"
                    + "".join(f"{n},{s},{r},{v}\n" for n, s, r, v in rows))
    return path


def test_stats_summary_values(tmp_path) -> None:
    summary = run_stats(scores_fixture(tmp_path), tmp_path, seed=3, n_resamples=200)
    header, rows = read_csv(summary)
    assert header == ["algorithm", "n", "iqm", "iqm_lo", "iqm_hi",
                      "opt_gap", "opt_gap_lo", "opt_gap_hi"]
    assert [r[0] for r in rows] == ["a", "b"]
    a, b = rows
    assert int(a[1]) == 4 and int(b[1]) == 4
    assert float(a[2]) == pytest.approx(0.375)
    assert float(a[5]) == pytest.approx(0.625)
    assert float(b[2]) == pytest.approx(0.5)
    assert float(b[3]) == 0.5 and float(b[4]) == 0.5
    for row in rows:
        assert float(row[3]) <= float(row[2]) <= float(row[4])
        assert float(row[6]) <= float(row[5]) <= float(row[7])


def test_stats_probability_pairs(tmp_path) -> None:
    run_stats(scores_fixture(tmp_path), tmp_path, n_resamples=100)
    header, rows = read_csv(tmp_path / "prob_improvement.csv")
    assert header == ["algorithm_x", "algorithm_y", "prob"]
    probs = {(r[0], r[1]): float(r[2]) for r in rows}
    assert probs[("a", "b")] == pytest.approx(0.375)
    assert probs[("b", "a")] == pytest.approx(0.625)


def test_stats_gap_target(tmp_path) -> None:
    run_stats(scores_fixture(tmp_path), tmp_path, n_resamples=100, gap_target=0.5)
    _, rows = read_csv(tmp_path / "stats_summary.csv")
    assert float(rows[0][5]) == pytest.approx(0.1875)
    assert float(rows[1][5]) == pytest.approx(0.0)


def test_stats_outputs_are_deterministic(tmp_path) -> None:
    scores = scores_fixture(tmp_path)
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_stats(scores, first, seed=9, n_resamples=150)
    run_stats(scores, second, seed=9, n_resamples=150)
    for name in ("stats_summary.csv", "prob_improvement.csv", "stats.svg"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    svg = (first / "stats.svg").read_text()
    assert svg.startswith("<svg") and "score IQM, 95% CI" in svg


def test_load_scores_names_the_line_of_a_non_numeric_score(tmp_path) -> None:
    path = tmp_path / "scores.csv"
    path.write_text("algorithm,seed,run,score\na,0,0,1.0\na,0,1,x\n")
    with pytest.raises(ShapeMismatch, match=r"scores\.csv, line 3: .*'x'"):
        load_scores(path)


def test_csv_errors_name_the_physical_line_after_a_lone_cr(tmp_path) -> None:
    # csv ends a record at a lone \r too, but only \n starts a new line.
    path = tmp_path / "scores.csv"
    path.write_bytes(b"algorithm,seed,run,score\r\na,0,0,1.0\ra,0,1,x\r\n")
    with pytest.raises(ShapeMismatch, match=r"scores\.csv, line 2: .*'x'"):
        load_scores(path)


@pytest.mark.parametrize("bad, error, message", [
    (["z", 0, 2, float("nan")], ValueError, "scores must be finite"),
    (["z", 0, 2, "x"], ShapeMismatch, "could not convert"),
    (["z", 0, 2], ShapeMismatch, "expected 4 fields, got 3"),
])
def test_quoted_line_breaks_read_back_and_keep_line_numbers_physical(
        tmp_path, bad, error, message) -> None:
    # A label may hold \r or \n (config labels reject only spaces and
    # slashes); write_rows quotes the cell and read_rows gives it back.
    path = tmp_path / "scores.csv"
    rows = [["a\rb", 0, 0, 1.0], ["c\nd\r\ne", 0, 1, 2.0]]
    write_rows(path, SCORE_HEADER, rows)
    assert read_rows(path, "score file")[1] == [[str(cell) for cell in row] for row in rows]
    assert set(load_scores(path)) == {"a\rb", "c\nd\r\ne"}
    write_rows(path, SCORE_HEADER, rows + [bad])
    # Lines: header, the "a\rb" row, three for the "c\nd\r\ne" row, then the bad row.
    with pytest.raises(error, match=rf"scores\.csv, line 6: {message}"):
        load_scores(path)


def test_evaluate_progress_is_the_same_left_fold_on_every_python(tmp_path) -> None:
    # Every episode on a 3-state chain capped at 2 steps ends at progress
    # 2/3.  Ten of them fold left to right to 6.666666666666667, as Python
    # 3.11's sum does; from 3.12 on, sum compensates and gives ...666.
    config = parse_config({
        "schema_version": 1,
        "env": {"name": "chain-mdp", "episode_cap": 2, "params": {"length": 3}},
        "preorder": {"n_objectives": 1}, "learner": {"gammas": 0.9}, "episodes": 1,
        "seeds": [0], "eval_runs": 1, "eval_episodes": 10, "variants": [{"label": "pr"}]})
    run_train(config, tmp_path)
    header, rows = read_csv(run_evaluate(config, tmp_path))
    assert [row[header.index("progress")] for row in rows] == ["0.6666666666666667"]
