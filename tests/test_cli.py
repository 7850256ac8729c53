"""Exit codes and artifact flow of the command-line interface."""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from preorder_rl import runner
from preorder_rl.cli import EXIT_CONFIG, EXIT_MISSING, EXIT_OK, EXIT_SHAPE, _build_parser, main
from preorder_rl.artifacts import save_quantile_csv
from preorder_rl.comparators import ComparatorConfig, QuantileMatrix, midpoint_fractions
from preorder_rl.config import parse_config
from preorder_rl.preorder import MAX_OBJECTIVES, build_graph
from preorder_rl.runner import run_stats
from preorder_rl.selection import select


def write_config(tmp_path: Path, **overrides) -> Path:
    raw = {
        "schema_version": 1,
        "env": {"name": "conflict-bandit", "episode_cap": 1},
        "preorder": {"n_objectives": 2, "edges": [[0, 1]]},
        "learner": {"gammas": 0.9, "epsilon_start": 1.0, "epsilon_end": 0.2,
                    "epsilon_decay_episodes": 30},
        "episodes": 40,
        "seeds": [0],
        "eval_runs": 1,
        "eval_episodes": 20,
        "variants": [{"label": "pr", "comparator": {"kind": "qd", "epsilon": 0.1}}],
    }
    raw.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return path


def test_train_evaluate_compare_lifecycle(tmp_path, capsys) -> None:
    config = write_config(tmp_path)
    out = tmp_path / "out"

    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert "trained 1 variant(s)" in capsys.readouterr().out
    runs = list(out.iterdir())
    assert len(runs) == 1
    assert (runs[0] / "pr" / "0" / "tensor.csv").is_file()

    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert "evaluate.csv" in capsys.readouterr().out
    assert (runs[0] / "scores.csv").is_file()

    assert main(["compare", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert "ablation.csv" in capsys.readouterr().out
    assert (runs[0] / "rewards.csv").is_file()
    assert (runs[0] / "ablation.txt").is_file()

    scores = runs[0] / "scores.csv"
    stats_out = tmp_path / "stats"
    code = main(["stats", "--scores", str(scores), "--out", str(stats_out),
                 "--resamples", "100"])
    assert code == EXIT_OK
    assert (stats_out / "stats_summary.csv").is_file()
    assert (stats_out / "prob_improvement.csv").is_file()
    assert (stats_out / "stats.svg").is_file()


def test_pipeline_rerun_is_byte_identical(tmp_path) -> None:
    config = write_config(tmp_path)
    products = ["evaluate.csv", "scores.csv", "ablation.csv", "rewards.csv"]
    snapshots = []
    for name in ("first", "second"):
        out = tmp_path / name
        main(["train", "--config", str(config), "--out", str(out)])
        main(["evaluate", "--config", str(config), "--out", str(out)])
        main(["compare", "--config", str(config), "--out", str(out)])
        run = next(out.iterdir())
        snapshot = {p: (run / p).read_bytes() for p in products}
        snapshot["tensor"] = (run / "pr" / "0" / "tensor.csv").read_bytes()
        snapshots.append(snapshot)
    assert snapshots[0] == snapshots[1]


def test_train_seed_override(tmp_path) -> None:
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out),
                 "--seeds", "5,6"]) == EXIT_OK
    run = next(out.iterdir())
    assert (run / "pr" / "5").is_dir() and (run / "pr" / "6").is_dir()
    assert not (run / "pr" / "0").exists()


@pytest.mark.parametrize("seeds", ["0,0", "-1"])
def test_bad_seed_override_exits_2_before_anything_is_written(tmp_path, capsys, seeds) -> None:
    # --seeds follows the config.seeds rule: unique ints >= 0.
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", "--config", str(config), "--out", str(out),
                 f"--seeds={seeds}"]) == EXIT_CONFIG
    assert "--seeds: " in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
    trained = sorted(out.rglob("*"))
    assert main(["evaluate", "--config", str(config), "--out", str(out),
                 f"--seeds={seeds}"]) == EXIT_CONFIG
    assert "--seeds: " in capsys.readouterr().err
    assert sorted(out.rglob("*")) == trained


def test_select_filters_quantile_files(tmp_path, capsys) -> None:
    graph_file = tmp_path / "preorder.json"
    graph_file.write_text(json.dumps({"n_objectives": 2, "edges": [[0, 1]]}))
    matrices = [
        QuantileMatrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])),
        QuantileMatrix(np.array([[0.5, 1.0, 0.0], [0.5, 1.0, 0.0]])),
    ]
    paths = []
    for i, matrix in enumerate(matrices):
        path = tmp_path / f"objective_{i}.csv"
        save_quantile_csv(matrix, path)
        paths.append(str(path))

    out = tmp_path / "out"
    code = main(["select", *paths, "--preorder", str(graph_file),
                 "--out", str(out), "--epsilon", "0.2"])
    assert code == EXIT_OK
    assert "survivors.csv" in capsys.readouterr().out

    graph = build_graph(2, [(0, 1)])
    state = select(graph, matrices, ComparatorConfig("qd", epsilon=0.2))
    lines = (out / "survivors.csv").read_text().splitlines()
    for obj in range(2):
        _, actions = lines[1 + obj].split(",")
        assert [int(v) for v in actions.split()] == sorted(state.survivors[obj])


def test_config_problems_exit_2(tmp_path, capsys) -> None:
    out = str(tmp_path / "out")
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", out]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["train", "--config", str(broken), "--out", out]) == EXIT_CONFIG

    bad = write_config(tmp_path, episodes=0)
    assert main(["train", "--config", str(bad), "--out", out]) == EXIT_CONFIG

    config = write_config(tmp_path)
    assert main(["train", "--config", str(config), "--out", out,
                 "--jobs", "0"]) == EXIT_CONFIG
    assert main(["train", "--config", str(config), "--out", out,
                 "--seeds", "one,two"]) == EXIT_CONFIG
    assert main(["train", "--config", str(config), "--out", out,
                 "--seeds", ","]) == EXIT_CONFIG


@pytest.mark.parametrize(("block", "where"), [
    ((), "config"),
    (("env",), "env"),
    (("preorder",), "preorder"),
    (("learner",), "learner"),
    (("variants", 0), "variants[0]"),
    (("variants", 0, "comparator"), "variants[0].comparator"),
    (("variants", 0, "preorder"), "variants[0].preorder"),
    (None, "preorder")], ids=["config", "env", "preorder", "learner", "variant", "comparator",
                              "variant-preorder", "select-preorder-file"])
def test_unknown_fields_exit_2_naming_the_block(tmp_path, capsys, block, where) -> None:
    # A misspelt "edges" must not pass as a preorder with no edges.
    out = str(tmp_path / "out")
    if block is None:
        graph_file = tmp_path / "preorder.json"
        graph_file.write_text(json.dumps({"n_objectives": 2, "edge": [[0, 1]]}))
        matrix = tmp_path / "objective.csv"
        save_quantile_csv(QuantileMatrix(np.array([[1.0, 0.0]])), matrix)
        argv = ["select", str(matrix), str(matrix), "--preorder", str(graph_file), "--out", out]
    else:
        variant = {"label": "pr", "comparator": {"kind": "qd"},
                   "preorder": {"n_objectives": 2, "edges": [[0, 1]]}}
        config = write_config(tmp_path, variants=[variant])
        raw = json.loads(config.read_text())
        target = raw
        for key in block:
            target = target[key]
        target["edge"] = [[0, 1]]
        config.write_text(json.dumps(raw))
        argv = ["train", "--config", str(config), "--out", out]
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {where}: unknown fields ['edge']" in capsys.readouterr().err
    assert not Path(out).exists()


def test_dot_dot_label_exits_2_before_train_writes(tmp_path, capsys) -> None:
    # A label of ".." would put the variant's artifacts beside the run directory.
    config = write_config(tmp_path, variants=[{"label": ".."}])
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: variants[0].label" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(("case", "code"), [
    ("train-config-dir", EXIT_CONFIG), ("stats-scores-dir", EXIT_MISSING),
    ("select-dirs", EXIT_CONFIG), ("stats-out-file", EXIT_CONFIG),
    ("train-out-file", EXIT_CONFIG), ("train-out-under-file", EXIT_CONFIG)])
def test_a_path_of_the_wrong_kind_exits_with_its_code(tmp_path, capsys, monkeypatch, case,
                                                      code) -> None:
    trained = []
    monkeypatch.setattr(runner, "train", lambda *args: trained.append(args))
    folder = tmp_path / "folder"
    folder.mkdir()
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    scores = tmp_path / "scores.csv"
    scores.write_text("algorithm,seed,run,score\nonly,0,0,1.0\n")
    out = str(tmp_path / "out")
    argv = {"train-config-dir": ["train", "--config", str(folder), "--out", out],
            "stats-scores-dir": ["stats", "--scores", str(folder), "--out", out],
            "select-dirs": ["select", str(folder), "--preorder", str(folder), "--out", out],
            "stats-out-file": ["stats", "--scores", str(scores), "--out", str(plain)],
            "train-out-file": ["train", "--config", str(write_config(tmp_path)),
                               "--out", str(plain)],
            "train-out-under-file": ["train", "--config", str(write_config(tmp_path)),
                                     "--out", str(plain / "sub")]}[case]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("missing artifact: " if code == EXIT_MISSING
                          else ("config error: ", "path error: "))
    assert "Traceback" not in err
    assert trained == []


def test_missing_artifacts_exit_3(tmp_path, capsys) -> None:
    config = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["evaluate", "--config", str(config), "--out", out]) == EXIT_MISSING
    assert "missing artifact" in capsys.readouterr().err
    assert main(["compare", "--config", str(config), "--out", out]) == EXIT_MISSING

    graph_file = tmp_path / "preorder.json"
    graph_file.write_text(json.dumps({"n_objectives": 1}))
    assert main(["select", str(tmp_path / "absent.csv"), "--preorder", str(graph_file),
                 "--out", out]) == EXIT_MISSING
    assert main(["stats", "--scores", str(tmp_path / "absent.csv"),
                 "--out", out]) == EXIT_MISSING


def test_shape_problems_exit_4(tmp_path, capsys) -> None:
    graph_file = tmp_path / "preorder.json"
    graph_file.write_text(json.dumps({"n_objectives": 2, "edges": [[0, 1]]}))
    out = str(tmp_path / "out")

    malformed = tmp_path / "malformed.csv"
    malformed.write_text("a0,a1\n1.0,2.0\n")
    assert main(["select", str(malformed), str(malformed), "--preorder", str(graph_file),
                 "--out", out]) == EXIT_SHAPE
    assert "shape mismatch" in capsys.readouterr().err

    matrix = QuantileMatrix(np.array([[1.0, 0.0]]))
    single = tmp_path / "single.csv"
    save_quantile_csv(matrix, single)
    assert main(["select", str(single), "--preorder", str(graph_file),
                 "--out", out]) == EXIT_SHAPE

    short = tmp_path / "short_scores.csv"
    short.write_text("algorithm,seed,run,score\nonly,0\n")
    capsys.readouterr()
    assert main(["stats", "--scores", str(short), "--out", out]) == EXIT_SHAPE
    assert str(short) in capsys.readouterr().err

    misnamed = tmp_path / "misnamed_scores.csv"
    misnamed.write_text("algo,seed,run,score\nonly,0,0,1.0\n")
    assert main(["stats", "--scores", str(misnamed), "--out", out]) == EXIT_SHAPE
    assert "shape mismatch" in capsys.readouterr().err

    # A header alone once exited 2 with "nothing to plot".
    header_only = tmp_path / "header_only_scores.csv"
    header_only.write_text("algorithm,seed,run,score\n")
    assert main(["stats", "--scores", str(header_only), "--out", out]) == EXIT_SHAPE
    assert f"{header_only}: no score rows" in capsys.readouterr().err

    # Resampling by seed needs a valid seed column; a bad one once passed.
    bad_index = tmp_path / "bad_index_scores.csv"
    bad_index.write_text("algorithm,seed,run,score\na,0,0,0.5\na,1.5,-2,0.4\n")
    assert main(["stats", "--scores", str(bad_index), "--out", out]) == EXIT_SHAPE
    assert f"{bad_index}, line 3: seed must be an integer >= 0, got '1.5'" in (
        capsys.readouterr().err)

    config = write_config(tmp_path)
    evaluation = runner.run_dir(parse_config(json.loads(config.read_text())), out)
    evaluation.mkdir(parents=True)
    (evaluation / "evaluate.csv").write_text(
        "variant,seed,run,success_rate,collision_rate,offroad_rate,progress,return_0,return_1\n"
        "pr,x,-1.5,1.0,0.0,0.0,1.0,0.5,0.5\n")
    assert main(["compare", "--config", str(config), "--out", out]) == EXIT_SHAPE
    assert "evaluate.csv, line 2: seed must be an integer >= 0, got 'x'" in capsys.readouterr().err
    assert not (evaluation / "ablation.csv").exists()

    scores = tmp_path / "scores.csv"
    scores.write_text("algorithm,seed,run,score\nonly,0,0,1.0\n")
    stats_ok = main(["stats", "--scores", str(scores), "--out", out,
                     "--resamples", "99"])
    assert stats_ok == EXIT_CONFIG


@pytest.mark.parametrize(("flag", "message"), [
    ("--seed=-1", "seed: expected an integer >= 0, got -1"),
    ("--resamples=10", "n_resamples: expected an integer >= 100, got 10"),
    ("--gap-target=nan", "gap_target must be finite, got nan"),
    ("--resamples=1000000000000", "n_resamples: 1000000000000 resamples of 1 scores need "
     "16000000000000 bytes at peak, over the 1073741824-byte budget")])
def test_bad_stats_setting_exits_2_before_anything_is_written(tmp_path, capsys, flag,
                                                              message) -> None:
    scores = tmp_path / "scores.csv"
    scores.write_text("algorithm,seed,run,score\nonly,0,0,1.0\n")
    out = tmp_path / "out"
    assert main(["stats", "--scores", str(scores), "--out", str(out), flag]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_stats_flags_default_to_run_stats_defaults() -> None:
    args = _build_parser().parse_args(["stats", "--scores", "s.csv", "--out", "o"])
    defaults = {name: p.default for name, p in inspect.signature(run_stats).parameters.items()
                if p.default is not inspect.Parameter.empty}
    assert defaults == {"seed": args.seed, "n_resamples": args.resamples,
                        "gap_target": args.gap_target}


def test_non_numeric_cell_exits_4_naming_file_and_line(tmp_path, capsys) -> None:
    graph_file = tmp_path / "preorder.json"
    graph_file.write_text(json.dumps({"n_objectives": 1}))
    cell = tmp_path / "cell.csv"
    cell.write_text("tau,a0,a1\n0.5,abc,1.0\n")
    code = main(["select", str(cell), "--preorder", str(graph_file),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_SHAPE
    assert f"{cell}, line 2" in capsys.readouterr().err
    scores = tmp_path / "scores.csv"
    scores.write_text("algorithm,seed,run,score\na,0,0,x\n")
    assert main(["stats", "--scores", str(scores), "--out", str(tmp_path / "out")]) == EXIT_SHAPE
    assert f"{scores}, line 2" in capsys.readouterr().err


@pytest.mark.parametrize(("text", "exit_code", "message"), [
    ("tau,a0,a1\n0.5,nan,1.0\n", EXIT_CONFIG, "quantile values must be finite"),
    ("tau\n0.5\n", EXIT_SHAPE, "expected a (quantiles, actions) matrix")])
def test_bad_quantile_matrix_names_the_file(tmp_path, capsys, text, exit_code, message) -> None:
    graph_file = tmp_path / "preorder.json"
    graph_file.write_text(json.dumps({"n_objectives": 1}))
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(text)
    code = main(["select", str(matrix), "--preorder", str(graph_file),
                 "--out", str(tmp_path / "out")])
    assert code == exit_code
    assert f"{matrix}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("taus", [(0.75, 0.25), (0.05, 0.1, 0.15, 0.9)], ids=["reversed", "skewed"])
def test_tau_off_the_midpoints_exits_2_naming_file_and_line(tmp_path, capsys, taus) -> None:
    # The scorers assume midpoint fractions, so any other tau column is refused.
    graph_file = tmp_path / "preorder.json"
    graph_file.write_text(json.dumps({"n_objectives": 1}))
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("tau,a0,a1\n" + "".join(f"{tau},{tau},1.0\n" for tau in taus))
    out = tmp_path / "out"
    assert main(["select", str(matrix), "--preorder", str(graph_file),
                 "--out", str(out)]) == EXIT_CONFIG
    expected = midpoint_fractions(len(taus)).tolist()
    assert (f"config error: {matrix}, line 2: tau must be the midpoint fractions (2k-1)/2K, "
            f"{expected}, got {taus[0]}") in capsys.readouterr().err
    assert not out.exists()


def test_preorder_file_beyond_the_objective_bound_exits_2(tmp_path, capsys) -> None:
    graph_file = tmp_path / "preorder.json"
    graph_file.write_text(json.dumps({"n_objectives": MAX_OBJECTIVES + 1}))
    matrix = tmp_path / "matrix.csv"
    save_quantile_csv(QuantileMatrix(np.array([[1.0, 0.0]])), matrix)
    out = tmp_path / "out"
    assert main(["select", str(matrix), "--preorder", str(graph_file),
                 "--out", str(out)]) == EXIT_CONFIG
    assert (f"n_objectives must be <= {MAX_OBJECTIVES}, got {MAX_OBJECTIVES + 1}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_non_finite_score_exits_2_naming_file_and_line(tmp_path, capsys) -> None:
    scores = tmp_path / "scores.csv"
    scores.write_text("algorithm,seed,run,score\na,0,0,1.0\na,0,1,nan\n")
    assert main(["stats", "--scores", str(scores), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{scores}, line 3: scores must be finite" in capsys.readouterr().err


def test_overflowing_quantile_spread_exits_2(tmp_path, capsys) -> None:
    graph_file = tmp_path / "preorder.json"
    graph_file.write_text(json.dumps({"n_objectives": 1}))
    huge = tmp_path / "huge.csv"
    huge.write_text("tau,a0,a1\n0.25,1e300,-1e300\n0.75,1e300,-1e300\n")
    code = main(["select", str(huge), "--preorder", str(graph_file),
                 "--out", str(tmp_path / "out"), "--epsilon", "0.1"])
    assert code == EXIT_CONFIG
    assert "too large to standardize" in capsys.readouterr().err


def test_diverging_training_exits_2_naming_variant_seed_and_episode(tmp_path, capsys) -> None:
    config = write_config(tmp_path, env={"name": "chain-mdp"}, preorder={"n_objectives": 1},
                          learner={"gammas": 0.9, "learning_rate": 1e308,
                                   "initial_value": 1e308})
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "variant pr, seed 0: episode 0: " in err and "too large to standardize" in err
    assert not list(out.glob("*/pr"))


def test_objective_count_mismatch_fails_before_train_writes(tmp_path, capsys) -> None:
    config = write_config(tmp_path, preorder={"n_objectives": 5})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "objective counts disagree" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_unaddressable_quantile_count_exits_2_before_train_writes(tmp_path, capsys) -> None:
    # A valid integer, but its tensor is beyond numpy's index range.
    config = write_config(tmp_path, learner={"gammas": 0.9, "quantile_count": 10**400})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "quantile_count" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_chain_beyond_its_length_bound_exits_2_before_train_writes(tmp_path, capsys) -> None:
    # 2**61 states once passed as a length and were blamed on quantile_count.
    config = write_config(tmp_path, env={"name": "chain-mdp", "params": {"length": 2**61}},
                          preorder={"n_objectives": 1})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "length must be <= 1048576" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_non_scalar_env_param_exits_2_and_names_the_field(tmp_path, capsys) -> None:
    config = write_config(tmp_path, env={"name": "crossing-grid", "params": {"width": [1]}})
    code = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "env: width must be one integer" in capsys.readouterr().err


def test_boolean_env_param_exits_2_and_names_the_field(tmp_path, capsys) -> None:
    # JSON true is not a number: read as 1.0, a crash would pay.
    config = write_config(tmp_path, env={"name": "conflict-bandit", "episode_cap": 1,
                                         "params": {"crash_penalty": True}})
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "env: crash_penalty must be one real number" in err
    assert not out.exists()


@pytest.mark.parametrize(("overrides", "field"), [
    ({"env": {"name": "conflict-bandit", "params": {"crash_penalty": -10**400}}},
     "crash_penalty"),
    ({"learner": {"gammas": 0.9, "learning_rate": 10**400}}, "learner: learning_rate"),
    ({"learner": {"gammas": [0.9, -10**400]}}, "learner: gammas[1]"),
    ({"variants": [{"label": "pr", "comparator": {"epsilon": 10**400}}]},
     "variants[0].comparator: epsilon"),
    ({"variants": [{"label": "ws", "mode": "weighted-sum", "weights": [1, -10**400]}]},
     "variants[0]: weights[1]")],
    ids=["env-param", "learning-rate", "gamma", "comparator-epsilon", "weight"])
def test_huge_json_integer_exits_2_naming_the_field(tmp_path, capsys, overrides, field) -> None:
    # A valid JSON integer, but beyond float range: float() of it would overflow.
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_oversized_grid_exits_2_naming_the_side(tmp_path, capsys) -> None:
    # Accepted before the grid had a size bound; reset then looped over 10**400 rows.
    config = write_config(
        tmp_path, env={"name": "crossing-grid", "params": {"height": 10**400}},
        preorder={"n_objectives": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]})
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "env: height must be <= 256" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", float("nan")], ids=["string", "json-literal"])
def test_non_finite_env_param_exits_2_before_train_writes(tmp_path, capsys, value) -> None:
    # float("nan") is written as the JSON NaN literal, which json.loads accepts.
    config = write_config(
        tmp_path,
        env={"name": "crossing-grid", "episode_cap": 5, "params": {"risk_penalty": value}},
        preorder={"n_objectives": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
        variants=[{"label": "ws", "mode": "weighted-sum", "training_preorder": False,
                   "weights": [1, 1, 1, 1, 1]},
                  {"label": "pr", "comparator": {"kind": "qd", "epsilon": 0.2}}])
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "risk_penalty" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_truncated_tensor_fails_evaluation(tmp_path, capsys) -> None:
    # A tensor cut at a head boundary still has a consistent row count,
    # and a short row breaks the parse.
    config = write_config(tmp_path, variants=[
        {"label": "flat", "mode": "mean-aggregation", "training_preorder": False}])
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
    tensor = next(out.iterdir()) / "flat" / "0" / "tensor.csv"
    lines = tensor.read_text().splitlines(keepends=True)
    for broken in ([line for line in lines if not line.startswith("1,")],
                   [lines[0], "0,0\n", *lines[2:]]):
        tensor.write_text("".join(broken))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == EXIT_SHAPE
        err = capsys.readouterr().err
        assert "variant flat, seed 0" in err and str(tensor) in err


def test_blank_line_in_tensor_exits_4_naming_the_physical_line(tmp_path, capsys) -> None:
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
    tensor = next(out.iterdir()) / "pr" / "0" / "tensor.csv"
    lines = tensor.read_bytes().splitlines(keepends=True)
    tensor.write_bytes(b"".join([*lines[:5], b"\r\n", *lines[5:]]))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == EXIT_SHAPE
    err = capsys.readouterr().err
    assert f"{tensor}, line 6: blank line" in err and "variant pr, seed 0" in err
    assert not (next(out.iterdir()) / "evaluate.csv").exists()


def test_non_finite_tensor_fails_evaluation(tmp_path, capsys) -> None:
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
    tensor = next(out.iterdir()) / "pr" / "0" / "tensor.csv"
    header, first, *rest = tensor.read_text().splitlines(keepends=True)
    tensor.write_text("".join([header, first.rsplit(",", 1)[0] + ",nan\n", *rest]))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "finite" in err and str(tensor) in err
    assert "variant pr, seed 0" in err
    assert not (next(out.iterdir()) / "evaluate.csv").exists()


def test_unknown_subcommand_raises_usage_error() -> None:
    with pytest.raises(SystemExit) as caught:
        main(["tune", "--config", "x"])
    assert caught.value.code == 2
    with pytest.raises(SystemExit):
        main([])
