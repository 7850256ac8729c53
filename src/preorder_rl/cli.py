"""Command-line entry points.

Five subcommands cover the run lifecycle: ``train``, ``evaluate`` and
``compare`` operate on a JSON run config, ``select`` filters standalone
quantile CSVs, and ``stats`` summarizes a score file.  Exit codes: 0 on
success, 2 for configuration problems, 3 for missing artifacts, 4 for
shape disagreements.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .artifacts import load_quantile_csv
from .comparators import ComparatorConfig
from .config import _parse_preorder, _seeds, load_config
from .errors import ConfigError, LengthMismatch, MissingArtifact, ShapeMismatch
from .runner import run_compare, run_evaluate, run_select, run_stats, run_train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_SHAPE = 4


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--seeds: {exc}") from exc
    return _seeds(seeds, "--seeds")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="preorder-rl",
                                     description="train and analyze preorder-guided learners")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train every variant in a run config")
    train.add_argument("--config", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--seeds", help="comma-separated override of the config seeds")
    train.add_argument("--jobs", type=int, default=1, help="parallel training processes")

    ev = sub.add_parser("evaluate", help="greedy evaluation of trained artifacts")
    ev.add_argument("--config", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--seeds", help="comma-separated override of the config seeds")

    cmp_ = sub.add_parser("compare", help="aggregate an evaluation into comparison tables")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--out", required=True)

    sel = sub.add_parser("select", help="filter actions in standalone quantile CSVs")
    sel.add_argument("matrices", nargs="+",
                     help="one tau,a0,a1,... CSV per objective, in objective order")
    sel.add_argument("--preorder", required=True,
                     help='JSON file: {"n_objectives": N, "edges": [[higher, lower], ...]}')
    sel.add_argument("--out", required=True)
    sel.add_argument("--kind", default="qd", choices=["qd", "cvar", "mv"])
    sel.add_argument("--epsilon", type=float, default=0.0)
    sel.add_argument("--cvar-alpha", type=float, default=0.25)
    sel.add_argument("--mv-lambda", type=float, default=1.0)

    st = sub.add_parser("stats", help="robust summaries of an algorithm,seed,run,score CSV")
    st.add_argument("--scores", required=True)
    st.add_argument("--out", required=True)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--resamples", type=int, default=2000)
    st.add_argument("--gap-target", type=float, default=1.0)
    return parser


def _load_preorder_file(path):
    file = Path(path)
    if not file.exists():
        raise ConfigError(f"preorder file not found: {file}")
    try:
        raw = json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{file}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{file}: expected an object")
    return _parse_preorder(raw, "preorder")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "train":
        config = load_config(args.config)
        seeds = _parse_seeds(args.seeds) if args.seeds else None
        if args.jobs < 1:
            raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
        base = run_train(config, args.out, seeds=seeds, jobs=args.jobs)
        print(f"trained {len(config.variants)} variant(s) into {base}")
    elif args.command == "evaluate":
        config = load_config(args.config)
        seeds = _parse_seeds(args.seeds) if args.seeds else None
        path = run_evaluate(config, args.out, seeds=seeds)
        print(f"wrote {path}")
    elif args.command == "compare":
        config = load_config(args.config)
        path = run_compare(config, args.out)
        print(f"wrote {path}")
    elif args.command == "select":
        graph = _load_preorder_file(args.preorder)
        comparator = ComparatorConfig(args.kind, args.epsilon, args.cvar_alpha, args.mv_lambda)
        matrices = [load_quantile_csv(path) for path in args.matrices]
        path = run_select(graph, matrices, comparator, args.out)
        print(f"wrote {path}")
    else:
        path = run_stats(args.scores, args.out, seed=args.seed, n_resamples=args.resamples,
                         gap_target=args.gap_target)
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ShapeMismatch, LengthMismatch) as exc:
        print(f"shape mismatch: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
