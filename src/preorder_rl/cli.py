"""Command-line entry points.

Five subcommands cover the run lifecycle: ``train``, ``evaluate`` and
``compare`` operate on a JSON run config, ``select`` filters standalone
quantile CSVs, and ``stats`` summarizes a score file.  Exit codes: 0 on
success, 2 for configuration problems, 3 for missing artifacts, 4 for
shape disagreements.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .artifacts import load_quantile_csv
from .comparators import COMPARATOR_KINDS, ComparatorConfig
from .config import _seeds, load_config, load_preorder
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
                     help="one tau,a0,a1,... CSV per objective, in objective order; "
                          "tau must be the midpoint fractions (2k-1)/2K of its K rows")
    sel.add_argument("--preorder", required=True,
                     help='JSON file: {"n_objectives": N, "edges": [[higher, lower], ...]}')
    sel.add_argument("--out", required=True)
    sel.add_argument("--kind", default=ComparatorConfig.kind, choices=COMPARATOR_KINDS)
    sel.add_argument("--epsilon", type=float, default=ComparatorConfig.epsilon)
    sel.add_argument("--cvar-alpha", type=float, default=ComparatorConfig.cvar_alpha)
    sel.add_argument("--mv-lambda", type=float, default=ComparatorConfig.mv_lambda)

    st = sub.add_parser("stats", help="robust summaries of an algorithm,seed,run,score CSV")
    st.add_argument("--scores", required=True)
    st.add_argument("--out", required=True)
    defaults = inspect.signature(run_stats).parameters
    st.add_argument("--seed", type=int, default=defaults["seed"].default)
    st.add_argument("--resamples", type=int, default=defaults["n_resamples"].default)
    st.add_argument("--gap-target", type=float, default=defaults["gap_target"].default)
    return parser


def _dispatch(args: argparse.Namespace) -> str:
    """Run the subcommand; returns the line it reports."""
    if args.command == "select":
        graph = load_preorder(args.preorder)
        comparator = ComparatorConfig(args.kind, args.epsilon, args.cvar_alpha, args.mv_lambda)
        matrices = [load_quantile_csv(path) for path in args.matrices]
        return f"wrote {run_select(graph, matrices, comparator, args.out)}"
    if args.command == "stats":
        path = run_stats(args.scores, args.out, seed=args.seed, n_resamples=args.resamples,
                         gap_target=args.gap_target)
        return f"wrote {path}"
    config = load_config(args.config)
    seeds = _parse_seeds(args.seeds) if getattr(args, "seeds", None) else None
    if args.command == "train":
        base = run_train(config, args.out, seeds=seeds, jobs=args.jobs)
        return f"trained {len(config.variants)} variant(s) into {base}"
    if args.command == "evaluate":
        return f"wrote {run_evaluate(config, args.out, seeds=seeds)}"
    return f"wrote {run_compare(config, args.out)}"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        print(_dispatch(args))
        return EXIT_OK
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
