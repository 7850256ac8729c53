"""Benchmark of preorder_rl on three crossing-grid workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid-train-preorder --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all             # every workload, one table each
    python3 perfbench/run.py --record-digests           # rewrite perfbench/digests.json

Each workload runs in fresh child processes, one at a time: set-up
children if the workload has set-up operations, then round children
that each run one timed round.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced child, which
is followed by untraced round children of the same seed to measure the
tracing overhead.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# The parent never imports preorder_rl or numpy, so it names the
# workloads of workloads.py itself.
WORKLOADS = ("grid-train-preorder", "grid-train-scalar", "grid-evaluate-report")
RESET, STEP = "1", "2"  # stamp kinds in a child's segment_kinds, as in tracer.py
# Round children per run at the default --seconds (run_seconds in
# BENCHMARK.json); other --seconds scale the count, keeping at least 3.
# On a 2-core Xeon sandbox a round child takes about 2.7 s (preorder),
# 3.2 s (scalar) and 4.2 s (evaluate-report, whose run also starts
# set-up children of about 4 s each), so a run takes 25 to 50 s.
ROUND_CHILDREN = {"grid-train-preorder": 14, "grid-train-scalar": 9,
                  "grid-evaluate-report": 8}
# Set-up children per run; setup_s is their median.  A workload with
# no set-up operations takes its samples from the round children, which
# do the same imports and config parsing before their round.
SETUP_SAMPLES = {"grid-train-preorder": 0, "grid-train-scalar": 0, "grid-evaluate-report": 3}
DEADLINE_S = 170.0


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Runner:
    """Starts child processes sequentially in one work dir, which a
    ``setup`` child fills for the ``round`` children after it; the dir
    is removed on exit."""

    def __init__(self, deadline: float | None) -> None:
        self.deadline = deadline
        self.work = OUT / f"work-{os.getpid()}"

    def __enter__(self) -> "Runner":
        OUT.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def child(self, workload: str, seed: int, trace: int, phase: str,
              spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace),
               "--phase", phase, "--work", str(self.work)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
        timeout = None if self.deadline is None else max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} {phase} child exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _failures(*results: dict) -> list[str]:
    return [f for r in results for f in r["failures"]]


def timed_children(runner: Runner, workload: str, seed: int, seconds: float) -> list[dict]:
    """Untraced ``round`` children; a set-up must have run in the work dir."""
    count = max(3, round(ROUND_CHILDREN[workload] * seconds
                         / _benchmark_spec()["run_seconds"]))
    return [runner.child(workload, seed, 0, "round") for _ in range(count)]


def fastest_round(rounds: list[dict]) -> dict:
    """Each segment of the round at its fastest over the children.

    A child's stamps (operation boundaries, ``env.reset`` and
    ``env.step`` returns) cut its round into segments; children doing
    the same deterministic work cut it into the same segments.  Only
    children cut like most of them are combined, so a child whose work
    went differently (a failed operation) drops out.
    """
    cuts = [r["segment_kinds"] for r in rounds]
    kinds = max(cuts, key=cuts.count)
    same = [r["segment_ns"] for r in rounds if r["segment_kinds"] == kinds]
    segments = [min(column) for column in zip(*same)]
    # A step interval ends at a step stamp and starts at one: two steps
    # in a row of the same episode.
    step_us = [ns / 1e3 for i, ns in enumerate(segments)
               if i and kinds[i] == STEP and kinds[i - 1] == STEP]
    return {
        "round_s": sum(segments) / 1e9, "combined": len(same),
        "steps": kinds.count(STEP), "episodes": kinds.count(RESET),
        # 0 only when no operation got two steps in a row; ok_ratio then
        # shows the failures.
        "step_us_p50": statistics.median(step_us) if step_us else 0.0,
        "step_us_p99": (statistics.quantiles(step_us, n=100, method="inclusive")[98]
                        if len(step_us) > 1 else 0.0),
        "step_samples": len(step_us),
    }


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [runner.child(workload, seed, 0, "setup") for _ in range(SETUP_SAMPLES[workload])]
    rounds = timed_children(runner, workload, seed, seconds)
    runs = setups + rounds
    setups = setups or rounds
    fast = fastest_round(rounds)
    attempted = sum(r["attempted"] for r in runs)
    failures = _failures(*runs)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "wall_s": (fast["round_s"], "s"),
        "steps_per_s": (fast["steps"] / fast["round_s"], "1/s"),
        "episodes_per_s": (fast["episodes"] / fast["round_s"], "1/s"),
        "step_us_p50": (fast["step_us_p50"], "us"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "ok_ratio": (1.0 - len(failures) / attempted, "ratio"),
    }
    detail = {"attempted": attempted, "failures": failures, "timed_children": len(rounds),
              "round_s": [r["round_s"] for r in rounds], "fastest_round_s": fast["round_s"],
              "children_combined": fast["combined"],
              "steps_per_round": fast["steps"], "episodes_per_round": fast["episodes"],
              "step_us_p99": fast["step_us_p99"], "step_samples": fast["step_samples"],
              "setup_s_all": [r["setup_s"] for r in setups], "train_seeds": rounds[0]["train_seeds"],
              "python": rounds[0]["python"], "numpy": rounds[0]["numpy"], "trace_overhead": None}
    return metrics, detail


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("per_step", "repeat_ratio", "explore_ratio"):
        return "ratio"
    return {"self_s": "s", "s": "s", "us_p50": "us", "survivors_mean": "actions",
            "bytes_written": "bytes", "bytes_read": "bytes"}.get(last, "count")


def per_layer(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    spans = OUT / f"spans-{workload}-seed{seed}.npz"
    traced = runner.child(workload, seed, 1, "full", spans=spans)
    plain = timed_children(runner, workload, seed, seconds)
    overhead = traced["round_s"] / min(r["round_s"] for r in plain)
    fast = fastest_round(plain)
    metrics = {name: (value, _layer_unit(name)) for name, value in traced["layers"].items()}
    # Too noisy on a shared machine to gate (see README), so reported here,
    # from the untraced children.
    metrics["envs.step_interval.us_p99"] = (fast["step_us_p99"], "us")
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.uncovered"] = (len(traced["uncovered"]), "count")
    runs = plain + [traced]
    detail = {"attempted": sum(r["attempted"] for r in runs), "failures": _failures(*runs),
              "timed_children": len(plain), "calls": traced["calls"],
              "uncovered": traced["uncovered"], "spans_file": str(spans.relative_to(ROOT)),
              "train_seeds": traced["train_seeds"], "python": traced["python"],
              "numpy": traced["numpy"], "trace_overhead": overhead}
    return metrics, detail


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: int,
            deadline: float | None = None) -> dict:
    with Runner(deadline) as runner:
        metrics, detail = (per_layer if trace else end_to_end)(runner, workload, seed, seconds)
    attempted = detail.pop("attempted")
    failures = detail.pop("failures")
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "nproc": os.cpu_count(), "cpu": _cpu_model(), **detail,
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "failures": failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def print_table(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"timed_children={result['timed_children']} train_seeds={result['train_seeds']} "
          f"python={result['python']} numpy={result['numpy']} nproc={result['nproc']} "
          f"cpu={result['cpu']!r} git={result['git_sha'][:12]} "
          f"trace_overhead={result['trace_overhead']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    if result["trace"]:
        print("  wrapped function calls:")
        for name, calls in sorted(result["calls"].items()):
            flag = "  uncovered" if name in result["uncovered"] else ""
            print(f"    {name:46s} {calls:>10d}{flag}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def record_digests() -> None:
    with Runner(None) as runner:
        table = {w: runner.child(w, 0, 0, "record")["digests"] for w in WORKLOADS}
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "preorder_rl" / "__init__.py").is_file():
        print(f"no preorder_rl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else _benchmark_spec()["run_seconds"]
    if args.workload == "all":
        results = [measure(w, args.seed, seconds, args.trace) for w in WORKLOADS]
        for result in results:
            print_table(result)
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{name}": m
                        for r in results for name, m in r["metrics"].items()},
        }
    else:
        result = measure(args.workload, args.seed, seconds, args.trace,
                         deadline=time.monotonic() + DEADLINE_S)
        print_table(result)
        summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
