"""One workload run in a fresh process, started by ``run.py``.

Phases: ``setup`` (imports, config parsing, set-up operations),
``round`` (imports, config parsing, then one timed round that uses the
artifacts an earlier ``setup`` child left in ``--work``), ``full``
(set-up, then one timed round) and ``record`` (one round per pool
seed, printing the digest table).  The last stdout line is JSON.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import SEED_POOL, WORKLOADS, Op  # noqa: E402

HERE = Path(__file__).resolve().parent


def sha256(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Checker:
    """Runs operations, stamps their boundaries, and compares the CSV
    artifacts with the recorded digests."""

    def __init__(self, digests: dict, clock: tracing.StepClock,
                 tracer: "tracing.Tracer | None") -> None:
        self.digests = digests
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: Op) -> tuple[np.ndarray, np.ndarray]:
        """Run ``op``; return the durations (ns) of the segments its stamps
        cut it into, and the kinds of the stamps that end them."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op()
            self.tracer.io_active = True
        first = len(self.clock.stamps)
        self.clock.stamp(tracing.BOUNDARY)
        base = None
        try:
            base = op.run()
        except Exception:  # one failed operation must not stop the run
            self.failures.append(f"{op.key}: {traceback.format_exc(limit=3)}")
        finally:
            self.clock.stamp(tracing.BOUNDARY)
            if self.tracer is not None:
                self.tracer.io_active = False
        stamps = np.frombuffer(self.clock.stamps, dtype=np.int64)[first:]
        kinds = np.frombuffer(self.clock.kinds, dtype=np.int8)[first + 1:]
        if base is not None:
            if self.tracer is not None:
                self.tracer.flush_writes()
            expected = self.digests.get(op.key, {})
            wrong = [f for f in op.files if expected.get(f) != sha256(base / f)]
            if wrong:
                self.failures.append(f"{op.key}: digest mismatch in {', '.join(wrong)}")
        return np.diff(stamps), kinds.copy()


def record(workload, work: Path) -> dict:
    table = {}
    for seed in range(SEED_POOL):
        setup_ops, round_ops = workload.build([seed] * workload.n_seeds, work)
        for op in setup_ops + round_ops:
            if op.key in table:
                continue
            base = op.run()
            table[op.key] = {f: sha256(base / f) for f in op.files}
    return {"digests": table}


def main() -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "round", "full", "record"),
                        default="full")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    clock = tracing.StepClock()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    tracing.install_proxy_env(clock, tracer)
    if args.phase == "record":
        return record(workload, args.work)

    digests = json.loads((HERE / "digests.json").read_text())[args.workload]
    checker = Checker(digests, clock, tracer)
    train_seeds = workload.seeds(args.seed)
    setup_ops, round_ops = workload.build(train_seeds, args.work)
    if args.phase != "round":
        for op in setup_ops:
            checker.run(op)
    result = {"setup_s": time.perf_counter() - STARTED, "train_seeds": train_seeds}
    if args.phase != "setup":
        if tracer is not None:
            tracer.mark_timed()
        segments = [checker.run(op) for op in round_ops]
        durations = np.concatenate([d for d, _ in segments])
        kinds = np.concatenate([k for _, k in segments])
        result.update(
            round_s=float(durations.sum() / 1e9),
            segment_ns=durations.tolist(),
            segment_kinds="".join(map(str, kinds)),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            calls = tracer.call_counts()
            result.update(layers=tracer.metrics(), calls=calls,
                          uncovered=[n for n in workload.expected if calls.get(n, 0) == 0])
            if args.spans is not None:
                tracer.save(args.spans)
    result.update(attempted=checker.attempted, failures=checker.failures,
                  python=platform.python_version(), numpy=np.__version__)
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
    sys.stdout.flush()
