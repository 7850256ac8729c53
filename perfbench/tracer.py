"""In-memory spans around the public functions of each preorder_rl layer.

Every wrapper is installed where its caller looks the name up (for
example ``preorder_rl.learner.select``, which is what ``act`` and
``td_update`` call), so the package itself is untouched.  A span is
(name, start, end, parent); spans live in flat arrays until the run
ends.  Self time is a span's duration minus the time its direct child
spans cover.

The untraced run installs only :class:`ProxyEnv`, which stamps the
return of each ``env.reset`` and ``env.step`` for the timing estimates
in ``run.py``.
"""

from __future__ import annotations

import hashlib
import pathlib
import time
from array import array

import numpy as np

from preorder_rl import comparators, config, learner, runner, selection
from preorder_rl import stats as stats_mod
from preorder_rl.learner import MODES, QuantileTensor

KINDS = comparators.COMPARATOR_KINDS


class ProxyEnv:
    """Delegates to a real env; stamps each ``reset`` and ``step`` return
    and, when a tracer is given, records ``envs.step`` / ``envs.reset``
    spans."""

    def __init__(self, env, clock: "StepClock", tracer: "Tracer | None") -> None:
        self._env = env
        self._clock = clock
        if tracer is not None:
            self.step = tracer.wrap(self.step, "envs.step")
            self.reset = tracer.wrap(self.reset, "envs.reset")

    def __getattr__(self, name):
        return getattr(self._env, name)

    def reset(self, rng):
        state = self._env.reset(rng)
        self._clock.stamp(RESET)
        return state

    def step(self, action, rng):
        result = self._env.step(action, rng)
        self._clock.stamp(STEP)
        return result


BOUNDARY, RESET, STEP = 0, 1, 2


class StepClock:
    """Timestamps of operation boundaries and of env ``reset``/``step``
    returns.  They cut an operation into segments; a deterministic
    operation cuts into the same segments in every process."""

    def __init__(self) -> None:
        self.stamps = array("q")
        self.kinds = array("b")

    def stamp(self, kind: int) -> None:
        self.stamps.append(time.perf_counter_ns())
        self.kinds.append(kind)


def install_proxy_env(clock: StepClock, tracer: "Tracer | None" = None) -> None:
    make_env = runner.make_env
    runner.make_env = lambda spec: ProxyEnv(make_env(spec), clock, tracer)


def _mode(args) -> str:
    return args[2].mode


def _kind(args) -> str:
    return args[1].kind


class Tracer:
    """Span recorder plus the few counters that are not spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.timed_from = 0
        self.counters = {"comparators.QuantileMatrix.built": 0, "stats.iqm.calls": 0,
                         "runner.bytes_written": 0, "runner.bytes_read": 0,
                         "selection.fallbacks": 0, "selection.select.repeats": 0}
        self.survivor_sizes = array("i")
        self._select_keys: set[bytes] = set()
        self._written: set[pathlib.Path] = set()
        self.io_active = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, suffix=None, after=None):
        """Wrap ``fn`` in a span named ``name`` (plus ``.<suffix(args)>``)."""
        fixed = self._id(name) if suffix is None else -1
        ids, parent, stack = self.name_id, self.parent, self._stack
        start, end = self.start, self.end
        clock = time.perf_counter_ns
        lookup = self._id

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(fixed if suffix is None else lookup(f"{name}.{suffix(args)}"))
            parent.append(stack[-1])
            stack.append(idx)
            end.append(0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, fn, counter: str):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def mark_timed(self) -> None:
        """Spans and counts recorded from here on belong to the timed section."""
        self.timed_from = len(self.name_id)
        for counter in self.counters:
            self.counters[counter] = 0
        self.survivor_sizes = array("i")

    def begin_op(self) -> None:
        """A ``select`` input repeats only if an earlier call of the same
        operation (one training or one evaluation) saw it."""
        self._select_keys.clear()

    # -- hooks -------------------------------------------------------------

    def _after_select(self, args, state) -> None:
        graph, quantiles, configs = args[0], args[1], args[2]
        h = hashlib.blake2b(repr((id(graph), configs)).encode(), digest_size=16)
        for m in quantiles:
            h.update(m.values.tobytes())
        key = h.digest()
        if key in self._select_keys:
            self.counters["selection.select.repeats"] += 1
        else:
            self._select_keys.add(key)
        self.counters["selection.fallbacks"] += len(state.fallbacks)

    def _after_survivors(self, args, survivors) -> None:
        self.survivor_sizes.append(len(survivors))

    def _open(self, original):
        tracer = self

        def open_counted(path, mode="r", *args, **kwargs):
            if tracer.io_active:
                if set(mode) & set("wax+"):
                    tracer._written.add(pathlib.Path(path))
                else:
                    tracer.counters["runner.bytes_read"] += path.stat().st_size
            return original(path, mode, *args, **kwargs)

        return open_counted

    def flush_writes(self) -> None:
        """Add the sizes of the files written since the last call."""
        self.counters["runner.bytes_written"] += sum(p.stat().st_size for p in self._written)
        self._written.clear()

    def install(self) -> None:
        """Patch every traced name where its caller looks it up."""
        w = self.wrap
        for fn in ("run_train", "run_evaluate", "run_compare", "run_stats"):
            setattr(runner, fn, w(getattr(runner, fn), f"runner.{fn}"))
        for fn in ("train", "evaluate", "save_tensor", "load_tensor", "save_episode_log"):
            setattr(runner, fn, w(getattr(runner, fn), f"learner.{fn}"))
        runner.config_hash = w(runner.config_hash, "config.config_hash")
        runner.interval_plot_svg = w(runner.interval_plot_svg, "plots.interval_plot_svg")
        config.parse_config = w(config.parse_config, "config.parse_config")
        config.build_graph = w(config.build_graph, "preorder.build_graph")

        learner.act = w(learner.act, "learner.act", suffix=_mode)
        learner.td_update = w(learner.td_update, "learner.td_update", suffix=_mode)
        learner.greedy_target_action = w(learner.greedy_target_action,
                                         "learner.greedy_target_action")
        learner._pinball_step = w(learner._pinball_step, "learner._pinball_step")
        learner.select = w(learner.select, "selection.select", after=self._after_select)
        learner.global_leaf_survivors = w(learner.global_leaf_survivors,
                                          "selection.global_leaf_survivors",
                                          after=self._after_survivors)
        QuantileTensor.matrices = w(QuantileTensor.matrices, "learner.QuantileTensor.matrices")

        selection.classify_pairs = w(selection.classify_pairs, "comparators.classify_pairs",
                                     suffix=_kind)
        selection.action_scores = w(selection.action_scores, "comparators.action_scores",
                                    suffix=_kind)
        comparators.action_scores = w(comparators.action_scores, "comparators.action_scores",
                                      suffix=_kind)
        comparators.zscore_normalize = w(comparators.zscore_normalize,
                                         "comparators.zscore_normalize")
        comparators.QuantileMatrix.__post_init__ = self.count(
            comparators.QuantileMatrix.__post_init__, "comparators.QuantileMatrix.built")

        stats_mod.bootstrap_ci = w(stats_mod.bootstrap_ci, "stats.bootstrap_ci")
        stats_mod.iqm = self.count(stats_mod.iqm, "stats.iqm.calls")
        pathlib.Path.open = self._open(pathlib.Path.open)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def call_counts(self) -> dict[str, int]:
        """Calls per span name, over the whole run (set-up included)."""
        counts = np.bincount(self.arrays()["name_id"], minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics.  ``config.*`` and ``preorder.*`` cover the
        whole run; every other layer covers the timed section only."""
        a = self.arrays()
        name_id, parent = a["name_id"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - covered
        timed = np.arange(len(dur)) >= self.timed_from
        parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)

        def ids(prefix: str) -> np.ndarray:
            """Lookup by name id: True for names equal to or under ``prefix``;
            the extra last entry answers id -1 (no parent)."""
            return np.array([n == prefix or n.startswith(prefix + ".") for n in self.names]
                            + [False])

        def pick(prefix: str, whole_run: bool = False) -> np.ndarray:
            mask = ids(prefix)[name_id]
            return mask if whole_run else mask & timed

        out: dict[str, float] = {}

        def p50_us(mask: np.ndarray) -> float:
            return float(np.median(dur[mask]) / 1e3) if mask.any() else 0.0

        def timing(prefix: str, calls=True, self_s=True, p50=True) -> None:
            mask = pick(prefix)
            if calls:
                out[f"{prefix}.calls"] = int(mask.sum())
            if self_s:
                out[f"{prefix}.self_s"] = float(self_ns[mask].sum() / 1e9)
            if p50:
                out[f"{prefix}.us_p50"] = p50_us(mask)

        select = pick("selection.select")
        steps = int(pick("envs.step").sum())
        timing("selection.select")
        out["selection.select.per_step"] = float(select.sum() / steps) if steps else 0.0
        repeats = self.counters["selection.select.repeats"]
        out["selection.select.repeat_ratio"] = (
            float(repeats / select.sum()) if select.any() else 0.0)
        for caller in ("act", "td_update"):
            out[f"selection.select.from_{caller}.calls"] = int(
                (select & ids(f"learner.{caller}")[parent_name]).sum())
        out["selection.fallbacks"] = self.counters["selection.fallbacks"]
        sizes = np.frombuffer(self.survivor_sizes, dtype=np.int32)
        out["selection.survivors_mean"] = float(sizes.mean()) if sizes.size else 0.0

        timing("comparators.classify_pairs", p50=False)
        timing("comparators.action_scores", p50=False)
        for kind in KINDS:
            timing(f"comparators.classify_pairs.{kind}", self_s=False)
            timing(f"comparators.action_scores.{kind}", self_s=False)
        timing("comparators.zscore_normalize", p50=False)
        out["comparators.QuantileMatrix.built"] = self.counters["comparators.QuantileMatrix.built"]

        for mode in MODES:
            timing(f"learner.act.{mode}", self_s=False)
            timing(f"learner.td_update.{mode}", self_s=False)
            pinball = pick("learner._pinball_step") & ids(f"learner.td_update.{mode}")[parent_name]
            out[f"learner._pinball_step.{mode}.calls"] = int(pinball.sum())
            out[f"learner._pinball_step.{mode}.us_p50"] = p50_us(pinball)
        timing("learner.act", calls=False, p50=False)
        timing("learner.td_update", calls=False, p50=False)
        timing("learner.greedy_target_action", p50=False)
        timing("learner.QuantileTensor.matrices", self_s=False)
        act_pre = np.flatnonzero(pick("learner.act.preorder"))
        if act_pre.size:
            with_select = np.bincount(parent[select], minlength=len(dur)) > 0
            out["learner.explore_ratio"] = float(1.0 - with_select[act_pre].mean())
        else:
            out["learner.explore_ratio"] = 0.0
        for fn in ("train", "evaluate", "save_episode_log"):
            timing(f"learner.{fn}", calls=False, p50=False)
        for fn in ("save_tensor", "load_tensor"):
            timing(f"learner.{fn}")

        timing("envs.step")
        timing("envs.reset")

        for fn in ("run_train", "run_evaluate", "run_compare", "run_stats"):
            timing(f"runner.{fn}", calls=False, p50=False)
        out["runner.bytes_written"] = self.counters["runner.bytes_written"]
        out["runner.bytes_read"] = self.counters["runner.bytes_read"]

        timing("stats.bootstrap_ci", p50=False)
        out["stats.iqm.calls"] = self.counters["stats.iqm.calls"]
        timing("plots.interval_plot_svg", calls=False, p50=False)

        for prefix in ("config.parse_config", "config.config_hash", "preorder.build_graph"):
            out[f"{prefix}.s"] = float(dur[pick(prefix, whole_run=True)].sum() / 1e9)
        return out
