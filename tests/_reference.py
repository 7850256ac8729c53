"""Plain-Python re-derivation of the selection pipeline for cross-checks.

Everything here works on lists, sets and dicts, with the statistics
module doing the arithmetic, so numerical and structural mistakes in the
numpy implementation cannot hide behind shared code.  The bootstrap
reference is the exception: it is the former one-row-at-a-time numpy
loop, kept so the batched ``stats.bootstrap_ci`` can be checked against
it bit for bit.  ``ref_tensor_csv`` is the plain one-row-at-a-time
tensor writer, kept so ``artifacts.save_tensor`` can be checked against
it byte for byte.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple

import numpy as np

ZERO_STD = 1e-12


def ref_zscore(values: list[list[float]]) -> list[list[float]]:
    flat = [v for row in values for v in row]
    std = statistics.pstdev(flat)
    if std < ZERO_STD:
        return [[0.0 for _ in row] for row in values]
    mean = statistics.fmean(flat)
    return [[(v - mean) / std for v in row] for row in values]


def ref_scores(values: list[list[float]], kind: str, cvar_alpha: float = 0.25,
               mv_lambda: float = 1.0) -> list[float]:
    normalized = ref_zscore(values)
    n_actions = len(normalized[0])
    columns = [[row[a] for row in normalized] for a in range(n_actions)]
    if kind == "qd":
        ideal = [max(row) for row in normalized]
        return [-statistics.fmean(abs(col[k] - ideal[k]) for k in range(len(col)))
                for col in columns]
    if kind == "cvar":
        tail = math.ceil(cvar_alpha * len(values))
        return [statistics.fmean(sorted(col)[:tail]) for col in columns]
    if kind == "mv":
        return [statistics.fmean(col) - mv_lambda * statistics.pvariance(col, statistics.fmean(col))
                for col in columns]
    raise ValueError(kind)


def ref_topological_order(n: int, edges: set[tuple[int, int]]) -> list[int]:
    remaining = set(range(n))
    order = []
    while remaining:
        ready = [o for o in remaining
                 if not any(h in remaining for h, l in edges if l == o)]
        pick = min(ready)
        order.append(pick)
        remaining.remove(pick)
    return order


def ref_strictly_precedes(edges: set[tuple[int, int]], high: int, low: int) -> bool:
    stack, seen = [high], set()
    while stack:
        node = stack.pop()
        for h, l in edges:
            if h == node and l not in seen:
                if l == low:
                    return True
                seen.add(l)
                stack.append(l)
    return False


def ref_relate(n: int, edges: set[tuple[int, int]], ra: list[float], rb: list[float]) -> str:
    """The ``ActionRelation`` value of action a to action b: opposing
    improvements on incomparable objectives make the pair incomparable;
    otherwise a dominates when some objective it improves on strictly
    precedes every objective b improves on."""
    a_better = {i for i in range(n) if ra[i] > rb[i]}
    b_better = {i for i in range(n) if rb[i] > ra[i]}
    for i in a_better:
        for j in b_better:
            if not (ref_strictly_precedes(edges, i, j) or ref_strictly_precedes(edges, j, i)):
                return "incomparable"
    if any(all(ref_strictly_precedes(edges, j, i) for i in b_better) for j in a_better):
        return "dominates"
    if any(all(ref_strictly_precedes(edges, j, i) for i in a_better) for j in b_better):
        return "dominated_by"
    return "indifferent"


def ref_aggregate(sets: list[set[int]]) -> set[int]:
    merged = set.intersection(*sets)
    return merged if merged else set.union(*sets)


class RefSelection(NamedTuple):
    """Per-objective survivor sets, verdicts as sets of (a, b) pairs
    (``dom``: a dominates b, ``dom_by``: a is dominated by b), and the
    objectives that fell back to the best-scored actions, in visit order."""

    survivors: dict[int, set[int]]
    dom: dict[int, set[tuple[int, int]]]
    dom_by: dict[int, set[tuple[int, int]]]
    fallbacks: tuple[int, ...]


def ref_select(n_objectives: int, edges: set[tuple[int, int]],
               matrices: list[list[list[float]]], configs: list[dict]) -> RefSelection:
    """The filter's result per objective, mirroring the documented walk."""
    n_actions = len(matrices[0][0])
    dom: dict[int, set[tuple[int, int]]] = {}
    dom_by: dict[int, set[tuple[int, int]]] = {}
    survivors: dict[int, set[int]] = {}
    fallbacks: list[int] = []
    for obj in ref_topological_order(n_objectives, edges):
        parents = sorted(h for h, l in edges if l == obj)
        if parents:
            up = ref_aggregate([survivors[p] for p in parents])
            dom_up = set.union(*[dom[p] for p in parents])
            dom_by_up = set.union(*[dom_by[p] for p in parents])
        else:
            up = set(range(n_actions))
            dom_up = set()
            dom_by_up = set()

        cfg = configs[obj]
        scores = ref_scores(matrices[obj], cfg.get("kind", "qd"),
                            cfg.get("cvar_alpha", 0.25), cfg.get("mv_lambda", 1.0))
        epsilon = cfg.get("epsilon", 0.0)
        dom_here = set(dom_up)
        dom_by_here = set(dom_by_up)
        for a in range(n_actions):
            for b in range(n_actions):
                if a == b or (a, b) in dom_up or (a, b) in dom_by_up:
                    continue
                gap = scores[a] - scores[b]
                if gap > epsilon:
                    dom_here.add((a, b))
                elif gap < -epsilon:
                    dom_by_here.add((a, b))
        conflicts = dom_here & dom_by_here
        effective = dom_by_here - conflicts
        kept = {a for a in up if not any((a, b) in effective for b in up)}
        if not kept:
            best = max(scores[a] for a in up)
            kept = {a for a in up if scores[a] == best}
            fallbacks.append(obj)
        survivors[obj] = kept
        dom[obj] = dom_here
        dom_by[obj] = dom_by_here
    return RefSelection(survivors, dom, dom_by, tuple(fallbacks))


def ref_global_leaf(n_objectives: int, edges: set[tuple[int, int]],
                    survivors: dict[int, set[int]]) -> set[int]:
    leaves = [o for o in range(n_objectives) if not any(h == o for h, l in edges)]
    return ref_aggregate([survivors[leaf] for leaf in sorted(leaves)])


def ref_iqm(row: np.ndarray) -> float:
    arr = np.sort(row)
    k = arr.size // 4
    return float(arr[k: arr.size - k].mean())


def ref_optimality_gap(row: np.ndarray, target: float = 1.0) -> float:
    return float(np.maximum(0.0, target - row).mean())


def ref_bootstrap_ci(statistic, values, n_resamples: int, confidence: float,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Percentile bootstrap calling ``statistic`` once per resample row."""
    arr = np.asarray(values, dtype=float).ravel()
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    samples = np.array([statistic(arr[row]) for row in idx])
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = np.percentile(samples, [tail, 100.0 - tail])
    return float(lo), float(hi)


def ref_tensor_csv(values: np.ndarray) -> str:
    """The text of a ``tensor.csv`` holding ``values``, one row per cell."""
    return "objective,state,action,k,value\r\n" + "".join(
        f"{h},{s},{a},{k},{float(v)!r}\r\n" for (h, s, a, k), v in np.ndenumerate(values))
