"""Survivor-set action filtering guided by the objective preorder.

Objectives are visited in topological order.  Each inherits the verdict
matrices of its direct parents (element-wise OR) and the aggregate of
their survivor sets, evaluates the comparator only on pairs no parent
has already decided, clears two-way conflicts, and keeps the inherited
survivors that no other inherited survivor still dominates.  The leaf
survivor sets, merged through a virtual global leaf, are the actions a
policy may play.

:func:`select` scores every head under one comparator config, one
vectorized :func:`~preorder_rl.comparators.score_heads` call per shape,
thresholds all pairwise score gaps at once with the rule of
:func:`~preorder_rl.comparators.classify_pairs`, and hands the verdicts
to :func:`filter_verdicts`, the one survivor walk in the package;
:func:`~preorder_rl.relations.oracle_survivors` runs the same walk on
verdicts from exact rewards.  The verdict recursion has a closed form: a
pair takes an objective's own verdict exactly when no strict ancestor
decided it, so three boolean matrix products with the graph's transitive
closure give every objective's verdicts at once.  Only the survivor walk
stays sequential; it tests each inherited action against a Python-int
bitmask of the actions that beat it and merges parent sets with
:func:`aggregate_survivor_sets`.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .comparators import ComparatorConfig, QuantileMatrix, _verdicts, score_heads
# perfbench/tracer.py wraps these names here; select itself no longer calls them.
from .comparators import action_scores, classify_pairs  # noqa: F401
from .errors import ConfigError, EmptySetError, ShapeMismatch
from .preorder import PreorderGraph

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectionState:
    """Filter output: per-objective verdict matrices and survivor sets.

    ``dom`` and ``dom_by`` are (objectives, actions, actions) booleans:
    ``dom[obj, a, b]`` says a dominates b at ``obj``, ``dom_by[obj, a, b]``
    that b dominates a, inherited verdicts included.  ``fallbacks`` lists
    the objectives where comparator verdicts left no inherited survivor
    standing and the best-scored inherited survivors were kept instead.
    ``mask`` is ``survivors`` as an (objectives, actions) boolean array.
    """

    dom: np.ndarray
    dom_by: np.ndarray
    survivors: dict[int, frozenset[int]]
    fallbacks: tuple[int, ...]
    mask: np.ndarray


def aggregate_survivor_sets(sets: Sequence[frozenset[int]]) -> frozenset[int]:
    """Intersection of the sets, falling back to their union when the
    intersection is empty.  Incomparable branches usually agree on some
    action; when they do not, no branch is allowed to veto the others."""
    if not sets:
        raise EmptySetError("no survivor sets to aggregate")
    merged = frozenset.intersection(*sets)
    return merged if merged else frozenset.union(*sets)


def select(graph: PreorderGraph, quantiles: Sequence[QuantileMatrix],
           config: ComparatorConfig) -> SelectionState:
    """Run the preorder filter on one quantile matrix per objective.

    Args:
        graph: priority preorder; objective i uses ``quantiles[i]``.
        quantiles: per-objective (quantiles, actions) matrices with a
            shared action count; quantile counts may differ.
        config: the one comparator config every objective is scored and
            thresholded with.

    Returns:
        A :class:`SelectionState` with non-empty survivor sets for every
        objective.
    """
    if not isinstance(config, ComparatorConfig):
        raise ConfigError(f"config must be one ComparatorConfig, got {config!r}")
    n_objectives = graph.n_objectives
    if len(quantiles) != n_objectives:
        raise ShapeMismatch(f"expected {n_objectives} quantile matrices, got {len(quantiles)}")
    n_actions = quantiles[0].n_actions
    if any(m.n_actions != n_actions for m in quantiles):
        raise ShapeMismatch("quantile matrices disagree on the action count")

    # Heads stack only with heads of the same shape and memory layout, so
    # each is scored exactly as it would be on its own.
    groups: dict[tuple, list[int]] = {}
    for obj, m in enumerate(quantiles):
        groups.setdefault((m.values.shape, m.values.strides), []).append(obj)
    scores = np.empty((n_objectives, n_actions))
    for objs in groups.values():
        values = np.stack([quantiles[obj].values for obj in objs]).transpose(0, 2, 1)
        scores[objs] = score_heads(values, config)
    # The diagonal stays clear: its gap is 0 and epsilon >= 0.
    return filter_verdicts(graph, *_verdicts(scores, config.epsilon), scores)


def filter_verdicts(graph: PreorderGraph, above: np.ndarray, below: np.ndarray,
                    scores: np.ndarray) -> SelectionState:
    """The survivor walk behind :func:`select`, on precomputed verdicts.

    ``above[obj, a, b]`` says a beats b on objective ``obj`` and
    ``below[obj, a, b]`` that b beats a; both are (objectives, actions,
    actions) boolean arrays with a clear diagonal, and a pair set in both
    is a two-way conflict that eliminates neither action.  ``scores``
    (objectives, actions) ranks the inherited survivors when an
    objective's verdicts leave none of them standing.
    """
    n_objectives, n_actions = scores.shape
    # A pair takes an objective's own verdict exactly when no strict
    # ancestor decided it, and inherits every ancestor's fresh verdict.
    above = above.reshape(n_objectives, -1)
    below = below.reshape(n_objectives, -1)
    fresh = ~(graph.ancestors @ (above | below))
    shape = (n_objectives, n_actions, n_actions)
    dom = (graph.ancestors_or_self @ (above & fresh)).reshape(shape)
    dom_by = (graph.ancestors_or_self @ (below & fresh)).reshape(shape)

    # Bit b of beaten[obj][a] is set when b beats a at obj outside a
    # conflict (a pair decided both ways eliminates no one).  Python ints
    # hold the bits when int64 cannot.
    bits = np.arange(n_actions, dtype=np.int64 if n_actions < 63 else object)
    beaten = ((dom_by & ~dom) @ (1 << bits)).tolist()
    everyone = frozenset(range(n_actions))
    survivors: dict[int, frozenset[int]] = {}
    fallbacks: list[int] = []
    for obj, parent_ids in graph.walk:
        up = (aggregate_survivor_sets([survivors[p] for p in parent_ids]) if parent_ids
              else everyone)
        up_bits = sum(1 << a for a in up)
        row = beaten[obj]
        kept = frozenset(a for a in up if not row[a] & up_bits)
        if not kept:
            # Circular verdicts can eliminate everyone; keep the
            # best-scored inherited survivors so the set stays usable.
            up_mask = np.zeros(n_actions, dtype=bool)
            up_mask[list(up)] = True
            best = up_mask & (scores[obj] == scores[obj][up_mask].max())
            kept = frozenset(np.flatnonzero(best).tolist())
            fallbacks.append(obj)
            _log.debug("fallback at objective %d: no inherited survivor kept", obj)
        survivors[obj] = kept
    mask = np.zeros(n_objectives * n_actions, dtype=bool)
    mask[[obj * n_actions + a for obj, kept in survivors.items() for a in kept]] = True
    return SelectionState(dom, dom_by, survivors, tuple(fallbacks),
                          mask.reshape(n_objectives, n_actions))


def global_leaf_survivors(state: SelectionState, graph: PreorderGraph) -> frozenset[int]:
    """Survivors of the virtual global leaf: the leaf survivor sets
    merged with the same intersection-then-union rule used inside the
    traversal."""
    return aggregate_survivor_sets([state.survivors[leaf] for leaf in graph.leaves()])


def sample_action(survivors: frozenset[int], rng: np.random.Generator) -> int:
    """Draw uniformly from a survivor set."""
    if not survivors:
        raise EmptySetError("cannot sample from an empty survivor set")
    ordered = sorted(survivors)
    return ordered[int(rng.integers(len(ordered)))]
