"""Survivor-set action filtering guided by the objective preorder.

Objectives are visited in topological order.  Each inherits the verdict
matrices of its direct parents (element-wise OR) and the aggregate of
their survivor sets, evaluates the comparator only on pairs no parent
has already decided, clears two-way conflicts, and keeps the inherited
survivors that no other inherited survivor still dominates.  The leaf
survivor sets, merged through a virtual global leaf, are the actions a
policy may play.

:func:`select` scores every head under one comparator config, one
vectorized :func:`~preorder_rl.comparators.score_heads` call per shape
(a single call on a :class:`~preorder_rl.comparators.HeadStack`, whose
heads share one block), thresholds all pairwise score gaps at once with the rule of
:func:`~preorder_rl.comparators.classify_pairs`, and hands the verdicts
to :func:`filter_verdicts`, the one survivor walk in the package;
:func:`~preorder_rl.relations.oracle_survivors` runs the same walk on
verdicts from exact rewards.  The verdict recursion has a closed form: a
pair takes an objective's own verdict exactly when no strict ancestor
decided it, so three boolean matrix products with the graph's transitive
closure give every objective's verdicts at once.  Only the survivor walk
stays sequential: it keeps each survivor set as a Python-int bitmask,
merges sets with :func:`aggregate_survivor_sets` and returns them as
``mask`` rows and the global-leaf set.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_

import numpy as np

from .comparators import ComparatorConfig, HeadStack, QuantileMatrix, _verdicts, score_heads
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
    ``mask[obj, a]`` says action a survives at ``obj``; ``leaf`` is the
    survivor set of the virtual global leaf of the graph selected on.
    """

    dom: np.ndarray
    dom_by: np.ndarray
    fallbacks: tuple[int, ...]
    mask: np.ndarray
    leaf: frozenset[int]

    @cached_property
    def survivors(self) -> dict[int, frozenset[int]]:
        """Each objective's survivor set, derived from ``mask`` on first read."""
        return {obj: frozenset(np.flatnonzero(row).tolist()) for obj, row in enumerate(self.mask)}


def aggregate_survivor_sets(sets: Sequence[frozenset[int]] | Sequence[int]) -> frozenset[int] | int:
    """Intersection of the sets (frozensets or Python-int bitmasks), or their
    union when the intersection is empty.  Incomparable branches usually
    agree on some action; when they do not, no branch may veto the others."""
    if not sets:
        raise EmptySetError("no survivor sets to aggregate")
    merged = reduce(and_, sets)
    return merged if merged else reduce(or_, sets)


def select(graph: PreorderGraph, quantiles: Sequence[QuantileMatrix],
           config: ComparatorConfig) -> SelectionState:
    """Run the preorder filter on one quantile matrix per objective.

    Args:
        graph: priority preorder; objective i uses ``quantiles[i]``.
        quantiles: per-objective (quantiles, actions) matrices with a
            shared action count; quantile counts may differ.  A
            :class:`~preorder_rl.comparators.HeadStack` is scored as the
            one (heads, actions, quantiles) block it views.
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
    if isinstance(quantiles, HeadStack):
        # One block has one shape and one layout by construction.
        scores = score_heads(quantiles.values, config)
    else:
        scores = _score_matrices(quantiles, config)
    # The diagonal stays clear: its gap is 0 and epsilon >= 0.
    return filter_verdicts(graph, *_verdicts(scores, config.epsilon), scores)


def _score_matrices(quantiles: Sequence[QuantileMatrix], config: ComparatorConfig) -> np.ndarray:
    """(objectives, actions) scores of separate matrices.  Heads stack
    only with heads of the same shape and memory layout, so each is
    scored exactly as it would be on its own."""
    n_actions = quantiles[0].n_actions
    if any(m.n_actions != n_actions for m in quantiles):
        raise ShapeMismatch("quantile matrices disagree on the action count")
    groups: dict[tuple, list[int]] = {}
    for obj, m in enumerate(quantiles):
        groups.setdefault((m.values.shape, m.values.strides), []).append(obj)
    scores = np.empty((len(quantiles), n_actions))
    for objs in groups.values():
        values = np.stack([quantiles[obj].values for obj in objs]).transpose(0, 2, 1)
        scores[objs] = score_heads(values, config)
    return scores


def filter_verdicts(graph: PreorderGraph, above: np.ndarray, below: np.ndarray,
                    scores: np.ndarray) -> SelectionState:
    """The survivor walk behind :func:`select`, on precomputed verdicts.

    ``above[obj, a, b]`` says a beats b on objective ``obj`` and
    ``below[obj, a, b]`` that b beats a; both are (objectives, actions,
    actions) boolean arrays with a clear diagonal, and a pair set in both
    is a two-way conflict that eliminates neither action.  ``scores``
    (objectives, actions) ranks the inherited survivors when an
    objective's verdicts leave none of them standing.  Survivor sets stay
    Python-int bitmasks until they are stored as ``mask`` and ``leaf``.
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
    powers = 1 << bits
    beaten = ((dom_by & ~dom) @ powers).tolist()
    power_list = powers.tolist()
    everyone = (1 << n_actions) - 1
    kept = [0] * n_objectives
    fallbacks: list[int] = []
    for obj, parent_ids in graph.walk:
        up = aggregate_survivor_sets([kept[p] for p in parent_ids]) if parent_ids else everyone
        # Drop the inherited actions that an inherited action beats.
        kept[obj] = up
        for power, row in zip(power_list, beaten[obj]):
            if row & up:
                kept[obj] &= ~power
        if not kept[obj]:
            # Circular verdicts can eliminate everyone; keep the
            # best-scored inherited survivors so the set stays usable.
            up_mask = (up & powers).astype(bool)
            best = up_mask & (scores[obj] == scores[obj][up_mask].max())
            kept[obj] = sum(power_list[a] for a in np.flatnonzero(best).tolist())
            fallbacks.append(obj)
            _log.debug("fallback at objective %d: no inherited survivor kept", obj)
    leaf = aggregate_survivor_sets([kept[obj] for obj in graph.leaves()])
    return SelectionState(dom, dom_by, tuple(fallbacks),
                          (np.array(kept, dtype=bits.dtype)[:, None] & powers).astype(bool),
                          frozenset(a for a, power in enumerate(power_list) if leaf & power))


def global_leaf_survivors(state: SelectionState, graph: PreorderGraph) -> frozenset[int]:
    """Survivors of the virtual global leaf, which the walk merged from the
    leaf sets of the graph the state was selected on (``graph``)."""
    return state.leaf


def sample_action(survivors: frozenset[int], rng: np.random.Generator) -> int:
    """Draw uniformly from a survivor set; a one-action set draws nothing."""
    if not survivors:
        raise EmptySetError("cannot sample from an empty survivor set")
    if len(survivors) == 1:
        return next(iter(survivors))
    ordered = sorted(survivors)
    return ordered[int(rng.integers(len(ordered)))]
