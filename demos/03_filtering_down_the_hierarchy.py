"""Filtering an action set objective by objective.

One quantile matrix per objective plus the priority graph go in; a
survivor set per objective comes out.  Verdicts made by a high-priority
objective are inherited below and never reopened, so a lower objective
can only break ties its parents left open.
"""

import numpy as np

from preorder_rl.comparators import ComparatorConfig, QuantileMatrix
from preorder_rl.preorder import build_graph
from preorder_rl.selection import global_leaf_survivors, sample_action, select

# Safety outranks progress outranks comfort.
graph = build_graph(3, [(0, 1), (1, 2)])


def profile(columns: list[list[float]]) -> QuantileMatrix:
    return QuantileMatrix.from_values(np.array(columns, dtype=float).T)


# Four candidate actions.  Action 3 is unsafe; 0 and 1 tie on safety
# and progress; 2 is safe but slow.
matrices = [
    profile([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, -1.0]]),   # safety
    profile([[0.8, 1.0], [0.8, 1.0], [0.1, 0.3], [1.0, 1.0]]),     # progress
    profile([[0.0, 0.0], [-0.4, -0.2], [0.0, 0.0], [0.0, 0.0]]),   # comfort
]
# One comparator config scores and thresholds every objective.
state = select(graph, matrices, ComparatorConfig("qd", epsilon=0.2))
print("survivors per objective")
for objective in range(3):
    print(f"  objective {objective}: {sorted(state.survivors[objective])}")
print("fallbacks:", state.fallbacks)

# Safety removes action 3 despite its perfect progress profile; the
# verdict is inherited, so progress never reconsiders it.  Progress
# drops the slow action 2, and comfort finally separates 0 from 1.
leaf = global_leaf_survivors(state, graph)
print("global survivors:", sorted(leaf))

# Ties are broken uniformly at random.  Acting on the progress-level
# survivors alone would still leave two equally good choices:
rng = np.random.default_rng(0)
draws = [sample_action(state.survivors[1], rng) for _ in range(5)]
print("draws from the progress survivors:", draws)
print("draw from the global survivors:", sample_action(leaf, rng))
