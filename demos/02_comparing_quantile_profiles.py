"""Scoring actions by their full return distributions.

Point estimates hide risk.  This script builds quantile profiles for a
steady action, a gambler with a heavy lower tail but more upside, and a
feeble action, then shows how the three comparator kinds disagree about
them: distance to the ideal profile rewards upside, while the
lower-tail and mean-variance kinds punish spread.
"""

import numpy as np

from preorder_rl.comparators import (
    ComparatorConfig,
    QuantileMatrix,
    action_scores,
    classify_pairs,
    zscore_normalize,
)

# Eight quantiles per action, actions as columns.
steady = np.full(8, 1.0)
gambler = np.linspace(-1.5, 4.5, 8)
feeble = np.full(8, 0.2)
matrix = QuantileMatrix(np.column_stack([steady, gambler, feeble]))
print("fractions:", np.round(matrix.fractions, 3))
print("means: steady 1.0, gambler 1.5, feeble 0.2")

# Scores are computed on a z-scored copy, so they depend only on the
# shape of the profiles, not on the reward units.
normalized = zscore_normalize(matrix)
print("ideal profile (per-quantile max):", np.round(normalized.values.max(axis=1), 2))

print("\nscores and rankings (0 steady, 1 gambler, 2 feeble)")
for kind in ("qd", "cvar", "mv"):
    config = ComparatorConfig(kind, epsilon=0.1)
    scores = action_scores(matrix, config)
    ranking = [int(a) for a in np.argsort(-scores)]
    print(f"  {kind:4s} scores {np.round(scores, 3)}  ranking {ranking}")

# The tolerance decides how large a score gap counts as a verdict.  The
# gambler-vs-steady gap sits between the two settings below, so
# tightening the tolerance turns indifference into dominance.
print("\npairwise qd verdicts")
for epsilon in (0.6, 0.2):
    dom, _ = classify_pairs(matrix, ComparatorConfig("qd", epsilon=epsilon))
    pairs = [(a, b) for a in range(3) for b in range(3) if dom[a, b]]
    print(f"  epsilon {epsilon}: dominating pairs {pairs}")

# Affine changes of the reward scale never flip a verdict.
shifted = QuantileMatrix(matrix.values * 40.0 - 7.0)
base, _ = classify_pairs(matrix, ComparatorConfig("qd", epsilon=0.2))
moved, _ = classify_pairs(shifted, ComparatorConfig("qd", epsilon=0.2))
assert np.array_equal(base, moved)
print("\nverdicts unchanged after scaling rewards by 40 and shifting by -7")
