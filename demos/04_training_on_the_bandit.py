"""A two-armed bandit where averaging and priorities disagree.

The safe arm always pays progress 0.5 and never crashes.  The risky arm
pays progress 1.0 but crashes a fifth of the time, scoring -1 on the
safety objective.  On expected total reward the risky arm wins (0.8 vs
0.5), so a weighted-sum learner takes it; a learner that puts safety
strictly above progress refuses.
"""

import numpy as np

from preorder_rl.comparators import ComparatorConfig
from preorder_rl.envs import EnvSpec, make_env
from preorder_rl.learner import (
    WEIGHTED_SUM,
    LearnerConfig,
    evaluate,
    train,
)
from preorder_rl.preorder import build_graph

graph = build_graph(2, [(0, 1)])  # safety outranks progress
env = make_env(EnvSpec("conflict-bandit", episode_cap=1))
schedule = dict(epsilon_start=1.0, epsilon_end=0.1, epsilon_decay_episodes=1000)


def arm_fractions(records) -> tuple[float, float]:
    safe = float(np.mean([r.returns[1] == 0.5 for r in records]))
    return safe, 1.0 - safe


preorder = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9),
                         comparator=ComparatorConfig("qd", epsilon=0.2),
                         **schedule)
tensor, _ = train(env, preorder, graph, seed=3, episodes=2000)
records = evaluate(env, tensor, preorder, graph, seed=4, episodes=500)
safe, risky = arm_fractions(records)
print(f"priority learner: safe {safe:.0%}, risky {risky:.0%}")
print("  learned mean estimates per head, safe arm then risky arm:")
print("  safety ", np.round(tensor.values[0, 0].mean(axis=1), 3))
print("  progress", np.round(tensor.values[1, 0].mean(axis=1), 3))

weighted = LearnerConfig(n_objectives=2, gammas=(0.9, 0.9), mode=WEIGHTED_SUM,
                         weights=(1.0, 1.0), training_preorder=False,
                         **schedule)
tensor, _ = train(env, weighted, graph, seed=3, episodes=2000)
records = evaluate(env, tensor, weighted, graph, seed=4, episodes=500)
safe, risky = arm_fractions(records)
print(f"\nweighted-sum learner: safe {safe:.0%}, risky {risky:.0%}")
print("  learned scalar estimates:", np.round(tensor.values[0, 0].mean(axis=1), 3))
print("  (expected sums are 0.5 safe, 0.8 risky; the estimate keeps converging)")
