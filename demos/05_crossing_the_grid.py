"""Crossing a busy road under a five-objective hierarchy.

The agent starts on the kerbside lane of a grid whose every row but the
goal carries a convoy of cars, and must reach the far side.  Rewards
track five objectives ordered safety > clearance > lane > progress >
comfort.  This script renders a short scripted episode and then trains
a small learner and reports its crossing statistics.
"""

import numpy as np

from preorder_rl.comparators import ComparatorConfig
from preorder_rl.envs import EnvSpec, make_env
from preorder_rl.learner import LearnerConfig, evaluate, train
from preorder_rl.preorder import build_graph

spec = EnvSpec("crossing-grid", episode_cap=40, params={"density": "low"})
env = make_env(spec)
print(f"{env.spec.name}: {env.n_states} states, {env.n_actions} actions, "
      f"{env.n_objectives} objectives")

# One scripted episode.  E is the agent, > and < are cars with their
# travel direction, and the row of = on top is the goal.  Advancing one
# row pays progress; a collision pays safety -1 and ends the episode.
rng = np.random.default_rng(4)
state = env.reset(rng)
print("\ninitial board")
print(env.render())
for action in (env.SLOW, env.SLOW, env.STAY, env.SLOW, env.SLOW):
    result = env.step(action, rng)
    name = {env.STAY: "stay", env.SLOW: "slow", env.FAST: "fast"}[action]
    print(f"\nafter {name}: rewards {np.round(result.rewards, 2)}")
    print(env.render())
    if result.terminal:
        outcome = "crossed" if result.success else "crashed"
        print(f"episode over: {outcome}")
        break

# Train with safety strictly on top.  The learner sees only a coarse
# threat bitmask around the agent, so success is never guaranteed; what
# the hierarchy buys is that collisions stay rare.
graph = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
config = LearnerConfig(n_objectives=5, gammas=(0.9,) * 5,
                       learning_rate=0.1, learning_rate_end=0.01,
                       comparator=ComparatorConfig("qd", epsilon=0.2),
                       epsilon_start=1.0, epsilon_end=0.1, epsilon_decay_episodes=1500)
tensor, log = train(env, config, graph, seed=0, episodes=3000)
records = evaluate(env, tensor, config, graph, seed=1, episodes=300)
success = np.mean([r.success for r in records])
collision = np.mean([r.collision for r in records])
progress = np.mean([r.progress for r in records])
print(f"\nafter 3000 training episodes (low density):")
print(f"  success {success:.0%}, collision {collision:.0%}, "
      f"mean progress {progress:.0%}")
