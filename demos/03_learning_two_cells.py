"""Coordinated Q-learning on the two-cell network.

Both agents keep a Q-table over the joint power grid (each is the other's
interferer, so both scopes span both agents). Every episode they pick the
joint action maximizing the summed tables via message-passing variable
elimination, explore around it, observe their users' SINR feedback, and
update their own table. The learned global Q ends up peaking at the
closed-form optimal allocation.
"""

import numpy as np

from coopa import (
    LearningParams,
    build_action_grid,
    greedy_joint_action,
    optimal_two_user,
    sum_throughput,
    train,
    two_cell_config,
)

beta = 0.3
n_power = 11  # coarse grid so this demo runs in a couple of seconds
cfg = two_cell_config(beta, n_power=n_power)
episodes = 50 * n_power**2
params = LearningParams(alpha=0.5, gamma=0.9, epsilon_start=1.0,
                        epsilon_end=0.05, epsilon_decay_episodes=episodes)

print(f"training {episodes} episodes at beta = {beta} on a {n_power}-level grid")
agents, traces = train(cfg, params, episodes, seed=1)

# the online sum reward climbs as exploration decays
window = episodes // 10
print("\nmean sum reward per training decile:")
for k in range(10):
    chunk = traces[k * window:(k + 1) * window]
    mean = np.mean([t.sum_reward for t in chunk])
    print(f"  episodes {k * window:5d}-{(k + 1) * window - 1:5d}: {mean:.4f}")

# read out the greedy joint action of the learned global Q
grid = build_action_grid(cfg)
action, value = greedy_joint_action(agents, order=(1, 0))
powers = grid.powers((action[0], action[1]))
print(f"\nlearned greedy allocation: {tuple(round(float(p), 4) for p in powers)} mW")
print(f"learned sum throughput:    {sum_throughput(powers, cfg):.4f} bits/s/Hz")

best = optimal_two_user(cfg)
print(f"closed-form optimum:       {tuple(round(p, 4) for p in best.powers_mw)} mW, "
      f"{best.sum_throughput:.4f} bits/s/Hz")

# the learned global Q-surface peaks at the same corner
q0, q1 = (a.local_q.values for a in agents)
global_q = q0 + q1
peak = np.unravel_index(global_q.argmax(), global_q.shape)
print(f"\nglobal Q-table peak at grid indices {tuple(int(i) for i in peak)} "
      f"= powers ({grid.levels[0][peak[0]]:.4f}, {grid.levels[1][peak[1]]:.4f}) mW")
print(f"messages per episode: {traces[-1].message_count} "
      "(two elimination passes plus two SINR feedbacks)")
