"""Ground-truth allocators to check the learned policy against.

The two-user sum-rate problem with symmetric interference has a known
closed-form optimum over three candidate corners; the N-user truth at grid
resolution comes from exhaustive search. The greedy and simultaneous
baselines reproduce the usual naive strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import radio
from .coordgraph import MAX_BRUTE_FORCE

# Most joint points the grid search evaluates at once, unless one level of
# the leading agent alone spans more; a float64 array over 2**18 is 2 MiB.
BLOCK_POINTS = 2**18

__all__ = [
    "Allocation",
    "optimal_two_user",
    "brute_force_grid_optimum",
    "greedy_allocation",
    "simultaneous_allocation",
]


@dataclass(frozen=True)
class Allocation:
    """A power allocation, its achieved sum throughput, and who produced it."""

    powers_mw: tuple[float, ...]
    sum_throughput: float
    label: str


def optimal_two_user(cfg: radio.NetworkConfig) -> Allocation:
    """Closed-form optimal allocation for two users with symmetric beta.

    Serves the stronger link alone when its received power beats both the
    other link and 1/beta^2; otherwise both transmit at full power. With
    beta = 0 the single-user conditions can never fire (no interference,
    so full power everywhere is optimal). When both single-user conditions
    hold at once, the larger gain*cap wins, ties to agent 1.
    """
    if cfg.n_agents != 2:
        raise ValueError(f"closed form needs exactly 2 agents, got {cfg.n_agents}")
    beta = cfg.beta[0, 1]
    if cfg.beta[1, 0] != beta:
        raise ValueError(
            f"closed form needs symmetric beta, got {cfg.beta[0, 1]} and {cfg.beta[1, 0]}"
        )
    caps = cfg.p_max_mw
    s1 = cfg.gain[0] * caps[0]
    s2 = cfg.gain[1] * caps[1]
    # A beta so small that its square is 0 (1e-200, say) counts as 0.
    threshold = np.inf if beta**2 == 0 else 1.0 / beta**2

    first_alone = s1 >= max(s2, threshold)
    second_alone = s2 >= max(s1, threshold)
    if first_alone and second_alone:
        first_alone = s1 >= s2
        second_alone = not first_alone
    if first_alone:
        powers = (float(caps[0]), 0.0)
    elif second_alone:
        powers = (0.0, float(caps[1]))
    else:
        powers = (float(caps[0]), float(caps[1]))
    return Allocation(powers, radio.sum_throughput(powers, cfg), "closed-form")


def brute_force_grid_optimum(
    cfg: radio.NetworkConfig, grid: radio.ActionGrid
) -> Allocation:
    """Exhaustive argmax of the sum throughput over the power grid.

    Ties break to the lexicographically lowest joint index. Refuses joint
    spaces above MAX_BRUTE_FORCE points, and a grid without one row per
    agent or with a level above its agent's cap. Evaluates the points with
    radio.sum_throughput's arithmetic, so the value is the same float, in
    blocks of the leading agent's levels that hold at most BLOCK_POINTS
    points, or one level where that alone is more; this bounds the memory
    the search holds.
    """
    n_combos = grid.n_power**grid.n_agents
    if n_combos > MAX_BRUTE_FORCE:
        raise ValueError(
            f"grid has {n_combos} joint points (limit {MAX_BRUTE_FORCE})"
        )
    if grid.n_agents != cfg.n_agents:
        raise ValueError(f"grid has {grid.n_agents} rows for {cfg.n_agents} agents")
    if np.any(grid.levels > cfg.p_max_mw[:, None] * (1.0 + 1e-12)):
        raise ValueError("grid levels must not exceed each agent's cap")
    lead, rest = grid.levels[0], grid.levels[1:]
    rows = max(1, BLOCK_POINTS // grid.n_power ** (grid.n_agents - 1))
    best, best_value = None, -np.inf
    for lo in range(0, grid.n_power, rows):
        powers = np.array(np.meshgrid(lead[lo : lo + rows], *rest, indexing="ij", copy=False))
        total = sum(radio.throughput(i, powers, cfg) for i in range(cfg.n_agents))
        k = np.unravel_index(np.argmax(total), total.shape)
        if total[k] > best_value:  # a later block wins only when strictly better
            best, best_value = (lo + k[0], *k[1:]), total[k]
    levels = tuple(float(grid.levels[i, a]) for i, a in enumerate(best))
    return Allocation(levels, float(best_value), "brute-force")


def greedy_allocation(cfg: radio.NetworkConfig) -> Allocation:
    """Full power to the transmitter with the larger cap, zero to the other.

    Ties go to agent 1.
    """
    if cfg.n_agents != 2:
        raise ValueError(f"greedy baseline is defined for 2 agents, got {cfg.n_agents}")
    caps = cfg.p_max_mw
    if caps[0] >= caps[1]:
        powers = (float(caps[0]), 0.0)
    else:
        powers = (0.0, float(caps[1]))
    return Allocation(powers, radio.sum_throughput(powers, cfg), "greedy")


def simultaneous_allocation(cfg: radio.NetworkConfig) -> Allocation:
    """Every transmitter at its individual power cap."""
    powers = tuple(float(c) for c in cfg.p_max_mw)
    return Allocation(powers, radio.sum_throughput(powers, cfg), "simultaneous")
