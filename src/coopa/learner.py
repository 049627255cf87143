"""Per-agent tabular Q-learning: local tables, the decomposed update, exploration.

Each agent owns one table (the channel is stateless) over the joint actions
of its scope: itself plus the agents it coordinates with. The update writes
one entry from the observed reward and the bootstrap value of the scoped
slice of the jointly-greedy action, which the coordinator supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coordgraph import FunctionTable

__all__ = ["LearningParams", "LocalQ", "local_update", "epsilon_at", "explore_override"]


@dataclass(frozen=True)
class LearningParams:
    """Learning rate, discount, and the epsilon-greedy decay schedule."""

    alpha: float = 0.5
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int = 1

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        for name in ("epsilon_start", "epsilon_end"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.epsilon_start < self.epsilon_end:
            raise ValueError("epsilon_start must be >= epsilon_end")
        if self.epsilon_decay_episodes < 0:
            raise ValueError("epsilon_decay_episodes must be nonnegative")


@dataclass
class LocalQ:
    """Q-table of one agent over its scope's joint actions.

    n_actions gives the action-set size of each scope agent, in scope
    order. The table starts at zero unless values are given, which are
    held as a float array.
    """

    agent: int
    scope: tuple[int, ...]
    n_actions: tuple[int, ...]
    values: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        self.scope = tuple(int(a) for a in self.scope)
        self.n_actions = tuple(int(n) for n in self.n_actions)
        if self.agent not in self.scope:
            raise ValueError(f"scope {self.scope} must contain the owner {self.agent}")
        if len(self.n_actions) != len(self.scope):
            raise ValueError("n_actions must give one size per scope agent")
        if self.values is None:
            self.values = np.zeros(self.n_actions)
        self.values = np.asarray(self.values, dtype=float)
        if np.shape(self.values) != self.n_actions:
            raise ValueError(
                f"table has shape {np.shape(self.values)}, expected {self.n_actions}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"table of agent {self.agent} must be finite")

    def table(self, state) -> np.ndarray:
        """The table; state must be 0 and stays only for bench/workloads.py."""
        if state != 0:
            raise ValueError(f"unknown state {state!r} for agent {self.agent}")
        return self.values

    def as_function_table(self, state) -> FunctionTable:
        """View of the table for variable elimination (no copy); state must
        be 0 and stays only for bench/workloads.py.

        Not validated again: the table was checked at construction and
        local_update writes only finite entries.
        """
        return FunctionTable._trusted(self.scope, self.table(state))

    def slice_joint(self, joint: dict[int, int]) -> tuple[int, ...]:
        """Restrict a joint action {agent: index} to this scope, in order."""
        return tuple(joint[a] for a in self.scope)


def local_update(
    q: LocalQ,
    a_j: tuple[int, ...],
    r_j: float,
    a_star_j: tuple[int, ...],
    params: LearningParams,
) -> None:
    """One-step Q-learning update of a single entry of q's table, in place.

    q(a_j) += alpha * (r_j + gamma * q(a_star_j) - q(a_j)), where a_star_j
    is this agent's scoped slice of the jointly-greedy action. Raises
    ValueError, leaving the table as it was, when the new entry would not
    be finite: a NaN or infinite reward, or an overflow.
    """
    tab = q.values
    a_j = tuple(a_j)
    a_star_j = tuple(a_star_j)
    for action in (a_j, a_star_j):
        if len(action) != len(q.scope) or any(
            not 0 <= k < n for k, n in zip(action, q.n_actions)
        ):
            raise ValueError(f"invalid scoped action {action} for scope {q.scope}")
    bootstrap = tab[a_star_j]
    old = tab[a_j]
    new = old + params.alpha * (r_j + params.gamma * bootstrap - old)
    if not math.isfinite(new):
        raise ValueError(
            f"agent {q.agent}: updating Q{a_j} with reward {r_j!r} gives {float(new)}, not a finite value"
        )
    tab[a_j] = new


def epsilon_at(episode: int, params: LearningParams) -> float:
    """Exploration rate: linear decay from start to end, constant after."""
    if episode < 0:
        raise ValueError(f"episode must be nonnegative, got {episode}")
    if episode >= params.epsilon_decay_episodes or params.epsilon_decay_episodes == 0:
        return params.epsilon_end
    frac = episode / params.epsilon_decay_episodes
    return params.epsilon_start + frac * (params.epsilon_end - params.epsilon_start)


def explore_override(assigned: int, epsilon: float, rng, n_actions: int) -> int:
    """Epsilon-greedy override of the coordinator-assigned action.

    With probability epsilon returns a uniform random action index,
    otherwise the assigned one.
    """
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(n_actions))
    return int(assigned)
