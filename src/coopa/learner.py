"""Per-agent tabular Q-learning: local tables, the decomposed update, exploration.

Each agent owns one table per state over the joint actions of its scope
(itself plus the agents it coordinates with). The update writes a single
entry using the reward the agent observed and the bootstrap value of the
scoped slice of the jointly-greedy action, which the coordinator supplies.
"""

from __future__ import annotations

import csv
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
    """State-indexed Q-table of one agent over its scope's joint actions.

    n_actions gives the action-set size of each scope agent, in scope
    order. Tables start at zero for every state.
    """

    agent: int
    scope: tuple[int, ...]
    n_actions: tuple[int, ...]
    states: tuple = (0,)
    tables: dict = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        self.scope = tuple(int(a) for a in self.scope)
        self.n_actions = tuple(int(n) for n in self.n_actions)
        if self.agent not in self.scope:
            raise ValueError(f"scope {self.scope} must contain the owner {self.agent}")
        if len(self.n_actions) != len(self.scope):
            raise ValueError("n_actions must give one size per scope agent")
        if self.tables is None:
            self.tables = {x: np.zeros(self.n_actions) for x in self.states}
        for x, tab in self.tables.items():
            if np.shape(tab) != self.n_actions:
                raise ValueError(
                    f"table for state {x!r} has shape {np.shape(tab)}, expected {self.n_actions}"
                )
            if not np.all(np.isfinite(tab)):
                raise ValueError(f"table for state {x!r} of agent {self.agent} must be finite")

    def table(self, state) -> np.ndarray:
        try:
            return self.tables[state]
        except KeyError:
            raise ValueError(f"unknown state {state!r} for agent {self.agent}") from None

    def as_function_table(self, state) -> FunctionTable:
        """View of this state's table for variable elimination (no copy).

        Not validated again: the table was checked at construction and
        local_update writes only finite entries.
        """
        return FunctionTable._trusted(self.scope, self.table(state))

    def slice_joint(self, joint: dict[int, int]) -> tuple[int, ...]:
        """Restrict a joint action {agent: index} to this scope, in order."""
        return tuple(joint[a] for a in self.scope)

    def write_csv(self, path) -> None:
        """Dump the table, one row per state and scoped joint action."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["state"] + [f"a{a}" for a in self.scope] + ["q"])
            for state in self.states:
                tab = self.tables[state]
                for idx in np.ndindex(tab.shape):
                    writer.writerow([state, *idx, repr(float(tab[idx]))])


def local_update(
    q: LocalQ,
    x,
    a_j: tuple[int, ...],
    r_j: float,
    x_next,
    a_star_j: tuple[int, ...],
    params: LearningParams,
) -> LocalQ:
    """One-step Q-learning update of a single table entry.

    q(x, a_j) += alpha * (r_j + gamma * q(x_next, a_star_j) - q(x, a_j)),
    where a_star_j is this agent's scoped slice of the jointly-greedy
    action. Returns q, whose table was updated in place. Raises
    ValueError, leaving the table as it was, when the new entry would not
    be finite: a NaN or infinite reward, or an overflow.
    """
    tab = q.table(x)
    a_j = tuple(a_j)
    a_star_j = tuple(a_star_j)
    for action in (a_j, a_star_j):
        if len(action) != len(q.scope) or any(
            not 0 <= k < n for k, n in zip(action, q.n_actions)
        ):
            raise ValueError(f"invalid scoped action {action} for scope {q.scope}")
    bootstrap = q.table(x_next)[a_star_j]
    old = tab[a_j]
    new = old + params.alpha * (r_j + params.gamma * bootstrap - old)
    if not math.isfinite(new):
        raise ValueError(
            f"agent {q.agent}: updating Q{a_j} with reward {r_j!r} gives {float(new)}, not a finite value"
        )
    tab[a_j] = new
    return q


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
