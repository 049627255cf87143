"""Per-agent tabular Q-learning: local tables, the decomposed update, exploration.

Each agent owns one table (the channel is stateless) over the joint actions
of its scope: itself plus the agents it coordinates with. The update writes
one entry from the observed reward and the bootstrap value of the scoped
slice of the jointly-greedy action, which the coordinator supplies.

The table owns its writes: outside the update and LocalQ.write it is
read-only, and every write is logged by flat index. The coordinator's
eliminations read that log to learn what changed since they last ran
(coordgraph.EliminationPlan, with the LocalQs as its trackers).

The defaults (alpha 0.5, gamma 0.9) settle on two cells and a 3-cell line
but not on every graph: on a 4-cell line (3 levels, beta 0.3, epsilon 1 to
0.05 over 12,000 episodes, seeds 0-4) the greedy joint action cycles, with
1,865-2,025 changes in the last 3,000 episodes. Alpha 0.1 or gamma 0.5
settle there, on the brute-force grid optimum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .coordgraph import FunctionTable

__all__ = ["LearningParams", "LocalQ", "local_update", "epsilon_at", "explore_override"]


def require_count(name: str, value) -> None:
    """Raise ValueError naming `name` unless value is an int or a numpy
    integer; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        require_count("epsilon_decay_episodes", self.epsilon_decay_episodes)
        if self.epsilon_decay_episodes < 0:
            raise ValueError("epsilon_decay_episodes must be nonnegative")


class LocalQ:
    """Q-table of one agent over its scope's joint actions, which owns its writes.

    n_actions gives the action-set size of each scope agent, in scope
    order. The table starts at zero unless values are given, which are
    copied into a float array. `values` is a read-only view of it: the
    table changes only through local_update and write, and both log every
    entry they write by flat (C-order) index. A reader that noted
    `version` learns what was written since from changes_since, without
    keeping a copy to compare against.
    """

    def __init__(self, agent: int, scope, n_actions, values=None):
        self.agent = agent
        self.scope = tuple(int(a) for a in scope)
        self.n_actions = tuple(int(n) for n in n_actions)
        if self.agent not in self.scope:
            raise ValueError(f"scope {self.scope} must contain the owner {self.agent}")
        if len(self.n_actions) != len(self.scope):
            raise ValueError("n_actions must give one size per scope agent")
        table = np.zeros(self.n_actions) if values is None else np.array(values, dtype=float)
        if table.shape != self.n_actions:
            raise ValueError(f"table has shape {table.shape}, expected {self.n_actions}")
        if not np.all(np.isfinite(table)):
            raise ValueError(f"table of agent {self.agent} must be finite")
        self._flat = table.reshape(-1)  # the one writeable alias
        self.size = table.size
        self._values = table.view()
        self._values.flags.writeable = False
        self.version = 0  # entries written so far
        self._log: list[int] = []  # flat indices of the last writes, oldest first
        self._log_start = 0  # version before _log[0]

    @property
    def values(self) -> np.ndarray:
        """The table, read-only; write through local_update or write."""
        return self._values

    def write(self, key, value) -> None:
        """values[key] = value, for any numpy index `key`, logged.

        Unchecked, like an assignment: a non-finite entry is caught only
        where it reaches an elimination's result (coordgraph).
        """
        entries = np.arange(self.size).reshape(self.n_actions)[key]
        self._flat.reshape(self.n_actions)[key] = value
        self._note(np.ravel(entries).tolist())

    def _note(self, entries: list[int]) -> None:
        self._log += entries
        self.version += len(entries)
        if len(self._log) > 2 * self.size:
            # A reader this far behind recomputes everything anyway.
            drop = len(self._log) - self.size
            del self._log[:drop]
            self._log_start += drop

    def changes_since(self, version: int):
        """Flat indices written after `version` (repeats possible), or None
        when the log no longer reaches back that far."""
        start = version - self._log_start
        return None if start < 0 else self._log[start:]

    def entry(self, action) -> int:
        """Flat index of a scoped action: ValueError outside the table,
        TypeError for an index that is not an integer."""
        if len(action) != len(self.n_actions):
            raise ValueError(f"invalid scoped action {tuple(action)} for scope {self.scope}")
        flat = 0
        for k, n in zip(action, self.n_actions):
            if not 0 <= k < n:
                raise ValueError(f"invalid scoped action {tuple(action)} for scope {self.scope}")
            flat = flat * n + operator.index(k)
        return flat

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
        return tuple([joint[a] for a in self.scope])


def local_update(
    q: LocalQ,
    a_j: tuple[int, ...],
    r_j: float,
    a_star_j: tuple[int, ...],
    params: LearningParams,
) -> None:
    """One-step Q-learning update of a single entry of q's table, in place.

    q(a_j) += alpha * (r_j + gamma * q(a_star_j) - q(a_j)), where a_star_j
    is this agent's scoped slice of the jointly-greedy action. The write
    is logged (LocalQ). Raises ValueError, leaving the table as it was,
    when the new entry would not be finite: a NaN or infinite reward, or
    an overflow.
    """
    at = q.entry(a_j)
    flat = q._flat
    old = flat.item(at)
    new = old + params.alpha * (r_j + params.gamma * flat.item(q.entry(a_star_j)) - old)
    if not math.isfinite(new):
        raise ValueError(
            f"agent {q.agent}: updating Q{tuple(a_j)} with reward {r_j!r} gives {float(new)}, not a finite value"
        )
    flat[at] = new
    q._note([at])


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
