"""Coordination graphs and exact variable elimination for max-sum problems.

A set of real-valued tables, each scoped to a few agents, defines a global
objective sum_k f_k(a_scope_k). Variable elimination maximizes this sum
exactly by removing one agent at a time: all tables mentioning that agent
are collapsed into a conditional-value table (f) and a best-response table
(b) over the remaining agents. A reverse pass over the recorded b tables
recovers the optimal joint action. A brute-force enumerator provides the
testing oracle.

All argmax operations break ties toward the lowest action index, and the
scope of every derived table is kept sorted by agent id, so results are
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FunctionTable",
    "CoordinationGraph",
    "EliminationRecord",
    "eliminate_agent",
    "ve_argmax",
    "brute_force_argmax",
    "default_elimination_order",
    "MAX_INDUCED_SCOPE",
    "MAX_BRUTE_FORCE",
]

# Variable elimination is exponential in the induced width; fail fast
# instead of exhausting memory on an unexpectedly dense graph.
MAX_INDUCED_SCOPE = 8

# Cap on enumerable joint-action combinations for the brute-force oracle.
MAX_BRUTE_FORCE = 10**7


@dataclass(frozen=True)
class FunctionTable:
    """A dense table of values over the joint actions of an ordered scope.

    values has one axis per scope agent, in scope order; entry
    values[a_1, ..., a_k] is the table value when scope agent m plays
    action index a_m.
    """

    scope: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        scope = tuple(int(a) for a in self.scope)
        values = np.asarray(self.values)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "values", values)
        if len(set(scope)) != len(scope):
            raise ValueError(f"scope has duplicate agents: {scope}")
        if values.ndim != len(scope):
            raise ValueError(
                f"values has {values.ndim} axes but scope has {len(scope)} agents"
            )
        if values.dtype.kind == "f" and not np.all(np.isfinite(values)):
            raise ValueError("table values must be finite")

    def value_at(self, assignment: dict[int, int]) -> float:
        """Evaluate the table at a (possibly larger) joint assignment."""
        idx = tuple(assignment[a] for a in self.scope)
        return self.values[idx]


@dataclass(frozen=True)
class EliminationRecord:
    """What one elimination step leaves behind for the recovery pass.

    f holds the conditional maxima over the remaining scope, b the action
    index of the eliminated agent achieving each of them.
    """

    agent: int
    f: FunctionTable
    b: FunctionTable

    def __post_init__(self):
        if self.f.scope != self.b.scope:
            raise ValueError("f and b must share an identical scope")


@dataclass(frozen=True)
class CoordinationGraph:
    """Agents, the scopes of their local functions, and an elimination order.

    Two agents are neighbors when they appear together in some scope.
    """

    scopes: tuple[tuple[int, ...], ...]
    elimination_order: tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        scopes = tuple(tuple(int(a) for a in s) for s in self.scopes)
        object.__setattr__(self, "scopes", scopes)
        if not scopes or any(len(s) == 0 for s in scopes):
            raise ValueError("every local function needs a nonempty scope")
        agents = sorted(set(itertools.chain.from_iterable(scopes)))
        object.__setattr__(self, "agents", tuple(agents))
        if self.elimination_order is None:
            object.__setattr__(self, "elimination_order", tuple(reversed(agents)))
        else:
            order = tuple(int(a) for a in self.elimination_order)
            object.__setattr__(self, "elimination_order", order)
            if sorted(order) != agents:
                raise ValueError(
                    f"elimination order {order} is not a permutation of agents {agents}"
                )

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def neighbors(self, agent: int) -> set[int]:
        out: set[int] = set()
        for s in self.scopes:
            if agent in s:
                out.update(s)
        out.discard(agent)
        return out

    def edges(self) -> set[frozenset[int]]:
        """Coordination-graph edges: pairs of agents sharing some scope."""
        es: set[frozenset[int]] = set()
        for s in self.scopes:
            es.update(frozenset(p) for p in itertools.combinations(s, 2))
        return es


def _aligned_sum(functions, scope: tuple[int, ...]) -> np.ndarray:
    """Sum tables after broadcasting each onto the axes of `scope`.

    Every function's scope must be a subset of `scope`. One buffer is
    allocated, filled with +0.0, and every table is added into it in
    place, in the order given, so callers that need bit-identical sums
    must agree on that order. Because the sum starts from +0.0 and
    +0.0 + -0.0 == +0.0, no entry of the result is ever -0.0; an argmax
    over any axis therefore gathers back exactly the value max() would
    return, bit for bit, which is what eliminate_agent relies on.
    """
    pos = {a: k for k, a in enumerate(scope)}
    placed = []
    sizes = [1] * len(scope)
    for fn in functions:
        axes = [pos[a] for a in fn.scope]
        # The table's axes sorted into joint-scope order, then unit axes
        # for the joint agents it does not mention: a view, never a copy.
        perm = sorted(range(len(axes)), key=axes.__getitem__)
        shape = [1] * len(scope)
        for k, n in zip(axes, fn.values.shape):
            shape[k] = sizes[k] = n
        placed.append(fn.values.transpose(perm).reshape(shape))
    total = np.zeros(sizes)
    for view in placed:
        np.add(total, view, out=total)
    return total


def eliminate_agent(
    functions,
    agent: int,
    max_induced_scope: int = MAX_INDUCED_SCOPE,
) -> tuple[FunctionTable, FunctionTable, tuple[FunctionTable, ...]]:
    """Maximize the sum of all tables mentioning `agent` over its action.

    Returns (f, b, untouched): f maps each joint action of the combined
    remaining scope to the best achievable sum, b to the maximizing action
    index of the eliminated agent (lowest index on ties), and untouched is
    the input functions that did not mention `agent`, in input order.
    """
    functions = tuple(functions)
    involved = tuple(fn for fn in functions if agent in fn.scope)
    untouched = tuple(fn for fn in functions if agent not in fn.scope)
    if not involved:
        raise ValueError(f"agent {agent} appears in no function scope")

    remaining = sorted(set(itertools.chain.from_iterable(fn.scope for fn in involved)))
    remaining.remove(agent)
    if len(remaining) > max_induced_scope:
        raise ValueError(
            f"eliminating agent {agent} would induce a table over {len(remaining)} "
            f"agents (limit {max_induced_scope})"
        )

    joint = _aligned_sum(involved, tuple(remaining) + (agent,))
    best = joint.argmax(axis=-1)
    # One reduction: read each row's maximum back at its argmax, by flat
    # index into the (contiguous) joint table.
    flat = np.arange(0, joint.size, joint.shape[-1])
    flat += best.ravel()
    f = FunctionTable(tuple(remaining), joint.take(flat).reshape(best.shape))
    b = FunctionTable(tuple(remaining), best)
    return f, b, untouched


def ve_argmax(
    functions,
    order,
    max_induced_scope: int = MAX_INDUCED_SCOPE,
) -> tuple[dict[int, int], float]:
    """Exact max-sum over a set of scoped tables via variable elimination.

    Eliminates agents in `order`, stacking one EliminationRecord per step,
    then replays the records in reverse to assign each agent its recorded
    best response given the agents already decided. Returns the optimal
    joint action as {agent: action index} and the attained value.

    `order` must be a permutation of exactly the agents appearing in the
    scopes.
    """
    functions = tuple(functions)
    if not functions:
        raise ValueError("nothing to maximize: empty function set")
    order = tuple(int(a) for a in order)
    in_scopes = set(itertools.chain.from_iterable(fn.scope for fn in functions))
    if set(order) != in_scopes or len(set(order)) != len(order):
        raise ValueError(
            f"elimination order {order} must cover exactly the agents {sorted(in_scopes)}"
        )

    live = list(functions)
    records: list[EliminationRecord] = []
    constants = 0.0
    for agent in order:
        f, b, untouched = eliminate_agent(live, agent, max_induced_scope)
        records.append(EliminationRecord(agent=agent, f=f, b=b))
        if f.scope:
            live = list(untouched) + [f]
        else:
            # Fully eliminated component; carry its value forward.
            constants += float(f.values)
            live = list(untouched)

    assignment: dict[int, int] = {}
    for rec in reversed(records):
        idx = tuple(assignment[a] for a in rec.b.scope)
        assignment[rec.agent] = int(rec.b.values[idx])
    return assignment, constants


def brute_force_argmax(functions) -> tuple[dict[int, int], float]:
    """Exhaustive max-sum oracle with lexicographic lowest-index tie-break.

    Enumerates the full joint-action space of all agents appearing in any
    scope; refuses spaces larger than MAX_BRUTE_FORCE combinations.
    """
    functions = tuple(functions)
    if not functions:
        raise ValueError("nothing to maximize: empty function set")
    agents = sorted(set(itertools.chain.from_iterable(fn.scope for fn in functions)))
    sizes: dict[int, int] = {}
    for fn in functions:
        for a, n in zip(fn.scope, fn.values.shape):
            if sizes.setdefault(a, n) != n:
                raise ValueError(f"inconsistent action-set size for agent {a}")
    n_combos = 1
    for a in agents:
        n_combos *= sizes[a]
    if n_combos > MAX_BRUTE_FORCE:
        raise ValueError(
            f"joint action space has {n_combos} combinations "
            f"(limit {MAX_BRUTE_FORCE})"
        )

    total = _aligned_sum(functions, tuple(agents))
    # C-order argmax scans lexicographically, so the first maximum is the
    # lowest-index tie-break.
    flat = int(np.argmax(total))
    idx = np.unravel_index(flat, total.shape)
    assignment = {a: int(k) for a, k in zip(agents, idx)}
    return assignment, float(total[idx])


def default_elimination_order(graph: CoordinationGraph, strategy: str = "fixed-reverse"):
    """Produce an elimination order for a coordination graph.

    "fixed-reverse" eliminates agents in descending id order. "min-degree"
    greedily eliminates the agent with the fewest neighbors in the current
    induced graph (ties to the lowest id), connecting its neighbors after
    each removal.
    """
    if strategy == "fixed-reverse":
        return tuple(sorted(graph.agents, reverse=True))
    if strategy == "min-degree":
        adj = {a: graph.neighbors(a) for a in graph.agents}
        order: list[int] = []
        while adj:
            agent = min(adj, key=lambda a: (len(adj[a]), a))
            nbrs = adj.pop(agent)
            for u in nbrs:
                adj[u].discard(agent)
                adj[u].update(nbrs - {u})
            order.append(agent)
        return tuple(order)
    raise ValueError(f"unknown elimination strategy: {strategy!r}")
