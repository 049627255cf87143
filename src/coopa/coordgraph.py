"""Coordination graphs and exact variable elimination for max-sum problems.

A set of real-valued tables, each scoped to a few agents, defines a global
objective sum_k f_k(a_scope_k). Variable elimination maximizes this sum
exactly by removing one agent at a time: all tables mentioning that agent
are collapsed into a conditional-value table (f) and a best-response table
(b) over the remaining agents. A reverse pass over the b tables recovers
the optimal joint action. A brute-force enumerator provides the testing
oracle.

Everything about an elimination except the arithmetic depends only on the
tables' scopes, the agents' action-set sizes and the order: which tables
each step sums, the scope it leaves and how each table's axes line up
with the step's joint table. An EliminationPlan is built from the tables
it runs on and the order; it works that out, and validates it, once, and
every exact maximization here is one run of a plan: eliminate_agent is
the kernel of one plan step and takes that step's layout. Who sends which
table to whom is the message-passing runner's business
(runtime.Coordination), derived from a plan's order and steps. A plan
whose tables' writers log what they write (learner.LocalQ) keeps a
StepMemo per step across its runs: a step whose tables nobody wrote
since its last run returns that run's result, and a large one recomputes
just the joint rows that the written entries, or the changed entries of
earlier steps, reach.
Tables the kernel derives skip FunctionTable's validation; each
conditional-value table is checked to be finite, which catches a sum
that overflows and a non-finite input that reaches a row's maximum.

All argmax operations break ties toward the lowest action index, and the
scope of every derived table is kept sorted by agent id, so results are
deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FunctionTable",
    "CoordinationGraph",
    "EliminationPlan",
    "StepMemo",
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

# A plan step keeps a StepMemo when its joint table has this many entries.
# Smaller ones cost little in full: memoizing the 2-cell 21x21 step made a
# 21-level train 45% slower, while ring6's 11^5 and 11^4 steps gain.
MEMO_MIN_ENTRIES = 4096

# A memoized step runs in full when a larger share of its joint rows is
# dirty; any value from 0.25 to 0.6 gave ring6 the same time per episode.
MEMO_MAX_DIRTY_SHARE = 0.5


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

    @classmethod
    def _trusted(cls, scope: tuple[int, ...], values: np.ndarray) -> FunctionTable:
        """A table whose caller guarantees what __post_init__ checks:
        scope a tuple of distinct ints, values an array with one axis per
        scope agent and finite entries."""
        table = object.__new__(cls)
        object.__setattr__(table, "scope", scope)
        object.__setattr__(table, "values", values)
        return table

    def value_at(self, assignment: dict[int, int]) -> float:
        """Evaluate the table at a (possibly larger) joint assignment."""
        idx = tuple(assignment[a] for a in self.scope)
        return self.values[idx]


@dataclass(frozen=True)
class CoordinationGraph:
    """Agents and the scopes of their local functions.

    Two agents are neighbors when they appear together in some scope.
    """

    scopes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        scopes = tuple(tuple(int(a) for a in s) for s in self.scopes)
        object.__setattr__(self, "scopes", scopes)
        if not scopes or any(len(s) == 0 for s in scopes):
            raise ValueError("every local function needs a nonempty scope")
        agents = sorted(set(itertools.chain.from_iterable(scopes)))
        object.__setattr__(self, "agents", tuple(agents))

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


def _action_sizes(scopes, shapes) -> dict[int, int]:
    """Each agent's action-set size, which every table mentioning it must
    agree on and which may not be 0."""
    sizes: dict[int, int] = {}
    for scope, shape in zip(scopes, shapes):
        for a, n in zip(scope, shape):
            if n == 0:
                raise ValueError(f"agent {a} has an empty action set")
            if sizes.setdefault(a, n) != n:
                raise ValueError(f"inconsistent action-set size for agent {a}")
    return sizes


def _views(scopes, joint: tuple[int, ...], sizes: dict[int, int]):
    """One (perm, shape) per scope that lines a table up with `joint`.

    values.transpose(perm).reshape(shape) is a view, never a copy: the
    table's axes sorted into joint order, then unit axes for the joint
    agents it does not mention.
    """
    pos = {a: k for k, a in enumerate(joint)}
    views = []
    for scope in scopes:
        axes = [pos[a] for a in scope]
        perm = tuple(sorted(range(len(axes)), key=axes.__getitem__))
        shape = [1] * len(joint)
        for k in axes:
            shape[k] = sizes[joint[k]]
        views.append((perm, tuple(shape)))
    return tuple(views)


def _aligned_sum(functions, views, joint_shape: tuple[int, ...]) -> np.ndarray:
    """Sum tables after broadcasting each through its view (see _views).

    One buffer is allocated, filled with +0.0, and every table is added
    into it in place, in the order given, so callers that need
    bit-identical sums must agree on that order. Because the sum starts
    from +0.0 and +0.0 + -0.0 == +0.0, no entry of the result is ever
    -0.0; an argmax over any axis therefore gathers back exactly the value
    max() would return, bit for bit, which is what eliminate_agent relies
    on.
    """
    total = np.zeros(joint_shape)
    for fn, (perm, shape) in zip(functions, views):
        np.add(total, fn.values.transpose(perm).reshape(shape), out=total)
    return total


class Layout(NamedTuple):
    """How one elimination lines its tables up in its joint table.

    The joint table has axes remaining + (agent,) and shape joint_shape;
    views holds one (perm, shape) per summed table (see _views), and rows
    the flat index of each joint row's first entry. marks holds, per
    summed table, its shape and, for each remaining agent, that agent's
    axis in the table or None: which joint rows an entry reaches.
    """

    remaining: tuple[int, ...]
    views: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    joint_shape: tuple[int, ...]
    rows: np.ndarray
    marks: tuple[tuple[tuple[int, ...], tuple[int | None, ...]], ...]


def _layout(scopes, sizes: dict[int, int], agent: int) -> Layout:
    remaining = sorted(set(itertools.chain.from_iterable(scopes)))
    remaining.remove(agent)
    if len(remaining) > MAX_INDUCED_SCOPE:
        raise ValueError(
            f"eliminating agent {agent} would induce a table over {len(remaining)} "
            f"agents (limit {MAX_INDUCED_SCOPE})"
        )
    joint = (*remaining, agent)
    joint_shape = tuple(sizes[a] for a in joint)
    rows = np.arange(0, math.prod(joint_shape), joint_shape[-1])
    rows.flags.writeable = False  # shared by every run of the plan
    marks = tuple(
        (tuple(sizes[a] for a in scope), tuple(scope.index(a) if a in scope else None for a in remaining))
        for scope in scopes
    )
    return Layout(tuple(remaining), _views(scopes, joint, sizes), joint_shape, rows, marks)


def eliminate_agent(functions, agent: int, *, layout: Layout) -> tuple[FunctionTable, FunctionTable]:
    """Maximize the sum of one EliminationPlan step's tables over `agent`'s action.

    `functions` must be exactly the tables the step gathers, in its order,
    and `layout` the step's; nothing is derived or validated again.
    Returns (f, b): f maps each joint action of layout.remaining to the
    best achievable sum, b to the maximizing action index of `agent`
    (lowest index on ties).
    """
    joint = _aligned_sum(functions, layout.views, layout.joint_shape)
    best = np.asarray(joint.argmax(axis=-1))
    # One reduction: read each row's maximum back at its argmax, by flat
    # index into the (contiguous) joint table.
    values = joint.take(layout.rows + best.ravel()).reshape(best.shape)
    _check_finite(values, agent)
    f = FunctionTable._trusted(layout.remaining, values)
    b = FunctionTable._trusted(layout.remaining, best)
    return f, b


def _check_finite(values: np.ndarray, agent: int) -> None:
    if not np.isfinite(values).all():
        raise ValueError(
            f"eliminating agent {agent}: conditional values are not finite "
            "(non-finite input or overflow)"
        )


class PlanStep(NamedTuple):
    """One elimination of an EliminationPlan.

    gather holds the births of the tables it sums, ascending. memo says
    whether a tracked plan recomputes just this step's dirty rows: its
    result has a scope and its joint table MEMO_MIN_ENTRIES entries.
    """

    agent: int
    gather: tuple[int, ...]
    layout: Layout
    memo: bool


class StepMemo:
    """A plan step's last result in its EliminationPlan, which owns it.

    f and b are the step's conditional-value and best-response tables as
    of its last run, and seen the version of each table it gathered then.
    A run writes changed rows into b in place but replaces f by a copy,
    so an f once returned never changes.
    version counts the runs that changed f; changed holds the flat indices
    of the entries of f the latest one changed (None: all of them).
    """

    __slots__ = ("f", "b", "seen", "version", "changed")

    def __init__(self):
        self.f = self.b = self.seen = self.changed = None
        self.version = 0

    def changes_since(self, version: int):
        """Flat indices of the entries of f changed after `version`, or
        None when that is not known."""
        if version == self.version:
            return ()
        return self.changed if version == self.version - 1 else None


def _dirty_rows(layout: Layout, sources, seen) -> np.ndarray | None:
    """Flat indices of the joint rows that the changes to the gathered
    tables since `seen` reach, or None when a change is not known."""
    dirty = np.zeros(layout.joint_shape[:-1], dtype=bool)
    for source, version, (shape, axes) in zip(sources, seen, layout.marks):
        entries = source.changes_since(version)
        if entries is None:
            return None
        if len(entries):
            at = np.unravel_index(entries, shape)
            dirty[tuple(slice(None) if k is None else at[k] for k in axes)] = True
    return np.flatnonzero(dirty)


def _run_step(step: PlanStep, memo: StepMemo, functions, sources, seen) -> FunctionTable:
    """Run one step, continuing from its memo where that pays, and update
    the memo; returns the step's f.

    A memoized step with at most MEMO_MAX_DIRTY_SHARE of its joint rows
    dirty recomputes just those. Each sums the same tables in the same
    order from +0.0 as the full kernel, so f and b there equal its bits
    and action indices; other rows keep the memo's. They go into the
    memo's b in place once they pass the finite check (only the plan
    reads b), and into a copy of f, which callers hold. Every other run
    takes eliminate_agent in full. An f with a scope, which a later step
    gathers, is returned as the memo's object when equal to it (f never
    holds -0.0, see _aligned_sum, so equal values are equal bits), so that
    step sees no change; the entries that changed are logged in the memo.
    """
    layout = step.layout
    rows = None
    if step.memo and memo.seen is not None:
        rows = _dirty_rows(layout, sources, memo.seen)
    if rows is not None and rows.size <= MEMO_MAX_DIRTY_SHARE * layout.rows.size:
        idx = np.unravel_index(rows, layout.joint_shape[:-1])
        total = np.zeros((rows.size, layout.joint_shape[-1]))
        for fn, (perm, shape) in zip(functions, layout.views):
            view = fn.values.transpose(perm).reshape(shape)
            # Unit axes of the view (agents the table does not mention) take index 0.
            np.add(total, view[tuple(i if n != 1 else 0 for i, n in zip(idx, shape))], out=total)
        best = total.argmax(axis=-1)
        values = total[np.arange(rows.size), best]
        _check_finite(values, step.agent)
        b = memo.b
        np.put(b.values, rows, best)
        moved = values != memo.f.values.take(rows)
        changed = rows[moved]
        f = memo.f
        if changed.size:
            f = memo.f.values.copy()
            np.put(f, changed, values[moved])
            f = FunctionTable._trusted(layout.remaining, f)
    else:
        f, b = eliminate_agent(functions, step.agent, layout=layout)
        changed = None
        if layout.remaining and memo.f is not None:
            changed = (f.values != memo.f.values).ravel().nonzero()[0]
            if not changed.size:
                f = memo.f
    memo.f, memo.b, memo.seen = f, b, seen
    if changed is None or changed.size:
        memo.version += 1
        memo.changed = changed
    return f


class EliminationPlan:
    """Variable elimination of fixed tables in a fixed order, for repeated runs.

    Tables are numbered by birth: the n input tables are 0..n-1 in the
    order given, and step k's conditional-value table is n + k. Each step
    gathers every live table mentioning its agent and sums them in birth
    order, so every runner of the plan gets the same bits. A step whose
    result has an empty scope finishes a component: `finished` lists the
    births of all such values (and of constant input tables), summed in
    birth order. The steps, and their validation, depend only on the
    tables' scopes and shapes and the order, and are worked out once.

    Each input table's array must stay the same object and change only in
    place. With trackers, each write goes through a writer that logs it:
    trackers[i], for input i, has a `version` and changes_since(version)
    (LocalQ does). Each step keeps a StepMemo, which tracks its f the same
    way. A step whose gathered tables are all at the versions of its last
    run returns that run's f and b; a memoized step (PlanStep.memo) takes
    its dirty rows from the writers' logs and the rows the steps before it
    changed; any other step runs eliminate_agent in full. The result
    equals a fresh plan's bit for bit. A step updates its memo only once
    it succeeded, so a run that raises leaves no memo ahead of the tables
    it saw. Without trackers every run is a full one.
    """

    def __init__(self, tables, order, trackers=None):
        self.tables = tuple(tables)
        order = tuple(int(a) for a in order)
        scopes = [t.scope for t in self.tables]
        if not scopes:
            raise ValueError("nothing to maximize: empty function set")
        in_scopes = set(itertools.chain.from_iterable(scopes))
        if set(order) != in_scopes or len(set(order)) != len(order):
            raise ValueError(
                f"elimination order {order} must cover exactly the agents {sorted(in_scopes)}"
            )
        sizes = _action_sizes(scopes, [t.values.shape for t in self.tables])

        live = [(k, s) for k, s in enumerate(scopes) if s]
        steps = []
        finished = [k for k, s in enumerate(scopes) if not s]
        for agent in order:
            gather = [(k, s) for k, s in live if agent in s]
            live = [(k, s) for k, s in live if agent not in s]
            layout = _layout([s for _, s in gather], sizes, agent)
            birth = len(scopes) + len(steps)
            if layout.remaining:
                live.append((birth, layout.remaining))
            else:
                finished.append(birth)
            memo = bool(layout.remaining) and math.prod(layout.joint_shape) >= MEMO_MIN_ENTRIES
            steps.append(PlanStep(agent, tuple(k for k, _ in gather), layout, memo))

        self.order = order
        self.steps = tuple(steps)
        self.finished = tuple(finished)
        self.memos = tuple(StepMemo() for _ in self.steps)
        self._tracked = trackers is not None
        sources = [*(trackers or [None] * len(scopes)), *self.memos]
        self._steps = tuple(
            (step, memo, tuple(sources[i] for i in step.gather)) for step, memo in zip(self.steps, self.memos)
        )
        self._born = list(self.tables) + [None] * len(self.steps)

    def run(self) -> tuple[dict[int, int], float, list[FunctionTable]]:
        """Maximize the sum of the tables' current values.

        Eliminates every agent in order, sums the finished components'
        values, then walks the steps in reverse, giving each agent its
        best response to the agents already decided. Returns the joint
        action {agent: action index}, keyed in that reverse order, the
        attained value, and each step's conditional-value table.
        """
        born = self._born
        k = len(self.tables)
        for step, memo, sources in self._steps:
            seen = None
            if self._tracked:
                seen = tuple([source.version for source in sources])
            if seen is not None and seen == memo.seen:
                born[k] = memo.f
            else:
                born[k] = _run_step(step, memo, [born[i] for i in step.gather], sources, seen)
            k += 1
        value = 0.0
        for i in self.finished:
            value += float(born[i].values)
        assignment: dict[int, int] = {}
        for step, memo in zip(reversed(self.steps), reversed(self.memos)):
            assignment[step.agent] = int(memo.b.values[tuple([assignment[a] for a in step.layout.remaining])])
        return assignment, value, born[len(self.tables):]


def ve_argmax(functions, order) -> tuple[dict[int, int], float]:
    """Exact max-sum over a set of scoped tables via variable elimination.

    Eliminates agents in `order`, then recovers each agent's best response
    in reverse order (EliminationPlan.run). Returns the optimal joint
    action as {agent: action index} and the attained value.

    `order` must be a permutation of exactly the agents appearing in the
    scopes. Each call builds its own plan; a caller that maximizes the
    same tables repeatedly keeps one instead.
    """
    return EliminationPlan(functions, order).run()[:2]


def brute_force_argmax(functions) -> tuple[dict[int, int], float]:
    """Exhaustive max-sum oracle with lexicographic lowest-index tie-break.

    Enumerates the full joint-action space of all agents appearing in any
    scope; refuses spaces larger than MAX_BRUTE_FORCE combinations.
    """
    functions = tuple(functions)
    if not functions:
        raise ValueError("nothing to maximize: empty function set")
    scopes = [fn.scope for fn in functions]
    agents = tuple(sorted(set(itertools.chain.from_iterable(scopes))))
    sizes = _action_sizes(scopes, [fn.values.shape for fn in functions])
    n_combos = 1
    for a in agents:
        n_combos *= sizes[a]
    if n_combos > MAX_BRUTE_FORCE:
        raise ValueError(
            f"joint action space has {n_combos} combinations "
            f"(limit {MAX_BRUTE_FORCE})"
        )

    shape = tuple(sizes[a] for a in agents)
    total = _aligned_sum(functions, _views(scopes, agents, sizes), shape)
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
