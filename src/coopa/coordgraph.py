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
whose tables' writers log what they write (learner.LocalQ) remembers
where its last complete run began; every plan holds each step's last f
among its tables' births, and the last b of each step that is not
memoized. A run when nothing was written returns the last result, a
step none of whose tables changed since returns its last f (and b), and
a large, memoized one recomputes just the values of the joint rows that
the written entries, or the changed entries of earlier steps, reach. It
reads those rows through flat offsets into its tables that the plan
works out once, and keeps no b: recovery recomputes its best response
in the one row it reads.
Tables the kernel derives skip FunctionTable's validation; each
conditional-value table is checked to be finite, which catches a sum
that overflows and a non-finite input that reaches a row's maximum, and
so is the sum of the finished components' values.

All argmax operations break ties toward the lowest action index, and the
scope of every derived table is kept sorted by agent id, so results are
deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FunctionTable",
    "CoordinationGraph",
    "EliminationPlan",
    "eliminate_agent",
    "ve_argmax",
    "brute_force_argmax",
    "default_elimination_order",
    "MAX_TABLE_ENTRIES",
]

# Most entries an elimination step's joint table, a brute-force search's
# joint space, or the agents' Q-tables together may have (80 MB of
# float64): a larger problem is refused before anything is allocated
# rather than failing in numpy. A step is memoized only when its offsets,
# one int32 per joint row for each table it sums, fit it too.
MAX_TABLE_ENTRIES = 10**7

# A plan step is memoized when its joint table has this many entries.
# Smaller ones cost little in full: memoizing the 2-cell 21x21 step made a
# 21-level train 45% slower, while ring6's 11^5 and 11^4 steps gain.
MEMO_MIN_ENTRIES = 4096

# A memoized step runs in full when its changed entries may reach a larger
# share of its joint rows; any value from 0.25 to 0.6 gave ring6 the same
# time per episode when the share counted the rows they did reach.
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


@dataclass(frozen=True)
class CoordinationGraph:
    """The scopes of the agents' local functions, as tuples of ints, and
    `agents`, every agent they mention, ascending: what
    default_elimination_order reads. Two agents are neighbors when they
    appear together in some scope.
    """

    scopes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        scopes = tuple(tuple(int(a) for a in s) for s in self.scopes)
        object.__setattr__(self, "scopes", scopes)
        if not scopes or any(len(s) == 0 for s in scopes):
            raise ValueError("every local function needs a nonempty scope")
        agents = sorted(set(itertools.chain.from_iterable(scopes)))
        object.__setattr__(self, "agents", tuple(agents))


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


class Gather(NamedTuple):
    """Where a memoized step's row path and recovery read one gathered
    table, by flat (C-order) offset, and which joint rows its entries
    reach.

    Every gathered table mentions the eliminated agent, whose n actions
    index the first axis of values.transpose(perm).reshape(n, -1), a view
    unless the agent's axis is neither the table's first nor its last.
    columns, shaped like the step's remaining axes, holds each joint row's
    offset along the second axis, so joint row r is column
    columns.take(r). entry_rows holds, for each table entry, the flat
    index of the first joint row it reaches, and spread the offsets from
    there of all the rows it reaches: those of the remaining agents that
    the table does not mention.
    """

    perm: tuple[int, ...]
    columns: np.ndarray
    entry_rows: np.ndarray
    spread: np.ndarray


class Layout(NamedTuple):
    """How one elimination lines its tables up in its joint table.

    The joint table has axes remaining + (agent,) and shape joint_shape;
    views holds one (perm, shape) per summed table (see _views), and rows,
    shaped like the remaining axes, the flat index of each joint row's
    first entry. gathers holds one Gather per summed table when the step
    is memoized (see PlanStep), else None.
    """

    remaining: tuple[int, ...]
    views: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    joint_shape: tuple[int, ...]
    rows: np.ndarray
    gathers: tuple[Gather, ...] | None


def _flat_offsets(agents, sizes: dict[int, int], strides: dict[int, int]) -> np.ndarray:
    """For each joint action of `agents`, the sum of each agent's action
    times its stride in `strides` (0 when it has none): an int32 array
    with one axis per agent, or 0 when there are none."""
    axes = [np.arange(sizes[a], dtype=np.int32) * strides.get(a, 0) for a in agents]
    return functools.reduce(np.add, np.ix_(*axes), np.int32(0))


def _c_strides(agents, sizes: dict[int, int]) -> dict[int, int]:
    """Each agent's stride, in entries, in a C-order array over `agents`."""
    strides, step = {}, 1
    for a in reversed(agents):
        strides[a] = step
        step *= sizes[a]
    return strides


def _gather(scope, sizes: dict[int, int], remaining, agent: int) -> Gather:
    k = scope.index(agent)
    row = _c_strides(remaining, sizes)
    return Gather(
        (k, *range(k), *range(k + 1, len(scope))),
        _flat_offsets(remaining, sizes, _c_strides(scope[:k] + scope[k + 1:], sizes)),
        _flat_offsets(scope, sizes, row).ravel(),
        _flat_offsets([a for a in remaining if a not in scope], sizes, row).ravel(),
    )


def _layout(scopes, sizes: dict[int, int], agent: int) -> Layout:
    remaining = sorted(set(itertools.chain.from_iterable(scopes)))
    remaining.remove(agent)
    joint = (*remaining, agent)
    joint_shape = tuple(sizes[a] for a in joint)
    # numpy holds no array of over 64 axes (only size-1 action sets get there
    # within the limit): an empty one of the joint's rank fails here, at build.
    np.empty((0,) * len(joint))
    entries = math.prod(joint_shape)
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"eliminating agent {agent} would sum a joint table of {entries} entries "
            f"(limit {MAX_TABLE_ENTRIES})"
        )
    rows = np.arange(0, entries, joint_shape[-1]).reshape(joint_shape[:-1])
    rows.flags.writeable = False  # shared by every run of the plan
    gathers = None
    if remaining and entries >= MEMO_MIN_ENTRIES and len(scopes) * rows.size <= MAX_TABLE_ENTRIES:
        gathers = tuple(_gather(scope, sizes, remaining, agent) for scope in scopes)
    return Layout(tuple(remaining), _views(scopes, joint, sizes), joint_shape, rows, gathers)


def eliminate_agent(functions, agent: int, *, layout: Layout) -> tuple[FunctionTable, np.ndarray]:
    """Maximize the sum of one EliminationPlan step's tables over `agent`'s action.

    `functions` must be exactly the tables the step gathers, in its order,
    and `layout` the step's; nothing is derived or validated again.
    Returns (f, best): f maps each joint action of layout.remaining to the
    best achievable sum, and best, an index array with one axis per
    remaining agent, holds the maximizing action index of `agent` (lowest
    index on ties).
    """
    joint = _aligned_sum(functions, layout.views, layout.joint_shape)
    best = joint.argmax(axis=-1)
    # One reduction: read each row's maximum back at its argmax, by flat
    # index into the (contiguous) joint table.
    values = joint.take(layout.rows + best)
    _check_finite(values, agent)
    return FunctionTable._trusted(layout.remaining, values), best


def _check_finite(values: np.ndarray, agent: int) -> None:
    # A finite sum has finite terms; only a sum that is not (a non-finite
    # entry, or finite ones that overflow it, which numpy warns of) needs
    # the scan.
    if not math.isfinite(values.sum()) and not np.isfinite(values).all():
        raise ValueError(
            f"eliminating agent {agent}: conditional values are not finite "
            "(non-finite input or overflow)"
        )


def _row_sums(layout: Layout, functions, rows) -> np.ndarray:
    """The joint table's rows `rows` (flat indices) as an (n, len(rows))
    block, the eliminated agent's axis first: every gathered table read
    through its Gather and added, in gather order, into +0.0, the sums
    the full kernel makes (see _aligned_sum)."""
    n = layout.joint_shape[-1]
    total = np.zeros((n, len(rows)))
    for fn, gather in zip(functions, layout.gathers):
        block = fn.values.transpose(gather.perm).reshape(n, -1).take(gather.columns.take(rows), axis=1)
        np.add(total, block, out=total)
    return total


def _best_response(layout: Layout, functions, at: tuple[int, ...]) -> int:
    """The eliminated agent's best response in the joint row of the
    remaining agents' actions `at` (lowest index on ties): what
    eliminate_agent's best holds there. One column of each gathered table
    is added, in gather order, into +0.0, the sums the full kernel makes
    (see _aligned_sum)."""
    n = layout.joint_shape[-1]
    total = np.zeros(n)
    for fn, gather in zip(functions, layout.gathers):
        np.add(total, fn.values.transpose(gather.perm).reshape(n, -1)[:, gather.columns[at]], out=total)
    return int(total.argmax())


class PlanStep(NamedTuple):
    """One elimination of an EliminationPlan.

    gather holds the births of the tables it sums, ascending. memo says
    whether a tracked plan recomputes just this step's dirty rows: its
    result has a scope, its joint table MEMO_MIN_ENTRIES entries and its
    offsets fit MAX_TABLE_ENTRIES, so its layout has the gathers that the
    row path and recovery read.
    """

    agent: int
    gather: tuple[int, ...]
    layout: Layout

    @property
    def memo(self) -> bool:
        return self.layout.gathers is not None


def _dirty_rows(layout: Layout, changes) -> np.ndarray:
    """Flat indices of the joint rows that the gathered tables' changed
    entries (flat indices, one sequence per table) reach."""
    dirty = np.zeros(layout.rows.size, dtype=bool)
    for entries, gather in zip(changes, layout.gathers):
        if len(entries):
            dirty[gather.entry_rows.take(entries)[:, None] + gather.spread] = True
    return np.flatnonzero(dirty)


def _run_step(step: PlanStep, f: FunctionTable, b, functions, changes):
    """Run one step from its last f and b, where that pays; returns its
    new f and b (None when memoized) and the flat indices of the entries
    of f that changed since the plan's last complete run (None: unknown).

    `changes` holds, per gathered table, the entries changed since that
    run, or None when not known. A step with no changed input returns its
    last f and b. A memoized step with every input known takes the row
    path when the changed entries times the rows each one reaches is at
    most MEMO_MAX_DIRTY_SHARE of its joint rows: it sums just the rows
    they reach (_row_sums: the same tables in the same order from +0.0 as
    the full kernel) and takes each one's maximum, which equals the
    kernel's bits (no entry is -0.0, see _aligned_sum, and a NaN or inf
    fails the finite check either way). Once they pass that check, their
    values go into a copy of f, which callers hold: an f once returned
    never changes. Every other run takes eliminate_agent in full, and a
    memoized step drops its best responses; an f with a scope, which a
    later step gathers, is compared with the last one when every input is
    known (f never holds -0.0, so equal values are equal bits).
    """
    layout = step.layout
    sizes = [len(entries) for entries in changes if entries is not None]
    known = len(sizes) == len(changes)
    if known and not any(sizes):
        return f, b, ()
    # Each changed entry reaches spread.size rows: a bound on the dirty rows.
    if known and step.memo and (
        sum([n * g.spread.size for n, g in zip(sizes, layout.gathers)]) <= MEMO_MAX_DIRTY_SHARE * layout.rows.size
    ):
        rows = _dirty_rows(layout, changes)
        values = _row_sums(layout, functions, rows).max(axis=0)
        _check_finite(values, step.agent)
        moved = values != f.values.take(rows)
        changed = rows[moved]
        if changed.size:
            new = f.values.copy()
            np.put(new, changed, values[moved])
            f = FunctionTable._trusted(layout.remaining, new)
    else:
        last = f
        f, b = eliminate_agent(functions, step.agent, layout=layout)
        changed = (f.values != last.values).ravel().nonzero()[0] if known and layout.remaining else None
    return f, None if step.memo else b, changed


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
    place. The plan holds each step's last f as its birth, in `_born`,
    and its last b, an index array, in `_best`, or None for a memoized
    step, whose best response recovery recomputes in the one row it reads
    (_best_response); a run replaces both only when the step returns, so
    a step that raises leaves them as they were. With trackers, one per
    table, each write goes through a writer that logs it: trackers[i],
    for input i, has a `version` and changes_since(version) (LocalQ does).
    The plan then keeps `_seen`, its trackers' versions when its last
    complete run began. A run when no version moved returns the last
    result; any other run reads each tracker's changes since `_seen` once
    and hands every step the changes of the tables it gathers (see
    _run_step). The result equals a fresh plan's bit for bit. A run clears
    `_seen` on entry and sets it only once it succeeded, so the run after
    one that raised is a full one. Without trackers every run is a full
    one.
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
        if trackers is not None:
            trackers = tuple(trackers)
            if len(trackers) != len(scopes):
                raise ValueError(f"trackers: {len(trackers)} given for {len(scopes)} tables")
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
            steps.append(PlanStep(agent, tuple(k for k, _ in gather), layout))

        self.order = order
        self.steps = tuple(steps)
        self.finished = tuple(finished)
        self._trackers = trackers
        self._seen = self._last = None
        self._born = list(self.tables) + [None] * len(self.steps)
        self._best = [None] * len(self.steps)

    def run(self) -> tuple[dict[int, int], float, list[FunctionTable]]:
        """Maximize the sum of the tables' current values.

        Eliminates every agent in order, sums the finished components'
        values, then walks the steps in reverse, giving each agent its
        best response to the agents already decided. Returns the joint
        action {agent: action index}, keyed in that reverse order, the
        attained value, and each step's conditional-value table (a run
        when no tracker's version moved returns the last run's objects).
        Raises ValueError when a conditional value or that sum is not
        finite.
        """
        now = None if self._trackers is None else tuple([t.version for t in self._trackers])
        if now is not None and now == self._seen:
            return self._last
        seen, self._seen = self._seen, None
        born, best, n = self._born, self._best, len(self.tables)
        changes = [None] * len(born)
        if seen is not None:
            changes[:n] = [t.changes_since(v) for t, v in zip(self._trackers, seen)]
        for k, step in enumerate(self.steps):
            born[n + k], best[k], changes[n + k] = _run_step(
                step, born[n + k], best[k], [born[i] for i in step.gather], [changes[i] for i in step.gather]
            )
        value = 0.0
        for i in self.finished:
            value += float(born[i].values)
        if not math.isfinite(value):
            raise ValueError("the components' values sum to a non-finite value (overflow)")
        assignment: dict[int, int] = {}
        for step, b in zip(reversed(self.steps), reversed(best)):
            at = tuple([assignment[a] for a in step.layout.remaining])
            action = _best_response(step.layout, [born[i] for i in step.gather], at) if b is None else b[at]
            assignment[step.agent] = int(action)
        self._seen, self._last = now, (assignment, value, born[n:])
        return self._last


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
    scope; refuses spaces larger than MAX_TABLE_ENTRIES combinations.
    """
    functions = tuple(functions)
    if not functions:
        raise ValueError("nothing to maximize: empty function set")
    scopes = [fn.scope for fn in functions]
    agents = tuple(sorted(set(itertools.chain.from_iterable(scopes))))
    sizes = _action_sizes(scopes, [fn.values.shape for fn in functions])
    n_combos = math.prod(sizes[a] for a in agents)
    if n_combos > MAX_TABLE_ENTRIES:
        raise ValueError(f"joint action space has {n_combos} combinations (limit {MAX_TABLE_ENTRIES})")

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
    each removal; it starts from the neighbors that the graph's scopes
    give each agent.
    """
    if strategy == "fixed-reverse":
        return tuple(sorted(graph.agents, reverse=True))
    if strategy == "min-degree":
        adj = {a: {b for s in graph.scopes if a in s for b in s} - {a} for a in graph.agents}
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
