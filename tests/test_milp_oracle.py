"""Variable elimination against an exact oracle that shares no code with it.

milp_argmax maximizes a sum of scoped tables as a mixed-integer program
over the local polytope (scipy's HiGHS), so it reaches graphs far past
the MAX_TABLE_ENTRIES joint actions that brute force may enumerate:
twenty agents at three levels are about 3.5e9.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from coopa.coordgraph import (
    MAX_TABLE_ENTRIES,
    CoordinationGraph,
    FunctionTable,
    default_elimination_order,
    ve_argmax,
)

LEVELS = 3


def milp_argmax(tables) -> tuple[dict[int, int], float]:
    """Exact max-sum of tables with nonempty scopes, as an integer program.

    One 0/1 variable per action of each agent and one per entry of each
    table. Each agent plays exactly one action, and the entries of a
    table that give agent a action v are on exactly when a's action v
    is: with integral variables, a table's one entry on is the one at
    its agents' actions. The objective is the sum of the entries on.
    Returns the maximizing joint action and the optimal value.
    """
    agents = sorted({a for t in tables for a in t.scope})
    sizes = {a: n for t in tables for a, n in zip(t.scope, t.values.shape)}
    start, n_vars = {}, 0
    for a in agents:
        start[a], n_vars = n_vars, n_vars + sizes[a]
    entry_start = []
    for t in tables:
        entry_start.append(n_vars)
        n_vars += t.values.size

    rows, cols, coefs, rhs = [], [], [], []

    def equation(terms, value):
        for col, coef in terms:
            rows.append(len(rhs))
            cols.append(col)
            coefs.append(coef)
        rhs.append(value)

    for a in agents:
        equation([(start[a] + v, 1.0) for v in range(sizes[a])], 1.0)
    for t, first in zip(tables, entry_start):
        actions = np.indices(t.values.shape).reshape(len(t.scope), -1)
        for k, a in enumerate(t.scope):
            for v in range(sizes[a]):
                entries = first + np.flatnonzero(actions[k] == v)
                equation([(int(e), 1.0) for e in entries] + [(start[a] + v, -1.0)], 0.0)

    objective = np.zeros(n_vars)
    for t, first in zip(tables, entry_start):
        objective[first:first + t.values.size] = -t.values.ravel()  # milp minimizes
    matrix = coo_array((coefs, (rows, cols)), shape=(len(rhs), n_vars))
    result = milp(
        objective,
        constraints=LinearConstraint(matrix, rhs, rhs),
        integrality=np.ones(n_vars),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert result.success, result.message
    assignment = {a: int(np.argmax(result.x[start[a]:start[a] + sizes[a]])) for a in agents}
    return assignment, -result.fun


def neighbourhoods(family: str, n: int, rng) -> list[tuple[int, ...]]:
    """One scope per agent j: j with its neighbours on a ring or a line,
    or with up to two agents drawn within three places of it (a sparse
    graph of bounded bandwidth, so every order's joint tables stay far
    within MAX_TABLE_ENTRIES)."""
    if family == "ring":
        return [tuple(sorted({(j - 1) % n, j, (j + 1) % n})) for j in range(n)]
    if family == "line":
        return [tuple(range(max(j - 1, 0), min(j + 2, n))) for j in range(n)]
    scopes = []
    for j in range(n):
        near = [a for a in range(j - 3, j + 4) if 0 <= a < n and a != j]
        others = rng.choice(near, size=int(rng.integers(0, 3)), replace=False)
        scopes.append(tuple(sorted({j, *(int(a) for a in others)})))
    return scopes


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(
    st.sampled_from(["ring", "line", "sparse"]),
    st.integers(8, 20),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_ve_value_equals_the_integer_programs(family, n, integral, seed):
    # Integer-valued tables tie often; real-valued ones rarely do.
    rng = np.random.default_rng(seed)
    scopes = neighbourhoods(family, n, rng)

    def values(scope):
        shape = (LEVELS,) * len(scope)
        return rng.integers(-2, 3, shape).astype(float) if integral else rng.uniform(-1, 1, shape)

    tables = [FunctionTable(s, values(s)) for s in scopes]
    _, optimum = milp_argmax(tables)
    graph = CoordinationGraph(tuple(scopes))
    for strategy in ("fixed-reverse", "min-degree"):
        action, value = ve_argmax(tables, default_elimination_order(graph, strategy))
        attained = sum(t.values[tuple(action[a] for a in t.scope)] for t in tables)
        assert value == pytest.approx(optimum, rel=1e-9)
        assert attained == pytest.approx(optimum, rel=1e-9)


@pytest.mark.parametrize("family", ["ring", "line", "sparse"])
def test_the_oracle_equals_enumeration(family):
    # Every joint action of 8 agents at 3 levels, summed table by table.
    rng = np.random.default_rng(1)
    scopes = neighbourhoods(family, 8, rng)
    tables = [FunctionTable(s, rng.uniform(-1, 1, (LEVELS,) * len(s))) for s in scopes]
    joint = np.indices((LEVELS,) * 8).reshape(8, -1)
    totals = sum(t.values[tuple(joint[a] for a in t.scope)] for t in tables)
    best = int(np.argmax(totals))
    action, optimum = milp_argmax(tables)
    assert action == {a: int(joint[a, best]) for a in range(8)}
    assert optimum == pytest.approx(totals[best], rel=1e-9)


def test_the_oracle_reaches_past_brute_force():
    rng = np.random.default_rng(0)
    scopes = neighbourhoods("ring", 20, rng)
    tables = [FunctionTable(s, rng.uniform(-1, 1, (LEVELS,) * len(s))) for s in scopes]
    assert LEVELS**20 > MAX_TABLE_ENTRIES
    action, optimum = milp_argmax(tables)
    assert sorted(action) == list(range(20))
    assert sum(t.values[tuple(action[a] for a in t.scope)] for t in tables) == pytest.approx(optimum, rel=1e-9)
    assert ve_argmax(tables, range(20))[1] == pytest.approx(optimum, rel=1e-9)
