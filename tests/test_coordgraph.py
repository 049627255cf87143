"""Variable elimination tests, all checked against exhaustive enumeration."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from hypothesis.stateful import RuleBasedStateMachine, rule

from coopa import coordgraph
from coopa.coordgraph import (
    CoordinationGraph,
    EliminationPlan,
    FunctionTable,
    brute_force_argmax,
    default_elimination_order,
    eliminate_agent,
    ve_argmax,
)
from coopa.learner import LocalQ
from coopa.runtime import Agent, Assignment, Coordination, FFunction, InMemoryBus, ShareQ, ve_via_messages

# Fixed examples, so the suite is deterministic and its run time bounded.
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def value_at(fn, assignment):
    """The table's value at a (possibly larger) joint assignment."""
    return fn.values[tuple(assignment[a] for a in fn.scope)]


def enumerate_max(functions):
    """Independent oracle: python-loop argmax over the full joint space,
    lexicographic lowest-index tie-break."""
    agents = sorted({a for fn in functions for a in fn.scope})
    sizes = {}
    for fn in functions:
        for a, n in zip(fn.scope, fn.values.shape):
            sizes[a] = n
    best = None
    best_value = -np.inf
    for combo in itertools.product(*(range(sizes[a]) for a in agents)):
        joint = dict(zip(agents, combo))
        value = sum(value_at(fn, joint) for fn in functions)
        if value > best_value:
            best_value = value
            best = joint
    return best, best_value


def random_instance(rng, n_agents, max_actions=5, extra_scope=2):
    """Scopes of the form {j} + up to `extra_scope` random others, which
    always cover every agent."""
    sizes = {a: int(rng.integers(2, max_actions + 1)) for a in range(n_agents)}
    functions = []
    for j in range(n_agents):
        others = [a for a in range(n_agents) if a != j]
        k = int(rng.integers(0, min(extra_scope, len(others)) + 1))
        scope = tuple(sorted({j, *rng.choice(others, size=k, replace=False)})) if k else (j,)
        shape = tuple(sizes[a] for a in scope)
        functions.append(FunctionTable(scope, rng.uniform(-10, 10, shape)))
    return functions, sizes


def first_step(functions, order):
    """eliminate_agent's (f, b) for step 0 of EliminationPlan(functions,
    order), on the tables that step gathers."""
    plan = EliminationPlan(functions, order)
    step = plan.steps[0]
    return eliminate_agent([plan.tables[i] for i in step.gather], step.agent, layout=step.layout)


class TestEliminateAgent:
    def test_two_table_example(self):
        # Q over (2,4) and Q over (3,4); eliminating 4 maximizes their sum.
        q2 = FunctionTable((2, 4), np.array([[1.0, 0.0], [0.0, 2.0]]))
        q4 = FunctionTable((3, 4), np.array([[0.0, 1.0], [2.0, 0.0]]))

        # oracle: enumerate a4 by hand for every (a2, a3) context
        expected_f = np.empty((2, 2))
        expected_b = np.empty((2, 2), dtype=int)
        for a2 in range(2):
            for a3 in range(2):
                sums = [q2.values[a2, a4] + q4.values[a3, a4] for a4 in range(2)]
                expected_f[a2, a3] = max(sums)
                expected_b[a2, a3] = int(np.argmax(sums))

        f, b = first_step([q2, q4], (4, 2, 3))
        assert f.scope == (2, 3)
        assert np.array_equal(f.values, expected_f)
        assert np.array_equal(b, expected_b)
        # frozen values, including the two tie-breaks to index 0
        assert f.values.tolist() == [[1.0, 3.0], [3.0, 2.0]]
        assert b.tolist() == [[0, 0], [1, 0]]

    def test_single_function_single_agent(self):
        fn = FunctionTable((7,), np.array([1.5, 4.0, -2.0]))
        f, b = first_step([fn], (7,))
        assert f.scope == ()
        assert float(f.values) == 4.0
        assert int(b) == 1

    def test_all_equal_ties_to_zero(self):
        fn = FunctionTable((1, 2), np.full((3, 4), 2.5))
        f, b = first_step([fn], (2, 1))
        assert np.all(f.values == 2.5)
        assert np.all(b == 0)

    @pytest.mark.parametrize("leaves", [9, 12, 16])
    def test_wide_induced_scopes_plan(self, leaves):
        # Eliminating a star's center first leaves a table over all its
        # leaves: only its entries are limited, not how many agents.
        rng = np.random.default_rng(leaves)
        functions = [FunctionTable((0, k), rng.uniform(-1, 1, (2, 2))) for k in range(1, leaves + 1)]
        plan = EliminationPlan(functions, range(leaves + 1))
        assert plan.steps[0].layout.remaining == tuple(range(1, leaves + 1))
        action, value = plan.run()[:2]
        expected_action, expected_value = brute_force_argmax(functions)
        assert action == expected_action
        assert value == pytest.approx(expected_value, rel=0, abs=1e-12)

    def test_a_step_over_more_than_64_agents_fails_at_build(self):
        # Only size-1 action sets fit so many agents within the limit, and
        # numpy holds no array of more than 64 axes.
        def star(leaves):
            return [FunctionTable((0, k), np.zeros((1, 1))) for k in range(1, leaves + 1)]

        assert EliminationPlan(star(63), range(64)).run()[:2] == (dict.fromkeys(range(64), 0), 0.0)
        for leaves in (64, 65):
            with pytest.raises(ValueError):
                EliminationPlan(star(leaves), range(leaves + 1))

    def test_induced_scope_is_neighbor_union(self):
        # paper-style square graph: eliminating one corner joins its two
        # neighbors into an induced edge
        rng = np.random.default_rng(0)
        fns = [
            FunctionTable(s, rng.normal(size=(2, 2)))
            for s in [(1, 2), (2, 4), (1, 3), (3, 4)]
        ]
        f, _ = first_step(fns, (4, 3, 2, 1))
        assert f.scope == (2, 3)
        f, _ = first_step(fns, (1, 2, 3, 4))
        assert f.scope == (2, 3)


class TestVeArgmax:
    def test_two_agent_example(self):
        q1 = FunctionTable((1, 2), np.array([[1.0, 0.0], [0.0, 2.0]]))
        q2 = FunctionTable((1, 2), np.array([[0.0, 1.0], [2.0, 0.0]]))
        # oracle first
        expected_action, expected_value = enumerate_max([q1, q2])
        assert expected_value == 2.0
        action, value = ve_argmax([q1, q2], (2, 1))
        assert value == expected_value
        # elimination of a2 ties at both a1 rows and picks a2=0, so the
        # recovered argmax is (a1=1, a2=0)
        assert action == {1: 1, 2: 0}

    def test_one_agent(self):
        fn = FunctionTable((1,), np.array([3.0, 7.0]))
        action, value = ve_argmax([fn], (1,))
        assert action == {1: 1}
        assert value == 7.0

    def test_square_graph_matches_brute_force(self):
        rng = np.random.default_rng(42)
        scopes = [(1, 2), (2, 4), (1, 3), (3, 4)]
        fns = [FunctionTable(s, rng.uniform(-10, 10, (2, 2))) for s in scopes]
        expected_action, expected_value = enumerate_max(fns)
        for order in [(4, 3, 2, 1), (1, 2, 3, 4), (2, 4, 1, 3)]:
            action, value = ve_argmax(fns, order)
            assert value == pytest.approx(expected_value, abs=1e-9)
            assert sum(value_at(fn, action) for fn in fns) == pytest.approx(
                value, abs=1e-9
            )

    def test_value_invariant_across_all_orders(self):
        rng = np.random.default_rng(5)
        scopes = [(1, 2), (2, 4), (1, 3), (3, 4)]
        fns = [FunctionTable(s, rng.uniform(-10, 10, (3, 3))) for s in scopes]
        _, expected_value = enumerate_max(fns)
        for order in itertools.permutations((1, 2, 3, 4)):
            _, value = ve_argmax(fns, order)
            assert value == pytest.approx(expected_value, abs=1e-9)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            fns, _ = random_instance(rng, n, max_actions=4)
            graph = CoordinationGraph(tuple(fn.scope for fn in fns))
            _, expected_value = enumerate_max(fns)
            for strategy in ("fixed-reverse", "min-degree"):
                order = default_elimination_order(graph, strategy)
                action, value = ve_argmax(fns, order)
                assert value == pytest.approx(expected_value, abs=1e-9)
                assert sum(value_at(fn, action) for fn in fns) == pytest.approx(
                    value, abs=1e-9
                )

    def test_disconnected_components(self):
        f1 = FunctionTable((1,), np.array([1.0, 5.0]))
        f2 = FunctionTable((2,), np.array([2.0, -1.0]))
        action, value = ve_argmax([f1, f2], (1, 2))
        assert action == {1: 1, 2: 0}
        assert value == pytest.approx(7.0)

    def test_order_must_cover_scopes(self):
        fn = FunctionTable((1, 2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ve_argmax([fn], (1,))
        with pytest.raises(ValueError):
            ve_argmax([fn], (1, 2, 3))

    def test_empty_function_set(self):
        with pytest.raises(ValueError):
            ve_argmax([], ())


class TestBruteForce:
    def test_matches_ve_examples(self):
        q1 = FunctionTable((1, 2), np.array([[1.0, 0.0], [0.0, 2.0]]))
        q2 = FunctionTable((1, 2), np.array([[0.0, 1.0], [2.0, 0.0]]))
        action, value = brute_force_argmax([q1, q2])
        assert value == 2.0
        assert action == {1: 1, 2: 0}  # lexicographic lowest of the two ties

    def test_empty_set(self):
        with pytest.raises(ValueError):
            brute_force_argmax([])

    def test_single_constant(self):
        fn = FunctionTable((3,), np.array([4.25, 4.25]))
        action, value = brute_force_argmax([fn])
        assert value == 4.25
        assert action == {3: 0}

    def test_space_guard(self, monkeypatch):
        fns = [FunctionTable((k,), np.zeros(10)) for k in range(8)]  # 10^8 combos
        with pytest.raises(ValueError, match="limit"):
            brute_force_argmax(fns)
        fns = [FunctionTable((k,), np.zeros(n)) for k, n in enumerate((2, 3, 4))]  # 24 combos
        monkeypatch.setattr(coordgraph, "MAX_TABLE_ENTRIES", 24)
        assert brute_force_argmax(fns) == ({0: 0, 1: 0, 2: 0}, 0.0)
        monkeypatch.setattr(coordgraph, "MAX_TABLE_ENTRIES", 23)
        with pytest.raises(ValueError, match=re.escape("joint action space has 24 combinations (limit 23)")):
            brute_force_argmax(fns)

    def test_inconsistent_sizes(self):
        a = FunctionTable((1,), np.zeros(2))
        b = FunctionTable((1, 2), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            brute_force_argmax([a, b])


class TestEliminationOrder:
    def test_fixed_reverse_square_graph(self):
        graph = CoordinationGraph(((1, 2), (2, 4), (1, 3), (3, 4)))
        assert default_elimination_order(graph) == (4, 3, 2, 1)

    def test_single_agent(self):
        graph = CoordinationGraph(((1,),))
        assert default_elimination_order(graph) == (1,)
        assert default_elimination_order(graph, "min-degree") == (1,)

    def test_min_degree_chain(self):
        graph = CoordinationGraph(((1, 2), (2, 3)))
        assert default_elimination_order(graph, "min-degree") == (1, 2, 3)

    def test_min_degree_star_center_last(self):
        graph = CoordinationGraph(((1, 2), (1, 3), (1, 4)))
        order = default_elimination_order(graph, "min-degree")
        assert order[-1] == 1 or order[-2] == 1  # leaves go first
        assert order[0] == 2

    def test_unknown_strategy(self):
        graph = CoordinationGraph(((1,),))
        with pytest.raises(ValueError):
            default_elimination_order(graph, "magic")


class TestTables:
    def test_scope_must_match_ndim(self):
        with pytest.raises(ValueError):
            FunctionTable((1, 2), np.zeros(3))

    def test_duplicate_scope(self):
        with pytest.raises(ValueError):
            FunctionTable((1, 1), np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FunctionTable((1,), np.array([1.0, np.nan]))

    def test_graph_requires_nonempty_scopes(self):
        with pytest.raises(ValueError):
            CoordinationGraph(((),))

def reference_sum(functions, scope):
    """The joint table as a fresh broadcast sum per table, starting from
    +0.0 and adding in the order given: the summation VE must reproduce."""
    pos = {a: k for k, a in enumerate(scope)}
    sizes = [1] * len(scope)
    for fn in functions:
        for a, n in zip(fn.scope, fn.values.shape):
            sizes[pos[a]] = n
    total = np.zeros(tuple(sizes))
    for fn in functions:
        expanded = fn.values.reshape(fn.values.shape + (1,) * (len(scope) - fn.values.ndim))
        total = total + np.moveaxis(expanded, range(fn.values.ndim), [pos[a] for a in fn.scope])
    return total


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@st.composite
def instances(draw, max_agents=5, max_actions=4):
    """One table per agent over itself and up to two others, in any axis
    order, plus an elimination order. Integer-valued instances make ties
    common and hold -0.0 often; real-valued ones rarely tie."""
    n = draw(st.integers(1, max_agents))
    sizes = draw(st.lists(st.integers(1, max_actions), min_size=n, max_size=n))
    integral = draw(st.booleans())
    elements = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]) if integral else st.floats(-10, 10)
    functions = []
    for j in range(n):
        others = [a for a in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)) if a != j]
        scope = tuple(draw(st.permutations([j, *others])))
        shape = tuple(sizes[a] for a in scope)
        functions.append(FunctionTable(scope, draw(hnp.arrays(np.float64, shape, elements=elements))))
    order = tuple(draw(st.permutations(range(n))))
    return functions, order, integral


def agents_holding(functions):
    """Agent j owns a copy of functions[j], whose scope must contain j."""
    agents = []
    for j, fn in enumerate(functions):
        q = LocalQ(agent=j, scope=fn.scope, n_actions=fn.values.shape, values=fn.values.copy())
        agents.append(Agent(id=j, local_q=q, levels=np.zeros(fn.values.shape[fn.scope.index(j)])))
    return agents


def recording(agents, order):
    """A Coordination of the agents whose bus records."""
    return Coordination(agents, order, InMemoryBus(record=True))


def logged_ve(coordination):
    """ve_via_messages on a recording Coordination: (action, value, log),
    the log of this call as (kind, sender, recipient, payload scope or
    actions) per message.

    Checks that the k-th Assignment carries the first k entries of the
    returned joint action."""
    start = len(coordination.bus.log)
    action, value = ve_via_messages(coordination)
    messages = coordination.bus.log[start:]
    decided = list(action.items())
    chain = [list(m.actions.items()) for m in messages if isinstance(m, Assignment)]
    assert chain == [decided[:k] for k in range(1, len(decided))]
    log = [
        (type(m).__name__, m.sender, m.recipient, m.actions if hasattr(m, "actions") else m.table.scope)
        for m in messages
    ]
    return action, value, log


class TestProperties:
    @PROPERTY
    @given(instances())
    def test_eliminate_agent_is_max_and_lowest_argmax(self, instance):
        functions, order, _ = instance
        born = list(functions)
        live = list(range(len(born)))  # births of the tables not yet summed
        for step in EliminationPlan(functions, order).steps:
            agent = step.agent
            assert step.gather == tuple(sorted(i for i in live if agent in born[i].scope))
            involved = [born[i] for i in step.gather]
            f, b = eliminate_agent(involved, agent, layout=step.layout)
            remaining = tuple(sorted({a for fn in involved for a in fn.scope} - {agent}))
            joint = reference_sum(involved, remaining + (agent,))
            best = joint.max(axis=-1)
            assert f.scope == remaining
            assert same_bits(f.values, best)
            # lowest index among the maxima, one axis per remaining agent
            assert same_bits(b, (joint == best[..., None]).argmax(axis=-1))
            live = [i for i in live if i not in step.gather] + ([len(born)] if f.scope else [])
            born.append(f)

    @PROPERTY
    @given(instances())
    def test_messages_equal_in_memory_ve_bit_for_bit(self, instance):
        functions, order, _ = instance
        agents = agents_holding(functions)
        action, value, _ = logged_ve(recording(agents, order))
        expected_action, expected_value = ve_argmax(functions, order)
        assert action == expected_action
        assert repr(value) == repr(expected_value)

    @PROPERTY
    @given(instances())
    def test_routing_follows_the_elimination_order(self, instance):
        functions, order, _ = instance
        coordination = Coordination(agents_holding(functions), order)
        steps = coordination.plan.steps
        n = len(functions)
        position = {a: k for k, a in enumerate(order)}
        received = {a: [] for a in order}  # births of the tables each agent is sent
        forwarded = 0
        for kind, sender, recipient, at in coordination.schedule:
            assert sender != recipient
            assert {sender, recipient} <= set(order)  # the coordination's agent ids
            if kind is ShareQ:
                received[recipient].append(at)
            elif kind is FFunction:
                forwarded += 1
                remaining = steps[at].layout.remaining
                assert sender == steps[at].agent
                if remaining:
                    assert recipient == min(remaining, key=position.__getitem__)
                    received[recipient].append(n + at)
                else:
                    assert recipient == order[-1]
        assert forwarded == len(steps) - 1  # all but the last step forward their f
        for step in steps:
            # Agent j owns input table j; born tables n + k belong to no agent.
            assert sorted(received[step.agent]) == [i for i in step.gather if i != step.agent]
            senders = [s for kind, s, r, _ in coordination.schedule if kind is ShareQ and r == step.agent]
            assert senders == sorted(set(senders))

    @PROPERTY
    @given(instances())
    def test_ve_value_equals_brute_force(self, instance):
        functions, order, integral = instance
        action, value = ve_argmax(functions, order)
        _, expected = brute_force_argmax(functions)
        attained = sum(value_at(fn, action) for fn in functions)
        if integral:  # every partial sum is exact
            assert value == expected == attained
        else:  # summation orders differ; |values| <= 50, a few ulps apart
            assert value == pytest.approx(expected, rel=0, abs=1e-12)
            assert attained == pytest.approx(value, rel=0, abs=1e-12)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(instances(), st.data())
    def test_one_plan_replays_like_a_fresh_plan(self, instance, data):
        functions, order, integral = instance
        agents = agents_holding(functions)
        coordination = recording(agents, order)  # bound once, replayed after every write
        logged_ve(coordination)
        elements = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]) if integral else st.floats(-10, 10)
        for _ in range(3):
            for a in agents:
                a.local_q.write(..., data.draw(hnp.arrays(np.float64, a.local_q.values.shape, elements=elements)))
            tables = [a.local_q.as_function_table(0) for a in agents]
            replayed = logged_ve(coordination)
            fresh = logged_ve(recording(agents, order))  # a new plan, whose first run is a full one
            expected_action, expected_value = ve_argmax(tables, order)
            assert replayed[0] == fresh[0]
            assert same_bits(replayed[1], fresh[1])
            assert replayed[2] == fresh[2]
            assert (replayed[0], repr(replayed[1])) == (expected_action, repr(expected_value))


# Agent 1's action set has 3 entries in one table and 1 in the other.
INCONSISTENT = [((0, 1), np.ones((3, 3))), ((1,), np.array([1.0]))]


class TestPlan:
    @pytest.mark.parametrize("tables", [INCONSISTENT, INCONSISTENT[::-1]])
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_inconsistent_action_sizes_rejected(self, tables, order):
        functions = [FunctionTable(scope, values) for scope, values in tables]
        with pytest.raises(ValueError, match="inconsistent action-set size for agent 1"):
            ve_argmax(functions, order)

    @pytest.mark.parametrize("agent_order", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_inconsistent_action_sizes_rejected_over_messages(self, agent_order, order):
        agents = agents_holding([FunctionTable(scope, values) for scope, values in INCONSISTENT])
        with pytest.raises(ValueError, match="inconsistent action-set size for agent 1"):
            Coordination([agents[k] for k in agent_order], order)

    @pytest.mark.parametrize("solve", [
        lambda fns: ve_argmax(fns, (0,)),
        brute_force_argmax,
        lambda fns: Coordination(agents_holding(fns), (0,)),  # a LocalQ with n_actions (0,)
    ], ids=["ve_argmax", "brute_force_argmax", "Coordination"])
    def test_empty_action_set_rejected(self, solve):
        with pytest.raises(ValueError, match="agent 0 has an empty action set"):
            solve([FunctionTable((0,), np.zeros(0))])

    def test_constant_tables_count_toward_the_value(self):
        functions = [FunctionTable((), np.array(2.5)), FunctionTable((0,), np.array([1.0, 3.0]))]
        assert ve_argmax(functions, (0,)) == brute_force_argmax(functions) == ({0: 1}, 5.5)
        assert ve_argmax(functions[:1], ()) == brute_force_argmax(functions[:1]) == ({}, 2.5)

    def test_overflowing_sum_rejected(self):
        functions = [FunctionTable((0, 1), np.full((2, 2), 1e308)) for _ in range(2)]
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="overflow"):
                ve_argmax(functions, (1, 0))
            with pytest.raises(ValueError, match="overflow"):
                ve_via_messages(Coordination(agents_holding(functions), (1, 0)))

    def test_overflow_in_the_last_step_rejected(self):
        # The only step has no scope left: its value is the last one checked.
        functions = [FunctionTable((0,), np.array([1e308, 0.0])) for _ in range(2)]
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="overflow"):
                ve_argmax(functions, (0,))

    def test_overflowing_sum_of_components_rejected(self):
        # Each component's value is finite; their sum is not.
        functions = [FunctionTable((0,), np.array([1e308, 0.0])), FunctionTable((1,), np.array([1e308, 0.0]))]
        with pytest.raises(ValueError, match="overflow"):
            ve_argmax(functions, (0, 1))
        with pytest.raises(ValueError, match="overflow"):
            ve_via_messages(Coordination(agents_holding(functions), (0, 1)))

    def test_overflowing_constant_and_component_rejected(self):
        # A constant table cannot be an agent's (its scope lacks the
        # owner), so this one runs through ve_argmax and a plan only.
        functions = [FunctionTable((), np.array(1e308)), FunctionTable((0,), np.array([1e308, 0.0]))]
        with pytest.raises(ValueError, match="overflow"):
            ve_argmax(functions, (0,))
        with pytest.raises(ValueError, match="overflow"):
            EliminationPlan(functions, (0,)).run()

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_tracker_count_must_match_the_tables(self, extra):
        agents = agents_holding([FunctionTable((0, 1), np.zeros((2, 2))) for _ in range(2)])
        tables = [a.local_q.as_function_table(0) for a in agents]
        trackers = [a.local_q for a in agents] + [agents[0].local_q]
        with pytest.raises(ValueError, match="trackers"):
            EliminationPlan(tables, (1, 0), trackers[: len(tables) + extra])

    def test_joint_table_over_the_limit_rejected(self, monkeypatch):
        # Eliminating agent 1 first sums a 3 x 3 joint table, which is
        # refused before its step's gathers are worked out.
        monkeypatch.setattr(coordgraph, "MEMO_MIN_ENTRIES", 0)
        monkeypatch.setattr(coordgraph, "MAX_TABLE_ENTRIES", 8)
        gather = coordgraph._gather
        monkeypatch.setattr(coordgraph, "_gather", lambda *a: pytest.fail("gathers worked out"))
        functions = [FunctionTable((0, 1), np.zeros((3, 3))), FunctionTable((1,), np.zeros(3))]
        message = re.escape("eliminating agent 1 would sum a joint table of 9 entries (limit 8)")
        with pytest.raises(ValueError, match=message):
            EliminationPlan(functions, (1, 0))
        with pytest.raises(ValueError, match=message):
            Coordination(agents_holding(functions), (1, 0))
        monkeypatch.setattr(coordgraph, "_gather", gather)
        monkeypatch.setattr(coordgraph, "MAX_TABLE_ENTRIES", 9)
        assert EliminationPlan(functions, (1, 0)).run()[:2] == ({0: 0, 1: 0}, 0.0)

    def test_a_step_whose_offsets_exceed_the_limit_is_not_memoized(self, monkeypatch):
        # Eliminating agent 0 first sums its three tables into a 16-entry
        # joint table of 8 rows: 24 offsets. The next step has 8.
        monkeypatch.setattr(coordgraph, "MEMO_MIN_ENTRIES", 0)
        monkeypatch.setattr(coordgraph, "MEMO_MAX_DIRTY_SHARE", math.inf)
        rng = np.random.default_rng(3)
        scopes = [(0, 1), (1,), (0, 2), (0, 3)]
        functions = [FunctionTable(s, rng.uniform(-1, 1, (2,) * len(s))) for s in scopes]
        order = (0, 1, 2, 3)
        monkeypatch.setattr(coordgraph, "MAX_TABLE_ENTRIES", 24)
        assert [s.memo for s in EliminationPlan(functions, order).steps] == [True, True, True, False]
        monkeypatch.setattr(coordgraph, "MAX_TABLE_ENTRIES", 23)
        agents = agents_holding(functions)
        coordination = Coordination(agents, order)
        steps = coordination.plan.steps
        assert not steps[0].memo and steps[0].layout.gathers is None and steps[1].memo
        for k in range(4):
            agents[2 + k % 2].local_q.write((k // 2, 1), rng.uniform(-1, 1))
            action, value = ve_via_messages(coordination)
            expected_action, expected_value = brute_force_argmax([a.local_q.as_function_table(0) for a in agents])
            assert action == expected_action
            assert value == pytest.approx(expected_value, rel=0, abs=1e-12)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_nonfinite_table_entry_rejected(self, entry):
        # Written past local_update, straight into an agent's table.
        agents = agents_holding([FunctionTable((0, 1), np.zeros((2, 2))) for _ in range(2)])
        agents[1].local_q.write((1, 0), entry)
        with pytest.raises(ValueError, match="not finite"):
            ve_via_messages(Coordination(agents, (1, 0)))


@pytest.fixture(params=["rows", "rows or full"])
def every_step_memoized(request, monkeypatch):
    """Plans compiled meanwhile memoize every step whose result has a scope.

    With "rows", such a step recomputes its dirty rows however many there
    are; with "rows or full", a step whose changes may reach too many rows
    takes the full kernel.
    """
    monkeypatch.setattr(coordgraph, "MEMO_MIN_ENTRIES", 0)
    if request.param == "rows":
        monkeypatch.setattr(coordgraph, "MEMO_MAX_DIRTY_SHARE", math.inf)


def ring_agents(n, levels, rng):
    """Agent i owns a random table over {i-1, i, i+1} of an n-agent ring."""
    scopes = [tuple(sorted({(i - 1) % n, i, (i + 1) % n})) for i in range(n)]
    return agents_holding([FunctionTable(s, rng.uniform(-1, 1, (levels,) * len(s))) for s in scopes])


def plan_of(agents, order):
    tables = [a.local_q.as_function_table(0) for a in agents]
    return tables, EliminationPlan(tables, order)


def last_results(plan):
    """Each step's f and b as of the plan's last run, where the plan keeps
    them: f among its tables' births, b in its list of index arrays."""
    return list(zip(plan._born[len(plan.tables):], plan._best))


def assert_best_responses(plan, action):
    """After a run of `plan` that returned the joint action `action`: a
    memoized step keeps no b, every other step's b is the full kernel's
    on the tables the run gathered, bit for bit, and `action` is what
    recovery reads from the kernel's b of every step."""
    decided = {}
    for step, b in zip(reversed(plan.steps), reversed(plan._best)):
        _, want = eliminate_agent([plan._born[i] for i in step.gather], step.agent, layout=step.layout)
        if step.memo:
            assert b is None
        else:
            assert same_bits(b, want)
        decided[step.agent] = int(want[tuple(decided[a] for a in step.layout.remaining)])
    assert list(action.items()) == list(decided.items())


MEMO_CASES = settings(
    derandomize=True, database=None, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestMemo:
    @MEMO_CASES
    @given(instances(), st.data())
    def test_memoized_runs_equal_fresh_runs_bit_for_bit(self, every_step_memoized, instance, data):
        functions, order, integral = instance
        agents = agents_holding(functions)
        coordination = recording(agents, order)
        plan = coordination.plan
        elements = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]) if integral else st.floats(-10, 10)
        for _ in range(5):
            for a in agents:
                q = a.local_q
                table = q.values
                edit = data.draw(st.sampled_from(["none", "entry", "entry", "table", "zero sign"]))
                if edit == "table":
                    q.write(..., data.draw(hnp.arrays(np.float64, table.shape, elements=elements)))
                elif edit != "none":
                    at = tuple(data.draw(st.integers(0, n - 1)) for n in table.shape)
                    if edit == "entry":
                        q.write(at, data.draw(elements))
                    elif table[at] == 0.0:
                        q.write(at, -table[at])
            tables = [a.local_q.as_function_table(0) for a in agents]
            action, value, log = logged_ve(coordination)
            expected_action, expected_value, conditionals = EliminationPlan(tables, order).run()
            assert action == expected_action
            assert same_bits(value, expected_value)
            for (f, _), expected in zip(last_results(plan), conditionals):
                assert same_bits(f.values, expected.values)
            assert_best_responses(plan, action)
            # The same traffic as agents that remember nothing.
            assert log == logged_ve(recording(agents_holding(tables), order))[2]

    @MEMO_CASES
    @pytest.mark.parametrize("memoized", [False, True])
    @given(instances(), st.data())
    def test_untracked_plan_reruns_like_a_fresh_plan(self, memoized, monkeypatch, instance, data):
        # No trackers: after an in-place write to one of the plan's tables,
        # the next run equals a fresh plan's bit for bit.
        if memoized:
            monkeypatch.setattr(coordgraph, "MEMO_MIN_ENTRIES", 0)
        functions, order, integral = instance
        plan = EliminationPlan(functions, order)
        plan.run()
        elements = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]) if integral else st.floats(-10, 10)
        for _ in range(3):
            table = data.draw(st.sampled_from(functions)).values
            if data.draw(st.booleans()):
                table[...] = data.draw(hnp.arrays(np.float64, table.shape, elements=elements))
            else:
                table[tuple(data.draw(st.integers(0, n - 1)) for n in table.shape)] = data.draw(elements)
            action, value, conditionals = plan.run()
            expected_action, expected_value, expected = EliminationPlan(functions, order).run()
            assert action == expected_action
            assert same_bits(value, expected_value)
            assert [f.scope for f in conditionals] == [f.scope for f in expected]
            assert all(same_bits(f.values, g.values) for f, g in zip(conditionals, expected))

    def test_coordinations_keep_their_own_memos(self, every_step_memoized, monkeypatch):
        full = []  # agents whose step ran the full kernel
        kernel = coordgraph.eliminate_agent
        monkeypatch.setattr(
            coordgraph, "eliminate_agent", lambda fns, agent, **kw: full.append(agent) or kernel(fns, agent, **kw)
        )
        rng = np.random.default_rng(8)
        agents = ring_agents(5, 3, rng)
        a_order, b_order = (0, 1, 2, 3, 4), (4, 2, 0, 3, 1)
        bound = {order: Coordination(agents, order) for order in (a_order, b_order)}
        for visit, order in enumerate((a_order, b_order, a_order)):
            for a in agents:
                a.local_q.write(tuple(rng.integers(0, 3, 3)), rng.integers(-2, 3))
            tables = [a.local_q.as_function_table(0) for a in agents]
            plan = bound[order].plan
            assert any(step.memo for step in plan.steps)
            for again in (False, True):
                full.clear()
                action, value = ve_via_messages(bound[order])
                if again:
                    # Nothing written since: every step returns its last f and b.
                    assert full == []
                elif visit < 2:
                    # A coordination's first run starts from scratch.
                    assert full == [s.agent for s in plan.steps]
                elif coordgraph.MEMO_MAX_DIRTY_SHARE == math.inf:
                    # The other order's runs read the same logs, and left
                    # this one's memos valid: memoized steps take rows only.
                    assert set(full) <= {s.agent for s in plan.steps if not s.memo}
                expected_action, expected_value = ve_argmax(tables, order)
                assert action == expected_action
                assert same_bits(value, expected_value)

    def test_the_row_path_keeps_no_b(self, monkeypatch):
        monkeypatch.setattr(coordgraph, "MEMO_MIN_ENTRIES", 0)
        monkeypatch.setattr(coordgraph, "MEMO_MAX_DIRTY_SHARE", math.inf)
        summed = []  # rows each row-path run summed
        row_sums = coordgraph._row_sums
        monkeypatch.setattr(
            coordgraph, "_row_sums", lambda layout, fns, rows: summed.append(len(rows)) or row_sums(layout, fns, rows)
        )
        rng = np.random.default_rng(6)
        agents = ring_agents(5, 4, rng)
        order = (0, 1, 2, 3, 4)
        coordination = Coordination(agents, order)
        plan = coordination.plan
        action, _ = ve_via_messages(coordination)
        assert plan.steps[0].memo and summed == []
        assert_best_responses(plan, action)
        # Gathered by step 0 (eliminating agent 0): 16 of its 256 rows
        # dirty, whose best response recovery recomputes where it reads.
        agents[1].local_q.write((0, 1, 2), 7.0)
        action, _ = ve_via_messages(coordination)
        assert summed[0] == 16
        assert action == plan_of(agents, order)[1].run()[0]
        assert_best_responses(plan, action)

    @MEMO_CASES
    @given(instances())
    def test_recovery_recomputes_every_row_like_the_kernel(self, monkeypatch, instance):
        # Every step with a scope memoized: at every joint row, the row
        # path's sums give the kernel's f bit for bit, and the best
        # response that recovery recomputes there is the kernel's.
        monkeypatch.setattr(coordgraph, "MEMO_MIN_ENTRIES", 0)
        functions, order, _ = instance
        plan = EliminationPlan(functions, order)
        born = list(functions)
        for step in plan.steps:
            gathered = [born[i] for i in step.gather]
            f, want = eliminate_agent(gathered, step.agent, layout=step.layout)
            born.append(f)
            assert step.memo == bool(f.scope)
            if not step.memo:
                continue
            every = np.arange(want.size)
            assert same_bits(coordgraph._row_sums(step.layout, gathered, every).max(axis=0), f.values.ravel())
            for at in np.ndindex(want.shape):
                assert coordgraph._best_response(step.layout, gathered, at) == want[at]

    def test_the_recompute_sums_in_gather_order(self, monkeypatch):
        # Agent 0's action 0 sums to (1 + 1e16) - 1e16 = 0 in gather
        # order, less than action 1's 0.5; summed the other way round it
        # would be 1.
        monkeypatch.setattr(coordgraph, "MEMO_MIN_ENTRIES", 0)
        monkeypatch.setattr(coordgraph, "MEMO_MAX_DIRTY_SHARE", math.inf)
        qs = [
            LocalQ(0, (0, 1), (2, 2), [[first, first], [second, second]])
            for first, second in ((1.0, 0.5), (1e16, 0.0), (-1e16, 0.0))
        ]
        tables = [q.as_function_table(0) for q in qs]
        plan = EliminationPlan(tables, (0, 1), qs)
        assert plan.steps[0].memo
        plan.run()
        qs[0].write((0, 0), 1.0)  # unchanged, but logged: row a1 = 0 is dirty
        action, value, _ = plan.run()
        assert plan._best[0] is None  # recovery recomputes agent 0's best response
        assert action == ve_argmax(tables, (0, 1))[0] == {1: 0, 0: 1}
        assert value == 0.5

    def test_a_returned_f_never_changes(self, monkeypatch):
        # Callers hold the conditionals a run returns: a later run that
        # moves a step's f through the row path replaces it with a new
        # table and leaves the returned one as it was.
        monkeypatch.setattr(coordgraph, "MEMO_MIN_ENTRIES", 0)
        monkeypatch.setattr(coordgraph, "MEMO_MAX_DIRTY_SHARE", math.inf)
        full = []  # agents whose step ran the full kernel
        kernel = coordgraph.eliminate_agent
        monkeypatch.setattr(
            coordgraph, "eliminate_agent", lambda fns, agent, **kw: full.append(agent) or kernel(fns, agent, **kw)
        )
        agents = ring_agents(5, 4, np.random.default_rng(6))
        plan = Coordination(agents, (0, 1, 2, 3, 4)).plan
        assert plan.steps[0].memo
        held = plan.run()[2]
        copies = [f.values.copy() for f in held]
        # Gathered by step 0 (eliminating agent 0): some of its rows move.
        agents[1].local_q.write((0, 1, 2), 7.0)
        full.clear()
        new = plan.run()[2]
        assert 0 not in full
        assert new[0] is not held[0]
        assert not same_bits(new[0].values, copies[0])
        for f, values in zip(held, copies):
            assert same_bits(f.values, values)

    def test_a_step_that_raised_raises_again(self, every_step_memoized):
        rng = np.random.default_rng(3)
        agents = ring_agents(4, 5, rng)
        order = (0, 1, 2, 3)
        coordination = Coordination(agents, order)
        tables, plan = plan_of(agents, order)
        ve_via_messages(coordination)
        assert plan.steps[0].memo
        q = agents[1].local_q  # gathered by step 0, eliminating agent 0
        kept = q.values[0, 2, 1]
        q.write((0, 2, 1), np.inf)
        for _ in range(2):
            with pytest.raises(ValueError, match="not finite"):
                ve_via_messages(coordination)
        q.write((0, 2, 1), kept)
        action, value = ve_via_messages(coordination)
        expected_action, expected_value = ve_argmax(tables, order)
        assert action == expected_action
        assert same_bits(value, expected_value)

    def test_a_run_that_raised_leaves_no_stale_memo(self, every_step_memoized):
        # Step 0 (eliminating agent 0) succeeds on a new entry of agent 1's
        # table and replaces its f; step 1 (eliminating agent 1) then
        # raises on agent 2's table, which only it gathers.
        rng = np.random.default_rng(4)
        agents = ring_agents(4, 5, rng)
        order = (0, 1, 2, 3)
        coordination = Coordination(agents, order)
        tables, plan = plan_of(agents, order)
        assert plan.steps[1].memo and 2 in plan.steps[1].gather
        ve_via_messages(coordination)
        f, b = last_results(coordination.plan)[1]
        agents[1].local_q.write((0, 1, 2), 7.0)
        kept = agents[2].local_q.values[1, 1, 1]
        agents[2].local_q.write((1, 1, 1), np.inf)
        with pytest.raises(ValueError, match="eliminating agent 1"):
            ve_via_messages(coordination)
        held_f, held_b = last_results(coordination.plan)[1]
        assert held_f is f and held_b is b
        agents[2].local_q.write((1, 1, 1), kept)
        action, value = ve_via_messages(coordination)
        expected_action, expected_value, conditionals = plan.run()
        assert action == expected_action
        assert same_bits(value, expected_value)
        for (f, _), expected in zip(last_results(coordination.plan), conditionals):
            assert same_bits(f.values, expected.values)

    def test_a_step_that_raised_left_its_b_as_it_was(self):
        # Only a step that is not memoized keeps a b: at the default gate,
        # step 0's joint table has 5^4 entries.
        rng = np.random.default_rng(3)
        agents = ring_agents(4, 5, rng)
        coordination = Coordination(agents, (0, 1, 2, 3))
        ve_via_messages(coordination)
        assert not coordination.plan.steps[0].memo
        b = coordination.plan._best[0].copy()
        # Gathered by step 0 (eliminating agent 0): the best response in
        # its rows (a1, a2) = (2, 1) would become action 4.
        agents[1].local_q.write((4, 2, 1), np.inf)
        with pytest.raises(ValueError, match="eliminating agent 0"):
            ve_via_messages(coordination)
        assert same_bits(coordination.plan._best[0], b)

    def test_a_step_two_versions_behind_learns_both_changes(self, monkeypatch):
        # Step 2 gathers step 0's f. Step 1 raises once in between, so
        # step 2 misses a run and is two versions of that f behind.
        monkeypatch.setattr(coordgraph, "MEMO_MIN_ENTRIES", 0)
        monkeypatch.setattr(coordgraph, "MEMO_MAX_DIRTY_SHARE", math.inf)
        rng = np.random.default_rng(5)
        scopes = [(0, 2, 3), (1, 2), (2, 3), (3,)]
        agents = agents_holding([FunctionTable(s, rng.uniform(-1, 1, (3,) * len(s))) for s in scopes])
        order = (0, 1, 2, 3)
        coordination = Coordination(agents, order)
        assert coordination.plan.steps[2].gather == (2, 4, 5)  # table 4 is step 0's f
        ve_via_messages(coordination)
        t0, t1 = agents[0].local_q, agents[1].local_q
        kept = t1.values[0, 0]
        t0.write((0, 0, 0), 100.0)  # step 0's f changes at (a2, a3) = (0, 0)
        t1.write((0, 0), np.inf)
        with pytest.raises(ValueError, match="eliminating agent 1"):
            ve_via_messages(coordination)
        t1.write((0, 0), kept)
        t0.write((0, 0, 1), 100.0)  # and now at (0, 1)
        action, value = ve_via_messages(coordination)
        _, fresh = plan_of(agents, order)
        expected_action, expected_value, conditionals = fresh.run()
        assert action == expected_action
        assert same_bits(value, expected_value)
        for (f, _), expected in zip(last_results(coordination.plan), conditionals):
            assert same_bits(f.values, expected.values)

    def test_a_log_cut_back_since_the_last_run_counts_as_unknown(self, every_step_memoized):
        # Three times agent 1's table written between two runs: its log no
        # longer reaches back to the first run, so no step may assume the
        # table unchanged.
        rng = np.random.default_rng(7)
        agents = ring_agents(4, 3, rng)
        order = (0, 1, 2, 3)
        coordination = Coordination(agents, order)
        ve_via_messages(coordination)
        q = agents[1].local_q
        for _ in range(3):
            q.write(..., rng.uniform(-1, 1, q.values.shape))
        assert q.changes_since(0) is None
        action, value = ve_via_messages(coordination)
        _, fresh = plan_of(agents, order)
        expected_action, expected_value, conditionals = fresh.run()
        assert action == expected_action
        assert same_bits(value, expected_value)
        for (f, _), expected in zip(last_results(coordination.plan), conditionals):
            assert same_bits(f.values, expected.values)


ORDERS = ((0, 1, 2, 3, 4), (2, 3, 4, 0, 1))
WRITTEN = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), st.floats(-2, 2))


class TrackedPlanMachine(RuleBasedStateMachine):
    """Two Coordinations, in different orders, over one 5-agent ring of
    3-level tables, with every step that has a scope memoized; each has
    run once when the rules start. Writes of up to three times a table
    (so its log is cut back) and non-finite plants come between runs;
    every run must equal a fresh untracked plan and a fresh Coordination
    bit for bit. A plant that raises past step 0 does so in a run that
    has already replaced the f and b of the steps before."""

    def __init__(self):
        super().__init__()
        self.agents = ring_agents(5, 3, np.random.default_rng(0))
        # The gate is read only while a plan is built.
        gate, coordgraph.MEMO_MIN_ENTRIES = coordgraph.MEMO_MIN_ENTRIES, 0
        try:
            self.coordinations = [recording(self.agents, order) for order in ORDERS]
        finally:
            coordgraph.MEMO_MIN_ENTRIES = gate
        assert all(s.memo for c in self.coordinations for s in c.plan.steps if s.layout.remaining)
        for which in range(len(ORDERS)):
            self.run(which)

    def write(self, agent, k, data):
        q = self.agents[agent].local_q
        entries = data.draw(st.lists(st.integers(0, q.size - 1), min_size=k, max_size=k), label="entries")
        q.write(np.unravel_index(entries, q.n_actions), data.draw(st.lists(WRITTEN, min_size=k, max_size=k)))

    @rule(agent=st.integers(0, 4), k=st.integers(1, 3), data=st.data())
    def write_few(self, agent, k, data):
        """The row path."""
        self.write(agent, k, data)

    @rule(agent=st.integers(0, 4), k=st.integers(4, 81), data=st.data())
    def write_many(self, agent, k, data):
        """The full kernel, or over 54 entries, a log cut back."""
        self.write(agent, k, data)

    @rule(which=st.integers(0, len(ORDERS) - 1))
    def run(self, which):
        coordination, order = self.coordinations[which], ORDERS[which]
        action, value, log = logged_ve(coordination)
        tables = [a.local_q.as_function_table(0) for a in self.agents]
        fresh = EliminationPlan(tables, order)
        expected_action, expected_value, expected = fresh.run()
        assert list(action.items()) == list(expected_action.items())
        assert same_bits(value, expected_value)
        conditionals = coordination.plan.run()[2]
        assert all(same_bits(f.values, g.values) for f, g in zip(conditionals, expected))
        for (f, _), (want_f, _) in zip(last_results(coordination.plan), last_results(fresh)):
            assert same_bits(f.values, want_f.values)
        assert_best_responses(coordination.plan, action)
        assert log == logged_ve(recording(self.agents, order))[2]

    @rule(which=st.integers(0, len(ORDERS) - 1), bad=st.sampled_from([np.nan, np.inf]), retry=st.booleans(),
          data=st.data())
    def plant(self, which, bad, retry, data):
        # A step first, then a table it gathers: later steps raise as often as step 0.
        gathered = [[i for i in s.gather if i < len(self.agents)] for s in self.coordinations[which].plan.steps]
        agent = data.draw(st.sampled_from([g for g in gathered if g]).flatmap(st.sampled_from), label="agent")
        q = self.agents[agent].local_q
        at = np.unravel_index(data.draw(st.integers(0, q.size - 1), label="entry"), q.n_actions)
        kept = q.values[at]
        q.write(at, bad)
        with pytest.raises(ValueError, match="not finite"):
            ve_via_messages(self.coordinations[which])
        q.write(at, kept)
        if retry:
            self.run(which)


TestTrackedPlanMachine = TrackedPlanMachine.TestCase
TestTrackedPlanMachine.settings = settings(
    derandomize=True, database=None, max_examples=40, stateful_step_count=50, deadline=None
)
