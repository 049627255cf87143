"""Orchestration tests: message choreography, episodes, determinism."""

import re
import threading

import numpy as np
import pytest

from coopa import oracle, radio, runtime
from coopa.coordgraph import MAX_TABLE_ENTRIES, CoordinationGraph, EliminationPlan, default_elimination_order, ve_argmax
from coopa.learner import LearningParams
from coopa.runtime import (
    Agent,
    Assignment,
    Coordination,
    FFunction,
    InMemoryBus,
    RewardFeedback,
    ShareQ,
    build_agents,
    greedy_joint_action,
    run_episode,
    train,
    ve_via_messages,
    write_trace_csv,
)
from coopa.learner import LocalQ


def make_coordination_agents(scopes, rng, n_actions=2):
    """Agents with random local tables over the given scopes (agent j owns
    scopes[j]); power levels are irrelevant for pure VE tests."""
    agents = []
    for j, scope in enumerate(scopes):
        q = LocalQ(agent=j, scope=scope, n_actions=(n_actions,) * len(scope))
        q.write(..., rng.uniform(-10, 10, q.values.shape))
        agents.append(Agent(id=j, local_q=q, levels=np.zeros(n_actions)))
    return agents


def ring_config(cells):
    """A ring where each cell interferes with its two neighbours only."""
    beta = np.zeros((cells, cells))
    for i in range(cells):
        beta[i, (i + 1) % cells] = beta[(i + 1) % cells, i] = 0.3
    return radio.NetworkConfig(
        gain=np.resize([2.5, 1.5], cells),
        beta=beta,
        noise_mw=1.0,
        p_max_dbm=np.resize([10.0, 13.0], cells),
        n_power=5,
    )


class TestVeViaMessages:
    def test_matches_in_memory_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            scopes = []
            for j in range(n):
                others = [a for a in range(n) if a != j]
                k = int(rng.integers(0, min(2, len(others)) + 1))
                extra = list(rng.choice(others, size=k, replace=False)) if k else []
                scopes.append(tuple(sorted({j, *extra})))
            agents = make_coordination_agents(scopes, rng, n_actions=3)
            order = tuple(rng.permutation(n))
            action, value = ve_via_messages(Coordination(agents, order))
            tables = [a.local_q.as_function_table(0) for a in agents]
            expected_action, expected_value = ve_argmax(tables, order)
            assert action == expected_action
            assert value == expected_value  # bit-identical

    def test_two_agent_message_pattern(self):
        # one ShareQ, one FFunction, one Assignment, in that order
        rng = np.random.default_rng(1)
        agents = make_coordination_agents([(0, 1), (0, 1)], rng)
        for order in [(1, 0), (0, 1)]:
            bus = InMemoryBus(record=True)
            ve_via_messages(Coordination(agents, order, bus))
            kinds = [type(m).__name__ for m in bus.log]
            assert kinds == ["ShareQ", "FFunction", "Assignment"]
            share, ff, assign = bus.log
            first, second = order
            assert (share.sender, share.recipient) == (second, first)
            assert (ff.sender, ff.recipient) == (first, second)
            assert (assign.sender, assign.recipient) == (second, first)

    def test_square_graph_routes_along_induced_edges(self):
        # scopes (0,1),(1,3),(0,2),(2,3); eliminating 3 then 2 forwards the
        # induced tables to agents 2 and 1 respectively
        rng = np.random.default_rng(2)
        agents = make_coordination_agents([(0, 1), (1, 3), (0, 2), (2, 3)], rng)
        bus = InMemoryBus(record=True)
        action, value = ve_via_messages(Coordination(agents, (3, 2, 1, 0), bus))
        ffs = [(m.sender, m.recipient, m.table.scope) for m in bus.log
               if isinstance(m, FFunction)]
        assert ffs[0] == (3, 2, (1, 2))  # induced edge between 1 and 2
        assert ffs[1] == (2, 1, (0, 1))
        assert ffs[2] == (1, 0, (0,))
        tables = [a.local_q.as_function_table(0) for a in agents]
        assert (action, value) == ve_argmax(tables, (3, 2, 1, 0))

    def test_single_agent_no_messages(self):
        rng = np.random.default_rng(3)
        agents = make_coordination_agents([(0,)], rng, n_actions=4)
        bus = InMemoryBus(record=True)
        action, value = ve_via_messages(Coordination(agents, (0,), bus))
        assert bus.log == []
        assert action == {0: int(np.argmax(agents[0].local_q.values))}
        assert value == float(np.max(agents[0].local_q.values))

    def test_bad_order_rejected(self):
        rng = np.random.default_rng(5)
        agents = make_coordination_agents([(0, 1), (0, 1)], rng)
        with pytest.raises(ValueError):
            Coordination(agents, (0,))
        with pytest.raises(ValueError):
            Coordination(agents, (0, 0))

    def test_agents_must_be_the_scoped_agents(self):
        # agent 0's table mentions agent 2, which no agent is
        rng = np.random.default_rng(9)
        agents = make_coordination_agents([(0, 2), (1,)], rng)
        with pytest.raises(ValueError, match=r"scopes mention \[0, 1, 2\] but the agents are \[0, 1\]"):
            Coordination(agents, (0, 1, 2))

    def test_binding_checks_the_bus_and_schedules_protocol_order(self):
        rng = np.random.default_rng(7)
        agents = make_coordination_agents([(0, 1), (1, 3), (0, 2), (2, 3)], rng)
        coordination = Coordination(agents[::-1], (3, 2, 1, 0))
        assert [a.id for a in coordination.agents] == [0, 1, 2, 3]
        # A private bus that keeps no log; binding sends nothing.
        assert (coordination.bus.sent_count, coordination.bus.log) == (0, None)
        assert [(kind.__name__, s, r) for kind, s, r, _ in coordination.schedule] == [
            ("ShareQ", 1, 3), ("FFunction", 3, 2), ("FFunction", 2, 1), ("ShareQ", 0, 1),
            ("FFunction", 1, 0), ("Assignment", 0, 1), ("Assignment", 1, 2), ("Assignment", 2, 3),
        ]


def setup_run(beta=0.3, n_power=5, **params_kw):
    cfg = radio.two_cell_config(beta, n_power=n_power)
    agents = build_agents(cfg)
    bus = InMemoryBus(record=True)
    params = LearningParams(**params_kw)
    return cfg, agents, bus, params


class TestRunEpisode:
    def test_greedy_episode_is_repeatable(self):
        cfg, agents, bus, params = setup_run(
            epsilon_start=0.0, epsilon_end=0.0
        )
        rng = np.random.default_rng(0)
        coordination = Coordination(agents, (1, 0), bus)
        t1 = run_episode(coordination, cfg, params, 0, rng)
        # freeze tables: epsilon is 0 and alpha tiny would still learn, so
        # compare action selection across two episodes from identical tables
        snapshot = [a.local_q.values.copy() for a in agents]
        t2 = run_episode(coordination, cfg, params, 1, rng)
        for a, snap in zip(agents, snapshot):
            a.local_q.write(..., snap)
        t3 = run_episode(coordination, cfg, params, 2, rng)
        assert t2.actions == t3.actions

    def test_rewards_match_channel(self):
        cfg, agents, bus, params = setup_run(epsilon_start=0.8, epsilon_end=0.8)
        rng = np.random.default_rng(1)
        coordination = Coordination(agents, (1, 0), bus)
        for e in range(20):
            trace = run_episode(coordination, cfg, params, e, rng)
            for i, r in enumerate(trace.rewards):
                s = radio.sinr(i, trace.powers_mw, cfg)
                assert r == pytest.approx(np.log2(1 + s), abs=1e-12)
            assert trace.sum_reward == pytest.approx(sum(trace.rewards), abs=1e-12)

    def test_feedback_messages_carry_true_sinr(self):
        cfg, agents, bus, params = setup_run(epsilon_start=1.0, epsilon_end=1.0)
        rng = np.random.default_rng(2)
        trace = run_episode(Coordination(agents, (1, 0), bus), cfg, params, 0, rng)
        feedback = [m for m in bus.log if isinstance(m, RewardFeedback)]
        assert len(feedback) == 2
        for msg in feedback:
            expected = radio.sinr(msg.agent, trace.powers_mw, cfg)
            assert abs(msg.sinr - expected) <= 1e-12

    def test_single_agent_full_overwrite(self):
        # alpha=1, gamma=0: after one episode Q(a_taken) = log2(1 + SINR)
        cfg = radio.NetworkConfig(
            gain=np.array([2.0]),
            beta=np.zeros((1, 1)),
            noise_mw=1.0,
            p_max_dbm=np.array([10.0]),
            n_power=4,
        )
        agents = build_agents(cfg)
        params = LearningParams(alpha=1.0, gamma=0.0, epsilon_start=1.0,
                                epsilon_end=1.0)
        rng = np.random.default_rng(3)
        trace = run_episode(Coordination(agents, (0,), InMemoryBus()), cfg, params, 0, rng)
        a = trace.actions[0]
        expected = np.log2(1 + radio.sinr(0, trace.powers_mw, cfg))
        assert agents[0].local_q.values[a] == pytest.approx(expected, abs=1e-12)

    def test_message_count(self):
        # two full eliminations cost 3 messages each, plus 2 feedbacks
        cfg, agents, bus, params = setup_run(epsilon_start=0.0, epsilon_end=0.0)
        rng = np.random.default_rng(4)
        trace = run_episode(Coordination(agents, (1, 0), bus), cfg, params, 0, rng)
        assert trace.message_count == 3 + 2 + 3

    def test_square_graph_protocol(self):
        # One episode on the square graph: each elimination pass sends its
        # ShareQ/FFunction traffic step by step, then the Assignment chain
        # in reverse order; feedback sits between the two passes.
        square = [(0, 1), (1, 3), (0, 2), (2, 3)]
        beta = np.zeros((4, 4))
        for i, j in square:
            beta[i, j] = beta[j, i] = 0.3
        cfg = radio.NetworkConfig(
            gain=np.array([2.5, 1.5, 2.5, 1.5]),
            beta=beta,
            noise_mw=1.0,
            p_max_dbm=np.array([10.0, 13.0, 10.0, 13.0]),
            n_power=3,
        )
        grid = radio.build_action_grid(cfg)
        agents = [
            Agent(id=j, local_q=LocalQ(agent=j, scope=scope, n_actions=(3, 3)), levels=grid.levels[j])
            for j, scope in enumerate(square)
        ]
        rng = np.random.default_rng(2)
        for a in agents:
            a.local_q.write(..., rng.uniform(-1, 1, a.local_q.values.shape))
        bus = InMemoryBus(record=True)
        run_episode(Coordination(agents, (3, 2, 1, 0), bus), cfg, LearningParams(), 0, rng)

        def protocol(msg):
            if isinstance(msg, RewardFeedback):
                return ("RewardFeedback", msg.agent)
            payload = tuple(msg.actions.items()) if isinstance(msg, Assignment) else msg.table.scope
            return (type(msg).__name__, msg.sender, msg.recipient, payload)

        elimination = [
            ("ShareQ", 1, 3, (1, 3)),
            ("FFunction", 3, 2, (1, 2)),
            ("FFunction", 2, 1, (0, 1)),
            ("ShareQ", 0, 1, (0, 1)),
            ("FFunction", 1, 0, (0,)),
            ("Assignment", 0, 1, ((0, 1),)),
            ("Assignment", 1, 2, ((0, 1), (1, 2))),
            ("Assignment", 2, 3, ((0, 1), (1, 2), (2, 1))),
        ]
        feedback = [("RewardFeedback", j) for j in range(4)]
        assert [protocol(m) for m in bus.log] == elimination + feedback + elimination


class TestTrain:
    def test_single_episode(self):
        cfg = radio.two_cell_config(0.3, n_power=3)
        _, traces = train(cfg, LearningParams(), episodes=1, seed=0)
        assert len(traces) == 1

    def test_same_seed_same_traces(self):
        cfg = radio.two_cell_config(0.4, n_power=5)
        params = LearningParams(epsilon_decay_episodes=100)
        _, t1 = train(cfg, params, episodes=150, seed=7)
        _, t2 = train(cfg, params, episodes=150, seed=7)
        assert t1 == t2

    def test_parallel_updates_bit_identical(self):
        cfg = radio.two_cell_config(0.4, n_power=5)
        params = LearningParams(epsilon_decay_episodes=100)
        seq_agents, seq_traces = train(cfg, params, episodes=150, seed=7)
        par_agents, par_traces = train(cfg, params, episodes=150, seed=7, parallel=True)
        assert seq_traces == par_traces
        for a, b in zip(seq_agents, par_agents):
            assert np.array_equal(a.local_q.values, b.local_q.values)

    @pytest.mark.parametrize("cells", [4, 5])
    def test_parallel_equals_sequential_on_a_ring(self, cells):
        # min-degree eliminations on a ring induce tables over 3 agents,
        # which the two-cell case never reaches, with the pool running;
        # 5 cells split unevenly between the main thread and the worker.
        cfg = ring_config(cells)
        params = LearningParams(epsilon_decay_episodes=150)
        runs = [
            train(cfg, params, episodes=200, seed=5, order_strategy="min-degree", parallel=p)
            for p in (False, True)
        ]
        (seq_agents, seq_traces), (par_agents, par_traces) = runs
        assert seq_traces == par_traces
        for a, b in zip(seq_agents, par_agents):
            assert a.local_q.values.tobytes() == b.local_q.values.tobytes()

    def test_parallel_updates_split_between_main_thread_and_one_worker(self, monkeypatch):
        pools, events = [], []

        class RecordingPool(runtime.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.max_workers, self.batches = max_workers, []
                pools.append(self)
                events.append(("open", pools.index(self)))

            def submit(self, fn, batch):
                self.batches.append([agent.id for agent, _ in batch])
                events.append(("submit", pools.index(self)))
                return super().submit(fn, batch)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                events.append(("shutdown", pools.index(self)))

        original = runtime.local_update

        def recording_update(q, *args):
            events.append(("update", q.agent, threading.get_ident()))
            return original(q, *args)

        monkeypatch.setattr(runtime, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(runtime, "local_update", recording_update)
        episodes = 4
        train(ring_config(5), LearningParams(), episodes=episodes, seed=0, parallel=True)

        # one one-worker pool per episode, handed the id-ordered second half
        assert [(p.max_workers, p.batches) for p in pools] == [(1, [[3, 4]])] * episodes
        main = threading.get_ident()
        assert len(events) == 8 * episodes
        for e in range(episodes):
            opened, submitted, *updates, shut = events[8 * e : 8 * (e + 1)]
            # the submit comes before any update, and the pool is shut
            # down after them all, before the next episode's opens
            assert (opened, submitted, shut) == (("open", e), ("submit", e), ("shutdown", e))
            assert [a for _, a, t in updates if t == main] == [0, 1, 2]
            assert [a for _, a, t in updates if t != main] == [3, 4]
            assert len({t for _, _, t in updates if t != main}) == 1

    def test_parallel_halves_update_at_the_same_time(self, monkeypatch):
        # The first agent of each half waits at a barrier for the other:
        # it is passed only if both halves are inside an update at once.
        barrier = threading.Barrier(2, timeout=30)
        passed = []
        original = runtime.local_update

        def meeting_update(q, *args):
            if q.agent in (0, 3):
                barrier.wait()
                passed.append(q.agent)
            return original(q, *args)

        monkeypatch.setattr(runtime, "local_update", meeting_update)
        episodes = 4
        train(ring_config(5), LearningParams(), episodes=episodes, seed=0, parallel=True)
        assert sorted(passed) == [0] * episodes + [3] * episodes

    def test_learns_reference_two_cell_optimum(self):
        # small grid so the full run stays fast; the full-size case is in
        # the acceptance suite
        cfg = radio.two_cell_config(0.3, n_power=11)
        episodes = 50 * 11 * 11
        params = LearningParams(epsilon_decay_episodes=episodes)
        agents, _ = train(cfg, params, episodes=episodes, seed=1)
        action, _ = greedy_joint_action(agents, (1, 0))
        grid = radio.build_action_grid(cfg)
        powers = grid.powers((action[0], action[1]))
        assert powers[0] == 0.0
        assert powers[1] == pytest.approx(cfg.p_max_mw[1])

    def test_beta_zero_scopes_are_singletons(self):
        cfg = radio.two_cell_config(0.0, n_power=5)
        agents = build_agents(cfg)
        assert [a.local_q.scope for a in agents] == [(0,), (1,)]
        params = LearningParams(epsilon_decay_episodes=200)
        agents, _ = train(cfg, params, episodes=300, seed=2)
        action, _ = greedy_joint_action(agents, (1, 0))
        assert action == {0: 4, 1: 4}  # both at full power

    @pytest.mark.parametrize("parallel", [False, True])
    def test_compiles_one_plan_per_call(self, parallel, monkeypatch):
        # The plan is compiled, and bound, once per training run.
        plans = []

        def compile_plan(*args):
            plans.append(EliminationPlan(*args))
            return plans[-1]

        monkeypatch.setattr(runtime, "EliminationPlan", compile_plan)
        cfg = radio.two_cell_config(0.3, n_power=3)
        train(cfg, LearningParams(), episodes=5, seed=0, parallel=parallel)
        assert len(plans) == 1

    def test_tables_over_the_limit_refused_before_any_is_allocated(self, monkeypatch):
        # numpy's own error would be "Unable to allocate 7.28 TiB".
        local_q = runtime.LocalQ
        monkeypatch.setattr(runtime, "LocalQ", lambda *a, **kw: pytest.fail("allocated"))
        message = f"n_power = 1000000 over 2 cells makes Q-tables of {2 * 10**12} entries in all (limit {MAX_TABLE_ENTRIES})"
        with pytest.raises(ValueError, match=re.escape(message)):
            train(radio.two_cell_config(0.3, n_power=10**6), LearningParams(), 1, seed=0)
        cfg = radio.two_cell_config(0.3, n_power=3)  # 9 + 9 entries
        monkeypatch.setattr(runtime, "MAX_TABLE_ENTRIES", 17)
        with pytest.raises(ValueError, match=re.escape("of 18 entries in all (limit 17)")):
            build_agents(cfg)
        monkeypatch.setattr(runtime, "MAX_TABLE_ENTRIES", 18)
        monkeypatch.setattr(runtime, "LocalQ", local_q)
        assert [a.local_q.size for a in build_agents(cfg)] == runtime.q_table_entries(cfg) == [9, 9]

    def test_needs_at_least_one_episode(self):
        cfg = radio.two_cell_config(0.3, n_power=3)
        with pytest.raises(ValueError):
            train(cfg, LearningParams(), episodes=0, seed=0)

    @pytest.mark.parametrize("episodes", [True, 2.5, 3.0, "3"])
    def test_episodes_must_be_an_integer(self, episodes):
        # True used to run one episode.
        cfg = radio.two_cell_config(0.3, n_power=3)
        with pytest.raises(ValueError, match="episodes must be an integer"):
            train(cfg, LearningParams(), episodes=episodes, seed=0)

    def test_numpy_integer_episodes_accepted(self):
        cfg = radio.two_cell_config(0.3, n_power=3)
        _, traces = train(cfg, LearningParams(), episodes=np.int64(2), seed=0)
        assert len(traces) == 2

    @pytest.mark.parametrize("seed", [-1, [3, -1], 1.5, "x"])
    def test_unusable_seed_named(self, seed):
        # numpy's own error names nothing ("expected non-negative integer").
        cfg = radio.two_cell_config(0.3, n_power=3)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            train(cfg, LearningParams(), episodes=1, seed=seed)


def line_config(cells, n_power):
    """Cells in a line, each interfering with its neighbours at 0.3."""
    beta = np.zeros((cells, cells))
    for i in range(cells - 1):
        beta[i, i + 1] = beta[i + 1, i] = 0.3
    return radio.NetworkConfig(
        gain=np.resize([2.5, 1.5], cells),
        beta=beta,
        noise_mw=1.0,
        p_max_dbm=np.resize([10.0, 13.0], cells),
        n_power=n_power,
    )


class TestReachesGridOptimum:
    """Beyond two cells and the closed form: the greedy readout of the
    learned tables equals the brute-force grid optimum."""

    @staticmethod
    def learned_powers(cfg, params, episodes, seed):
        agents, _ = train(cfg, params, episodes, seed=seed)
        graph = CoordinationGraph(tuple(a.local_q.scope for a in agents))
        action, _ = greedy_joint_action(agents, default_elimination_order(graph))
        return radio.build_action_grid(cfg).powers(tuple(action[j] for j in range(cfg.n_agents)))

    @pytest.mark.parametrize("seed", range(5))
    def test_four_cell_line_at_gamma_half(self, seed):
        # At the reference gamma 0.9 this line does not settle (CHANGES.md).
        cfg = line_config(4, 3)
        params = LearningParams(gamma=0.5, epsilon_start=1.0, epsilon_end=1.0)
        best = oracle.brute_force_grid_optimum(cfg, radio.build_action_grid(cfg))
        assert tuple(self.learned_powers(cfg, params, 2000, seed)) == best.powers_mw

    @pytest.mark.parametrize("seed", range(5))
    def test_four_cell_line_at_alpha_tenth(self, seed):
        # At the default alpha 0.5 the greedy action of this line cycles
        # (learner module docstring); at 6,000 episodes 2 of these 5 seeds
        # still miss the optimum.
        cfg = line_config(4, 3)
        params = LearningParams(alpha=0.1, epsilon_decay_episodes=12000)
        best = oracle.brute_force_grid_optimum(cfg, radio.build_action_grid(cfg))
        assert tuple(self.learned_powers(cfg, params, 12000, seed)) == best.powers_mw

    @pytest.mark.parametrize("seed", range(5))
    def test_three_cell_line_at_the_defaults(self, seed):
        cfg = line_config(3, 4)
        best = oracle.brute_force_grid_optimum(cfg, radio.build_action_grid(cfg))
        assert tuple(self.learned_powers(cfg, LearningParams(), 4000, seed)) == best.powers_mw


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        cfg = radio.two_cell_config(0.3, n_power=4)
        params = LearningParams(epsilon_decay_episodes=20)
        _, traces = train(cfg, params, episodes=25, seed=3)
        path = tmp_path / "trace.csv"
        write_trace_csv(traces, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "episode,epsilon,actions,powers_mw,rewards,sum_reward"
        assert len(lines) == 26
        fields = lines[1].split(",")
        assert int(fields[0]) == 0
        assert float(fields[1]) == traces[0].epsilon
        assert tuple(int(v) for v in fields[2].split(";")) == traces[0].actions
        powers = tuple(float(v) for v in fields[3].split(";"))
        assert powers == traces[0].powers_mw
        assert float(fields[5]) == traces[0].sum_reward

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = radio.two_cell_config(0.5, n_power=4)
        params = LearningParams(epsilon_decay_episodes=20)
        paths = []
        for name in ("a.csv", "b.csv"):
            _, traces = train(cfg, params, episodes=30, seed=11)
            p = tmp_path / name
            write_trace_csv(traces, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestMessages:
    def test_agent_id_must_match_local_q(self):
        q = LocalQ(agent=0, scope=(0,), n_actions=(2,))
        with pytest.raises(ValueError):
            Agent(id=1, local_q=q, levels=np.zeros(2))

    @pytest.mark.parametrize("n_levels", [2, 5])
    def test_levels_must_match_own_table_axis(self, n_levels):
        # 5 levels for 3 actions used to fail only when exploration drew
        # action 3; 2 levels left action 2 of the table unexplored.
        q = LocalQ(agent=1, scope=(0, 1), n_actions=(4, 3))
        with pytest.raises(ValueError, match="levels"):
            Agent(id=1, local_q=q, levels=np.linspace(0, 10, n_levels))
        assert Agent(id=1, local_q=q, levels=np.linspace(0, 10, 3)).n_actions == 3
