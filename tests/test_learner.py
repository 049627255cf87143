"""Tabular learner tests: the update rule, schedules, exploration statistics."""

import numpy as np
import pytest
from scipy import stats

from coopa.coordgraph import FunctionTable, ve_argmax
from coopa.learner import (
    LearningParams,
    LocalQ,
    epsilon_at,
    explore_override,
    local_update,
)


def make_q(scope=(0,), n=4):
    return LocalQ(agent=scope[0], scope=scope, n_actions=(n,) * len(scope))


class TestLocalUpdate:
    def test_first_update_from_zero(self):
        # 0 + 0.5 * (1 + 0.9*0 - 0) = 0.5
        q = make_q()
        params = LearningParams(alpha=0.5, gamma=0.9)
        local_update(q, (2,), 1.0, (3,), params)
        assert q.values[2] == 0.5

    def test_full_overwrite(self):
        q = make_q()
        q.write(1, 123.0)
        params = LearningParams(alpha=1.0, gamma=0.0)
        local_update(q, (1,), -2.5, (0,), params)
        assert q.values[1] == -2.5

    def test_second_update_bootstraps_on_itself(self):
        # after the first update the entry is 0.5; repeating with the same
        # action as the greedy one gives 0.5 + 0.5*(1 + 0.45 - 0.5) = 0.975
        q = make_q()
        params = LearningParams(alpha=0.5, gamma=0.9)
        local_update(q, (2,), 1.0, (2,), params)
        local_update(q, (2,), 1.0, (2,), params)
        assert q.values[2] == pytest.approx(0.975)

    def test_single_entry_mutation(self):
        q = make_q(scope=(0, 1), n=3)
        q.write(..., np.arange(9.0).reshape(3, 3))
        before = q.values.copy()
        local_update(q, (1, 2), 7.0, (0, 0), LearningParams())
        diff = q.values != before
        assert diff.sum() == 1
        assert diff[1, 2]

    def test_invalid_indices(self):
        q = make_q(n=3)
        with pytest.raises(ValueError):
            local_update(q, (3,), 1.0, (0,), LearningParams())
        with pytest.raises(ValueError):
            local_update(q, (0, 1), 1.0, (0,), LearningParams())
        with pytest.raises(TypeError):
            local_update(q, (1.0,), 1.0, (0,), LearningParams())
        assert np.all(q.values == 0) and q.version == 0


    @pytest.mark.parametrize("reward", [np.nan, np.inf, -np.inf])
    def test_nonfinite_reward_rejected(self, reward):
        q = make_q(scope=(3,))
        with pytest.raises(ValueError, match="agent 3"):
            local_update(q, (1,), reward, (0,), LearningParams())
        assert np.all(q.values == 0)

    def test_overflowing_update_rejected(self):
        # 1e308 + 0.9 * 1.7e308 overflows to inf
        q = make_q()
        q.write(0, 1.7e308)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="agent 0"):
            local_update(q, (1,), 1e308, (0,), LearningParams(alpha=1.0, gamma=0.9))
        assert q.values[1] == 0.0

    def test_bounded_iterates(self):
        # zero-init, |r| <= B  ==>  |Q| <= B / (1 - gamma) at all times
        rng = np.random.default_rng(4)
        bound = 3.0
        params = LearningParams(alpha=0.7, gamma=0.8)
        q = make_q(n=5)
        limit = bound / (1 - params.gamma)
        for _ in range(5000):
            a = (int(rng.integers(5)),)
            a_star = (int(np.argmax(q.values)),)
            r = float(rng.uniform(-bound, bound))
            local_update(q, a, r, a_star, params)
            assert np.all(np.abs(q.values) <= limit + 1e-9)


class TestFixedPoint:
    def test_converges_to_reward_plus_discounted_max(self):
        # deterministic two-agent bandit with full scopes; running the
        # update against the greedy action of the summed tables drives
        # Q(a) to R(a) + gamma * maxR / (1 - gamma)
        rng = np.random.default_rng(9)
        n = 3
        rewards = [rng.uniform(0, 2, (n, n)) for _ in range(2)]
        qs = [
            LocalQ(agent=j, scope=(0, 1), n_actions=(n, n)) for j in range(2)
        ]
        params = LearningParams(
            alpha=0.5, gamma=0.9, epsilon_start=0.3, epsilon_end=0.3,
            epsilon_decay_episodes=1,
        )
        order = (1, 0)
        for _ in range(20000):
            tables = [FunctionTable((0, 1), q.values) for q in qs]
            greedy, _ = ve_argmax(tables, order)
            a = tuple(
                int(rng.integers(n)) if rng.random() < 0.3 else greedy[j]
                for j in range(2)
            )
            for j, q in enumerate(qs):
                local_update(q, a, rewards[j][a], (greedy[0], greedy[1]), params)

        total_r = rewards[0] + rewards[1]
        expected = total_r + params.gamma * total_r.max() / (1 - params.gamma)
        global_q = qs[0].values + qs[1].values
        assert np.allclose(global_q, expected, atol=1e-3)
        assert np.unravel_index(global_q.argmax(), global_q.shape) == np.unravel_index(
            total_r.argmax(), total_r.shape
        )


class TestEpsilonSchedule:
    def test_start(self):
        params = LearningParams(epsilon_start=0.9, epsilon_end=0.1,
                                epsilon_decay_episodes=100)
        assert epsilon_at(0, params) == 0.9

    def test_after_horizon(self):
        params = LearningParams(epsilon_start=0.9, epsilon_end=0.1,
                                epsilon_decay_episodes=100)
        assert epsilon_at(100, params) == 0.1
        assert epsilon_at(10_000, params) == 0.1

    def test_midpoint(self):
        params = LearningParams(epsilon_start=0.9, epsilon_end=0.1,
                                epsilon_decay_episodes=100)
        assert epsilon_at(50, params) == pytest.approx(0.5)

    def test_zero_horizon(self):
        params = LearningParams(epsilon_start=0.9, epsilon_end=0.1,
                                epsilon_decay_episodes=0)
        assert epsilon_at(0, params) == 0.1

    def test_negative_episode(self):
        with pytest.raises(ValueError):
            epsilon_at(-1, LearningParams())


class TestExploreOverride:
    def test_epsilon_zero_keeps_assignment(self):
        rng = np.random.default_rng(0)
        assert all(explore_override(3, 0.0, rng, 8) == 3 for _ in range(100))

    def test_epsilon_one_is_uniform(self):
        rng = np.random.default_rng(1)
        n = 10
        draws = np.array([explore_override(3, 1.0, rng, n) for _ in range(100_000)])
        counts = np.bincount(draws, minlength=n)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_half_epsilon_mixture(self):
        # P(assigned) = (1 - eps) + eps / n
        rng = np.random.default_rng(2)
        n = 6
        draws = np.array([explore_override(2, 0.5, rng, n) for _ in range(100_000)])
        freq = np.mean(draws == 2)
        assert freq == pytest.approx(0.5 + 0.5 / n, abs=0.01)

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            explore_override(0, 1.5, np.random.default_rng(0), 4)


class TestParamsAndTables:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            LearningParams(alpha=0.0)
        with pytest.raises(ValueError):
            LearningParams(alpha=1.2)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            LearningParams(gamma=1.0)

    def test_epsilon_order(self):
        with pytest.raises(ValueError):
            LearningParams(epsilon_start=0.1, epsilon_end=0.5)

    @pytest.mark.parametrize("field, value", [
        ("epsilon_start", 1.5),
        ("epsilon_start", -0.1),
        ("epsilon_end", 1.5),
        ("epsilon_end", -0.1),
        ("epsilon_decay_episodes", -1),
    ])
    def test_schedule_out_of_range_named(self, field, value):
        kwargs = {"epsilon_start": 1.0, "epsilon_end": 0.0, field: value}
        with pytest.raises(ValueError, match=field):
            LearningParams(**kwargs)

    @pytest.mark.parametrize("value", [2.5, True, 3.0, "3"])
    def test_decay_episodes_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="epsilon_decay_episodes must be an integer"):
            LearningParams(epsilon_decay_episodes=value)

    def test_numpy_integer_decay_episodes_accepted(self):
        assert epsilon_at(1, LearningParams(epsilon_decay_episodes=np.int64(2))) == pytest.approx(0.525)

    def test_scope_must_contain_owner(self):
        with pytest.raises(ValueError):
            LocalQ(agent=5, scope=(0, 1), n_actions=(2, 2))

    def test_n_actions_one_size_per_scope_agent(self):
        with pytest.raises(ValueError, match="n_actions"):
            LocalQ(agent=0, scope=(0, 1), n_actions=(3,))
        with pytest.raises(ValueError, match="n_actions"):
            LocalQ(agent=0, scope=(0,), n_actions=(3, 3))

    def test_table_starts_at_zero(self):
        q = make_q(scope=(1, 2), n=3)
        assert q.values.shape == (3, 3)
        assert np.all(q.values == 0)

    def test_given_tables_checked(self):
        with pytest.raises(ValueError, match="shape"):
            LocalQ(agent=0, scope=(0,), n_actions=(3,), values=np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            LocalQ(agent=0, scope=(0,), n_actions=(2,), values=np.array([0.0, np.nan]))

    @pytest.mark.parametrize("values", [np.zeros(2, dtype=int), [0.0, 0.0]])
    def test_given_values_take_float_updates(self, values):
        # An integer table would truncate every update to an integer.
        q = LocalQ(agent=0, scope=(0,), n_actions=(2,), values=values)
        local_update(q, (1,), 0.75, (0,), LearningParams(alpha=1.0, gamma=0.0))
        assert q.values.tolist() == [0.0, 0.75]

    def test_unknown_state(self):
        # The accessors keep a state argument for the benchmark's workloads;
        # state 0 is the one table.
        q = make_q(scope=(0, 1), n=2)
        assert q.table(0) is q.values
        assert q.as_function_table(0).values is q.values
        for accessor in (q.table, q.as_function_table):
            with pytest.raises(ValueError, match="unknown state"):
                accessor("missing")
            with pytest.raises(ValueError, match="unknown state"):
                accessor(1)

    def test_outside_writes_raise(self):
        # Only local_update and write change the table, so every change is logged.
        q = make_q(scope=(0, 1), n=2)
        for view in (q.values, q.table(0), q.as_function_table(0).values):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 1] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                view += 1.0
        assert np.all(q.values == 0) and q.version == 0

    def test_writes_are_logged_by_flat_index(self):
        q = make_q(scope=(0, 1), n=3)
        local_update(q, (1, 2), 1.0, (0, 0), LearningParams())
        q.write((0, 1), 4.0)
        q.write((slice(None), 0), [1.0, 2.0, 3.0])
        assert q.version == 5
        assert q.changes_since(0) == [5, 1, 0, 3, 6]
        assert q.changes_since(2) == [0, 3, 6]
        assert q.changes_since(5) == []
        assert q.values.tolist() == [[1.0, 4.0, 0.0], [2.0, 0.0, 0.5], [3.0, 0.0, 0.0]]

    def test_log_keeps_at_most_twice_the_table(self):
        q = make_q(n=2)
        for k in range(5):
            local_update(q, (k % 2,), 1.0, (0,), LearningParams())
        assert q.version == 5
        assert q.changes_since(0) is None  # too far back: everything may have changed
        assert q.changes_since(3) == [1, 0]

    def test_as_function_table_is_view(self):
        q = make_q(scope=(0, 1), n=2)
        ft = q.as_function_table(0)
        q.write((1, 1), 9.0)
        assert ft.values[1, 1] == 9.0

