"""Oracle tests: the closed form, the grid search, and the baselines."""

import itertools
import re

import numpy as np
import pytest

from coopa import oracle, radio

CAP2_MW = 10 ** 1.3


def reference_grid_optimum(cfg, grid):
    """The grid search as one radio.sum_throughput call per joint point,
    keeping the first best in lexicographic order: what the vectorized
    oracle must reproduce bit for bit."""
    best_action, best_value = None, -np.inf
    for action in itertools.product(range(grid.n_power), repeat=grid.n_agents):
        value = radio.sum_throughput(grid.powers(action), cfg)
        if value > best_value:
            best_action, best_value = action, value
    return tuple(float(p) for p in grid.powers(best_action)), best_value


def random_network(rng, n, n_power, max_beta):
    """n cells with random gains, caps and noise; beta is asymmetric and
    sparse, so some users see no interference at all. Under weak
    interference every user transmits at the optimum, where the order of
    the users' terms in the sum decides the value's last bits."""
    beta = rng.uniform(0.0, max_beta, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(beta, 0.0)
    return radio.NetworkConfig(
        gain=rng.uniform(0.2, 3.0, n),
        beta=beta,
        noise_mw=float(rng.uniform(0.1, 2.0)),
        p_max_dbm=rng.uniform(0.0, 15.0, n),
        n_power=n_power,
    )


class TestClosedForm:
    def test_reference_case_second_user_alone(self):
        # g2*P2max = 29.93 beats g1*P1max = 25 and 1/0.3^2 = 11.1
        alloc = oracle.optimal_two_user(radio.two_cell_config(0.3))
        assert alloc.powers_mw == (0.0, pytest.approx(CAP2_MW))
        assert alloc.sum_throughput == pytest.approx(4.9508, abs=1e-3)
        assert alloc.label == "closed-form"

    def test_zero_beta_full_power(self):
        alloc = oracle.optimal_two_user(radio.two_cell_config(0.0))
        assert alloc.powers_mw == (10.0, pytest.approx(CAP2_MW))

    def test_vanishing_beta_full_power(self):
        # beta^2 underflows to 0: the threshold is infinite, as at beta 0,
        # without dividing by zero.
        alloc = oracle.optimal_two_user(radio.two_cell_config(1e-200))
        assert alloc.powers_mw == (10.0, pytest.approx(CAP2_MW))

    def test_weak_interference_full_power(self):
        # 1/0.1^2 = 100 exceeds both received powers
        alloc = oracle.optimal_two_user(radio.two_cell_config(0.1))
        assert alloc.powers_mw == (10.0, pytest.approx(CAP2_MW))

    def test_first_user_alone_when_dominant(self):
        # swap the caps so g1*P1max = 2.5 * 19.95 = 49.9 dominates
        cfg = radio.two_cell_config(0.5, p1_max_dbm=13.0, p2_max_dbm=10.0)
        alloc = oracle.optimal_two_user(cfg)
        assert alloc.powers_mw == (pytest.approx(CAP2_MW), 0.0)

    def test_exact_tie_goes_to_first(self):
        # g1*P1max == g2*P2max >= 1/beta^2: both conditions hold
        cfg = radio.two_cell_config(0.9, g1=1.5, g2=1.5, p1_max_dbm=10.0,
                                    p2_max_dbm=10.0)
        alloc = oracle.optimal_two_user(cfg)
        assert alloc.powers_mw == (10.0, 0.0)

    def test_branch_coverage_over_beta(self):
        # the three closed-form branches all fire somewhere on [0, 1]
        labels = set()
        for beta in np.arange(0.0, 1.0001, 0.05):
            cfg = radio.two_cell_config(float(beta))
            alloc = oracle.optimal_two_user(cfg)
            if alloc.powers_mw[1] == 0.0:
                labels.add("first")
            elif alloc.powers_mw[0] == 0.0:
                labels.add("second")
            else:
                labels.add("both")
        assert {"second", "both"} <= labels
        # the first-user branch needs a dominant first link
        cfg = radio.two_cell_config(0.9, p1_max_dbm=13.0, p2_max_dbm=10.0)
        assert oracle.optimal_two_user(cfg).powers_mw[1] == 0.0

    def test_requires_two_symmetric_agents(self):
        one = radio.NetworkConfig(
            gain=np.array([1.0]), beta=np.zeros((1, 1)), noise_mw=1.0,
            p_max_dbm=np.array([10.0]), n_power=3,
        )
        with pytest.raises(ValueError):
            oracle.optimal_two_user(one)
        asym = radio.NetworkConfig(
            gain=np.array([1.0, 1.0]),
            beta=np.array([[0.0, 0.2], [0.4, 0.0]]),
            noise_mw=1.0,
            p_max_dbm=np.array([10.0, 10.0]),
            n_power=3,
        )
        with pytest.raises(ValueError):
            oracle.optimal_two_user(asym)


@pytest.fixture(params=["default-blocks", "one-row-blocks"])
def blocks(request, monkeypatch):
    """Run a grid search test with the default block size, then again with
    one level of the leading agent per block."""
    if request.param == "one-row-blocks":
        monkeypatch.setattr(oracle, "BLOCK_POINTS", 1)


class TestGridOptimum:
    def test_reference_case(self):
        cfg = radio.two_cell_config(0.3, n_power=21)
        grid = radio.build_action_grid(cfg)
        alloc = oracle.brute_force_grid_optimum(cfg, grid)
        assert alloc.powers_mw == (0.0, pytest.approx(CAP2_MW))
        # both corner points are on the grid, so the grid search must agree
        # with the closed form exactly
        assert alloc.sum_throughput == pytest.approx(
            oracle.optimal_two_user(cfg).sum_throughput, abs=1e-12
        )
        assert alloc.sum_throughput == pytest.approx(4.9508, abs=1e-3)

    def test_single_agent_full_power(self):
        cfg = radio.NetworkConfig(
            gain=np.array([2.0]), beta=np.zeros((1, 1)), noise_mw=1.0,
            p_max_dbm=np.array([10.0]), n_power=7,
        )
        alloc = oracle.brute_force_grid_optimum(cfg, radio.build_action_grid(cfg))
        assert alloc.powers_mw == (10.0,)

    def test_zero_beta_everyone_full_power(self):
        cfg = radio.two_cell_config(0.0, n_power=5)
        alloc = oracle.brute_force_grid_optimum(cfg, radio.build_action_grid(cfg))
        assert alloc.powers_mw == (10.0, pytest.approx(CAP2_MW))

    def test_space_guard(self, monkeypatch):
        cfg = radio.two_cell_config(0.3, n_power=4000)  # 1.6e7 combos
        grid = radio.build_action_grid(cfg)
        with pytest.raises(ValueError, match="limit"):
            oracle.brute_force_grid_optimum(cfg, grid)
        cfg = radio.two_cell_config(0.3, n_power=5)  # 25 combos
        grid = radio.build_action_grid(cfg)
        monkeypatch.setattr(oracle, "MAX_TABLE_ENTRIES", 25)
        assert oracle.brute_force_grid_optimum(cfg, grid).label == "brute-force"
        monkeypatch.setattr(oracle, "MAX_TABLE_ENTRIES", 24)
        with pytest.raises(ValueError, match=re.escape("grid has 25 joint points (limit 24)")):
            oracle.brute_force_grid_optimum(cfg, grid)

    def test_consistent_with_radio_objective(self):
        cfg = radio.two_cell_config(0.45, n_power=9)
        alloc = oracle.brute_force_grid_optimum(cfg, radio.build_action_grid(cfg))
        assert alloc.sum_throughput == pytest.approx(
            radio.sum_throughput(alloc.powers_mw, cfg), abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_reference_on_random_networks(self, seed, blocks):
        rng = np.random.default_rng(seed)
        for n, n_power, max_beta in itertools.product((1, 2, 3), (2, 3, 5, 9), (0.2, 1.0)):
            cfg = random_network(rng, n, n_power, max_beta)
            grid = radio.build_action_grid(cfg)
            alloc = oracle.brute_force_grid_optimum(cfg, grid)
            assert (alloc.powers_mw, alloc.sum_throughput) == reference_grid_optimum(cfg, grid)

    def test_equals_reference_with_zero_rows_in_beta(self, blocks):
        # transmitter 1 hurts nobody and user 2 hears only transmitter 0
        beta = np.array([[0.0, 0.5, 0.7], [0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
        cfg = radio.NetworkConfig(
            gain=np.array([2.5, 1.5, 0.8]), beta=beta, noise_mw=1.0,
            p_max_dbm=np.array([10.0, 13.0, 7.0]), n_power=7,
        )
        grid = radio.build_action_grid(cfg)
        alloc = oracle.brute_force_grid_optimum(cfg, grid)
        assert (alloc.powers_mw, alloc.sum_throughput) == reference_grid_optimum(cfg, grid)

    def test_equals_reference_over_the_41_level_beta_sweep(self, blocks):
        # criterion 5's grid and betas
        for beta in np.arange(0.05, 1.0001, 0.05):
            cfg = radio.two_cell_config(float(beta), n_power=41)
            grid = radio.build_action_grid(cfg)
            alloc = oracle.brute_force_grid_optimum(cfg, grid)
            assert (alloc.powers_mw, alloc.sum_throughput) == reference_grid_optimum(cfg, grid)

    def test_ties_break_to_lowest_joint_index(self, blocks):
        # identical users at beta = 1: one user alone at full power is best,
        # and (0, 10) and (10, 0) mW tie exactly; joint index (0, 2) wins
        cfg = radio.two_cell_config(1.0, g1=1.0, g2=1.0, p1_max_dbm=10.0,
                                    p2_max_dbm=10.0, n_power=3)
        grid = radio.build_action_grid(cfg)
        alloc = oracle.brute_force_grid_optimum(cfg, grid)
        assert alloc.powers_mw == reference_grid_optimum(cfg, grid)[0] == (0.0, 10.0)

    def test_tie_across_a_block_boundary_keeps_the_first(self, monkeypatch):
        # blocks of two and one of agent 0's three levels: (0, 10) and
        # (10, 0) mW tie exactly in different blocks, and the earlier wins
        monkeypatch.setattr(oracle, "BLOCK_POINTS", 6)
        cfg = radio.two_cell_config(1.0, g1=1.0, g2=1.0, p1_max_dbm=10.0,
                                    p2_max_dbm=10.0, n_power=3)
        alloc = oracle.brute_force_grid_optimum(cfg, radio.build_action_grid(cfg))
        assert alloc.powers_mw == (0.0, 10.0)

    def test_block_size_bounds_the_points_per_block(self, monkeypatch):
        # 2 cells at 3000 levels: 2**18 points hold 87 leading levels
        calls = []
        original = radio.throughput

        def recording_throughput(i, powers, cfg):
            calls.append(powers.shape)
            return original(i, powers, cfg)

        monkeypatch.setattr(radio, "throughput", recording_throughput)
        cfg = radio.two_cell_config(0.3, n_power=3000)
        alloc = oracle.brute_force_grid_optimum(cfg, radio.build_action_grid(cfg))
        assert alloc.powers_mw == (0.0, pytest.approx(CAP2_MW))
        assert max(n * m for _, n, m in calls) <= oracle.BLOCK_POINTS
        assert sum(n * m for _, n, m in calls) == 2 * 3000**2

    @pytest.mark.parametrize("rows", [1, 3])
    def test_grid_must_have_one_row_per_agent(self, rows):
        cfg = radio.two_cell_config(0.3, n_power=5)
        grid = radio.ActionGrid(np.tile(np.linspace(0.0, 10.0, 5), (rows, 1)))
        with pytest.raises(ValueError, match="grid has"):
            oracle.brute_force_grid_optimum(cfg, grid)

    @pytest.mark.parametrize("bad", [10.5, -1.0, np.nan])
    def test_grid_levels_must_lie_within_the_caps(self, bad):
        cfg = radio.two_cell_config(0.3, n_power=3)
        levels = radio.build_action_grid(cfg).levels.copy()
        levels[0, 1] = bad  # agent 0's cap is 10 mW
        with pytest.raises(ValueError, match="grid levels"):
            oracle.brute_force_grid_optimum(cfg, radio.ActionGrid(levels))

    def test_increasing_row_above_the_cap_rejected(self):
        # a well-formed grid, but agent 0's top level exceeds its 10 mW cap
        cfg = radio.two_cell_config(0.3, n_power=3)
        levels = radio.build_action_grid(cfg).levels.copy()
        levels[0] = [0.0, 5.0, 10.5]
        grid = radio.ActionGrid(levels)
        with pytest.raises(ValueError, match="grid levels must not exceed"):
            oracle.brute_force_grid_optimum(cfg, grid)


class TestBaselines:
    def test_greedy_reference_case(self):
        alloc = oracle.greedy_allocation(radio.two_cell_config(0.3))
        assert alloc.powers_mw == (0.0, pytest.approx(CAP2_MW))
        assert alloc.label == "greedy"

    def test_greedy_tie_to_first(self):
        cfg = radio.two_cell_config(0.3, p1_max_dbm=10.0, p2_max_dbm=10.0)
        assert oracle.greedy_allocation(cfg).powers_mw == (10.0, 0.0)

    def test_greedy_needs_two_agents(self):
        cfg = radio.NetworkConfig(
            gain=np.ones(3), beta=np.zeros((3, 3)), noise_mw=1.0,
            p_max_dbm=np.full(3, 10.0), n_power=3,
        )
        with pytest.raises(ValueError, match="greedy baseline .* 2 agents, got 3"):
            oracle.greedy_allocation(cfg)

    def test_greedy_swaps_with_caps(self):
        cfg = radio.two_cell_config(0.3, p1_max_dbm=13.0, p2_max_dbm=10.0)
        assert oracle.greedy_allocation(cfg).powers_mw == (pytest.approx(CAP2_MW), 0.0)

    def test_simultaneous(self):
        alloc = oracle.simultaneous_allocation(radio.two_cell_config(0.3))
        assert alloc.powers_mw == (10.0, pytest.approx(CAP2_MW))
        one = radio.NetworkConfig(
            gain=np.array([1.0]), beta=np.zeros((1, 1)), noise_mw=1.0,
            p_max_dbm=np.array([7.0]), n_power=3,
        )
        assert oracle.simultaneous_allocation(one).powers_mw == (
            pytest.approx(10 ** 0.7),
        )


class TestCrossChecks:
    def test_grid_beats_baselines(self):
        for beta in np.arange(0.0, 1.0001, 0.1):
            cfg = radio.two_cell_config(float(beta), n_power=21)
            grid_best = oracle.brute_force_grid_optimum(
                cfg, radio.build_action_grid(cfg)
            )
            assert grid_best.sum_throughput >= (
                oracle.greedy_allocation(cfg).sum_throughput - 1e-12
            )
            assert grid_best.sum_throughput >= (
                oracle.simultaneous_allocation(cfg).sum_throughput - 1e-12
            )

    def test_closed_form_close_to_grid(self):
        # corners are grid points, so the gap is only the closed form's own
        # slack near its branch boundaries; 2% covers it
        for beta in np.arange(0.05, 1.0001, 0.05):
            cfg = radio.two_cell_config(float(beta), n_power=21)
            closed = oracle.optimal_two_user(cfg)
            grid_best = oracle.brute_force_grid_optimum(
                cfg, radio.build_action_grid(cfg)
            )
            assert grid_best.sum_throughput >= closed.sum_throughput - 1e-12
            rel = (grid_best.sum_throughput - closed.sum_throughput) / max(
                closed.sum_throughput, 1e-12
            )
            assert rel <= 0.02
