"""Channel model tests: unit conversions, SINR, throughput, the objective."""

import numpy as np
import pytest

from coopa import radio

# Reference two-cell scenario used throughout: gains 2.5/1.5, caps
# 10/13 dBm, 1 mW noise, symmetric interference ratio.
CAP2_MW = 10 ** 1.3  # 19.952623149688797


def two_cell(beta, **kw):
    return radio.two_cell_config(beta, **kw)


class TestDbmConversion:
    def test_zero_dbm_is_one_mw(self):
        assert radio.dbm_to_mw(0.0) == 1.0

    def test_ten_dbm_is_ten_mw(self):
        assert radio.dbm_to_mw(10.0) == pytest.approx(10.0)

    def test_thirteen_dbm(self):
        # 10 ** 1.3 evaluated independently
        assert radio.dbm_to_mw(13.0) == pytest.approx(19.9526, abs=1e-4)

    def test_strictly_increasing(self):
        xs = np.linspace(-50, 40, 500)
        ys = [radio.dbm_to_mw(x) for x in xs]
        assert np.all(np.diff(ys) > 0)

    def test_overflow_is_a_value_error(self):
        for x in (4000.0, np.float64(4000.0)):
            with pytest.raises(ValueError, match="too large"):
                radio.dbm_to_mw(x)

class TestSinr:
    def test_no_interferer_power(self):
        # g1 = 2.5, noise 1 mW, interferer silent: 2.5 * 10 / 1 = 25
        cfg = two_cell(0.3)
        assert radio.sinr(0, [10.0, 0.0], cfg) == pytest.approx(25.0)

    def test_zero_numerator(self):
        cfg = two_cell(0.3)
        assert radio.sinr(0, [0.0, 17.0], cfg) == 0.0

    def test_with_interference(self):
        # 25 / (2.5 * 19.9526 * 0.3 + 1) evaluated by hand
        cfg = two_cell(0.3)
        expected = 25.0 / (2.5 * CAP2_MW * 0.3 + 1.0)
        got = radio.sinr(0, [10.0, CAP2_MW], cfg)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(1.5659, abs=1e-3)

    def test_unknown_agent(self):
        cfg = two_cell(0.3)
        with pytest.raises(ValueError):
            radio.sinr(2, [1.0, 1.0], cfg)
        with pytest.raises(ValueError):
            radio.sinr(-1, [1.0, 1.0], cfg)

    def test_monotone_in_own_power(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            beta = rng.uniform(0.01, 1.0)
            cfg = two_cell(beta)
            p = rng.uniform(0.0, 9.0, 2)
            bumped = p.copy()
            bumped[0] += rng.uniform(0.1, 1.0)
            assert radio.sinr(0, bumped, cfg) > radio.sinr(0, p, cfg)
            # more power at 0 weakly hurts the other user
            assert radio.sinr(1, bumped, cfg) <= radio.sinr(1, p, cfg)

    def test_scale_invariance(self):
        # scaling all powers and the noise together leaves SINR unchanged
        rng = np.random.default_rng(2)
        for _ in range(50):
            beta = rng.uniform(0.0, 1.0)
            noise = rng.uniform(0.1, 3.0)
            cfg = radio.NetworkConfig(
                gain=rng.uniform(0.5, 3.0, 3),
                beta=np.array(
                    [[0, beta, beta], [beta, 0, beta], [beta, beta, 0]], dtype=float
                ),
                noise_mw=noise,
                p_max_dbm=np.array([20.0, 20.0, 20.0]),
                n_power=5,
            )
            c = rng.uniform(0.5, 10.0)
            scaled = radio.NetworkConfig(
                gain=cfg.gain,
                beta=cfg.beta,
                noise_mw=noise * c,
                p_max_dbm=cfg.p_max_dbm + 10 * np.log10(c),
                n_power=5,
            )
            p = rng.uniform(0.0, 50.0, 3)
            for i in range(3):
                assert radio.sinr(i, p * c, scaled) == pytest.approx(
                    radio.sinr(i, p, cfg), rel=1e-12
                )

    def test_stack_of_joint_powers(self):
        # a stack along the leading agent axis gives, at every point, the
        # same float as the scalar call
        beta = np.array([[0.0, 0.4, 0.0], [0.0, 0.0, 0.0], [0.1, 0.2, 0.0]])
        cfg = radio.NetworkConfig(**dict(valid_kwargs(3), beta=beta, gain=[2.5, 1.5, 0.5]))
        stack = np.random.default_rng(3).uniform(0.0, 10.0, (3, 4, 5))
        for i in range(3):
            for f in (radio.sinr, radio.throughput):
                got = f(i, stack, cfg)
                assert got.shape == (4, 5)
                for k, m in np.ndindex(4, 5):
                    assert got[k, m] == f(i, stack[:, k, m], cfg)


class TestThroughput:
    def test_zero_sinr(self):
        cfg = two_cell(0.3)
        assert radio.throughput(0, [0.0, 5.0], cfg) == 0.0

    def test_unit_sinr(self):
        # single agent, g = 1, 1 mW power, 1 mW noise -> SINR 1 -> log2(2)
        cfg = radio.NetworkConfig(
            gain=np.array([1.0]),
            beta=np.zeros((1, 1)),
            noise_mw=1.0,
            p_max_dbm=np.array([10.0]),
            n_power=2,
        )
        assert radio.throughput(0, [1.0], cfg) == pytest.approx(1.0)

    def test_sinr_25(self):
        # log2(26) evaluated independently
        cfg = two_cell(0.3)
        assert radio.throughput(0, [10.0, 0.0], cfg) == pytest.approx(
            np.log2(26.0)
        )
        assert radio.throughput(0, [10.0, 0.0], cfg) == pytest.approx(4.7004, abs=1e-3)


class TestSumThroughput:
    def test_all_zero(self):
        assert radio.sum_throughput([0.0, 0.0], two_cell(0.5)) == 0.0

    def test_second_user_alone(self):
        # log2(1 + 1.5 * 19.9526) evaluated by hand
        cfg = two_cell(0.3)
        got = radio.sum_throughput([0.0, CAP2_MW], cfg)
        assert got == pytest.approx(np.log2(1 + 1.5 * CAP2_MW))
        assert got == pytest.approx(4.9508, abs=1e-3)

    def test_single_agent_equals_own_throughput(self):
        cfg = radio.NetworkConfig(
            gain=np.array([1.7]),
            beta=np.zeros((1, 1)),
            noise_mw=1.0,
            p_max_dbm=np.array([12.0]),
            n_power=4,
        )
        assert radio.sum_throughput([3.0], cfg) == radio.throughput(0, [3.0], cfg)

    def test_cap_violation_rejected(self):
        cfg = two_cell(0.3)
        with pytest.raises(ValueError):
            radio.sum_throughput([10.5, 0.0], cfg)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            radio.sum_throughput([-1.0, 0.0], two_cell(0.3))

    @pytest.mark.parametrize("powers", [(1.0, 2.0, 3.0), (1.0,)])
    def test_one_power_per_agent(self, powers):
        # Three used to ignore the third entry, one to raise IndexError.
        with pytest.raises(ValueError, match="^powers: need 2 entries"):
            radio.sum_throughput(powers, radio.two_cell_config(0.3))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_nonfinite_powers_rejected(self, entry):
        # NaN used to come back as a NaN sum.
        with pytest.raises(ValueError, match="^powers must be finite"):
            radio.sum_throughput([entry, 1.0], radio.two_cell_config(0.3))

    def test_dominates_each_term(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            cfg = two_cell(rng.uniform(0, 1))
            p = [rng.uniform(0, 10), rng.uniform(0, CAP2_MW)]
            total = radio.sum_throughput(p, cfg)
            assert total >= radio.throughput(0, p, cfg) - 1e-12
            assert total >= radio.throughput(1, p, cfg) - 1e-12


class TestActionGrid:
    def test_two_levels(self):
        cfg = two_cell(0.3, p1_max_dbm=10.0, n_power=2)
        grid = radio.build_action_grid(cfg)
        assert grid.levels[0].tolist() == [0.0, 10.0]

    def test_three_levels(self):
        cfg = two_cell(0.3, p1_max_dbm=10.0, n_power=3)
        grid = radio.build_action_grid(cfg)
        assert grid.levels[0].tolist() == [0.0, 5.0, 10.0]

    def test_five_levels_at_cap2(self):
        # linspace(0, 19.9526, 5) spacing checked by hand
        cfg = two_cell(0.3, n_power=5)
        expected = [0.0, 4.9882, 9.9763, 14.9645, 19.9526]
        assert grid_close(radio.build_action_grid(cfg).levels[1], expected)

    def test_endpoints_and_monotone(self):
        cfg = two_cell(0.7, n_power=21)
        grid = radio.build_action_grid(cfg)
        for i in range(2):
            assert grid.levels[i, 0] == 0.0
            assert grid.levels[i, -1] == pytest.approx(cfg.p_max_mw[i], rel=1e-15)
            assert np.all(np.diff(grid.levels[i]) > 0)

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            two_cell(0.3, n_power=1)

    def test_powers_decodes_joint_action(self):
        grid = radio.build_action_grid(two_cell(0.3, n_power=3))
        assert grid.powers((2, 0)).tolist() == [10.0, 0.0]
        with pytest.raises(ValueError):
            grid.powers((0,))

    @pytest.mark.parametrize("action", [(-1, 0), (0, 3)])
    def test_powers_rejects_index_off_the_grid(self, action):
        grid = radio.build_action_grid(two_cell(0.3, n_power=3))
        with pytest.raises(ValueError, match="power indices"):
            grid.powers(action)

    @pytest.mark.parametrize(
        "levels",
        [
            [0.0, 5.0, 10.0],  # one row, but not 2-D
            [[[0.0, 5.0]]],
            [[0.0], [0.0]],  # one level per row
            np.zeros((2, 0)),
            [[0.0, 5.0, 10.0], [0.0, np.nan, 10.0]],
            [[0.0, 5.0, np.inf]],
            [[-1.0, 5.0, 10.0]],
            [[10.0, 0.0, 5.0]],  # not increasing
            [[0.0, 5.0, 5.0]],  # not strictly increasing
            [[0.0, 5.0, 10.0], [0.0, 10.0, 5.0]],
        ],
    )
    def test_malformed_levels_rejected(self, levels):
        with pytest.raises(ValueError, match="^grid levels"):
            radio.ActionGrid(levels)

    def test_levels_stored_as_a_float_array(self):
        grid = radio.ActionGrid([[0, 5, 10], [0, 1, 2]])
        assert grid.levels.dtype == float
        assert (grid.n_agents, grid.n_power) == (2, 3)


def valid_kwargs(n):
    """NetworkConfig arguments for n cells that all interfere at 0.3."""
    return dict(
        gain=np.ones(n),
        beta=np.full((n, n), 0.3) - 0.3 * np.eye(n),
        noise_mw=1.0,
        p_max_dbm=np.full(n, 10.0),
        n_power=3,
    )


def grid_close(got, expected, abs_tol=1e-3):
    return np.allclose(np.asarray(got), np.asarray(expected), atol=abs_tol)


class TestNetworkConfigValidation:
    def test_nonpositive_gain(self):
        with pytest.raises(ValueError):
            radio.NetworkConfig(
                gain=np.array([0.0, 1.0]),
                beta=np.zeros((2, 2)),
                noise_mw=1.0,
                p_max_dbm=np.array([10.0, 10.0]),
                n_power=3,
            )

    def test_beta_out_of_range(self):
        bad = np.array([[0.0, 1.5], [0.3, 0.0]])
        with pytest.raises(ValueError):
            radio.NetworkConfig(
                gain=np.array([1.0, 1.0]),
                beta=bad,
                noise_mw=1.0,
                p_max_dbm=np.array([10.0, 10.0]),
                n_power=3,
            )

    def test_self_interference_rejected(self):
        bad = np.array([[0.1, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            radio.NetworkConfig(
                gain=np.array([1.0, 1.0]),
                beta=bad,
                noise_mw=1.0,
                p_max_dbm=np.array([10.0, 10.0]),
                n_power=3,
            )

    def test_interferers_derived_from_beta(self):
        cfg = two_cell(0.3)
        assert cfg.interferers == ((1,), (0,))
        isolated = two_cell(0.0)
        assert isolated.interferers == ((), ())
        # column i lists who hits user i: here 2 hits 0, 0 and 2 hit 1,
        # and nobody hits 2
        beta = np.array([[0.0, 0.4, 0.0], [0.0, 0.0, 0.0], [0.1, 0.2, 0.0]])
        cfg = radio.NetworkConfig(**dict(valid_kwargs(3), beta=beta))
        assert cfg.interferers == ((2,), (0, 2), ())
        assert all(type(j) is int for js in cfg.interferers for j in js)
        with pytest.raises(TypeError):
            radio.NetworkConfig(**valid_kwargs(2), interferers=((), ()))

    def test_directional_beta_allowed(self):
        beta = np.array([[0.0, 0.2], [0.7, 0.0]])
        cfg = radio.NetworkConfig(
            gain=np.array([1.0, 2.0]),
            beta=beta,
            noise_mw=1.0,
            p_max_dbm=np.array([10.0, 10.0]),
            n_power=3,
        )
        # beta[1,0] hits user 0; beta[0,1] hits user 1
        assert radio.sinr(0, [1.0, 1.0], cfg) == pytest.approx(1.0 / (0.7 + 1.0))
        assert radio.sinr(1, [1.0, 1.0], cfg) == pytest.approx(2.0 / (0.4 + 1.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gain", [np.nan, 1.0]),
            ("gain", [np.inf, 1.0]),
            ("beta", [[0.0, np.nan], [0.3, 0.0]]),
            ("noise_mw", np.inf),
            ("noise_mw", np.nan),
            ("p_max_dbm", [10.0, np.inf]),
            ("p_max_dbm", [-np.inf, 10.0]),
        ],
    )
    def test_nonfinite_inputs_rejected_by_name(self, field, value):
        kwargs = valid_kwargs(2)
        kwargs[field] = np.array(value) if isinstance(value, list) else value
        with pytest.raises(ValueError, match=field):
            radio.NetworkConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beta", np.zeros((2, 3))),
            ("beta", np.zeros(2)),
            ("p_max_dbm", np.array([10.0, 10.0, 10.0])),
            ("gain", np.ones((2, 2))),  # was accepted
            ("gain", 2.5),  # was an IndexError
            ("noise_mw", np.array([1.0, 1.0])),  # was numpy's "truth value ... is ambiguous"
            ("noise_mw", 0.0),
            ("noise_mw", -1.0),
            ("n_power", 3.0),
            ("n_power", 2.5),
            ("n_power", True),
        ],
    )
    def test_malformed_inputs_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            radio.NetworkConfig(**dict(valid_kwargs(2), **{field: value}))

    def test_numpy_integer_n_power_accepted(self):
        cfg = radio.NetworkConfig(**dict(valid_kwargs(2), n_power=np.int64(3)))
        assert radio.build_action_grid(cfg).n_power == 3
