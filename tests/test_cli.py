"""Harness tests: config parsing, sweeps, surface export, the command line."""

import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopa import cli, radio
from coopa.coordgraph import MAX_TABLE_ENTRIES
from coopa.learner import LearningParams
from coopa.runtime import build_agents, train

SMALL = """
[network]
n_power = 5

[experiment]
episodes = 400
seed = 3
betas = 0.0, 0.3, 0.9
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL)
    return path


class TestLoadConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[network]\n")
        config = cli.load_config(path)
        assert config.gains == (2.5, 1.5)
        assert config.p_max_dbm == (10.0, 13.0)
        assert config.noise_dbm == 0.0
        assert config.beta == 0.3
        assert config.n_power == 21
        assert config.alpha == 0.5
        assert config.gamma == 0.9
        net = config.network()
        assert net.noise_mw == 1.0
        assert net.p_max_mw[1] == pytest.approx(10 ** 1.3)
        # default budget: 50 times the size of the largest Q-table
        assert config.resolve_episodes(net) == 50 * 21 * 21

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cli.load_config(tmp_path / "nope.ini")

    def test_beta_out_of_range(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nbeta = 1.5\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_n_power_too_small(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nn_power = 1\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nn_power = lots\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_malformed_ini(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("n_power = 5\n")  # key before any section header
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_unknown_key_and_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nbandwidth = 20\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)
        path.write_text("[antenna]\ntilt = 3\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_mismatched_lists(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\ngains = 1.0, 2.0, 3.0\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_tables_at_the_limit_pass(self, tmp_path):
        # Two independent cells of n_power levels: 2 * n_power entries.
        path = tmp_path / "exp.ini"
        path.write_text(f"[network]\nbeta = 0\nn_power = {MAX_TABLE_ENTRIES // 2}\n[experiment]\nbetas = 0\n")
        cli.load_config(path)
        path.write_text(f"[network]\nbeta = 0\nn_power = {MAX_TABLE_ENTRIES // 2 + 1}\n[experiment]\nbetas = 0\n")
        with pytest.raises(cli.ConfigError, match=r"over 2 cells .* \(limit"):
            cli.load_config(path)

    def test_epsilon_defaults_decay_over_all_episodes(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nepisodes = 1000\n")
        config = cli.load_config(path)
        params = config.learning(1000)
        assert params.epsilon_start == 1.0
        assert params.epsilon_end == 0.05
        assert params.epsilon_decay_episodes == 1000


class TestBetaRange:
    def test_colon_spec(self):
        betas = cli.parse_beta_range("0:1:0.05")
        assert len(betas) == 21
        assert betas[0] == 0.0
        assert betas[-1] == 1.0
        assert betas[6] == pytest.approx(0.3)

    def test_comma_list(self):
        assert cli.parse_beta_range("0.1, 0.5") == (0.1, 0.5)

    def test_garbage(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_beta_range("0..1")
        with pytest.raises(cli.ConfigError):
            cli.parse_beta_range("1:0:0.1")

    def test_point_count_is_capped(self):
        betas = cli.parse_beta_range("0:1:0.001")
        assert len(betas) == cli.MAX_BETA_POINTS == 1001
        assert (betas[0], betas[-1]) == (0.0, 1.0)
        with pytest.raises(cli.ConfigError, match="100001 points"):
            cli.parse_beta_range("0:1:1e-5")


class TestSweep:
    def test_rows_and_oracle_columns(self, small_config, tmp_path):
        config = cli.load_config(small_config)
        path = cli.run_sweep(config, tmp_path / "sweep.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["beta"]) for r in rows] == [0.0, 0.3, 0.9]
        for r in rows:
            opt = float(r["optimal_throughput"])
            assert opt >= float(r["greedy_throughput"]) - 1e-9
            assert opt >= float(r["simultaneous_throughput"]) - 1e-9
        zero = rows[0]
        assert float(zero["optimal_throughput"]) == pytest.approx(
            float(zero["simultaneous_throughput"])
        )

    def test_learned_matches_optimum_on_small_grid(self, small_config, tmp_path):
        config = cli.load_config(small_config)
        path = cli.run_sweep(config, tmp_path / "sweep.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        row = next(r for r in rows if float(r["beta"]) == 0.3)
        assert float(row["qcopa_p1_mw"]) == 0.0
        assert float(row["qcopa_p2_mw"]) == pytest.approx(10 ** 1.3)
        assert float(row["qcopa_throughput"]) == pytest.approx(
            float(row["optimal_throughput"])
        )

    def test_round_trip_precision(self, small_config, tmp_path):
        config = cli.load_config(small_config)
        path = cli.run_sweep(config, tmp_path / "sweep.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        net = config.network(0.9)
        from coopa import oracle

        expected = oracle.optimal_two_user(net).sum_throughput
        got = float(rows[2]["optimal_throughput"])
        # repr round-trips exactly, which is stronger than 6 significant digits
        assert got == expected

    def test_byte_identical_reruns(self, small_config, tmp_path):
        config = cli.load_config(small_config)
        a = cli.run_sweep(config, tmp_path / "a.csv")
        b = cli.run_sweep(config, tmp_path / "b.csv")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_thread_cap_does_not_change_output(self, small_config, tmp_path, monkeypatch):
        config = cli.load_config(small_config)
        monkeypatch.setenv("COOPA_THREADS", "1")
        a = cli.run_sweep(config, tmp_path / "serial.csv")
        monkeypatch.setenv("COOPA_THREADS", "2")
        b = cli.run_sweep(config, tmp_path / "parallel.csv")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_workers_follow_the_cpu_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("COOPA_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli.sweep_workers(21) == 1
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert cli.sweep_workers(21) == 3
        assert cli.sweep_workers(2) == 2
        monkeypatch.setenv("COOPA_THREADS", "2")
        assert cli.sweep_workers(21) == 2

    def test_workers_fall_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delenv("COOPA_THREADS", raising=False)
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert cli.sweep_workers(21) == 3
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli.sweep_workers(21) == 1

    def test_bad_thread_cap(self, small_config, tmp_path, monkeypatch):
        config = cli.load_config(small_config)
        monkeypatch.setenv("COOPA_THREADS", "many")
        with pytest.raises(cli.ConfigError):
            cli.run_sweep(config, tmp_path / "x.csv")

    def test_needs_two_agents(self, tmp_path):
        config = cli.ExperimentConfig(gains=(1.0,), p_max_dbm=(10.0,))
        with pytest.raises(cli.ConfigError):
            cli.run_sweep(config, tmp_path / "x.csv")


class TestSurface:
    def test_untrained_surface_is_zero(self, tmp_path):
        cfg = radio.two_cell_config(0.3, n_power=4)
        agents = build_agents(cfg)
        path = cli.export_q_surface(agents, tmp_path / "q.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert all(float(r["global_q"]) == 0.0 for r in rows)

    def test_trained_surface_argmax_is_policy(self, tmp_path):
        cfg = radio.two_cell_config(0.3, n_power=5)
        episodes = 50 * 25
        params = LearningParams(epsilon_decay_episodes=episodes)
        agents, _ = train(cfg, params, episodes=episodes, seed=1)
        path = cli.export_q_surface(agents, tmp_path / "q.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        best = max(rows, key=lambda r: float(r["global_q"]))
        assert float(best["p1_mw"]) == 0.0
        assert float(best["p2_mw"]) == pytest.approx(10 ** 1.3)

    def test_needs_two_agents(self, tmp_path):
        cfg = radio.NetworkConfig(
            gain=np.array([1.0]), beta=np.zeros((1, 1)), noise_mw=1.0,
            p_max_dbm=np.array([10.0]), n_power=3,
        )
        agents = build_agents(cfg)
        with pytest.raises(ValueError):
            cli.export_q_surface(agents, tmp_path / "q.csv")


class TestCommandLine:
    def test_import_leaves_the_process_pool_out(self):
        # Every command imports cli; only a parallel sweep needs the pool.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = "import sys, coopa.cli; print('concurrent.futures.process' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "False"

    def test_run_writes_trace(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text("[network]\nn_power = 4\n[experiment]\nepisodes = 50\n")
        out = tmp_path / "results"
        rc = cli.main(["run", "--config", str(config), "--out", str(out)])
        assert rc == 0
        trace = out / "trace.csv"
        assert trace.exists()
        assert len(trace.read_text().strip().splitlines()) == 51

    def test_run_on_ten_cells(self, tmp_path):
        # Eliminating agent 9 first sums all ten Q-tables, of 2^10 entries.
        cells = ", ".join(["2.5"] * 10)
        config = tmp_path / "exp.ini"
        config.write_text(f"[network]\ngains = {cells}\np_max_dbm = {cells}\nn_power = 2\n[experiment]\nepisodes = 20\n")
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert len((out / "trace.csv").read_text().strip().splitlines()) == 21

    def test_run_seed_override_changes_output(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(
            "[network]\nn_power = 4\n[learning]\nepsilon_end = 1.0\n"
            "epsilon_start = 1.0\n[experiment]\nepisodes = 40\n"
        )
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"r{seed}"
            rc = cli.main(["run", "--config", str(config), "--out", str(out),
                           "--seed", str(seed)])
            assert rc == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_sweep_subcommand(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text("[network]\nn_power = 4\n[experiment]\nepisodes = 60\n")
        out = tmp_path / "results"
        rc = cli.main(["sweep", "--config", str(config), "--betas", "0:0.4:0.2",
                       "--out", str(out)])
        assert rc == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["beta"]) for r in rows] == [0.0, 0.2, 0.4]

    def test_overrides_are_validated_once(self, tmp_path, monkeypatch):
        config = tmp_path / "exp.ini"
        config.write_text("")
        checked, swept = [], []
        check = cli.ExperimentConfig.__post_init__
        monkeypatch.setattr(cli.ExperimentConfig, "__post_init__", lambda c: checked.append(c) or check(c))
        monkeypatch.setattr(cli, "run_sweep", lambda c: swept.append(c) or "sweep.csv")
        rc = cli.main(["sweep", "--config", str(config), "--betas", "0:1:0.5", "--seed", "3"])
        assert rc == 0
        # One config is built: the file with every option applied.
        assert [(c.seed, c.betas) for c in checked] == [(3, (0.0, 0.5, 1.0))]
        assert swept == checked

    def test_option_replaces_a_bad_file_value(self, small_config, tmp_path, capsys):
        small_config.write_text(SMALL.replace("seed = 3", "seed = -1"))
        message = "[experiment] seed must be a non-negative integer, got -1"
        assert cli.main(["run", "--config", str(small_config), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().out
        assert cli.main(["run", "--config", str(small_config), "--seed", "3", "--out", str(tmp_path)]) == 0
        assert message not in capsys.readouterr().out
        assert (tmp_path / "trace.csv").exists()

    def test_surface_beta_option_is_validated(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text("")
        out_file = tmp_path / "surface.csv"
        rc = cli.main(["surface", "--config", str(config), "--beta", "2.0", "--out", str(out_file)])
        assert rc == 2
        assert "[network]" in capsys.readouterr().out
        assert not out_file.exists()

    def test_surface_subcommand(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text("[network]\nn_power = 4\n[experiment]\nepisodes = 60\n")
        out_file = tmp_path / "surface.csv"
        rc = cli.main(["surface", "--config", str(config), "--beta", "0.3",
                       "--out", str(out_file)])
        assert rc == 0
        with open(out_file, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16

    def test_missing_config_reports_error(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.ini")])
        assert rc == 2
        assert "error" in capsys.readouterr().out

    @pytest.mark.parametrize("section, line, named", [
        ("network", "noise_dbm = inf", "[network] noise_dbm"),
        ("network", "gains = 2.5, nan", "[network] gains"),
        ("network", "gains = -1, 1", "[network] gains:"),
        ("network", "noise_dbm = 4000", "[network] noise_dbm"),
        ("network", "p_max_dbm = 10, 4000", "[network] p_max_dbm"),
        ("network", "gains = 1, 1e308", "[network] the largest SINR overflows a float"),
        ("network", "noise_dbm = -3075", "[network] the largest SINR overflows a float"),
        ("experiment", "betas = 0:x:0.5", "[experiment] betas:"),
        ("experiment", "betas = 0:1:1e-5", "[experiment] betas:"),
        ("experiment", "betas = 0.3, 1.5", "[experiment] betas"),
        ("experiment", "betas = -0.1, 0.3", "[experiment] betas"),
        ("experiment", "episodes = 0", "[experiment] episodes"),
        # numpy refuses a negative seed, which used to fail inside training.
        ("experiment", "seed = -1", "[experiment] seed"),
    ])
    def test_unusable_network_value_fails_before_training(
        self, tmp_path, capsys, section, line, named
    ):
        config = tmp_path / "exp.ini"
        config.write_text(f"[{section}]\n{line}\n")
        with pytest.raises(cli.ConfigError, match=re.escape(named)):
            cli.load_config(config)
        # The same values from Python (a malformed range fails to parse).
        with pytest.raises(cli.ConfigError, match=re.escape(named)):
            cli.ExperimentConfig(**cli._read_config(config))
        rc = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert named in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("betas", ["0:x:1", "0:1:1e-5"])
    def test_unusable_betas_option_named(self, tmp_path, capsys, betas):
        config = tmp_path / "exp.ini"
        config.write_text("")
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--config", str(config), "--betas", betas, "--out", str(out)])
        assert rc == 2
        assert "--betas:" in capsys.readouterr().out
        assert not out.exists()

    def test_negative_seed_option_named(self, small_config, tmp_path, capsys):
        code = cli.main(["run", "--config", str(small_config), "--seed", "-1", "--out", str(tmp_path)])
        assert code == 2
        assert "[experiment] seed must be a non-negative integer, got -1" in capsys.readouterr().out
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("command, out", [
        ("run", "taken"), ("sweep", "taken"), ("surface", os.path.join("taken", "x.csv")),
        ("run", "dir"), ("sweep", "dir"), ("surface", "dir"),
    ])
    def test_unusable_out_path_fails_before_training(self, small_config, tmp_path, capsys, monkeypatch, command, out):
        # "taken" is a regular file, so no output directory can be made
        # there; "dir" is a directory, and so are its trace.csv and
        # sweep.csv, so no command can write its output file there.
        monkeypatch.setattr(cli.runtime, "train", lambda *a, **kw: pytest.fail("trained"))
        monkeypatch.setenv("COOPA_THREADS", "1")  # a sweep trains in this process
        (tmp_path / "taken").write_text("kept")
        for name in ("trace.csv", "sweep.csv"):
            (tmp_path / "dir" / name).mkdir(parents=True)
        rc = cli.main([command, "--config", str(small_config), "--out", str(tmp_path / out)])
        assert rc == 2
        assert capsys.readouterr().out.startswith("error: ")
        assert (tmp_path / "taken").read_text() == "kept"
        assert sorted(p.name for p in (tmp_path / "dir").iterdir()) == ["sweep.csv", "trace.csv"]

    @pytest.mark.parametrize("command", ["run", "sweep", "surface"])
    def test_config_directory_reports_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli.runtime, "train", lambda *a, **kw: pytest.fail("trained"))
        rc = cli.main([command, "--config", str(tmp_path), "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert capsys.readouterr().out.startswith("error: ")
        assert not (tmp_path / "out.csv").exists()

    def test_bad_value_reports_error(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text("[network]\nbeta = 2.0\n")
        rc = cli.main(["run", "--config", str(config)])
        assert rc == 2
        assert "beta" in capsys.readouterr().out

    @pytest.mark.parametrize("network, cells, beta", [
        ("n_power = 1000000", 2, 0.3),
        ("gains = {0}\np_max_dbm = {0}\nn_power = 21".format(", ".join(["2.5"] * 10)), 10, 0.3),
        # At beta 0 the cells are independent, but a sweep's betas are not.
        ("beta = 0\nn_power = 1000000", 2, 1.0),
    ], ids=["n_power", "cells", "sweep-betas"])
    def test_tables_over_the_limit_fail_before_training(self, tmp_path, capsys, monkeypatch, network, cells, beta):
        monkeypatch.setattr(cli.runtime, "train", lambda *a, **kw: pytest.fail("trained"))
        config = tmp_path / "exp.ini"
        config.write_text(f"[network]\n{network}\n")
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(config), "--out", str(out)])
        assert rc == 2
        message = capsys.readouterr().out
        assert message.startswith("error: [network] n_power = ")
        assert f" over {cells} cells " in message
        assert f" at beta {beta} (limit {MAX_TABLE_ENTRIES})" in message
        assert not out.exists()

    def test_tables_over_the_limit_fail_when_built_in_python(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text("[network]\nn_power = 1000000\n")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        with pytest.raises(cli.ConfigError) as refused:
            config = cli.ExperimentConfig(n_power=10**6, betas=(0.1, 0.3))
            cli.run_sweep(config, tmp_path / "apiout" / "sweep.csv")
        assert capsys.readouterr().out == f"error: {refused.value}\n"
        assert not (tmp_path / "apiout").exists()

    def test_surface_refuses_other_than_two_cells_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.runtime, "train", lambda *a, **kw: pytest.fail("trained"))
        config = tmp_path / "exp.ini"
        config.write_text("[network]\ngains = 1, 1, 1\np_max_dbm = 10, 10, 10\nn_power = 3\n")
        out = tmp_path / "out"
        rc = cli.main(["surface", "--config", str(config), "--out", str(out / "q.csv")])
        assert rc == 2
        assert capsys.readouterr().out == "error: [network] the Q-surface needs 2 cells, got 3\n"
        assert not out.exists()


def _floats(low=None, high=None):
    """A float as config text: in [low, high] when given, else any float,
    huge, tiny, infinite or NaN included."""
    if low is not None:
        return st.floats(low, high).map(repr)
    return st.one_of(
        st.floats(), st.sampled_from([0.0, -0.0, 1e-320, 1e308, -1e308, 1.5, 4000.0])
    ).map(repr)


def _mostly(good, bad):
    """good nine times in ten, else bad."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


def _betas():
    """beta ranges as text: mostly a short range or list within [0, 1];
    else a range of far too many points, values outside [0, 1] or a
    malformed spec."""
    point = st.one_of(st.sampled_from(["1.5", "-0.1", "nan", "inf", "x"]), _floats())
    return _mostly(
        st.one_of(st.lists(_floats(0, 1), min_size=1, max_size=3).map(", ".join), st.just("0:1:0.5")),
        st.one_of(
            st.lists(point, min_size=1, max_size=3).map(", ".join),
            st.tuples(point, point, st.sampled_from(["0.5", "1e-9", "0", "-0.5", "nan"])).map(":".join),
            st.sampled_from(["", ",", "0:1", "0:1:0.5:2", "0:1e-9:1e-12"]),
        ),
    )


@st.composite
def _config_texts(draw):
    """A config file of 1-2 episodes whose keys are each present or not,
    with values mostly in range and now and then far out of it, of the
    wrong type, or beside a malformed line."""
    cells = draw(_mostly(st.integers(1, 4), st.one_of(st.just(10), st.integers(11, 40))))
    lines = ["[network]"]
    if draw(st.booleans()):
        lines.append("gains = " + ", ".join(draw(st.lists(
            _mostly(_floats(0.1, 5), _floats()), min_size=cells, max_size=cells))))
        lines.append("p_max_dbm = " + ", ".join(draw(_mostly(
            st.lists(_floats(-10, 30), min_size=cells, max_size=cells),
            st.lists(_floats(), min_size=1, max_size=cells + 1)))))
    keys = {
        "noise_dbm": _mostly(_floats(-30, 10), _floats()),
        "beta": _mostly(_floats(0, 1), _floats()),
        "n_power": _mostly(st.integers(2, 6), st.one_of(
            st.integers(-3, 1), st.integers(MAX_TABLE_ENTRIES + 1, 10**30), st.just("lots"))).map(str),
        "[learning]": None,
        "alpha": _mostly(_floats(0.01, 1), _floats()),
        "gamma": _mostly(_floats(0, 0.99), _floats()),
        "epsilon_start": _mostly(_floats(0, 1), _floats()),
        "epsilon_end": _mostly(_floats(0, 1), _floats()),
        "epsilon_decay_episodes": _mostly(st.integers(1, 10), st.integers(-2, 10**30)).map(str),
        "[experiment]": None,
        "seed": _mostly(st.integers(0, 100), st.integers(-2, 10**30)).map(str),
        "betas": _betas(),
    }
    for key, value in keys.items():
        if value is None:
            lines.append(key)
        elif draw(st.booleans()):
            lines.append(f"{key} = {draw(value)}")
    lines.append(f"episodes = {draw(st.integers(1, 2))}")
    malformed = ["[antenna]", "tilt = 3", "seed", "seed = 1", "= 3", "[network", "n_power = 5\n  7"]
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(malformed)))
    return "\n".join(lines) + "\n"


@st.composite
def _options(draw, out: Path):
    """A command and its options, each of the type the parser wants."""
    command = draw(st.sampled_from(["run", "sweep", "surface"]))
    argv = [command, "--out", str(out / ("q.csv" if command == "surface" else "out"))]
    if draw(st.booleans()):
        argv.append(f"--seed={draw(_mostly(st.integers(0, 100), st.integers(-2, 10**30)))}")
    if command == "sweep" and draw(st.booleans()):
        argv.append(f"--betas={draw(_betas())}")
    if command == "surface" and draw(st.booleans()):
        argv.append(f"--beta={draw(_mostly(_floats(0, 1), _floats()))}")
    return argv


class TestCommandLineFuzz:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_config_texts(), st.data())
    def test_every_config_exits_0_or_reports_an_error(self, text, data):
        # No config or option ends in a traceback: a command either runs
        # (exit 0) or prints one "error: ..." line and exits 2.
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setenv("COOPA_THREADS", "1")  # a sweep trains in this process
            tmp = Path(tmp)
            config = tmp / "exp.ini"
            config.write_text(text)
            argv = data.draw(_options(tmp)) + ["--config", str(config)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            printed = out.getvalue().splitlines()
            assert rc == 0 or (rc == 2 and any(line.startswith("error:") for line in printed)), (rc, printed)
