"""Experiment harness: config files, single runs, beta sweeps, Q-surface export.

Configuration is INI-style text with [network], [learning] and [experiment]
sections; every key has a default matching the reference two-cell scenario,
so an empty file is a valid experiment. Results are UTF-8 CSV files with a
header row, written with full-precision floats so identical runs produce
byte-identical output. Plotting is left to external tools.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import errno
import os
from dataclasses import dataclass, replace

import numpy as np

from . import oracle, radio, runtime
from .coordgraph import MAX_TABLE_ENTRIES, CoordinationGraph, default_elimination_order
from .learner import LearningParams

__all__ = [
    "ConfigError",
    "ConfigParseError",
    "ConfigValueError",
    "ExperimentConfig",
    "load_config",
    "parse_beta_range",
    "run_sweep",
    "export_q_surface",
    "main",
]

# Elimination order of every training run and of its greedy readout.
ORDER_STRATEGY = "fixed-reverse"

# Most points a start:stop:step beta range may expand to (0.001 over [0, 1]).
MAX_BETA_POINTS = 1001

SWEEP_COLUMNS = [
    "beta",
    "qcopa_p1_mw",
    "qcopa_p2_mw",
    "qcopa_throughput",
    "optimal_throughput",
    "greedy_throughput",
    "simultaneous_throughput",
]


class ConfigError(Exception):
    """Base class for configuration problems."""


class ConfigParseError(ConfigError):
    """The file is not well-formed key = value sections, or a value
    does not parse as its expected type."""


class ConfigValueError(ConfigError):
    """A parsed value violates a model invariant (range, size, ...)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment description with reference-scenario defaults."""

    gains: tuple[float, ...] = (2.5, 1.5)
    p_max_dbm: tuple[float, ...] = (10.0, 13.0)
    noise_dbm: float = 0.0
    beta: float = 0.3
    n_power: int = 21
    alpha: float = 0.5
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int | None = None  # default: decay over all episodes
    episodes: int | None = None  # default: 50 * size of the largest Q-table
    seed: int = 1
    betas: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(21))
    out_dir: str = "."

    def network(self, beta: float | None = None) -> radio.NetworkConfig:
        """Build the network at this config's beta (or an override)."""
        b = self.beta if beta is None else beta
        n = len(self.gains)
        mat = np.full((n, n), b)
        np.fill_diagonal(mat, 0.0)
        try:
            noise_mw = radio.dbm_to_mw(self.noise_dbm)
        except ValueError as exc:
            raise ValueError(f"noise_dbm: {exc}") from None
        return radio.NetworkConfig(
            gain=np.array(self.gains),
            beta=mat,
            noise_mw=noise_mw,
            p_max_dbm=np.array(self.p_max_dbm),
            n_power=self.n_power,
        )

    def resolve_episodes(self, cfg: radio.NetworkConfig) -> int:
        """Explicit episode count, or 50x the largest local Q-table."""
        if self.episodes is not None:
            return self.episodes
        return 50 * max(runtime.q_table_entries(cfg))

    def learning(self, episodes: int) -> LearningParams:
        decay = self.epsilon_decay_episodes
        if decay is None:
            decay = episodes
        return LearningParams(
            alpha=self.alpha,
            gamma=self.gamma,
            epsilon_start=self.epsilon_start,
            epsilon_end=self.epsilon_end,
            epsilon_decay_episodes=decay,
        )


_SCHEMA = {
    "network": {
        "gains": "float_list",
        "p_max_dbm": "float_list",
        "noise_dbm": "float",
        "beta": "float",
        "n_power": "int",
    },
    "learning": {
        "alpha": "float",
        "gamma": "float",
        "epsilon_start": "float",
        "epsilon_end": "float",
        "epsilon_decay_episodes": "int",
    },
    "experiment": {
        "episodes": "int",
        "seed": "int",
        "betas": "beta_range",
        "out_dir": "str",
    },
}


def parse_beta_range(spec: str) -> tuple[float, ...]:
    """Parse "start:stop:step" into an inclusive tuple of beta values.

    A bare comma-separated list of values is also accepted. A range longer
    than MAX_BETA_POINTS raises ConfigValueError without being built.
    """
    spec = spec.strip()
    try:
        if ":" in spec:
            start_s, stop_s, step_s = spec.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if not np.all(np.isfinite((start, stop, step))) or step <= 0 or stop < start:
                raise ValueError
            count = np.floor((stop - start) / step + 1e-9) + 1
            if count > MAX_BETA_POINTS:
                raise ConfigValueError(
                    f"beta range {spec!r} has {count:.0f} points, more than {MAX_BETA_POINTS}"
                )
            return tuple(round(start + k * step, 12) for k in range(int(count)))
        return tuple(float(v) for v in spec.split(","))
    except ValueError:
        raise ConfigParseError(
            f"cannot parse beta range {spec!r}; expected start:stop:step or a comma list"
        ) from None


def _parse_value(kind: str, raw: str, where: str):
    try:
        if kind == "float":
            value = float(raw)
        elif kind == "float_list":
            value = tuple(float(v) for v in raw.split(","))
        elif kind == "int":
            return int(raw)
        elif kind == "beta_range":
            return parse_beta_range(raw)
        else:
            return raw
    except ValueError:
        raise ConfigParseError(f"{where}: cannot parse {raw!r} as {kind}") from None
    except ConfigError as exc:
        raise type(exc)(f"{where}: {exc}") from None
    if not np.all(np.isfinite(value)):
        raise ConfigValueError(f"{where} must be finite, got {raw!r}")
    return value


def _validate(config: ExperimentConfig) -> ExperimentConfig:
    """Check a config by building the network and learning parameters it
    describes; their errors come back prefixed with the config section."""
    if len(config.gains) != len(config.p_max_dbm):
        raise ConfigValueError(
            f"[network] gains has {len(config.gains)} entries but "
            f"p_max_dbm has {len(config.p_max_dbm)}"
        )
    if any(g <= 0 for g in config.gains):
        raise ConfigValueError("[network] gains: channel gains must be positive")
    for section, build in (("network", config.network), ("learning", lambda: config.learning(1))):
        try:
            build()
        except ValueError as exc:
            raise ConfigValueError(f"[{section}] {exc}") from None
    if config.episodes is not None and config.episodes < 1:
        raise ConfigValueError(
            f"[experiment] episodes must be at least 1, got {config.episodes}"
        )
    if isinstance(config.seed, bool) or not isinstance(config.seed, int) or config.seed < 0:
        raise ConfigValueError(
            f"[experiment] seed must be a non-negative integer, got {config.seed!r}"
        )
    if any(not 0 <= b <= 1 for b in config.betas):
        raise ConfigValueError("[experiment] betas must all lie in [0, 1]")
    # Training builds the agents' Q-tables at beta, or a sweep at each of
    # betas, of which the largest gives the most interferers.
    for beta in (config.beta, max(config.betas, default=0.0)):
        net = config.network(beta)
        entries = sum(runtime.q_table_entries(net))
        if entries > MAX_TABLE_ENTRIES:
            raise ConfigValueError(
                f"[network] n_power = {config.n_power} over {net.n_agents} cells makes Q-tables "
                f"of {entries} entries in all at beta {beta} (limit {MAX_TABLE_ENTRIES})"
            )
    return config


def load_config(path) -> ExperimentConfig:
    """Read and validate an experiment config file.

    Raises FileNotFoundError for a missing file, ConfigParseError for
    malformed text or unparseable values, ConfigValueError for values
    violating model invariants. Omitted keys take reference-scenario
    defaults.
    """
    return _validate(_read_config(path))


def _read_config(path) -> ExperimentConfig:
    """load_config without the check of the values against the model."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigParseError(f"{path}: {exc}") from None

    overrides = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigValueError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigValueError(f"{path}: unknown key {key!r} in [{section}]")
            overrides[key] = _parse_value(
                _SCHEMA[section][key], raw, f"{path}: [{section}] {key}"
            )
    return ExperimentConfig(**overrides)


def _sweep_point(task) -> list:
    """Train at one beta and produce its result row. Top level for pickling."""
    config, beta, index = task
    net, agents, _ = _train_from_config(config, beta, seed=[config.seed, index])
    powers = _learned_powers(net, agents)
    return [
        beta,
        float(powers[0]),
        float(powers[1]),
        radio.sum_throughput(powers, net),
        oracle.optimal_two_user(net).sum_throughput,
        oracle.greedy_allocation(net).sum_throughput,
        oracle.simultaneous_allocation(net).sum_throughput,
    ]


def sweep_workers(n_points: int) -> int:
    """Sweep parallelism: up to one process per point and per CPU this
    process may run on (its affinity mask where the OS has one), capped
    by COOPA_THREADS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(n_points, cpus)
    cap = os.environ.get("COOPA_THREADS")
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ConfigValueError(f"COOPA_THREADS must be an integer, got {cap!r}")
    return workers


def _output_file(path) -> str:
    """Make the directory of the output file `path` and reject a `path`
    that names a directory, so that an unusable path fails before any
    training. Returns path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return path


def run_sweep(config: ExperimentConfig, path=None) -> str:
    """Train at every beta and write one comparison row per value.

    Rows are ordered by beta regardless of completion order; points train
    on derived per-beta seeds, so output is deterministic for a given
    config and seed. The CSV path is checked (_output_file) before any
    point trains. Returns the CSV path.
    """
    if len(config.gains) != 2:
        raise ConfigValueError("sweep compares against the two-user closed form")
    betas = sorted(config.betas)
    path = _output_file(os.path.join(config.out_dir, "sweep.csv") if path is None else path)
    tasks = [(config, beta, k) for k, beta in enumerate(betas)]
    workers = sweep_workers(len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import, rarely used

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path


def export_q_surface(agents, path) -> str:
    """Write the learned global Q over the two-dimensional power grid.

    One row per joint power pair: p1_mw, p2_mw, and the sum of both local
    tables at that joint action. The argmax row is the learned policy.
    """
    agents = sorted(agents, key=lambda a: a.id)
    if len(agents) != 2:
        raise ValueError(f"Q-surface is defined for 2 agents, got {len(agents)}")
    first, second = agents
    with open(_output_file(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p1_mw", "p2_mw", "global_q"])
        for i in range(first.n_actions):
            for j in range(second.n_actions):
                joint = {first.id: i, second.id: j}
                q = sum(
                    float(a.local_q.values[a.local_q.slice_joint(joint)])
                    for a in agents
                )
                writer.writerow(
                    [repr(float(first.levels[i])), repr(float(second.levels[j])), repr(q)]
                )
    return path


def _train_from_config(config: ExperimentConfig, beta: float | None = None, seed=None):
    net = config.network(beta)
    episodes = config.resolve_episodes(net)
    params = config.learning(episodes)
    agents, traces = runtime.train(
        net, params, episodes, seed=config.seed if seed is None else seed,
        order_strategy=ORDER_STRATEGY,
    )
    return net, agents, traces


def _learned_powers(net: radio.NetworkConfig, agents) -> np.ndarray:
    """The trained agents' greedy allocation in mW, read out by VE in the
    elimination order training used, so ties decode the same way."""
    graph = CoordinationGraph(tuple(a.local_q.scope for a in agents))
    order = default_elimination_order(graph, ORDER_STRATEGY)
    action, _ = runtime.greedy_joint_action(agents, order)
    return radio.build_action_grid(net).powers(tuple(action[j] for j in range(net.n_agents)))


def _cmd_run(args) -> int:
    config = _load_with_overrides(args)
    trace_path = _output_file(os.path.join(config.out_dir, "trace.csv"))
    net, agents, traces = _train_from_config(config)
    runtime.write_trace_csv(traces, trace_path)
    print(f"wrote {trace_path}")

    powers = _learned_powers(net, agents)
    achieved = radio.sum_throughput(powers, net)
    print(f"learned allocation (mW): {tuple(float(p) for p in powers)}")
    print(f"learned sum throughput:  {achieved:.4f} bits/s/Hz")
    if net.n_agents == 2:
        best = oracle.optimal_two_user(net)
        print(f"closed-form optimum:     {best.sum_throughput:.4f} bits/s/Hz "
              f"at {best.powers_mw}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_with_overrides(args)
    path = run_sweep(config)
    print(f"wrote {path}")
    return 0


def _cmd_surface(args) -> int:
    config = _load_with_overrides(args)
    _output_file(args.out)
    _, agents, _ = _train_from_config(config)
    path = export_q_surface(agents, args.out)
    print(f"wrote {path}")
    return 0


def _load_with_overrides(args) -> ExperimentConfig:
    """The config file with the command's options applied over it
    (--seed, --out but for surface, sweep --betas, surface --beta),
    validated once, so an option may replace a value the file gets wrong."""
    config = _read_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None and args.command != "surface":
        updates["out_dir"] = args.out
    if getattr(args, "betas", None) is not None:
        updates["betas"] = _parse_value("beta_range", args.betas, "--betas")
    if getattr(args, "beta", None) is not None:
        updates["beta"] = args.beta
    return _validate(replace(config, **updates))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coopa",
        description="Coordinated Q-learning power allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train once and write the episode trace")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="train across beta values, compare oracles")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--betas", help="start:stop:step, e.g. 0:1:0.05")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out", help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_surface = sub.add_parser("surface", help="export the learned global Q-table")
    p_surface.add_argument("--config", required=True)
    p_surface.add_argument("--beta", type=float)
    p_surface.add_argument("--out", required=True, help="output CSV file")
    p_surface.add_argument("--seed", type=int)
    p_surface.set_defaults(func=_cmd_surface)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
