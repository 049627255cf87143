"""Workload inputs, built from the seed: all that the program sees.

This module imports `coopa` from the checkout's `src/` and nothing else of
the benchmark, so `probe.py` can time a fresh interpreter's set-up without
counting the benchmark's own imports.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_coopa() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coopa

    origin = Path(coopa.__file__).resolve().parent
    if origin != SRC / "coopa":
        raise ImportError(f"coopa was imported from {origin}, not from {SRC / 'coopa'}")


_import_coopa()

import numpy as np  # noqa: E402

from coopa import cli, radio  # noqa: E402
from coopa.learner import LearningParams  # noqa: E402

RING_CELLS = 6
RING_LEVELS = 11
RING_BETA = 0.3
RING_EPISODES = 300
SWEEP_EPISODES = 2205  # 5 x 21^2 per beta point


@dataclass(frozen=True)
class TrainInputs:
    """Arguments of one `runtime.train` call (ring6)."""

    workload: str
    seed: int
    net: radio.NetworkConfig
    grid: radio.ActionGrid
    params: LearningParams
    episodes: int
    order_strategy: str
    parallel: bool


@dataclass(frozen=True)
class SweepInputs:
    """The experiment config handed to `cli.run_sweep` (sweep21)."""

    workload: str
    seed: int
    config: cli.ExperimentConfig
    nets: tuple[radio.NetworkConfig, ...]  # one per beta, in sweep order

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(sorted(self.config.betas))

    @property
    def episodes(self) -> int:
        return len(self.nets) * self.config.episodes


def ring_config(
    cells: int = RING_CELLS, n_power: int = RING_LEVELS, beta: float = RING_BETA
) -> radio.NetworkConfig:
    """A ring of cells, each interfering with its two neighbours only.

    Gains and caps alternate between the reference scenario's two cells.
    """
    b = np.zeros((cells, cells))
    for i in range(cells):
        j = (i + 1) % cells
        b[i, j] = b[j, i] = beta
    return radio.NetworkConfig(
        gain=np.resize([2.5, 1.5], cells),
        beta=b,
        noise_mw=radio.dbm_to_mw(0.0),
        p_max_dbm=np.resize([10.0, 13.0], cells),
        n_power=n_power,
    )


def build_inputs(workload: str, seed: int):
    """Inputs of one workload; the same seed gives the same inputs."""
    if workload == "ring6":
        net = ring_config()
        return TrainInputs(
            workload, seed, net, radio.build_action_grid(net),
            LearningParams(epsilon_decay_episodes=RING_EPISODES), RING_EPISODES,
            "min-degree", True,
        )
    if workload == "sweep21":
        config = cli.ExperimentConfig(episodes=SWEEP_EPISODES, seed=seed)
        nets = tuple(config.network(b) for b in sorted(config.betas))
        return SweepInputs(workload, seed, config, nets)
    raise ValueError(f"unknown workload {workload!r}")
