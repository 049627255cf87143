"""Interference-channel model: powers, SINR, throughput, network objective.

All internal arithmetic is in linear milliwatt units; dBm appears only at
configuration boundaries. The channel is time-invariant per run (slow
fading), so every function here is a pure function of the configuration.
The interferer sets, and so the coordination graph, derive from beta.
sinr and throughput also take a stack of joint power vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetworkConfig",
    "ActionGrid",
    "dbm_to_mw",
    "sinr",
    "throughput",
    "sum_throughput",
    "build_action_grid",
    "two_cell_config",
]


def dbm_to_mw(x: float) -> float:
    """Convert a power from dBm to milliwatts: 10^(x/10).

    Raises ValueError when the result is too large for a float.
    """
    try:
        return 10.0 ** (float(x) / 10.0)  # a float, not numpy's, raises on overflow
    except OverflowError:
        raise ValueError(f"{x} dBm is too large to express in mW") from None


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of a downlink multi-cell interference channel.

    Attributes
    ----------
    gain : 1-D, per-transmitter channel gain to the user it serves (linear).
    beta : (n, n) matrix; beta[j, i] is the fraction of transmitter j's
        power that lands as interference at user i. Zero on the diagonal.
    noise_mw : receiver noise power in milliwatts, a scalar.
    p_max_dbm : per-transmitter power cap in dBm.
    n_power : number of discrete transmit power levels per transmitter.
    interferers : derived, not given: for each user i, the ids j with
        beta[j, i] > 0, ascending.
    """

    gain: np.ndarray
    beta: np.ndarray
    noise_mw: float
    p_max_dbm: np.ndarray
    n_power: int
    interferers: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        gain = np.asarray(self.gain, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        p_max = np.asarray(self.p_max_dbm, dtype=float)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "p_max_dbm", p_max)

        if gain.ndim != 1:
            raise ValueError(f"gain must be 1-D, one entry per transmitter, got shape {gain.shape}")
        if np.ndim(self.noise_mw) != 0:
            raise ValueError(f"noise_mw must be a scalar, got shape {np.shape(self.noise_mw)}")
        n = gain.shape[0]
        if beta.shape != (n, n):
            raise ValueError(f"beta must be ({n}, {n}), got {beta.shape}")
        if p_max.shape != (n,):
            raise ValueError(f"p_max_dbm must have {n} entries, got {p_max.shape}")
        for name, value in (
            ("gain", gain), ("beta", beta), ("noise_mw", self.noise_mw), ("p_max_dbm", p_max),
        ):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.p_max_mw)):
                raise ValueError(
                    f"p_max_dbm: {float(p_max.max())} dBm is too large to express in mW"
                )
        if np.any(gain <= 0):
            raise ValueError("gain: channel gains must be positive")
        if self.noise_mw <= 0:
            raise ValueError(f"noise_mw: noise power must be positive, got {self.noise_mw}")
        if np.any(beta < 0) or np.any(beta > 1):
            raise ValueError("beta: interference ratios must lie in [0, 1]")
        if np.any(np.diag(beta) != 0):
            raise ValueError("no self-interference: diagonal of beta must be 0")
        # Every received power, every sum of them and every SINR is at most
        # n * max(gain) * max(p_max_mw), or that over noise_mw.
        with np.errstate(over="ignore"):
            received = n * gain.max(initial=0.0) * self.p_max_mw.max(initial=0.0)
            if not np.isfinite(received) or not np.isfinite(received / self.noise_mw):
                raise ValueError(
                    f"the largest SINR overflows a float: gain up to {gain.max()}, "
                    f"p_max_dbm up to {p_max.max()}, noise_mw {self.noise_mw}"
                )
        if isinstance(self.n_power, bool) or not isinstance(self.n_power, (int, np.integer)):
            raise ValueError(f"n_power must be an integer, got {self.n_power!r}")
        if self.n_power < 2:
            raise ValueError(f"n_power must be at least 2, got {self.n_power}")

        object.__setattr__(self, "interferers", tuple(
            tuple(int(j) for j in np.flatnonzero(beta[:, i] > 0)) for i in range(n)
        ))

    @property
    def n_agents(self) -> int:
        return self.gain.shape[0]

    @property
    def p_max_mw(self) -> np.ndarray:
        """Per-transmitter power caps in linear milliwatts."""
        return 10.0 ** (self.p_max_dbm / 10.0)


@dataclass(frozen=True)
class ActionGrid:
    """Discrete transmit power levels, one row of n_power levels per agent.

    build_action_grid starts each row at 0 mW and ends it at the linear
    power cap, so the closed-form optimal allocations are representable on
    the grid. Any grid needs at least two finite, non-negative levels per
    row, strictly increasing.
    """

    levels: np.ndarray  # (n_agents, n_power), mW, strictly increasing rows

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "levels", levels)
        if levels.ndim != 2 or levels.shape[1] < 2:
            raise ValueError(
                f"grid levels must be (n_agents, n_power >= 2), got shape {levels.shape}"
            )
        if not np.all(np.isfinite(levels)):
            raise ValueError("grid levels must be finite")
        if np.any(levels < 0):
            raise ValueError("grid levels must be at least 0 mW")
        if np.any(np.diff(levels, axis=1) <= 0):
            raise ValueError("grid levels must increase strictly along each row")

    @property
    def n_agents(self) -> int:
        return self.levels.shape[0]

    @property
    def n_power(self) -> int:
        return self.levels.shape[1]

    def powers(self, action: tuple[int, ...]) -> np.ndarray:
        """Decode a joint action (one grid index per agent) into mW powers."""
        if len(action) != self.n_agents:
            raise ValueError(f"expected {self.n_agents} indices, got {len(action)}")
        if any(not 0 <= a < self.n_power for a in action):
            raise ValueError(f"power indices must lie in [0, {self.n_power}), got {action}")
        return np.array([self.levels[i, a] for i, a in enumerate(action)])


def build_action_grid(cfg: NetworkConfig) -> ActionGrid:
    """Linearly spaced power levels from 0 to each agent's cap, inclusive."""
    levels = np.stack([np.linspace(0.0, cap, cfg.n_power) for cap in cfg.p_max_mw])
    return ActionGrid(levels=levels)


def sinr(i: int, powers, cfg: NetworkConfig) -> np.float64 | np.ndarray:
    """Signal-to-interference-plus-noise ratio at user i.

    powers holds the per-agent transmit powers in mW along its leading
    axis: one joint vector, or a stack giving one SINR per joint point.
    Transmitter j interferes at user i with gain[i] * powers[j] * beta[j, i].
    """
    if not 0 <= i < cfg.n_agents:
        raise ValueError(f"unknown agent id {i} (n_agents={cfg.n_agents})")
    powers = np.asarray(powers, dtype=float)
    interference = sum(
        cfg.gain[i] * powers[j] * cfg.beta[j, i] for j in cfg.interferers[i]
    )
    return cfg.gain[i] * powers[i] / (interference + cfg.noise_mw)


def throughput(i: int, powers, cfg: NetworkConfig) -> np.float64 | np.ndarray:
    """Normalized throughput of user i in bits/s/Hz: log2(1 + SINR);
    powers as for sinr."""
    return np.log2(1.0 + sinr(i, powers, cfg))


def sum_throughput(powers, cfg: NetworkConfig) -> float:
    """Network objective: sum of per-user throughputs under the power caps.

    powers holds one finite transmit power per agent, in mW.
    """
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (cfg.n_agents,):
        raise ValueError(
            f"powers: need {cfg.n_agents} entries, one per agent, got shape {powers.shape}"
        )
    if not np.all(np.isfinite(powers)):
        raise ValueError(f"powers must be finite, got {powers}")
    caps = cfg.p_max_mw
    for i in range(cfg.n_agents):
        if powers[i] < 0:
            raise ValueError(f"negative transmit power for agent {i}: {powers[i]}")
        if powers[i] > caps[i] * (1.0 + 1e-12):
            raise ValueError(
                f"agent {i} power {powers[i]} mW exceeds its cap {caps[i]} mW"
            )
    return float(sum(throughput(i, powers, cfg) for i in range(cfg.n_agents)))


def two_cell_config(
    beta: float,
    g1: float = 2.5,
    g2: float = 1.5,
    p1_max_dbm: float = 10.0,
    p2_max_dbm: float = 13.0,
    noise_mw: float = 1.0,
    n_power: int = 21,
) -> NetworkConfig:
    """Two-transmitter network with symmetric interference ratio beta.

    Defaults are the reference two-cell scenario: gains 2.5 / 1.5, caps
    10 / 13 dBm, 1 mW noise. beta = 0 yields two isolated cells (empty
    interferer sets).
    """
    b = np.array([[0.0, beta], [beta, 0.0]])
    return NetworkConfig(
        gain=np.array([g1, g2]),
        beta=b,
        noise_mw=noise_mw,
        p_max_dbm=np.array([p1_max_dbm, p2_max_dbm]),
        n_power=n_power,
    )
