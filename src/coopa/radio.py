"""Interference-channel model: powers, SINR, throughput, network objective.

All internal arithmetic is in linear milliwatt units; dBm appears only at
configuration boundaries. The channel is time-invariant per run (slow
fading), so every function here is a pure function of the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetworkConfig",
    "ActionGrid",
    "dbm_to_mw",
    "mw_to_dbm",
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


def mw_to_dbm(p: float) -> float:
    """Convert a power from milliwatts to dBm: 10*log10(p). Requires p > 0."""
    if p <= 0:
        raise ValueError(f"power must be positive to express in dBm, got {p}")
    return 10.0 * np.log10(p)


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of a downlink multi-cell interference channel.

    Attributes
    ----------
    gain : per-transmitter channel gain to the user it serves (linear).
    beta : (n, n) matrix; beta[j, i] is the fraction of transmitter j's
        power that lands as interference at user i. Zero outside
        declared interferer pairs and on the diagonal.
    interferers : for each user i, the ids of transmitters interfering
        with it. Derived from beta > 0 when not given explicitly.
    noise_mw : receiver noise power in milliwatts.
    p_max_dbm : per-transmitter power cap in dBm.
    n_power : number of discrete transmit power levels per transmitter.
    """

    gain: np.ndarray
    beta: np.ndarray
    noise_mw: float
    p_max_dbm: np.ndarray
    n_power: int
    interferers: tuple[tuple[int, ...], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        gain = np.asarray(self.gain, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        p_max = np.asarray(self.p_max_dbm, dtype=float)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "p_max_dbm", p_max)

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
            raise ValueError("noise power must be positive")
        if np.any(beta < 0) or np.any(beta > 1):
            raise ValueError("beta: interference ratios must lie in [0, 1]")
        if np.any(np.diag(beta) != 0):
            raise ValueError("no self-interference: diagonal of beta must be 0")
        if self.n_power < 2:
            raise ValueError(f"n_power must be at least 2, got {self.n_power}")

        if self.interferers is None:
            derived = tuple(
                tuple(int(j) for j in range(n) if j != i and beta[j, i] > 0)
                for i in range(n)
            )
            object.__setattr__(self, "interferers", derived)
        else:
            ifr = tuple(tuple(int(j) for j in js) for js in self.interferers)
            object.__setattr__(self, "interferers", ifr)
            for i, js in enumerate(ifr):
                if i in js:
                    raise ValueError(f"agent {i} cannot interfere with itself")
                if any(not 0 <= j < n for j in js) or len(set(js)) != len(js):
                    raise ValueError(
                        f"interferers of agent {i} must be distinct ids in [0, {n}), got {js}"
                    )
                for j in range(n):
                    if j != i and j not in js and beta[j, i] != 0:
                        raise ValueError(
                            f"beta[{j},{i}] is nonzero but {j} is not an interferer of {i}"
                        )

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

    Level 0 is always 0 mW and the last level is the linear power cap, so
    the closed-form optimal allocations are representable on the grid.
    """

    levels: np.ndarray  # (n_agents, n_power), mW, strictly increasing rows

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


def sinr(i: int, powers, cfg: NetworkConfig) -> float:
    """Signal-to-interference-plus-noise ratio at user i.

    powers is the per-agent transmit power vector in mW. The interference
    seen at user i from transmitter j is gain[i] * powers[j] * beta[j, i].
    """
    if not 0 <= i < cfg.n_agents:
        raise ValueError(f"unknown agent id {i} (n_agents={cfg.n_agents})")
    powers = np.asarray(powers, dtype=float)
    interference = sum(
        cfg.gain[i] * powers[j] * cfg.beta[j, i] for j in cfg.interferers[i]
    )
    return float(cfg.gain[i] * powers[i] / (interference + cfg.noise_mw))


def throughput(i: int, powers, cfg: NetworkConfig) -> float:
    """Normalized throughput of user i in bits/s/Hz: log2(1 + SINR)."""
    return float(np.log2(1.0 + sinr(i, powers, cfg)))


def sum_throughput(powers, cfg: NetworkConfig) -> float:
    """Network objective: sum of per-user throughputs under the power caps."""
    powers = np.asarray(powers, dtype=float)
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
