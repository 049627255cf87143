"""Golden outputs: fixed-seed training runs reproduce pinned bytes.

Each case pins the sha256 prefixes of its trace.csv and of its learned
Q-tables (every agent's float64 table bytes, in agent order), with the
agents' updates run sequentially and on a thread pool. The sweep's
sweep.csv is pinned the same way, written through the process pool and
in-process. A change that alters any trace or table entry at a fixed
seed, however slightly, fails here; one that only reorganizes the
computation does not.
"""

import hashlib

import numpy as np
import pytest

from coopa import cli, radio
from coopa.coordgraph import CoordinationGraph, EliminationPlan, default_elimination_order
from coopa.learner import LearningParams
from coopa.runtime import build_agents, train, write_trace_csv


def ring(n: int, levels: int) -> radio.NetworkConfig:
    """n cells in a ring, each interfering with its two neighbours at 0.3."""
    beta = np.zeros((n, n))
    for i in range(n):
        beta[i, (i + 1) % n] = beta[(i + 1) % n, i] = 0.3
    return radio.NetworkConfig(
        gain=np.resize([2.5, 1.5], n),
        beta=beta,
        noise_mw=1.0,
        p_max_dbm=np.resize([10.0, 13.0], n),
        n_power=levels,
    )


CASES = {
    "two_cell": (
        lambda: radio.two_cell_config(0.3, n_power=5),
        dict(params=LearningParams(epsilon_decay_episodes=200), episodes=300, seed=7),
        ("ffbe59cbb3c44dce", "4c7b5353b844fb36"),
    ),
    "ring4_min_degree": (
        lambda: ring(4, 5),
        dict(params=LearningParams(epsilon_decay_episodes=150), episodes=200, seed=5,
             order_strategy="min-degree"),
        ("7c07252c65d049a4", "bff9f069c7bb2be8"),
    ),
    # Two eliminations over 7^5 joint actions: memoized steps (see below).
    "ring6_min_degree": (
        lambda: ring(6, 7),
        dict(params=LearningParams(epsilon_decay_episodes=150), episodes=200, seed=5,
             order_strategy="min-degree"),
        ("12eb656377e659bb", "e5fe81dff1fb7e9c"),
    ),
    # The benchmark's ring: 11 levels, two eliminations over 11^5 joint actions.
    "ring6_11_levels": (
        lambda: ring(6, 11),
        dict(params=LearningParams(epsilon_decay_episodes=300), episodes=300, seed=3,
             order_strategy="min-degree"),
        ("62272bda58ff4d06", "99123227ed69b1f4"),
    ),
}


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fixed_seed_outputs_are_pinned(case, parallel, tmp_path):
    network, kwargs, (trace_sha, tables_sha) = CASES[case]
    agents, traces = train(network(), parallel=parallel, **kwargs)
    path = tmp_path / "trace.csv"
    write_trace_csv(traces, path)
    tables = b"".join(a.local_q.values.tobytes() for a in agents)
    assert (sha16(path.read_bytes()), sha16(tables)) == (trace_sha, tables_sha)


@pytest.mark.parametrize("threads", [None, "1"])
def test_sweep_csv_is_pinned(threads, tmp_path, monkeypatch):
    # 21 betas at 2,205 episodes each, on the process pool and in-process.
    if threads is None:
        monkeypatch.delenv("COOPA_THREADS", raising=False)
    else:
        monkeypatch.setenv("COOPA_THREADS", threads)
    path = cli.run_sweep(cli.ExperimentConfig(episodes=2205, seed=3), tmp_path / "sweep.csv")
    with open(path, "rb") as fh:
        assert sha16(fh.read()) == "9190c571ef375d16"


def test_ring6_case_crosses_the_memo_gate():
    agents = build_agents(ring(6, 7))
    scopes = tuple(a.local_q.scope for a in agents)
    order = default_elimination_order(CoordinationGraph(scopes), "min-degree")
    plan = EliminationPlan([a.local_q.as_function_table(0) for a in agents], order)
    assert any(step.memo for step in plan.steps)
