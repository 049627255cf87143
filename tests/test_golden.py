"""Golden outputs: fixed-seed training runs reproduce pinned bytes.

Each case pins the sha256 prefixes of its trace.csv and of its learned
Q-tables (every agent's float64 table bytes, in agent order), with the
agents' updates run sequentially and on a thread pool. A change that
alters any trace or table entry at a fixed seed, however slightly, fails
here; one that only reorganizes the computation does not.
"""

import hashlib

import numpy as np
import pytest

from coopa import radio
from coopa.learner import LearningParams
from coopa.runtime import train, write_trace_csv


def ring4() -> radio.NetworkConfig:
    beta = np.zeros((4, 4))
    for i in range(4):
        beta[i, (i + 1) % 4] = beta[(i + 1) % 4, i] = 0.3
    return radio.NetworkConfig(
        gain=np.array([2.5, 1.5, 2.5, 1.5]),
        beta=beta,
        noise_mw=1.0,
        p_max_dbm=np.array([10.0, 13.0, 10.0, 13.0]),
        n_power=5,
    )


CASES = {
    "two_cell": (
        lambda: radio.two_cell_config(0.3, n_power=5),
        dict(params=LearningParams(epsilon_decay_episodes=200), episodes=300, seed=7),
        ("ffbe59cbb3c44dce", "4c7b5353b844fb36"),
    ),
    "ring4_min_degree": (
        ring4,
        dict(params=LearningParams(epsilon_decay_episodes=150), episodes=200, seed=5,
             order_strategy="min-degree"),
        ("7c07252c65d049a4", "bff9f069c7bb2be8"),
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
