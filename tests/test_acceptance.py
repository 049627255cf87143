"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. The reference scenario throughout is the two-cell
network (gains 2.5/1.5, caps 10/13 dBm, 1 mW noise) with alpha 0.5 and
gamma 0.9; desk scale is a 21-level power grid trained for 50 * 21^2
episodes.
"""

import csv
import time

import numpy as np
import pytest

from coopa import cli, oracle, radio
from coopa.coordgraph import (
    CoordinationGraph,
    FunctionTable,
    brute_force_argmax,
    default_elimination_order,
    ve_argmax,
)
from coopa.learner import LearningParams, LocalQ, explore_override, local_update
from coopa.runtime import (
    Agent,
    Coordination,
    greedy_joint_action,
    train,
    ve_via_messages,
    write_trace_csv,
)

SEED = 1
N_POWER = 21
EPISODES = 50 * N_POWER * N_POWER


def report(criterion, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {criterion}] {status} ({elapsed:.1f}s / limit {limit:.0f}s) "
          f"{detail}")
    assert ok, detail
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.1f}s)"


def random_graph(rng):
    """Random scopes of the form {j} + up to two others, covering all agents."""
    n = int(rng.integers(2, 7))
    sizes = {a: int(rng.integers(2, 6)) for a in range(n)}
    functions = []
    for j in range(n):
        others = [a for a in range(n) if a != j]
        k = int(rng.integers(0, min(2, len(others)) + 1))
        extra = list(rng.choice(others, size=k, replace=False)) if k else []
        scope = tuple(sorted({j, *extra}))
        shape = tuple(sizes[a] for a in scope)
        functions.append(FunctionTable(scope, rng.uniform(-10, 10, shape)))
    return functions


@pytest.fixture(scope="module")
def desk_scale_run():
    """The reference-scenario training run shared by criteria 3 and 7."""
    cfg = radio.two_cell_config(0.3, n_power=N_POWER)
    config = cli.ExperimentConfig()
    params = config.learning(EPISODES)
    start = time.perf_counter()
    agents, traces = train(cfg, params, EPISODES, seed=SEED)
    elapsed = time.perf_counter() - start
    return cfg, params, agents, traces, elapsed


def test_criterion_1_ve_exactness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        functions = random_graph(rng)
        graph = CoordinationGraph(tuple(fn.scope for fn in functions))
        _, expected = brute_force_argmax(functions)
        for strategy in ("fixed-reverse", "min-degree"):
            order = default_elimination_order(graph, strategy)
            _, value = ve_argmax(functions, order)
            worst = max(worst, abs(value - expected))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-9,
           f"200 random graphs, both orders, max |ve - brute| = {worst:.2e}",
           elapsed, 10.0)


def test_criterion_2_message_passing_equivalence():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        sizes = {a: int(rng.integers(2, 5)) for a in range(n)}
        agents = []
        for j in range(n):
            others = [a for a in range(n) if a != j]
            k = int(rng.integers(0, min(2, len(others)) + 1))
            extra = list(rng.choice(others, size=k, replace=False)) if k else []
            scope = tuple(sorted({j, *extra}))
            q = LocalQ(agent=j, scope=scope,
                       n_actions=tuple(sizes[a] for a in scope))
            q.write(..., rng.uniform(-10, 10, q.values.shape))
            agents.append(Agent(id=j, local_q=q, levels=np.zeros(sizes[j])))
        order = tuple(rng.permutation(n))
        got = ve_via_messages(Coordination(agents, order))
        expected = ve_argmax([a.local_q.as_function_table(0) for a in agents], order)
        if got != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(2, mismatches == 0,
           f"100 random instances, {mismatches} action/value mismatches",
           elapsed, 10.0)


def test_criterion_3_learned_argmax_is_optimal(desk_scale_run):
    cfg, _, agents, _, elapsed = desk_scale_run
    action, _ = greedy_joint_action(agents, (1, 0))
    grid = radio.build_action_grid(cfg)
    powers = tuple(float(p) for p in grid.powers((action[0], action[1])))
    expected = (0.0, float(cfg.p_max_mw[1]))
    report(3, powers == expected,
           f"learned argmax decodes to {powers}, optimum {expected}",
           elapsed, 60.0)


def test_criterion_4_beta_sweep_tracks_optimum(tmp_path):
    start = time.perf_counter()
    config = cli.ExperimentConfig()  # betas 0..1 step 0.05, seed 1, desk scale
    path = cli.run_sweep(config, tmp_path / "sweep.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    worst_rel = 0.0
    worst_base = 0.0
    for row in rows:
        learned = float(row["qcopa_throughput"])
        optimal = float(row["optimal_throughput"])
        baseline = max(float(row["greedy_throughput"]),
                       float(row["simultaneous_throughput"]))
        worst_rel = max(worst_rel, abs(learned - optimal) / optimal)
        worst_base = max(worst_base, (baseline - learned) / baseline)
    elapsed = time.perf_counter() - start
    ok = len(rows) == 21 and worst_rel <= 0.02 and worst_base <= 0.02
    report(4, ok,
           f"21 betas: max |learned - optimal|/optimal = {worst_rel:.3%}, "
           f"max baseline shortfall = {worst_base:.3%}",
           elapsed, 900.0)


def test_criterion_5_closed_form_vs_grid_oracle():
    start = time.perf_counter()
    worst = 0.0
    for beta in [round(0.05 * k, 2) for k in range(1, 21)]:
        cfg = radio.two_cell_config(beta, n_power=41)
        closed = oracle.optimal_two_user(cfg)
        grid_best = oracle.brute_force_grid_optimum(cfg, radio.build_action_grid(cfg))
        rel = abs(grid_best.sum_throughput - closed.sum_throughput) / max(
            closed.sum_throughput, 1e-12
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(5, worst <= 0.01,
           f"beta in (0, 1], 41-level grid: max relative gap = {worst:.3%}",
           elapsed, 30.0)


def test_criterion_6_single_agent_fixed_point():
    rewards = np.array([0.5, 1.75, 1.0, 0.25])
    params = LearningParams(alpha=0.5, gamma=0.9, epsilon_start=0.2,
                            epsilon_end=0.2, epsilon_decay_episodes=1)
    q = LocalQ(agent=0, scope=(0,), n_actions=(4,))
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    table = q.values
    for _ in range(50_000):
        greedy = int(np.argmax(table))
        a = explore_override(greedy, 0.2, rng, 4)
        greedy_after = int(np.argmax(table))
        local_update(q, (a,), float(rewards[a]), (greedy_after,), params)
    elapsed = time.perf_counter() - start
    expected = rewards + params.gamma * rewards.max() / (1 - params.gamma)
    err = np.max(np.abs(table - expected))
    ok = err <= 1e-2 and int(np.argmax(table)) == int(np.argmax(rewards))
    report(6, ok,
           f"max |Q - (R + gamma*maxR/(1-gamma))| = {err:.2e}, "
           f"argmax Q = {int(np.argmax(table))}, argmax R = {int(np.argmax(rewards))}",
           elapsed, 5.0)


def test_criterion_7_determinism(desk_scale_run, tmp_path):
    cfg, params, agents, traces, first_elapsed = desk_scale_run
    start = time.perf_counter()
    agents2, traces2 = train(cfg, params, EPISODES, seed=SEED)
    par_agents, _ = train(cfg, params, EPISODES, seed=SEED, parallel=True)
    elapsed = time.perf_counter() - start + first_elapsed

    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    write_trace_csv(traces, first)
    write_trace_csv(traces2, second)
    bytes_equal = first.read_bytes() == second.read_bytes()
    tables_equal = all(
        np.array_equal(a.local_q.values, b.local_q.values)
        for a, b in zip(agents, par_agents)
    )
    report(7, bytes_equal and tables_equal,
           f"trace CSVs byte-identical: {bytes_equal}; parallel == sequential "
           f"Q-tables: {tables_equal}",
           elapsed, 180.0)
