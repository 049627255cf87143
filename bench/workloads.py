"""Timed calls into coopa, and the checks on what they return and write.

Every call goes through a module attribute (`runtime.train`, not a name
imported here), so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import resource
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from inputs import SweepInputs, TrainInputs
from coopa import cli, coordgraph, oracle, radio, runtime
from tracing import SEND, Tracer, merge, summarize

# The greedy readout sums tables in elimination order and brute force sums
# them in scope order, so on ring6 their values already differ in the last bit.
VALUE_TOLERANCE = 1e-9


def oracle_gap_pct(learned: float, optimum: float) -> float:
    """How far the learned sum throughput falls short of the optimum, in %."""
    return 100.0 * (optimum - learned) / optimum


@dataclass
class TrainRun:
    """One timed train + trace CSV + greedy readout (ring6)."""

    wall_s: float
    episodes: int
    messages: int  # sum of EpisodeTrace.message_count
    trace_digest: str
    tables: list  # copies of the learned state-0 FunctionTables
    action: dict
    value: float
    throughput: float

    @property
    def outputs(self):
        tables = hashlib.sha256(b"".join(t.values.tobytes() for t in self.tables)).hexdigest()
        return self.trace_digest, tables, self.action, self.value


def run_train(inp: TrainInputs, workdir: Path, episodes: int | None = None) -> TrainRun:
    """What `coopa run` does: train, write trace.csv, read out the greedy allocation."""
    episodes = inp.episodes if episodes is None else episodes
    path = workdir / "trace.csv"
    gc.collect()
    t0 = perf_counter()
    agents, traces = runtime.train(
        inp.net, inp.params, episodes, seed=inp.seed,
        order_strategy=inp.order_strategy, parallel=inp.parallel,
    )
    runtime.write_trace_csv(traces, path)
    graph = coordgraph.CoordinationGraph(tuple(a.local_q.scope for a in agents))
    order = coordgraph.default_elimination_order(graph, inp.order_strategy)
    action, value = runtime.greedy_joint_action(agents, order)
    powers = inp.grid.powers(tuple(action[j] for j in range(inp.net.n_agents)))
    throughput = radio.sum_throughput(powers, inp.net)
    wall = perf_counter() - t0
    return TrainRun(
        wall_s=wall,
        episodes=len(traces),
        messages=sum(t.message_count for t in traces),
        trace_digest=hashlib.sha256(path.read_bytes()).hexdigest(),
        tables=[coordgraph.FunctionTable(a.local_q.scope, a.local_q.table(0).copy()) for a in agents],
        action=action,
        value=value,
        throughput=throughput,
    )


def check_train(run: TrainRun, first: TrainRun) -> list[str]:
    """Greedy readout equals brute force over the learned tables; same seed, same outputs."""
    failures = []
    bf_action, bf_value = coordgraph.brute_force_argmax(run.tables)
    if run.action != bf_action:
        failures.append(f"greedy readout {run.action} != brute_force_argmax {bf_action}")
    if abs(run.value - bf_value) > VALUE_TOLERANCE:
        failures.append(f"greedy value {run.value!r} != brute-force value {bf_value!r}")
    if run.outputs != first.outputs:
        failures.append("trace.csv, Q-tables or readout differ between runs with the same seed")
    return failures


def true_reward_tables(net: radio.NetworkConfig, grid: radio.ActionGrid) -> list:
    """Each user's throughput as a table over itself and its interferers.

    Their sum is the sum throughput, so their max-sum is the grid optimum.
    """
    tables = []
    for i in range(net.n_agents):
        scope = tuple(sorted({i, *net.interferers[i]}))
        values = np.empty((grid.n_power,) * len(scope))
        powers = np.zeros(net.n_agents)
        for idx in np.ndindex(values.shape):
            powers[list(scope)] = [grid.levels[a, k] for a, k in zip(scope, idx)]
            values[idx] = radio.throughput(i, powers, net)
        tables.append(coordgraph.FunctionTable(scope, values))
    return tables


def grid_optimum(net: radio.NetworkConfig, grid: radio.ActionGrid) -> float:
    """Best sum throughput on the power grid.

    Two cells use the package's oracle; larger networks maximize the exact
    per-user decomposition, which the oracle's Python loop cannot reach.
    """
    if net.n_agents == 2:
        return oracle.brute_force_grid_optimum(net, grid).sum_throughput
    action, _ = coordgraph.brute_force_argmax(true_reward_tables(net, grid))
    return radio.sum_throughput(grid.powers(tuple(action[j] for j in range(net.n_agents))), net)


@dataclass
class SweepRun:
    """One timed `cli.run_sweep` (sweep21)."""

    wall_s: float
    episodes: int
    child_cpu_s: float
    text: str  # sweep.csv

    @property
    def outputs(self):
        return hashlib.sha256(self.text.encode()).hexdigest()

    def rows(self) -> list[dict]:
        return list(csv.DictReader(self.text.splitlines()))


def _child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_sweep(inp: SweepInputs, workdir: Path) -> SweepRun:
    path = workdir / "sweep.csv"
    gc.collect()
    cpu0 = _child_cpu_s()
    t0 = perf_counter()
    cli.run_sweep(inp.config, str(path))
    wall = perf_counter() - t0
    return SweepRun(wall, inp.episodes, _child_cpu_s() - cpu0, path.read_text(encoding="utf-8"))


def check_sweep(inp: SweepInputs, run: SweepRun, first: SweepRun) -> list[str]:
    """Rows in beta order; optimum equals a fresh closed form; same seed, same bytes."""
    failures = []
    rows = run.rows()
    if [float(r["beta"]) for r in rows] != list(inp.betas):
        failures.append("sweep.csv rows do not list the configured betas in order")
    for row, net in zip(rows, inp.nets):
        optimum = oracle.optimal_two_user(net).sum_throughput
        if float(row["optimal_throughput"]) != optimum:
            failures.append(f"beta {row['beta']}: optimal_throughput {row['optimal_throughput']} != {optimum!r}")
        learned = radio.sum_throughput((float(row["qcopa_p1_mw"]), float(row["qcopa_p2_mw"])), net)
        if float(row["qcopa_throughput"]) != learned:
            failures.append(f"beta {row['beta']}: qcopa_throughput does not match its powers")
    if run.outputs != first.outputs:
        failures.append("sweep.csv differs between runs with the same seed")
    return failures


def sweep_gap_pct(run: SweepRun) -> float:
    """The worst point's gap between learned and optimal sum throughput."""
    return max(
        oracle_gap_pct(float(r["qcopa_throughput"]), float(r["optimal_throughput"]))
        for r in run.rows()
    )


def sweep_messages_per_episode(inp: SweepInputs, episodes: int = 4) -> float:
    """Mean backhaul messages per episode over the sweep's points.

    `run_sweep` keeps its traces in the worker processes, so this trains
    each point again for a few episodes, on the point's own seed, and
    reads `EpisodeTrace.message_count`.
    """
    total = 0
    for k, net in enumerate(inp.nets):
        _, traces = runtime.train(net, inp.config.learning(episodes), episodes, seed=[inp.seed, k])
        total += sum(t.message_count for t in traces)
    return total / (episodes * len(inp.nets))


def traced_train(inp: TrainInputs, workdir: Path, tracer: Tracer):
    """`run_train` with the tracer installed: the run and its span summary."""
    tracer.reset()
    tracer.install(runtime, coordgraph, radio)
    try:
        run = run_train(inp, workdir)
    finally:
        tracer.uninstall()
    return run, summarize(tracer)


def traced_sweep(inp: SweepInputs, workdir: Path, tracer: Tracer):
    """`run_sweep` traced inside its worker processes, one summary per point.

    `cli._sweep_point` is replaced by a wrapper that pickles by the
    original's name, so workers forked while it is installed run it. Each
    point starts from an empty tracer and leaves its summary, and whether
    its row's powers equal brute force over its learned tables, in a file.
    """
    points = workdir / "points"
    shutil.rmtree(points, ignore_errors=True)
    points.mkdir()
    original = vars(cli)["_sweep_point"]

    def _sweep_point(task):
        _, _, index = task
        tracer.reset()
        row = original(task)
        agents = sorted(tracer.last_agents, key=lambda a: a.id)
        action, _ = coordgraph.brute_force_argmax([a.local_q.as_function_table(0) for a in agents])
        summary = summarize(tracer)
        summary["readout_failures"] = int([float(a.levels[action[a.id]]) for a in agents] != row[1:3])
        (points / f"point-{index}.json").write_text(json.dumps(summary), encoding="utf-8")
        return row

    _sweep_point.__module__ = original.__module__
    _sweep_point.__qualname__ = original.__qualname__
    tracer.install(runtime, coordgraph, radio)
    tracer.patch(cli, "_sweep_point", _sweep_point)
    try:
        run = run_sweep(inp, workdir)
    finally:
        tracer.uninstall()

    parts = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(points.glob("*.json"))]
    summary = merge(parts)
    failures = []
    if len(parts) != len(inp.nets):
        failures.append(f"{len(parts)} of {len(inp.nets)} sweep points reported spans")
    if summary.get("readout_failures", 0):
        failures.append("a sweep row's powers differ from brute force over its learned tables")
    seen = summary["spans"].get(SEND, [0])[0] / summary["episodes"]
    replayed = sweep_messages_per_episode(inp)
    if abs(seen - replayed) > 1e-9:
        failures.append(f"sweep sends per episode {seen} != replayed {replayed}")
    return run, summary, failures


def numpy_floor_us(seed: int, episodes: int = 2000, blocks: int = 5) -> float:
    """Median µs per episode of a plain numpy 2-cell learner.

    The reference scenario with its own loop: select the joint argmax of
    the two tables, explore, compute both SINRs, update both entries. It
    is the floor the package's per-episode overhead is compared with.
    """
    net = cli.ExperimentConfig().network()
    levels = radio.build_action_grid(net).levels
    params = cli.ExperimentConfig().learning(episodes)
    n = levels.shape[1]
    rng = np.random.default_rng(seed)
    gain, cross, noise = net.gain, net.beta[[1, 0], [0, 1]], net.noise_mw
    per_episode = []
    for _ in range(blocks):
        q = np.zeros((2, n, n))
        t0 = perf_counter()
        for e in range(episodes):
            eps = params.epsilon_start + (params.epsilon_end - params.epsilon_start) * e / episodes
            best = divmod(int(np.argmax(q[0] + q[1])), n)
            taken = [int(rng.integers(n)) if rng.random() < eps else b for b in best]
            p = levels[[0, 1], taken]
            sinr = gain * p / (gain * cross * p[::-1] + noise)
            reward = np.log2(1.0 + sinr)
            for j in (0, 1):
                q[j][taken[0], taken[1]] += params.alpha * (
                    reward[j] + params.gamma * q[j][best] - q[j][taken[0], taken[1]]
                )
        per_episode.append((perf_counter() - t0) / episodes * 1e6)
    return float(np.median(per_episode))
