"""Multi-agent episode loop with coordination over a simulated backhaul.

Each transmitter is an agent owning one local Q-table (the channel is
stateless). Joint actions are selected by variable elimination carried
out as an explicit message choreography: an agent about to be eliminated
gathers every live function mentioning its variable, collapses them,
keeps the best-response table, and forwards the conditional-value table
to whichever of the surviving scope agents is eliminated next. A reverse
chain of assignment messages then fixes everyone's action. Per-user SINR
comes back as feedback messages, and each agent updates its own table;
updates touch disjoint tables, so they can run concurrently without
changing the result. Concurrent updates run on a pool of two workers,
each taking one contiguous half of the agents in id order: an update is
a few microseconds of GIL-bound Python, so two workers are the fewest
that still overlap, and every further one only adds a thread start-up.

The choreography depends only on the graph, the action sizes and the
elimination order, none of which change during training, and the tables
are the agents' arrays, changed in place. So `train` binds it once: a
Coordination holds the agents, a coordgraph.EliminationPlan of their
tables, the bus and the send schedule, which it derives from the plan's
order and steps: the one place where message addressing is decided. The
plan's one run computes every message's content, so the backhaul only
counts and logs what is sent; it does not deliver. The tables are written only
through LocalQ, which logs each write, so a plan run when no table was
written returns the last run's result, an elimination step whose tables
were not written since the last complete run returns that run's f, and
b unless memoized (the plan holds them), and a large, memoized one
recomputes only the values of the joint rows that the written entries
reach: recovery recomputes its best response in the one row it reads.

Everything is deterministic under a fixed seed, regardless of scheduling.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import radio
from .coordgraph import (
    MAX_TABLE_ENTRIES,
    CoordinationGraph,
    EliminationPlan,
    FunctionTable,
    default_elimination_order,
    eliminate_agent,  # noqa: F401  re-exported: tracing tools wrap it by this name
    ve_argmax,
)
from .learner import (
    LearningParams,
    LocalQ,
    epsilon_at,
    explore_override,
    local_update,
    require_count,
)

# Fewest workers that still overlap; more only add thread start-ups.
_POOL_WORKERS = 2

__all__ = [
    "ShareQ",
    "FFunction",
    "Assignment",
    "RewardFeedback",
    "InMemoryBus",
    "Agent",
    "Coordination",
    "EpisodeTrace",
    "ve_via_messages",
    "run_episode",
    "train",
    "build_agents",
    "q_table_entries",
    "check_q_tables",
    "greedy_joint_action",
    "write_trace_csv",
]


# Messages are built on every send, so they are slotted, not frozen: a
# frozen dataclass costs about three times as much to construct. Nothing
# changes a message after it is sent.


@dataclass(slots=True)
class _InterAgent:
    """A message from one agent to another, as a Coordination's schedule addresses it."""

    sender: int
    recipient: int


@dataclass(slots=True)
class ShareQ(_InterAgent):
    """A local Q-table shared with the agent about to be eliminated."""

    table: FunctionTable


@dataclass(slots=True)
class FFunction(_InterAgent):
    """A conditional-value table forwarded after eliminating one agent."""

    table: FunctionTable


@dataclass(slots=True)
class Assignment(_InterAgent):
    """Partial joint action flowing back along the recovery chain."""

    actions: dict


@dataclass(slots=True)
class RewardFeedback:
    """SINR measured by an agent's user and fed back to it."""

    agent: int
    sinr: float


class InMemoryBus:
    """Process-local backhaul: the send side, no delivery.

    Every message's content is known when it is sent, and its addressing
    was decided once, by a Coordination's schedule, so nothing is queued
    or checked. Each send is counted, and kept in `log` when recording.
    """

    def __init__(self, *, record: bool = False):
        self.sent_count = 0
        self.log: list | None = [] if record else None

    def send(self, msg) -> None:
        self.sent_count += 1
        if self.log is not None:
            self.log.append(msg)


@dataclass(eq=False)
class Agent:
    """One transmitter: identity, local Q-table, power levels."""

    id: int
    local_q: LocalQ
    levels: np.ndarray  # this agent's transmit power grid, mW

    def __post_init__(self):
        if self.local_q.agent != self.id:
            raise ValueError("agent id must match its LocalQ owner")
        own = self.local_q.n_actions[self.local_q.scope.index(self.id)]
        if len(self.levels) != own:
            raise ValueError(f"levels: {len(self.levels)} power levels for {own} table actions")

    @property
    def n_actions(self) -> int:
        return len(self.levels)


class Coordination:
    """Joint-action selection over fixed agents, bound once per training run.

    Holds the agents sorted by id, the coordgraph.EliminationPlan of
    their tables for `order`, with each agent's LocalQ as the tracker of
    its writes (so each run continues from the plan's last complete one,
    see EliminationPlan), the bus (a private one when None), and the
    send schedule: one (kind, sender, recipient, payload) record per
    message of a selection, in protocol order, where payload is the
    shared table's birth (ShareQ), the step (FFunction) or the number of
    decided actions carried (Assignment).

    Each step's agent is sent every table it gathers that it does not
    hold: the other agents' tables by ShareQ, in id order, and the
    conditional-value tables of earlier steps, each of which was
    FFunction-forwarded to the agent of its scope eliminated soonest. A
    finished component's value, which has no scope, goes to the last
    agent eliminated. So every record's sender and recipient are two
    different agents, and no send needs checking. Raises ValueError unless
    the agents are exactly the agents in the tables' scopes. The tables
    are the LocalQs' own arrays, written in place, so the plan stays valid
    while the agents train.
    """

    def __init__(self, agents, order, bus: InMemoryBus | None = None):
        self.agents = tuple(sorted(agents, key=lambda a: a.id))
        ids = [a.id for a in self.agents]
        tables = [a.local_q.as_function_table(0) for a in self.agents]
        in_scopes = sorted({a for t in tables for a in t.scope})
        if ids != in_scopes:
            raise ValueError(f"scopes mention {in_scopes} but the agents are {ids}")
        self.plan = plan = EliminationPlan(tables, order, [a.local_q for a in self.agents])
        self.bus = InMemoryBus() if bus is None else bus
        # Input table i is agent ids[i]'s; step k's f is born n + k.
        n, last = len(ids), plan.order[-1]
        schedule = []
        for k, step in enumerate(plan.steps):
            schedule += [(ShareQ, ids[i], step.agent, i) for i in step.gather if i < n and ids[i] != step.agent]
            if step.agent != last:
                remaining = step.layout.remaining
                target = min(remaining, key=plan.order.index) if remaining else last
                schedule.append((FFunction, step.agent, target, k))
        chain = [step.agent for step in reversed(plan.steps)]
        schedule += [(Assignment, chain[k - 1], chain[k], k) for k in range(1, len(chain))]
        self.schedule = tuple(schedule)


@dataclass(frozen=True)
class EpisodeTrace:
    """One episode's outcome: actions, powers, rewards, bookkeeping."""

    episode: int
    epsilon: float
    actions: tuple[int, ...]
    powers_mw: tuple[float, ...]
    rewards: tuple[float, ...]
    sum_reward: float
    message_count: int


def ve_via_messages(coordination: Coordination) -> tuple[dict[int, int], float]:
    """Joint action selection by variable elimination over the bus.

    Runs the coordination's plan and sends its messages on its bus.
    Returns the optimal joint action {agent id: action index} and its
    value; both match coordgraph.ve_argmax applied to the agents' tables
    in id order bit for bit, because both run an EliminationPlan of the
    same tables and order.

    Elimination pass: each agent in order is sent the tables it gathers
    (ShareQ and FFunction, routed as Coordination describes) and keeps
    its best-response table for the recovery pass. The conditional table
    of the last agent has an empty scope: the global maximum. Recovery
    pass: Assignment messages chain through the reversed order, each
    carrying the actions decided so far; the k-th carries the first k
    entries of the returned joint action.

    The plan's run computes the content of every message, so the bus then
    carries the traffic of both passes in protocol order (the
    Coordination's schedule). A plan run when nobody wrote the tables since
    the last returns that run's result; its messages are sent all the same.
    """
    assignment, value, conditionals = coordination.plan.run()
    tables = coordination.plan.tables
    decided = list(assignment.items())
    send = coordination.bus.send
    for kind, sender, recipient, at in coordination.schedule:
        if kind is ShareQ:
            send(ShareQ(sender, recipient, tables[at]))
        elif kind is FFunction:
            send(FFunction(sender, recipient, conditionals[at]))
        else:
            send(Assignment(sender, recipient, dict(decided[:at])))
    return assignment, value


def q_table_entries(cfg: radio.NetworkConfig) -> list[int]:
    """Each agent's Q-table entries: n_power per agent of the scope that
    build_agents gives it, itself and its interferers."""
    return [int(cfg.n_power) ** (1 + len(i)) for i in cfg.interferers]


def check_q_tables(cfg: radio.NetworkConfig, where: str = "") -> None:
    """ValueError, naming n_power and the cell count (and then `where`),
    if the agents' Q-tables would hold over MAX_TABLE_ENTRIES in all."""
    entries = sum(q_table_entries(cfg))
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"n_power = {cfg.n_power} over {cfg.n_agents} cells makes Q-tables "
            f"of {entries} entries in all{where} (limit {MAX_TABLE_ENTRIES})"
        )


def build_agents(cfg: radio.NetworkConfig) -> list[Agent]:
    """Create zero-initialized agents for a network.

    Each agent's scope is itself plus its interferers, the agent-based
    decomposition induced by the interference model; its power levels are
    its row of radio.build_action_grid(cfg). Q-tables too large for
    check_q_tables are refused before any is allocated.
    """
    check_q_tables(cfg)
    grid = radio.build_action_grid(cfg)
    agents = []
    for j in range(cfg.n_agents):
        scope = tuple(sorted({j, *cfg.interferers[j]}))
        q = LocalQ(agent=j, scope=scope, n_actions=(grid.n_power,) * len(scope))
        agents.append(Agent(id=j, local_q=q, levels=grid.levels[j]))
    return agents


def greedy_joint_action(agents, order) -> tuple[dict[int, int], float]:
    """Greedy joint action of the summed local tables (no exploration)."""
    tables = [a.local_q.as_function_table(0) for a in agents]
    return ve_argmax(tables, order)


def run_episode(
    coordination: Coordination,
    cfg: radio.NetworkConfig,
    params: LearningParams,
    episode: int,
    rng,
    parallel: bool = False,
) -> EpisodeTrace:
    """One learning episode: select, explore, transmit, feed back, update.

    The joint action comes from variable elimination over the
    coordination's bus; each agent then epsilon-greedily overrides its own
    assignment and transmits its level for that action. Rewards are
    log2(1 + SINR) under cfg of the actually transmitted powers. A second
    elimination pass supplies the greedy joint action whose scoped slice
    each agent bootstraps on. Nothing writes the tables between the
    passes, so the second's plan run returns the first's result without
    running a step; the second still sends its messages.

    With `parallel`, the updates run on a pool opened for this episode
    with two workers (see the module docstring for why two): the agents,
    in id order, split into two contiguous halves, the first taking the
    extra agent of an odd count, and each worker updates its half in
    order. The tables are disjoint, so the result is the sequential one.
    """
    agents = coordination.agents
    bus = coordination.bus
    sent_before = bus.sent_count
    eps = epsilon_at(episode, params)

    a_star, _ = ve_via_messages(coordination)
    taken = {
        a.id: explore_override(a_star[a.id], eps, rng, a.n_actions) for a in agents
    }
    powers = np.array([a.levels[taken[a.id]] for a in agents])

    rewards = []
    for a in agents:
        feedback = RewardFeedback(a.id, radio.sinr(a.id, powers, cfg))
        bus.send(feedback)
        rewards.append(float(np.log2(1.0 + feedback.sinr)))

    a_greedy, _ = ve_via_messages(coordination)

    def update(batch) -> None:
        for agent, reward in batch:
            q = agent.local_q
            local_update(q, q.slice_joint(taken), reward, q.slice_joint(a_greedy), params)

    if parallel and len(agents) > 1:
        pairs = list(zip(agents, rewards))
        half = (len(pairs) + 1) // 2
        with ThreadPoolExecutor(max_workers=_POOL_WORKERS) as pool:
            list(pool.map(update, (pairs[:half], pairs[half:])))
    else:
        update(zip(agents, rewards))

    return EpisodeTrace(
        episode=episode,
        epsilon=eps,
        actions=tuple(taken.values()),
        powers_mw=tuple(powers.tolist()),
        rewards=tuple(rewards),
        sum_reward=float(sum(rewards)),
        message_count=bus.sent_count - sent_before,
    )


def train(
    cfg: radio.NetworkConfig,
    params: LearningParams,
    episodes: int,
    seed,
    order_strategy: str = "fixed-reverse",
    parallel: bool = False,
) -> tuple[list[Agent], list[EpisodeTrace]]:
    """Run the full episode loop and return the trained agents and traces.

    Deterministic given the seed (anything np.random.default_rng takes:
    a non-negative integer or a sequence of them): same seed, same trace
    log, same final tables, with or without parallel agent updates. The
    coordination is bound once, for every episode. With `parallel`, each
    episode updates the agents on its own two-worker pool.
    """
    require_count("episodes", episodes)
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ValueError(
            f"seed must be a non-negative integer or a sequence of them, got {seed!r}"
        ) from None
    agents = build_agents(cfg)
    graph = CoordinationGraph(tuple(a.local_q.scope for a in agents))
    coordination = Coordination(agents, default_elimination_order(graph, order_strategy))
    traces = [
        run_episode(coordination, cfg, params, e, rng, parallel=parallel)
        for e in range(episodes)
    ]
    return agents, traces


def write_trace_csv(traces, path) -> None:
    """Serialize episode traces; list-valued columns are semicolon-joined."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["episode", "epsilon", "actions", "powers_mw", "rewards", "sum_reward"]
        )
        for t in traces:
            writer.writerow(
                [
                    t.episode,
                    repr(t.epsilon),
                    ";".join(str(a) for a in t.actions),
                    ";".join(repr(p) for p in t.powers_mw),
                    ";".join(repr(r) for r in t.rewards),
                    repr(t.sum_reward),
                ]
            )
