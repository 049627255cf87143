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
changing the result.

The choreography depends only on the graph, the action sizes and the
elimination order, none of which change during training: it is compiled
into a coordgraph.EliminationPlan at a training run's first elimination,
and every later one replays that schedule (coordgraph.compiled_plan) on
the current table values. The plan's one run computes every message's
content, so the backhaul only checks, counts and logs what is sent; it
does not deliver. Each agent's memo of its last elimination lets a
large one recompute only the joint rows whose inputs changed since.

Everything is deterministic under a fixed seed, regardless of scheduling.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import radio
from .coordgraph import (
    CoordinationGraph,
    FunctionTable,
    StepMemo,
    compiled_plan,
    default_elimination_order,
    eliminate_agent,  # noqa: F401  re-exported: tracing tools wrap it by this name
    ve_argmax,
)
from .learner import LearningParams, LocalQ, epsilon_at, explore_override, local_update

__all__ = [
    "ShareQ",
    "FFunction",
    "Assignment",
    "RewardFeedback",
    "InMemoryBus",
    "Agent",
    "EpisodeTrace",
    "ve_via_messages",
    "run_episode",
    "train",
    "build_agents",
    "greedy_joint_action",
    "write_trace_csv",
]


@dataclass(frozen=True)
class _InterAgent:
    """A message from one agent to another."""

    sender: int
    recipient: int

    def __post_init__(self):
        if self.sender == self.recipient:
            raise ValueError("inter-agent message must have sender != recipient")


@dataclass(frozen=True)
class ShareQ(_InterAgent):
    """A local Q-table shared with the agent about to be eliminated."""

    table: FunctionTable


@dataclass(frozen=True)
class FFunction(_InterAgent):
    """A conditional-value table forwarded after eliminating one agent."""

    table: FunctionTable


@dataclass(frozen=True)
class Assignment(_InterAgent):
    """Partial joint action flowing back along the recovery chain."""

    actions: dict


@dataclass(frozen=True)
class RewardFeedback:
    """SINR measured by an agent's user and fed back to it."""

    agent: int
    sinr: float


class InMemoryBus:
    """Process-local backhaul among fixed agents: the send side, no delivery.

    Every message's content is known when it is sent, so nothing is
    queued. A send must name one of the bus's agents; each one is counted,
    and kept in `log` when recording.
    """

    def __init__(self, agent_ids, record: bool = False):
        self._agents = frozenset(agent_ids)
        self.sent_count = 0
        self.log: list | None = [] if record else None

    def send(self, msg) -> None:
        recipient = msg.agent if isinstance(msg, RewardFeedback) else msg.recipient
        if recipient not in self._agents:
            raise RuntimeError(f"unreachable agent {recipient}")
        self.sent_count += 1
        if self.log is not None:
            self.log.append(msg)


@dataclass(eq=False)
class Agent:
    """One transmitter: identity, local Q-table, power levels, and the
    memo of its last elimination that ve_via_messages hands the plan."""

    id: int
    local_q: LocalQ
    levels: np.ndarray  # this agent's transmit power grid, mW
    _memo: StepMemo = field(default_factory=StepMemo, init=False, repr=False)

    def __post_init__(self):
        if self.local_q.agent != self.id:
            raise ValueError("agent id must match its LocalQ owner")
        own = self.local_q.n_actions[self.local_q.scope.index(self.id)]
        if len(self.levels) != own:
            raise ValueError(f"levels: {len(self.levels)} power levels for {own} table actions")

    @property
    def n_actions(self) -> int:
        return len(self.levels)


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


def ve_via_messages(
    agents, order, bus: InMemoryBus | None = None
) -> tuple[dict[int, int], float]:
    """Joint action selection by variable elimination over the bus.

    Returns the optimal joint action {agent id: action index} and its
    value; both match coordgraph.ve_argmax applied to the agents' tables
    (taken in the order the agents are given) bit for bit, because both
    are one run of the same EliminationPlan.

    Elimination pass: every surviving agent ShareQ-sends its local table
    to the agent being eliminated if that table mentions it; conditional
    tables produced by earlier eliminations already sit with the agent,
    because each is FFunction-forwarded to whichever of its scope agents
    is eliminated soonest. The eliminated agent keeps its best-response
    table for the recovery pass. The conditional table of the last agent
    has an empty scope: the global maximum. Recovery pass: Assignment
    messages chain through the reversed order, each carrying the actions
    decided so far; the k-th carries the first k entries of the returned
    joint action.

    The plan's run computes the content of every message, so the bus then
    carries the traffic of both passes in protocol order. The plan is
    compiled once per set of scopes, table shapes, agent ids and order,
    and replayed on later calls, with each eliminated agent's memo, so a
    large elimination redoes only the joint rows whose inputs changed.
    """
    agents = list(agents)
    tables = [a.local_q.as_function_table(0) for a in agents]
    plan = compiled_plan(
        tuple(t.scope for t in tables),
        tuple(t.values.shape for t in tables),
        tuple(order),
        tuple(a.id for a in agents),
    )
    if bus is None:
        bus = InMemoryBus(a.id for a in agents)

    assignment, value, conditionals = plan.run(tables, {a.id: a._memo for a in agents})
    for step, f in zip(plan.steps, conditionals):
        for sender, birth in step.senders:
            bus.send(ShareQ(sender, step.agent, tables[birth]))
        if step.target is not None:
            bus.send(FFunction(step.agent, step.target, f))
    decided = list(assignment.items())
    for k in range(1, len(decided)):
        bus.send(Assignment(decided[k - 1][0], decided[k][0], dict(decided[:k])))
    return assignment, value


def build_agents(cfg: radio.NetworkConfig) -> list[Agent]:
    """Create zero-initialized agents for a network.

    Each agent's scope is itself plus its interferers, the agent-based
    decomposition induced by the interference model; its power levels are
    its row of radio.build_action_grid(cfg).
    """
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
    agents,
    cfg: radio.NetworkConfig,
    params: LearningParams,
    episode: int,
    rng,
    order,
    bus: InMemoryBus,
    parallel: bool = False,
) -> EpisodeTrace:
    """One learning episode: select, explore, transmit, feed back, update.

    The joint action comes from variable elimination over the bus; each
    agent then epsilon-greedily overrides its own assignment and transmits
    its level for that action. Rewards are log2(1 + SINR) under cfg of the
    actually transmitted powers. A second
    elimination pass supplies the greedy joint action whose scoped slice
    each agent bootstraps on. Both passes replay one compiled plan; the
    second's memoized steps only compare their unchanged inputs.
    """
    agents = sorted(agents, key=lambda a: a.id)
    sent_before = bus.sent_count
    eps = epsilon_at(episode, params)

    a_star, _ = ve_via_messages(agents, order, bus)
    taken = {
        a.id: explore_override(a_star[a.id], eps, rng, a.n_actions) for a in agents
    }
    powers = np.array([a.levels[taken[a.id]] for a in agents])

    rewards = []
    for a in agents:
        feedback = RewardFeedback(agent=a.id, sinr=radio.sinr(a.id, powers, cfg))
        bus.send(feedback)
        rewards.append(float(np.log2(1.0 + feedback.sinr)))

    a_greedy, _ = ve_via_messages(agents, order, bus)

    def update(agent_reward: tuple[Agent, float]) -> None:
        agent, reward = agent_reward
        q = agent.local_q
        local_update(q, q.slice_joint(taken), reward, q.slice_joint(a_greedy), params)

    if parallel and len(agents) > 1:
        with ThreadPoolExecutor(max_workers=len(agents)) as pool:
            list(pool.map(update, zip(agents, rewards)))
    else:
        for pair in zip(agents, rewards):
            update(pair)

    return EpisodeTrace(
        episode=episode,
        epsilon=eps,
        actions=tuple(taken[a.id] for a in agents),
        powers_mw=tuple(float(p) for p in powers),
        rewards=tuple(rewards),
        sum_reward=float(sum(rewards)),
        message_count=bus.sent_count - sent_before,
    )


def train(
    cfg: radio.NetworkConfig,
    params: LearningParams,
    episodes: int,
    seed: int,
    order_strategy: str = "fixed-reverse",
    parallel: bool = False,
) -> tuple[list[Agent], list[EpisodeTrace]]:
    """Run the full episode loop and return the trained agents and traces.

    Deterministic given the seed: same seed, same trace log, same final
    tables, with or without parallel agent updates.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    agents = build_agents(cfg)
    graph = CoordinationGraph(tuple(a.local_q.scope for a in agents))
    order = default_elimination_order(graph, order_strategy)
    bus = InMemoryBus(a.id for a in agents)
    rng = np.random.default_rng(seed)
    traces = [
        run_episode(agents, cfg, params, e, rng, order, bus, parallel=parallel)
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
