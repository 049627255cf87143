"""Multi-agent episode loop with coordination over a simulated backhaul.

Each transmitter is an agent owning its local Q-table and a mailbox. Joint
actions are selected by running variable elimination as an explicit message
choreography: an agent about to be eliminated gathers every live function
mentioning its variable, collapses them, keeps the best-response table,
and forwards the conditional-value table to whichever of the surviving
scope agents is eliminated next. A reverse chain of assignment messages
then fixes everyone's action. Per-user SINR comes back as feedback
messages, and each agent updates its own table; updates touch disjoint
tables, so they can run concurrently without changing the result.

The choreography depends only on the graph, the action sizes and the
elimination order, none of which change during training: it is compiled
into a coordgraph.EliminationPlan at a training run's first elimination,
and every later one replays that schedule (coordgraph.compiled_plan) on
the current table values.

Everything is deterministic under a fixed seed, regardless of scheduling.
"""

from __future__ import annotations

import csv
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import radio
from .coordgraph import (
    MAX_INDUCED_SCOPE,
    CoordinationGraph,
    EliminationRecord,
    FunctionTable,
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
    "Transport",
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
class ShareQ:
    """A local Q-table shared with the agent about to be eliminated."""

    sender: int
    recipient: int
    table: FunctionTable

    def __post_init__(self):
        if self.sender == self.recipient:
            raise ValueError("inter-agent message must have sender != recipient")


@dataclass(frozen=True)
class FFunction:
    """A conditional-value table forwarded after eliminating one agent."""

    sender: int
    recipient: int
    table: FunctionTable

    def __post_init__(self):
        if self.sender == self.recipient:
            raise ValueError("inter-agent message must have sender != recipient")


@dataclass(frozen=True)
class Assignment:
    """Partial joint action flowing back along the recovery chain."""

    sender: int
    recipient: int
    actions: dict

    def __post_init__(self):
        if self.sender == self.recipient:
            raise ValueError("inter-agent message must have sender != recipient")


@dataclass(frozen=True)
class RewardFeedback:
    """SINR measured by an agent's user and fed back to it."""

    agent: int
    sinr: float


class Transport:
    """Reliable, in-order message delivery between agents."""

    def send(self, msg) -> None:
        raise NotImplementedError

    def drain(self, agent_id: int) -> list:
        raise NotImplementedError


class InMemoryBus(Transport):
    """Process-local backhaul routing into per-agent FIFO mailboxes.

    Counts every message; optionally keeps the full log for inspection.
    A closed bus refuses further sends.
    """

    def __init__(self, record: bool = False):
        self._mailboxes: dict[int, deque] = {}
        self.sent_count = 0
        self.closed = False
        self.log: list | None = [] if record else None

    def register(self, agent_id: int) -> None:
        self._mailboxes.setdefault(agent_id, deque())

    def send(self, msg) -> None:
        if self.closed:
            raise RuntimeError("backhaul bus is closed")
        recipient = msg.agent if isinstance(msg, RewardFeedback) else msg.recipient
        if recipient not in self._mailboxes:
            raise RuntimeError(f"unreachable agent {recipient}")
        self._mailboxes[recipient].append(msg)
        self.sent_count += 1
        if self.log is not None:
            self.log.append(msg)

    def drain(self, agent_id: int) -> list:
        if agent_id not in self._mailboxes:
            raise RuntimeError(f"unreachable agent {agent_id}")
        box = self._mailboxes[agent_id]
        out = []
        while box:
            out.append(box.popleft())
        return out

    def close(self) -> None:
        self.closed = True


@dataclass(eq=False)
class Agent:
    """One transmitter: identity, local Q-table, power levels, mailbox state."""

    id: int
    local_q: LocalQ
    levels: np.ndarray  # this agent's transmit power grid, mW
    assigned: int | None = None
    retained: EliminationRecord | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.local_q.agent != self.id:
            raise ValueError("agent id must match its LocalQ owner")

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
    agents,
    order,
    state,
    bus: Transport | None = None,
    max_induced_scope: int = MAX_INDUCED_SCOPE,
) -> tuple[dict[int, int], float]:
    """Joint action selection by variable elimination over the bus.

    Returns the optimal joint action {agent id: action index} and its
    value; both match coordgraph.ve_argmax applied to the agents' state
    tables (taken in the order the agents are given) bit for bit, because
    both run the same EliminationPlan.

    Elimination pass: every surviving agent ShareQ-sends its local table
    to the agent being eliminated if that table mentions it; conditional
    tables produced by earlier eliminations already sit with the agent,
    because each is FFunction-forwarded to whichever of its scope agents
    is eliminated soonest. The eliminated agent keeps its best-response
    table for the recovery pass. The conditional table of the last agent
    has an empty scope: the global maximum. Recovery pass: Assignment
    messages chain through the reversed order, each agent appending the
    action its retained table prescribes given the choices made so far.

    The plan fixes every step's tables, so the arithmetic runs first and
    the bus then carries the elimination pass's traffic in protocol
    order. The plan is compiled once per set of scopes, table shapes,
    agent ids and order, and replayed on later calls.
    """
    agents = list(agents)
    tables = [a.local_q.as_function_table(state) for a in agents]
    owners = tuple(a.id for a in agents)
    plan = compiled_plan(
        tuple(t.scope for t in tables),
        tuple(t.values.shape for t in tables),
        tuple(order),
        owners,
        max_induced_scope,
    )
    if bus is None:
        bus = InMemoryBus()
        for a in agents:
            bus.register(a.id)

    records, value = plan.run(tables)
    by_id = dict(zip(owners, agents))
    for step, rec in zip(plan.steps, records):
        for sender, birth in step.senders:
            bus.send(ShareQ(sender, step.agent, tables[birth]))
        # The plan already gathered what sits in the mailbox: this step's
        # ShareQ tables and the conditional tables forwarded here earlier.
        bus.drain(step.agent)
        by_id[step.agent].retained = rec
        if step.target is not None:
            bus.send(FFunction(step.agent, step.target, rec.f))

    recovery = plan.order[::-1]
    assignment: dict[int, int] = {}
    for k, agent_id in enumerate(recovery):
        me = by_id[agent_id]
        partial: dict[int, int] = {}
        if k > 0:
            for msg in bus.drain(agent_id):
                if isinstance(msg, Assignment):
                    partial.update(msg.actions)
        choice = me.retained.respond(partial)
        me.assigned = choice
        partial[agent_id] = choice
        if k + 1 < len(recovery):
            bus.send(Assignment(agent_id, recovery[k + 1], dict(partial)))
        assignment = partial
    return assignment, value


def build_agents(
    cfg: radio.NetworkConfig,
    grid: radio.ActionGrid | None = None,
    scopes=None,
    states=(0,),
) -> list[Agent]:
    """Create zero-initialized agents for a network.

    By default each agent's scope is itself plus its interferers, the
    agent-based decomposition induced by the interference model. Pass
    explicit scopes (one per agent, each containing its owner) to override.
    """
    if grid is None:
        grid = radio.build_action_grid(cfg)
    if scopes is None:
        scopes = [
            tuple(sorted({j, *cfg.interferers[j]})) for j in range(cfg.n_agents)
        ]
    else:
        scopes = [tuple(int(a) for a in s) for s in scopes]
    agents = []
    for j in range(cfg.n_agents):
        q = LocalQ(
            agent=j,
            scope=scopes[j],
            n_actions=tuple(grid.n_power for _ in scopes[j]),
            states=tuple(states),
        )
        agents.append(Agent(id=j, local_q=q, levels=grid.levels[j]))
    return agents


def greedy_joint_action(agents, order, state=0) -> tuple[dict[int, int], float]:
    """Greedy joint action of the summed local tables (no exploration)."""
    tables = [a.local_q.as_function_table(state) for a in agents]
    return ve_argmax(tables, order)


def run_episode(
    agents,
    cfg: radio.NetworkConfig,
    grid: radio.ActionGrid,
    params: LearningParams,
    episode: int,
    rng,
    order,
    bus: Transport | None = None,
    state=0,
    parallel: bool = False,
) -> EpisodeTrace:
    """One learning episode: select, explore, transmit, feed back, update.

    The joint action comes from variable elimination over the bus; each
    agent then epsilon-greedily overrides its own assignment. Rewards are
    log2(1 + SINR) of the actually transmitted powers. A second
    elimination pass supplies the greedy joint action whose scoped slice
    each agent bootstraps on. Both passes replay one compiled plan.
    """
    agents = sorted(agents, key=lambda a: a.id)
    if bus is None:
        bus = InMemoryBus()
        for a in agents:
            bus.register(a.id)
    sent_before = bus.sent_count
    eps = epsilon_at(episode, params)

    a_star, _ = ve_via_messages(agents, order, state, bus)
    taken = {
        a.id: explore_override(a_star[a.id], eps, rng, a.n_actions) for a in agents
    }
    powers = np.array([a.levels[taken[a.id]] for a in agents])

    for a in agents:
        bus.send(RewardFeedback(agent=a.id, sinr=radio.sinr(a.id, powers, cfg)))

    def observe(agent: Agent) -> float:
        (msg,) = [m for m in bus.drain(agent.id) if isinstance(m, RewardFeedback)]
        return float(np.log2(1.0 + msg.sinr))

    # Stateless channel: the next state is the same state.
    state_next = state

    def update(agent_reward: tuple[Agent, float]) -> None:
        agent, reward = agent_reward
        local_update(
            agent.local_q,
            state,
            agent.local_q.slice_joint(taken),
            reward,
            state_next,
            agent.local_q.slice_joint(a_greedy),
            params,
        )

    if parallel and len(agents) > 1:
        with ThreadPoolExecutor(max_workers=len(agents)) as pool:
            rewards = list(pool.map(observe, agents))
            a_greedy, _ = ve_via_messages(agents, order, state_next, bus)
            list(pool.map(update, zip(agents, rewards)))
    else:
        rewards = [observe(a) for a in agents]
        a_greedy, _ = ve_via_messages(agents, order, state_next, bus)
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
    scopes=None,
    order_strategy: str = "fixed-reverse",
    parallel: bool = False,
) -> tuple[list[Agent], list[EpisodeTrace]]:
    """Run the full episode loop and return the trained agents and traces.

    Deterministic given the seed: same seed, same trace log, same final
    tables, with or without parallel agent updates.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    grid = radio.build_action_grid(cfg)
    agents = build_agents(cfg, grid, scopes=scopes)
    graph = CoordinationGraph(tuple(a.local_q.scope for a in agents))
    order = default_elimination_order(graph, order_strategy)
    bus = InMemoryBus()
    for a in agents:
        bus.register(a.id)
    rng = np.random.default_rng(seed)
    traces = [
        run_episode(agents, cfg, grid, params, e, rng, order, bus, parallel=parallel)
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
