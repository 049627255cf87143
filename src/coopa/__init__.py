"""Coordinated multi-agent Q-learning for joint power allocation.

Transmitters in an interference-limited network learn per-agent Q-tables
and pick their joint transmit powers exactly, by variable elimination over
a coordination graph carried out as message passing on the backhaul.
Closed-form and brute-force oracles verify optimality at desk scale.
"""

from .coordgraph import (
    CoordinationGraph,
    FunctionTable,
    brute_force_argmax,
    default_elimination_order,
    eliminate_agent,
    ve_argmax,
)
from .learner import LearningParams, LocalQ, epsilon_at, explore_override, local_update
from .oracle import (
    Allocation,
    brute_force_grid_optimum,
    greedy_allocation,
    optimal_two_user,
    simultaneous_allocation,
)
from .radio import (
    ActionGrid,
    NetworkConfig,
    build_action_grid,
    dbm_to_mw,
    sinr,
    sum_throughput,
    throughput,
    two_cell_config,
)
from .runtime import (
    Agent,
    Assignment,
    Coordination,
    EpisodeTrace,
    FFunction,
    InMemoryBus,
    RewardFeedback,
    ShareQ,
    build_agents,
    greedy_joint_action,
    run_episode,
    train,
    ve_via_messages,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ActionGrid",
    "Agent",
    "Allocation",
    "Assignment",
    "Coordination",
    "CoordinationGraph",
    "EpisodeTrace",
    "FFunction",
    "FunctionTable",
    "InMemoryBus",
    "LearningParams",
    "LocalQ",
    "NetworkConfig",
    "RewardFeedback",
    "ShareQ",
    "brute_force_argmax",
    "brute_force_grid_optimum",
    "build_action_grid",
    "build_agents",
    "dbm_to_mw",
    "default_elimination_order",
    "eliminate_agent",
    "epsilon_at",
    "explore_override",
    "greedy_allocation",
    "greedy_joint_action",
    "local_update",
    "optimal_two_user",
    "run_episode",
    "simultaneous_allocation",
    "sinr",
    "sum_throughput",
    "throughput",
    "train",
    "two_cell_config",
    "ve_argmax",
    "ve_via_messages",
    "write_trace_csv",
]
