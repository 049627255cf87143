"""Exact joint maximization by variable elimination, on a four-agent graph.

Four agents form a square coordination graph: each local table couples two
agents. Maximizing the sum over all 2^4 joint actions can be done one
variable at a time; eliminating an agent collapses every table mentioning
it into a conditional-value table f (and a best-response table b), which
induces a new edge between its surviving neighbors.
"""

import numpy as np

from coopa import (
    Agent,
    Coordination,
    CoordinationGraph,
    FunctionTable,
    InMemoryBus,
    LocalQ,
    brute_force_argmax,
    default_elimination_order,
    eliminate_agent,
    ve_argmax,
    ve_via_messages,
)
from coopa.coordgraph import EliminationPlan

rng = np.random.default_rng(8)
scopes = [(0, 1), (1, 3), (0, 2), (2, 3)]  # the square: 0-1, 1-3, 0-2, 2-3
functions = [FunctionTable(s, rng.integers(0, 10, (2, 2)).astype(float))
             for s in scopes]
for fn in functions:
    print(f"table over agents {fn.scope}:\n{fn.values}")

graph = CoordinationGraph(tuple(scopes))
print(f"\ncoordination graph scopes: {graph.scopes}")
order = default_elimination_order(graph)  # highest id first
print(f"elimination order: {order}")

# One elimination step by hand. An EliminationPlan works out every step
# once: step 0 eliminates agent 3, gathers the tables that mention it (the
# ones over (1,3) and (2,3), numbered by their place in `functions`) and
# leaves a table over (1,2) -- an induced edge. eliminate_agent is the
# arithmetic of one such step.
plan = EliminationPlan(functions, order)
step = plan.steps[0]
print(f"\nstep 0 eliminates agent {step.agent}: gathers tables {step.gather}, "
      f"leaves scope {step.layout.remaining}")
f, b = eliminate_agent([functions[i] for i in step.gather], step.agent, layout=step.layout)
print(f"f over {f.scope} (induced edge):\n{f.values}")
print(f"best responses of agent {step.agent}:\n{b}")

# The full algorithm, and the exhaustive check.
action, value = ve_argmax(functions, order)
bf_action, bf_value = brute_force_argmax(functions)
print(f"\nve_argmax:    action {action}, value {value}")
print(f"brute force:  action {bf_action}, value {bf_value}")

# The same computation as explicit message passing between agents, with
# each agent holding its own table. The log shows the choreography: the
# about-to-be-eliminated agent gathers tables (ShareQ), forwards its
# conditional table along the induced edge (FFunction), and the recovered
# actions travel back along a reverse chain of Assignment messages. A
# Coordination binds the agents, the order and the bus once: it builds
# an EliminationPlan of the agents' tables and derives from it who sends
# what to whom. ve_argmax runs an EliminationPlan of the same tables and
# order, which fixes every sum's order, so their values agree bit for bit.
agents = [
    Agent(id=j, local_q=LocalQ(agent=j, scope=fn.scope, n_actions=(2, 2), values=fn.values.copy()),
          levels=np.array([0.0, 1.0]))
    for j, fn in enumerate(functions)
]
bus = InMemoryBus(record=True)
msg_action, msg_value = ve_via_messages(Coordination(agents, order, bus))
print(f"\nvia messages: action {msg_action}, value {msg_value}")
print("message log:")
for msg in bus.log:
    kind = type(msg).__name__
    if kind == "Assignment":
        print(f"  {kind:10s} {msg.sender} -> {msg.recipient}: {msg.actions}")
    else:
        print(f"  {kind:10s} {msg.sender} -> {msg.recipient}: scope {msg.table.scope}")
