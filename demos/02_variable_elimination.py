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

rng = np.random.default_rng(8)
scopes = [(0, 1), (1, 3), (0, 2), (2, 3)]  # the square: 0-1, 1-3, 0-2, 2-3
functions = [FunctionTable(s, rng.integers(0, 10, (2, 2)).astype(float))
             for s in scopes]
for fn in functions:
    print(f"table over agents {fn.scope}:\n{fn.values}")

graph = CoordinationGraph(tuple(scopes))
print(f"\ncoordination graph edges: {sorted(tuple(sorted(e)) for e in graph.edges())}")
order = default_elimination_order(graph)  # highest id first
print(f"elimination order: {order}")

# One elimination step by hand: agent 3 is mentioned by the tables over
# (1,3) and (2,3); the collapsed table spans (1,2) -- an induced edge.
f, b, untouched = eliminate_agent(functions, 3)
print(f"\neliminating agent 3 leaves f over {f.scope} (induced edge):\n{f.values}")
print(f"best responses of agent 3:\n{b.values}")

# The full algorithm, and the exhaustive check.
action, value = ve_argmax(functions, order)
bf_action, bf_value = brute_force_argmax(functions)
print(f"\nve_argmax:    action {action}, value {value}")
print(f"brute force:  action {bf_action}, value {bf_value}")

# The same computation as explicit message passing between agents, with
# each agent holding its own table. The log shows the choreography: the
# about-to-be-eliminated agent gathers tables (ShareQ), forwards its
# conditional table along the induced edge (FFunction), and the recovered
# actions travel back along a reverse chain of Assignment messages. Both
# versions run an EliminationPlan for the same tables and order, which
# fixes every sum's order, so their values agree bit for bit; who sends
# what to whom is the runtime's Coordination, derived from that plan.
agents = [
    Agent(id=j, local_q=LocalQ(agent=j, scope=fn.scope, n_actions=(2, 2), values=fn.values.copy()),
          levels=np.array([0.0, 1.0]))
    for j, fn in enumerate(functions)
]
bus = InMemoryBus((a.id for a in agents), record=True)
msg_action, msg_value = ve_via_messages(agents, order, bus)
print(f"\nvia messages: action {msg_action}, value {msg_value}")
print("message log:")
for msg in bus.log:
    kind = type(msg).__name__
    if kind == "Assignment":
        print(f"  {kind:10s} {msg.sender} -> {msg.recipient}: {msg.actions}")
    else:
        print(f"  {kind:10s} {msg.sender} -> {msg.recipient}: scope {msg.table.scope}")
