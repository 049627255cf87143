"""Tests of the benchmark's own arithmetic and of its wrappers.

    PYTHONPATH=src python -m pytest -q bench
"""

import pytest

import tracing
import workloads
from coopa import coordgraph, radio, runtime
from inputs import build_inputs


def test_self_time_subtracts_the_union_of_direct_children():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap as
    # spans from two pool threads can, and c [8, 12], which outlives it.
    # g [2, 3] is a's child and does not count against root.
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    got = tracing.self_times(starts, ends, parents)
    assert list(got) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_covered_length_ignores_intervals_outside_the_span():
    assert tracing.covered_length(0.0, 1.0, [(2.0, 3.0), (-2.0, -1.0)]) == 0.0
    assert tracing.covered_length(0.0, 4.0, [(1.0, 2.0), (1.5, 3.0), (0.0, 0.5)]) == 2.5


def test_redundant_calls_counts_ve_with_no_update_since_the_previous_ve():
    events = ["ve", "ve", "update", "update", "ve", "ve", "ve", "update", "ve"]
    assert tracing.redundant_calls(events) == (3, 6)
    assert tracing.redundant_calls([]) == (0, 0)
    # Today's episode: VE for the action, VE for the greedy bootstrap, updates.
    redundant, calls = tracing.redundant_calls(["ve", "ve", "update", "update"] * 50)
    assert redundant / calls == 0.5


def test_oracle_gap_pct():
    assert workloads.oracle_gap_pct(9.0, 10.0) == pytest.approx(10.0)
    assert workloads.oracle_gap_pct(10.0, 10.0) == 0.0


def test_sweep_gap_is_the_worst_point():
    text = (
        "beta,qcopa_throughput,optimal_throughput\n"
        "0.0,4.0,4.0\n"
        "0.5,2.0,2.5\n"
        "1.0,3.0,3.3\n"
    )
    run = workloads.SweepRun(wall_s=1.0, episodes=3, child_cpu_s=1.0, text=text)
    assert workloads.sweep_gap_pct(run) == pytest.approx(20.0)


def test_merge_adds_counts_and_keeps_the_widest_scope():
    a = {"episodes": 2, "spans": {"x": [2, 1.0, 0.5]}, "messages": {"share_q": 2}, "max_scope": 1}
    b = {"episodes": 3, "spans": {"x": [3, 2.0, 1.0]}, "messages": {"share_q": 1, "assignment": 3}, "max_scope": 4}
    total = tracing.merge([a, b])
    assert total["episodes"] == 5
    assert total["spans"]["x"] == [5, 3.0, 1.5]
    assert total["messages"] == {"share_q": 3, "assignment": 3}
    assert total["max_scope"] == 4


def train_call(workload: str):
    """A workload's `runtime.train` arguments, and whether it runs the pool."""
    inp = build_inputs(workload, seed=3)
    if workload == "sweep21":  # one beta point, trained as a sweep worker does
        return (inp.nets[-1], inp.config.learning(3)), {"seed": [inp.seed, 20]}, False
    kwargs = {"seed": inp.seed, "order_strategy": inp.order_strategy, "parallel": inp.parallel}
    return (inp.net, inp.params), kwargs, inp.parallel


@pytest.mark.parametrize("workload, messages", [("sweep21", 8), ("ring6", 36)])
def test_wrappers_see_every_call_and_uninstall_cleanly(workload, messages):
    (net, params), kwargs, parallel = train_call(workload)
    originals = (runtime.train, runtime.eliminate_agent, radio.sinr, coordgraph.FunctionTable.__post_init__)
    tracer = tracing.Tracer()
    tracer.install(runtime, coordgraph, radio)
    try:
        agents, _ = runtime.train(net, params, 3, **kwargs)
    finally:
        tracer.uninstall()
    assert (runtime.train, runtime.eliminate_agent, radio.sinr, coordgraph.FunctionTable.__post_init__) == originals

    summary = tracing.summarize(tracer)
    assert tracing.wrapper_failures(summary) == []
    figures = tracing.layer_metrics(summary)
    assert figures["runtime.ve_via_messages.calls_per_episode"] == 2
    assert figures["runtime.ve_via_messages.redundant_share"] == 0.5
    kinds = ("share_q", "f_function", "assignment", "reward_feedback")
    assert sum(figures[f"runtime.bus.{k}_per_episode"] for k in kinds) == messages
    assert figures["learner.local_update.calls_per_episode"] == len(agents)
    assert (figures["runtime.pool.us_per_episode"] > 0) == parallel
