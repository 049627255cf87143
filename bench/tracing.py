"""Spans around coopa's public functions, recorded from outside the package.

`Tracer.install` replaces, in this process only, each function at the name
its caller looks up, because a wrapper at any other name sees no calls and
raises no error. `runtime` binds `eliminate_agent`, `local_update` and
`ThreadPoolExecutor` into its own namespace; it reaches `radio.sinr`
through the module and `InMemoryBus.send` through the class; `ve_argmax`
finds `eliminate_agent` in `coordgraph`; every `FunctionTable`
construction runs `FunctionTable.__post_init__`.

A span is (id, name, start, end, parent id, two numeric attributes). Spans
stay in memory until `summarize` reduces them to per-episode sums, which
`merge` adds up across processes and `layer_metrics` turns into figures.
A span opened on a pool thread with no open span of its own takes the
innermost open span of the installing thread as its parent: the pool's.
"""

from __future__ import annotations

import array
import itertools
import os
import threading
from time import perf_counter

import numpy as np

TRAIN = "runtime.train"
EPISODE = "runtime.run_episode"
VE = "runtime.ve_via_messages"
SEND = "runtime.bus.send"
POOL = "runtime.pool"
CSV = "runtime.write_trace_csv"
ELIM = "coordgraph.eliminate_agent"
CTOR = "coordgraph.FunctionTable"
UPDATE = "learner.local_update"
SINR = "radio.sinr"

# Message class name -> (attribute code, metric name stem).
MESSAGE_KINDS = {
    "ShareQ": (1, "share_q"),
    "FFunction": (2, "f_function"),
    "Assignment": (3, "assignment"),
    "RewardFeedback": (4, "reward_feedback"),
}


class Tracer:
    """In-memory span recorder that patches coopa modules while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._codes: dict[str, int] = {}
        self.names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.last_agents = None  # agents returned by the latest traced train()
        self.reset()

    def reset(self) -> None:
        """Drop all spans; the calling thread becomes the installing thread."""
        self.sid = array.array("q")
        self.code = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.attr0 = array.array("d")
        self.attr1 = array.array("d")
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self):
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, perf_counter()

    def _close(self, code, stack, sid, parent, t0, t1, attrs=(0.0, 0.0)) -> None:
        stack.pop()
        with self._lock:
            self.sid.append(sid)
            self.code.append(code)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(parent)
            self.attr0.append(attrs[0])
            self.attr1.append(attrs[1])

    def wrap(self, fn, name: str, attrs=None):
        """`fn` recording one span per call; attrs(args, result) gives two numbers."""
        code = self._code(name)

        def traced(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(code, *opened, perf_counter())
                raise
            t1 = perf_counter()
            self._close(code, *opened, t1, attrs(args, result) if attrs else (0.0, 0.0))
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, runtime, coordgraph, radio) -> None:
        def train_attrs(args, result):
            agents, traces = result
            self.last_agents = agents
            return float(sum(t.message_count for t in traces)), float(len(agents) * len(traces))

        for owner, attr, name, attrs in (
            (runtime, "train", TRAIN, train_attrs),
            (runtime, "run_episode", EPISODE, None),
            (runtime, "ve_via_messages", VE, None),
            (runtime, "eliminate_agent", ELIM, _elimination_attrs),
            (coordgraph, "eliminate_agent", ELIM, _elimination_attrs),
            (runtime, "local_update", UPDATE, None),
            (radio, "sinr", SINR, None),
            (runtime, "write_trace_csv", CSV, _csv_attrs),
            (runtime.InMemoryBus, "send", SEND, _send_attrs),
            (coordgraph.FunctionTable, "__post_init__", CTOR, None),
        ):
            self.patch(owner, attr, self.wrap(vars(owner)[attr], name, attrs))
        self.patch(runtime, "ThreadPoolExecutor", self._pool_class(runtime.ThreadPoolExecutor))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _pool_class(self, base):
        tracer = self
        code = self._code(POOL)

        class TracedThreadPoolExecutor(base):
            """One span over the pool's lifetime, from `with` to shutdown."""

            def __enter__(self):
                self._span = tracer._open()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(code, *self._span, perf_counter())

        return TracedThreadPoolExecutor


def _elimination_attrs(args, result):
    """Induced width, and entries of the joint table the elimination summed."""
    functions, agent = args[0], args[1]
    f = result[0]
    n_actions = next(fn.values.shape[fn.scope.index(agent)] for fn in functions if agent in fn.scope)
    return float(len(f.scope)), float(f.values.size * n_actions)


def _send_attrs(args, result):
    msg = args[1]
    table = getattr(msg, "table", None)
    return float(MESSAGE_KINDS[type(msg).__name__][0]), float(0 if table is None else table.values.size)


def _csv_attrs(args, result):
    return float(os.path.getsize(args[1])), 0.0


# --- arithmetic on spans -------------------------------------------------


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] that the union of `intervals` covers."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part its direct children cover.

    parents[i] is the index of span i's parent, or -1 for a root.
    """
    starts, ends, parents = np.asarray(starts), np.asarray(ends), np.asarray(parents)
    selfs = ends - starts
    kids = np.flatnonzero(parents >= 0)
    kids = kids[np.argsort(parents[kids], kind="stable")]
    for group in np.split(kids, np.flatnonzero(np.diff(parents[kids])) + 1):
        if group.size:
            p = parents[group[0]]
            selfs[p] -= covered_length(starts[p], ends[p], zip(starts[group].tolist(), ends[group].tolist()))
    return selfs


def redundant_calls(events) -> tuple[int, int]:
    """(redundant, total) VE calls in a time-ordered "ve"/"update" sequence.

    A VE call is redundant when no table update happened since the previous
    VE call: it maximizes the same tables again.
    """
    redundant = calls = 0
    updated = True
    for event in events:
        if event == "ve":
            calls += 1
            redundant += not updated
            updated = False
        elif event == "update":
            updated = True
    return redundant, calls


def summarize(tracer: Tracer) -> dict:
    """Reduce the tracer's spans to sums that `merge` can add up.

    Per-name figures count only spans inside a `run_episode` span, so the
    greedy readout after training and the trace CSV do not dilute them.
    """
    order = np.argsort(np.asarray(tracer.sid), kind="stable")
    sids = np.asarray(tracer.sid)[order]
    codes = np.asarray(tracer.code)[order]
    starts = np.asarray(tracer.start)[order]
    ends = np.asarray(tracer.end)[order]
    attr0 = np.asarray(tracer.attr0)[order]
    attr1 = np.asarray(tracer.attr1)[order]
    parent_sids = np.asarray(tracer.parent)[order]
    parents = np.searchsorted(sids, parent_sids).clip(max=max(len(sids) - 1, 0))
    parents = np.where((parent_sids >= 0) & (sids[parents] == parent_sids), parents, -1)

    def code(name):
        return tracer._codes.get(name, -1)

    # A parent opens before its children, so it has the smaller id.
    in_episode = bytearray(len(sids))
    episode = code(EPISODE)
    for k, (c, p) in enumerate(zip(codes.tolist(), parents.tolist())):
        in_episode[k] = c == episode or (p >= 0 and in_episode[p])
    in_episode = np.frombuffer(in_episode, dtype=bool)
    selfs = self_times(starts, ends, parents)
    durations = ends - starts

    def where(name, episode_only=True):
        mask = codes == code(name)
        return mask & in_episode if episode_only else mask

    spans = {}
    for name in tracer.names:
        mask = where(name)
        if mask.any():
            spans[name] = [int(mask.sum()), float(durations[mask].sum()), float(selfs[mask].sum())]
    sends, elims, trains, csvs = where(SEND), where(ELIM), where(TRAIN, False), where(CSV, False)
    kinds = {code: stem for code, stem in MESSAGE_KINDS.values()}
    ve_or_update = where(VE) | where(UPDATE)
    events = ["ve" if c == code(VE) else "update" for c in codes[ve_or_update][np.argsort(starts[ve_or_update])]]
    redundant, ve_calls = redundant_calls(events)
    return {
        "episodes": int(where(EPISODE).sum()),
        "spans": spans,
        "messages": {kinds[int(k)]: int((attr0[sends] == k).sum()) for k in np.unique(attr0[sends])},
        "payload_entries": int(attr1[sends].sum()),
        "elimination_entries": int(attr1[elims].sum()),
        "max_scope": int(attr0[elims].max(initial=0)),
        "reported_messages": int(attr0[trains].sum()),
        "expected_updates": int(attr1[trains].sum()),
        "csv_ms": float(durations[csvs].sum() * 1e3),
        "csv_bytes": int(attr0[csvs].sum()),
        "redundant_ve": redundant,
        "ve_calls": ve_calls,
    }


def merge(summaries) -> dict:
    """Add up summaries from several processes or runs; max_scope takes the max."""
    total: dict = {"spans": {}, "messages": {}}
    for s in summaries:
        for key, value in s.items():
            if key == "spans":
                for name, (count, dur, own) in value.items():
                    agg = total["spans"].setdefault(name, [0, 0.0, 0.0])
                    agg[0] += count
                    agg[1] += dur
                    agg[2] += own
            elif key == "messages":
                for kind, count in value.items():
                    total["messages"][kind] = total["messages"].get(kind, 0) + count
            elif key == "max_scope":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer figures from a summary. A layer never entered reads 0.

    `runtime.pool.us_per_episode` is the pool span's self time: its lifetime
    minus the traced work that ran inside it.
    """
    episodes = summary["episodes"]
    if episodes < 1:
        raise ValueError("the traced run recorded no episode")

    def span(name):
        return summary["spans"].get(name, [0, 0.0, 0.0])

    def per_call_us(name, column):
        count = span(name)[0]
        return span(name)[column] / count * 1e6 if count else 0.0

    ve_calls = summary["ve_calls"]
    out = {
        "runtime.ve_via_messages.calls_per_episode": span(VE)[0] / episodes,
        "runtime.ve_via_messages.self_us": per_call_us(VE, 2),
        "runtime.ve_via_messages.redundant_share": summary["redundant_ve"] / ve_calls if ve_calls else 0.0,
        "runtime.run_episode.self_us": per_call_us(EPISODE, 2),
    }
    for _, stem in MESSAGE_KINDS.values():
        out[f"runtime.bus.{stem}_per_episode"] = summary["messages"].get(stem, 0) / episodes
    out.update({
        "runtime.bus.entries_per_episode": summary["payload_entries"] / episodes,
        "runtime.pool.us_per_episode": span(POOL)[2] / episodes * 1e6,
        "runtime.write_trace_csv.ms": summary["csv_ms"],
        "runtime.write_trace_csv.bytes": float(summary["csv_bytes"]),
        "coordgraph.eliminate_agent.calls_per_episode": span(ELIM)[0] / episodes,
        "coordgraph.eliminate_agent.us_per_call": per_call_us(ELIM, 1),
        "coordgraph.eliminate_agent.max_scope": float(summary["max_scope"]),
        "coordgraph.eliminate_agent.entries_per_episode": summary["elimination_entries"] / episodes,
        "coordgraph.FunctionTable.ctors_per_episode": span(CTOR)[0] / episodes,
        "coordgraph.FunctionTable.us_per_ctor": per_call_us(CTOR, 1),
        "learner.local_update.calls_per_episode": span(UPDATE)[0] / episodes,
        "learner.local_update.us_per_call": per_call_us(UPDATE, 1),
        "radio.sinr.calls_per_episode": span(SINR)[0] / episodes,
        "radio.sinr.us_per_call": per_call_us(SINR, 1),
    })
    return out


def wrapper_failures(summary: dict) -> list[str]:
    """Cross-checks that every wrapper saw every call it should have."""
    failures = []
    sends = summary["spans"].get(SEND, [0])[0]
    if sends != summary["reported_messages"]:
        failures.append(
            f"send spans {sends} != sum of EpisodeTrace.message_count {summary['reported_messages']}"
        )
    updates = summary["spans"].get(UPDATE, [0])[0]
    if updates != summary["expected_updates"]:
        failures.append(f"local_update spans {updates} != agents x episodes {summary['expected_updates']}")
    return failures
