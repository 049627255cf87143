"""coopa benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload ring6 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads, metric names and units are declared in BENCHMARK.json at the
repository root; the reason for each workload is its `why` there.

--trace 0 times the workload's call into coopa, repeated with the same
seed for --seconds (at least twice, which also checks that same-seed runs
write the same bytes), and reports the end-to-end metrics as medians.
--trace 1 alternates plain runs of the call with runs in which every
layer's public functions are wrapped from this process (see tracing.py),
for --seconds (at least one pair), and reports the per-layer metrics;
traced and plain runs must write the same bytes.
`--workload all` runs every workload in both modes, one after the other,
and prints one table.

stdout holds the metric table, a "meta" JSON line (git rev, nproc, numpy
and Python versions, COOPA_THREADS, the workload's reason, per-run
samples) and, last, the result: {"correct", "attempted", "failed",
"metrics"}. A failed check makes its run a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from time import perf_counter

import numpy

from inputs import SweepInputs, build_inputs  # puts the checkout's src/ on sys.path
import workloads as wl
from coopa import cli, oracle, radio
from tracing import Tracer, layer_metrics, wrapper_failures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
WARMUP_EPISODES = 20


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_rev() -> str:
    """HEAD's commit id, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextmanager
def workdir(workload: str):
    path = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with suppress(OSError):
            path.parent.rmdir()  # only if no other run is using it


def setup_seconds(workload: str, seed: int, probes: int = 1) -> list[float]:
    """Import coopa and build the inputs in a fresh interpreter, `probes` times.

    Each probe times itself from after numpy's import (see probe.py).
    """
    samples = []
    for _ in range(probes):
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            word, _, seconds = proc.stdout.read().partition(" ")
            if proc.wait(timeout=60) != 0 or word != "ready":
                raise RuntimeError(f"set-up probe for {workload} failed")
        samples.append(float(seconds))
    return samples


def peak_rss_mb(workers: int = 0) -> float:
    """Peak RSS of this process, plus `workers` times the largest child's."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def timed_runs(run, seconds: float, between) -> list:
    """Repeat `run`, then `between`, for about `seconds`, at least twice."""
    runs = []
    t0 = perf_counter()
    while True:
        t1 = perf_counter()
        runs.append(run())
        between()
        now = perf_counter()
        if len(runs) >= 2 and (now - t0) + (now - t1) > seconds:
            return runs


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics, per-run samples, and each timed run's failed checks.

    A set-up probe follows each timed call, so `setup_s` and `episode_us`
    are medians over the same stretch of the host's varying speed; probes
    short of SETUP_PROBES are taken at the end. Peak RSS is read after the
    first call, before any probe, which is a child process too.
    """
    inp = build_inputs(workload, seed)
    sweep = isinstance(inp, SweepInputs)
    setup, rss = [], []

    def between():
        if not rss:
            rss.append(peak_rss_mb(cli.sweep_workers(len(inp.nets)) if sweep else 0))
        setup.extend(setup_seconds(workload, seed))

    with workdir(workload) as wd:
        if sweep:
            os.environ["COOPA_THREADS"] = str(nproc())
            runs = timed_runs(lambda: wl.run_sweep(inp, wd), seconds, between)
            failures = [wl.check_sweep(inp, r, runs[0]) for r in runs]
            messages = wl.sweep_messages_per_episode(inp)
        else:
            wl.run_train(inp, wd, WARMUP_EPISODES)
            runs = timed_runs(lambda: wl.run_train(inp, wd), seconds, between)
            failures = [wl.check_train(r, runs[0]) for r in runs]
            messages = runs[0].messages / runs[0].episodes
    setup += setup_seconds(workload, seed, SETUP_PROBES - len(setup))
    episode_us = [r.wall_s / r.episodes * 1e6 for r in runs]
    metrics = {
        "episode_us": statistics.median(episode_us),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss[0],
        "backhaul_msgs_per_episode": messages,
    }
    samples = {"episode_us": episode_us, "setup_s": setup}
    return metrics, samples, failures


def trace(workload: str, seed: int, seconds: float):
    """Per-layer metrics, samples, and failed checks of plain and traced runs.

    Plain and traced runs alternate for about `seconds`, at least one pair.
    Spans come from the last traced run; the overhead compares medians.
    """
    inp = build_inputs(workload, seed)
    tracer = Tracer()
    sweep = {"cli.run_sweep.workers": 0.0, "cli.run_sweep.child_cpu_s": 0.0, "cli.run_sweep.cpu_utilization": 0.0}
    with workdir(workload) as wd:
        if isinstance(inp, SweepInputs):
            os.environ["COOPA_THREADS"] = str(nproc())

            def pair(first):
                plain = wl.run_sweep(inp, wd)
                traced, summary, failures = wl.traced_sweep(inp, wd, tracer)
                return plain, wl.check_sweep(inp, plain, first or plain), traced, summary, failures
        else:
            wl.run_train(inp, wd, WARMUP_EPISODES)

            def pair(first):
                plain = wl.run_train(inp, wd)
                traced, summary = wl.traced_train(inp, wd, tracer)
                return plain, wl.check_train(plain, first or plain), traced, summary, []

        failures, plain_us, traced_us = [], [], []
        first = None
        t0 = perf_counter()
        while True:
            plain, plain_failures, traced, summary, traced_failures = pair(first)
            first = first or plain
            if traced.outputs != plain.outputs:
                traced_failures.append("the traced run's outputs differ from the plain run's")
            failures += [plain_failures, traced_failures + wrapper_failures(summary)]
            plain_us.append(plain.wall_s / plain.episodes * 1e6)
            traced_us.append(traced.wall_s / traced.episodes * 1e6)
            if perf_counter() - t0 + plain.wall_s + traced.wall_s > seconds:
                break
        if isinstance(inp, SweepInputs):
            gap = wl.sweep_gap_pct(plain)
            workers = cli.sweep_workers(len(inp.nets))
            sweep = {
                "cli.run_sweep.workers": float(workers),
                "cli.run_sweep.child_cpu_s": plain.child_cpu_s,
                "cli.run_sweep.cpu_utilization": plain.child_cpu_s / (workers * plain.wall_s),
            }
        else:
            gap = wl.oracle_gap_pct(plain.throughput, wl.grid_optimum(inp.net, inp.grid))

    reference = cli.ExperimentConfig().network()
    grid = radio.build_action_grid(reference)
    oracle_ms = []
    for _ in range(5):
        t0 = perf_counter()
        oracle.brute_force_grid_optimum(reference, grid)
        oracle_ms.append((perf_counter() - t0) * 1e3)

    plain_median, traced_median = statistics.median(plain_us), statistics.median(traced_us)
    metrics = layer_metrics(summary)
    metrics.update(sweep)
    metrics.update({
        "oracle.brute_force_grid_optimum.ms": statistics.median(oracle_ms),
        "reference.numpy_floor_us": wl.numpy_floor_us(seed),
        "trace.overhead_pct": 100.0 * (traced_median - plain_median) / plain_median,
        "oracle_gap_pct": gap,
    })
    samples = {"plain_episode_us": plain_us, "traced_episode_us": traced_us}
    return metrics, samples, failures


def print_table(rows) -> None:
    """rows: (workload, metric, value, unit)."""
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:8} {name:<{width}} {value:>16.6g} {unit}")


def run_all(args, spec) -> int:
    """Every workload, both modes, each in its own interpreter, one at a time."""
    rows, results = [], []
    for w in spec["workloads"]:
        for mode in ("0", "1"):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", mode]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            results.append(result)
            for name, m in result["metrics"].items():
                rows.append((w["name"], name, m["value"], m["unit"]))
    print_table(rows)
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{w}/{name}": {"value": v, "unit": u} for w, name, v, u in rows},
    }))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)

    if args.trace:
        metrics, samples, failures = trace(args.workload, args.seed, args.seconds)
        declared = spec["per_layer"]
    else:
        metrics, samples, failures = measure(args.workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both declared and measured")

    print_table([(args.workload, name, metrics[name], units[name]) for name in units])
    for run_failures in failures:
        for failure in run_failures:
            print(f"check failed: {failure}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(json.dumps({"meta": {
        "workload": args.workload, "why": why, "seed": args.seed, "trace": args.trace,
        "git_rev": git_rev(), "nproc": nproc(), "numpy": numpy.__version__,
        "python": platform.python_version(), "COOPA_THREADS": os.environ.get("COOPA_THREADS"),
        "samples": samples,
    }}))
    failed = sum(bool(f) for f in failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
