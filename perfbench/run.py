"""splitkit benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload {census,certify,stream} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it drives the checkout's own
``src/splitkit`` through the real CLI in child processes.

``--trace 0`` measures the end-to-end metrics with tracing off.  It first
times interpreter start-up on the workload's own commands with zero-size
input (``setup_s``), then repeats passes of the workload while another
pass still fits in ``--seconds`` (at least one pass; a stream pass is a
round of ~1,070 items).  ``wall_s`` is the time of one pass: the sum of
the census or verify commands, each taken as its median over the passes,
or the median over rounds of the stream's time from each segment's first
line sent to its last reply, summed.  The latency percentiles run over
the stream's items, or over the census and certify commands (medians
over the passes).

Every time is scaled to a reference host speed (see ``workloads.Speed``):
a fixed pure-Python kernel is timed before and after each command, stream
segment or round of start-up probes, and the unit's times are multiplied
by the kernel's nominal time over its mean time around the unit.  This
cancels much of the host's slow speed drift, which moves raw 35-second
runs by up to +-20%; the meta line keeps the unscaled median
(``raw_wall_s``) and the kernel's median (``reference_s``).

``--trace 1`` reports the per-layer metrics.  It runs one untraced pass and
one traced pass of fixed work, so exact counts repeat run to run, and
reports ``trace.overhead_ratio`` as traced over untraced wall time.

Every output is checked.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a ``# meta``
line before it records the Python version, nproc, git rev, seed,
stream composition and sample counts.  The exit code is 0 when every
check passed, 1 when one failed and 2 when the checkout has no splitkit.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import streamgen
import workloads
from workloads import ROOT, PassResult, Runner

# A run must end within 180 s; children still running at this point are
# killed and their items count as failed.
HARD_LIMIT_S = 170.0
SETUP_SAMPLES = 9

UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "latency_p99_ms": "ms", "peak_rss_mb": "MB"}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def measure_setup(runner: Runner, workload: str, result: PassResult) -> list[float]:
    """Start-up times of the workload's commands on zero-size input."""
    commands = workloads.SETUP[workload]
    samples = []
    while len(samples) < SETUP_SAMPLES:
        runner.speed.start()
        raw = []
        for args in commands:
            t0 = time.perf_counter()
            code, out, _ = runner.run(args, unbuffered=workload == "stream")
            raw.append(time.perf_counter() - t0)
            result.attempted += 1
            problem = f"{' '.join(args)}: exit {code}" if code != 0 else None
            if args[0] == "enumerate" and not problem:
                problem = workloads.check_census(args[2], 0, code, out)
            if problem:
                result.fail(problem)
        factor = runner.speed.factor()
        samples += [x * factor for x in raw]
    return samples


def merge(into: PassResult, other: PassResult):
    into.attempted += other.attempted
    into.failed += other.failed
    into.problems += other.problems


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    runner = Runner(deadline, trace=False)
    total = PassResult()
    setup = measure_setup(runner, workload, total)
    passes = []
    durations = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done = workloads.PASSES[workload](runner, seed, len(passes))
        durations.append(time.perf_counter() - t0)
        passes.append(done)
        merge(total, done)
        elapsed = time.perf_counter() - t_start
        if runner.remaining() <= 0 or elapsed + statistics.median(durations) > seconds:
            break
    if passes[0].commands_ms:
        # The same commands run every pass: one latency per command, its
        # median over the passes, and a pass takes their sum.
        latencies = [
            statistics.median(p.commands_ms[name] for p in passes if name in p.commands_ms)
            for name in passes[0].commands_ms
        ]
        wall_s = sum(latencies) / 1000
    else:
        latencies = [x for p in passes for x in p.latencies_ms]
        wall_s = statistics.median(p.wall_s for p in passes)
    p99 = percentile(latencies, 99)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    samples = {
        "passes": len(passes),
        "setup_s": len(setup),
        "latency": len(latencies),
        "latency_beyond_p99": sum(1 for x in latencies if x > p99),
        "latency_repeats": len(passes) if passes[0].commands_ms else 1,
        "raw_wall_s": statistics.median(p.raw_s for p in passes),
        "reference_s": statistics.median(runner.speed.samples),
    }
    return {k: (v, UNITS[k]) for k, v in metrics.items()}, total, samples


# ---------------------------------------------------------------------------
# traced run

# Which end-to-end metric each layer should move, and on which workload:
#   canon.matrix.*        wall_s on census and certify, latency_p99_ms on stream
#   canon.graph.*         latency_p50/p99_ms on stream, wall_s on census (split)
#   canon.object.self_s   wall_s on census
#   census.generate/transport.self_s  wall_s on census and certify; none on stream
#   census.objects, reuse_ratio, build.calls, cache_hits  wall_s on certify
#   classify.*, biject.*  wall_s on certify, latency_p50_ms on stream
#   core.parse/serialize  latency_p50_ms on stream, wall_s on census (serialize)
#   verify.<suite>.*      wall_s on certify only
#   cli.self_s            latency_p50_ms on stream
PER_LAYER = [
    ("canon.matrix", ("calls", "self_s", "max_ms")),
    ("canon.graph", ("calls", "self_s", "max_ms")),
    ("canon.object", ("self_s",)),
    ("census.generate", ("self_s",)),
    ("census.transport", ("self_s",)),
    ("classify.balance", ("calls", "self_s")),
    ("classify.structure", ("calls", "self_s")),
    ("biject.map", ("calls", "self_s")),
    ("biject.named", ("calls", "self_s")),
    ("core.parse", ("calls", "self_s")),
    ("core.serialize", ("calls", "self_s")),
    ("cli", ("self_s",)),
]


def layer_metrics(traced: PassResult) -> tuple[dict, dict]:
    """Per-layer metrics from the children's trace summaries, and the
    merged per-function table with the (caller, callee) edges."""
    functions: dict = {}
    counters: dict = {}
    edges: dict = {}
    for trace in traced.traces:
        for caller, callee, calls, seconds in trace["edges"]:
            acc = edges.setdefault((caller, callee), [0, 0.0])
            acc[0] += calls
            acc[1] += seconds
        for name, f in trace["functions"].items():
            acc = functions.setdefault(name, {"layer": f["layer"], "calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            acc["calls"] += f["calls"]
            acc["total_s"] += f["total_s"]
            acc["self_s"] += f["self_s"]
            acc["max_s"] = max(acc["max_s"], f["max_s"])
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    layers: dict = {}
    for f in functions.values():
        acc = layers.setdefault(f["layer"], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})
        acc["calls"] += f["calls"]
        acc["self_s"] += f["self_s"]
        acc["total_s"] += f["total_s"]
        acc["max_s"] = max(acc["max_s"], f["max_s"])
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0}
    metrics = {}
    for layer, kinds in PER_LAYER:
        acc = layers.get(layer, empty)
        for kind in kinds:
            if kind == "calls":
                metrics[f"{layer}.calls"] = (acc["calls"], "count")
            elif kind == "self_s":
                metrics[f"{layer}.self_s"] = (acc["self_s"], "s")
            else:
                metrics[f"{layer}.max_ms"] = (acc["max_s"] * 1000, "ms")
    metrics["cli.stdin_wait_s"] = (layers.get("cli.stdin", empty)["self_s"], "s")
    metrics["canon.matrix.wide_calls"] = (counters.get("canon.matrix.wide_calls", 0), "count")
    metrics["canon.matrix.perms"] = (counters.get("canon.matrix.perms", 0), "count")
    objects = counters.get("census.objects", 0)
    builds = counters.get("census.build.calls", 0)
    metrics["census.objects"] = (objects, "count")
    metrics["census.reuse_ratio"] = (counters.get("census.distinct", 0) / objects if objects else 0.0, "ratio")
    metrics["census.build.calls"] = (builds, "count")
    metrics["census.cache_hits"] = (builds - counters.get("census.build.distinct", 0), "count")
    for suite in workloads.SUITES:
        acc = layers.get(f"verify.{suite}", empty)
        metrics[f"verify.{suite}.s"] = (acc["total_s"], "s")
        metrics[f"verify.{suite}.checked"] = (traced.counts.get(f"verify.{suite}.checked", 0), "count")
    metrics["stream.items"] = (traced.counts.get("stream.items", 0), "count")
    metrics["stream.rejects"] = (traced.counts.get("stream.rejects", 0), "count")
    detail = {
        "functions": functions,
        "edges": [[a, b, n, t] for (a, b), (n, t) in sorted(edges.items(), key=str)],
    }
    return metrics, detail


def per_layer(workload: str, seed: int, deadline: float):
    total = PassResult()
    plain = workloads.PASSES[workload](Runner(deadline, trace=False), seed, 0)
    traced = workloads.PASSES[workload](Runner(deadline, trace=True), seed, 0)
    merge(total, plain)
    merge(total, traced)
    metrics, detail = layer_metrics(traced)
    metrics["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, "ratio")
    functions = detail["functions"]
    uncovered = [name for name in workloads.EXERCISES[workload] if functions.get(name, {}).get("calls", 0) == 0]
    path = ROOT / ".perfbench" / f"trace-{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    samples = {
        "traced_children": len(traced.traces),
        "uncovered": uncovered,
        "trace_file": str(path.relative_to(ROOT)),
    }
    return metrics, total, samples


# ---------------------------------------------------------------------------
# metadata and output


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "splitkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "splitkit" / "cli.py").is_file():
        print(f"error: no splitkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + HARD_LIMIT_S
    # Byte-compile first so that no measured start-up pays for it.
    if not compileall.compile_dir(str(ROOT / "src" / "splitkit"), quiet=1):
        print("error: splitkit sources do not compile", file=sys.stderr)
        return 2

    if args.trace:
        metrics, total, samples = per_layer(args.workload, args.seed, deadline)
    else:
        metrics, total, samples = end_to_end(args.workload, args.seed, args.seconds, deadline)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "samples": samples,
    }
    if args.workload == "stream":
        meta["composition"] = streamgen.composition(streamgen.make_round(args.seed, 0))
    for problem in total.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name:28s} {value:>14.6g} {unit}")
    print(f"# failed_ratio {total.failed}/{total.attempted}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    correct = total.failed == 0 and total.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
