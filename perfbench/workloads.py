"""The benchmark's workloads, the CLI children they start, and the checks
on every output.

census   ``enumerate --class {split,cover,xy,poset} --n 7``, a fresh process
         each, full output.  Cold one-shot census builds: orderly
         generation, transport, many small ``canon_matrix`` calls; output
         is serialized and never parsed.  At ``--n 8`` a pass takes 7-9 s,
         a run holds three or four, and ten-run spreads reached 16-21% on
         the 2-core host; at 7 a run holds about fourteen.
certify  ``verify --suite all --max-n 6`` in a fresh process.  Every suite
         regenerates the same censuses and runs every map, inverse and
         choice sweep, so ``biject``, ``classify`` and ``verify`` dominate.
         At ``--max-n 7`` one run takes 8-10 s, so a run of the benchmark
         holds three samples and its median swung by 13-20% on the 2-core
         host; at 6 it holds about fifteen.  Every layer is still reached;
         7-wide matrices are left to census and stream.
stream   A closed loop, one client with one line outstanding, feeding
         seeded objects beyond census sizes to long-lived
         ``python -u -m splitkit.cli`` children (classify, map, compile),
         one child alive at a time.  Parsing and serializing on every item,
         ``canon_graph`` on 9-11 vertices and the generic ``canon_matrix``
         path; ``census`` and ``verify`` do nothing here.

A pass is one unit of a workload: the four census commands, one verify
run, or one stream round.  Every child gets ``PYTHONPATH`` pointing at the
checkout's ``src`` and a fixed ``PYTHONHASHSEED``, so work counts repeat
exactly.
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import streamgen

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CLASSES = ("split", "cover", "xy", "poset")
CENSUS_N = 7
CERTIFY_MAX_N = 6

# Paper counts.  Split graphs on n vertices, with one empty object at n = 0
# (OEIS A048194), and the unbalanced ones among them, which number the
# split graphs on fewer vertices.  Covers and posets share both sequences.
# Unrestricted XY-graphs on n points number the split graphs on at most n
# points; the unbalanced(n) of them with Y-isolates are out of domain.
SPLIT_TOTALS = (1, 1, 2, 4, 9, 21, 56, 164, 557)
UNBALANCED = (0, 1, 2, 4, 8, 17, 38, 94, 258)

# Public functions each workload is meant to call; the traced run reports
# any of them that recorded no call.  Functions no workload reaches (the
# naive oracle, gallery, trichotomy and similar) are left out on purpose.
_MAPS = [
    "split_to_cover", "cover_to_split", "split_to_xy", "xy_to_split", "split_to_poset",
    "poset_to_split", "xy_to_unbalanced_split", "unbalanced_split_to_xy", "cover_to_poset",
    "poset_to_cover", "xy_to_cover", "cover_to_xy", "xy_to_poset", "poset_to_xy",
    "compile_split_down", "compile_split_up", "compile_cover_down", "compile_cover_up",
    "compile_xy_down", "compile_xy_up", "compile_poset_down", "compile_poset_up",
]
_CANON = ["canon_matrix", "canon_graph", "canonical_object", "canon_key", "canon_xy", "canon_cover",
          "canon_poset", "relabel_graph", "xy_matrix", "cover_matrix", "poset_matrix"]
EXERCISES = {
    "census": (
        ["cli.main", "cli.build_parser", "cli.cmd_enumerate", "core.serialize_graph6",
         "core.serialize_object", "core.validate"]
        + [f"canon.{f}" for f in _CANON]
        + [f"census.{f}" for f in ("enumerate_class", "iter_objects", "iter_xy", "iter_split",
                                   "iter_cover", "iter_poset")]
        + [f"classify.{f}" for f in ("balance_of", "balance_split", "balance_cover", "balance_poset",
                                     "xy_isolates_universals", "is_split", "s_max_partition",
                                     "k_max_partition", "is_minimal", "loyal_elements",
                                     "extremal_sets", "poset_support")]
        + [f"biject.{f}" for f in ("xy_to_split", "split_to_cover", "split_to_poset")]
    ),
    "certify": (
        ["cli.main", "cli.cmd_verify", "core.size_of", "canon.canon_key", "canon.canon_matrix",
         "canon.canon_graph", "canon.canonical_object"]
        + [f"verify.{f}" for f in ("run_all", "run_suite", "verify_roundtrip", "verify_balance",
                                   "verify_compilation", "verify_choice_independence",
                                   "verify_counts", "verify_triangle")]
        + [f"census.{f}" for f in ("count_table", "enumerate_class", "enumerate_split",
                                   "enumerate_cover", "enumerate_poset", "enumerate_xy",
                                   "iter_objects", "iter_xy", "iter_split", "iter_cover", "iter_poset")]
        + [f"classify.{f}" for f in ("balance_of", "loyal_elements", "extremal_sets",
                                     "k_max_partition", "s_max_partition", "poset_support",
                                     "xy_isolates_universals")]
        + [f"biject.{f}" for f in _MAPS]
    ),
    "stream": (
        ["cli.main", "cli.cmd_classify", "cli.cmd_map", "cli.cmd_compile", "core.parse_graph6",
         "core.parse_object", "core.serialize_graph6", "core.serialize_object", "core.class_tag_of",
         "biject.apply_named_map", "biject.default_reps"]
        + [f"canon.{f}" for f in _CANON]
        + [f"classify.{f}" for f in ("balance_split", "balance_cover", "balance_xy", "balance_poset",
                                     "is_split", "omega_alpha", "is_minimal", "k_max_partition",
                                     "s_max_partition", "loyal_elements", "extremal_sets",
                                     "xy_isolates_universals", "poset_support")]
        + [f"biject.{f}" for f in ("split_to_cover", "unbalanced_split_to_xy", "cover_to_split",
                                   "xy_to_split", "xy_to_unbalanced_split", "poset_to_cover")]
        + [f"biject.{f}" for f in _MAPS if f.startswith("compile_")]
    ),
}


@dataclass
class PassResult:
    """Measurements and check outcomes of one pass.

    ``wall_s``, ``commands_ms`` and ``latencies_ms`` are scaled to the
    reference speed (see ``Speed``); ``raw_s`` is the wall time unscaled.
    Census and certify time whole commands, which repeat every pass
    (``commands_ms``); the stream times items, which never repeat
    (``latencies_ms``)."""

    wall_s: float = 0.0
    raw_s: float = 0.0
    commands_ms: dict = field(default_factory=dict)
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)

    def add_command(self, name: str, seconds: float, factor: float):
        self.raw_s += seconds
        self.wall_s += seconds * factor
        self.commands_ms[name] = seconds * factor * 1000

    def add_segment(self, seconds: float, factor: float, latencies_ms: list):
        self.raw_s += seconds
        self.wall_s += seconds * factor
        self.latencies_ms += [x * factor for x in latencies_ms]

    def fail(self, problem: str, items: int = 1):
        self.failed += items
        self.problems.append(problem)


def reference_kernel() -> int:
    """Fixed pure-Python work (integer ops, dicts, small sorts), the kind
    the program does, and independent of the program."""
    acc = 0
    table: dict = {}
    for i in range(36000):
        v = (i * 2654435761) & 0xFFFF
        table[v & 255] = table.get(v & 255, 0) + 1
        acc ^= v >> (i & 7)
    rows = [(i * 40503) & 0x7F for i in range(48)]
    for shift in range(360):
        acc += sorted(r ^ shift for r in rows)[7]
    return acc + len(table)


class Speed:
    """Host speed, sampled by a fixed kernel between units of work.

    On a shared host the same work drifts by +-20% over tens of seconds,
    in phases longer than a run.  The benchmark times ``reference_kernel``
    (the median of three calls) before and after every unit of work (a
    command, a stream segment, a round of start-up probes) and scales the
    unit's times by ``NOMINAL_S`` over the mean of those two samples.  The
    kernel never touches the program, so a program change moves scaled
    times exactly as it moves raw ones, while much of the host's drift
    cancels: over ten 35-second stream runs on the 2-core host the spread
    of wall_s fell from 12% raw to 7% scaled.
    """

    # About the kernel's median time on the 2-core host of the baseline,
    # so that scaled times read close to raw ones there.
    NOMINAL_S = 0.015
    REPEATS = 3

    def __init__(self):
        self.last: Optional[float] = None
        self.samples: list[float] = []

    def _sample(self) -> float:
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
        times.sort()
        self.last = times[len(times) // 2]
        self.samples.append(self.last)
        return self.last

    def start(self):
        """Make sure a sample was taken just before the coming unit."""
        if self.last is None:
            self._sample()

    def factor(self) -> float:
        """Scale for the unit that just ended; also opens the next one."""
        before = self.last
        after = self._sample()
        return self.NOMINAL_S / ((before + after) / 2)


class Runner:
    """Starts splitkit CLI children, traced or not, within a deadline."""

    def __init__(self, deadline: float, trace: bool):
        self.deadline = deadline
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.speed = Speed()
        self.trace_dir = ROOT / ".perfbench"
        self._children = 0

    def remaining(self) -> float:
        return max(0.0, self.deadline - time.perf_counter())

    def _command(self, args, unbuffered: bool):
        cmd = [sys.executable] + (["-u"] if unbuffered else [])
        env = self.env
        trace_path = None
        if self.trace:
            self.trace_dir.mkdir(exist_ok=True)
            self._children += 1
            trace_path = self.trace_dir / f"trace-{os.getpid()}-{self._children}.json"
            env = dict(env, PERFBENCH_TRACE_OUT=str(trace_path))
            cmd += [str(HERE / "traced_cli.py"), *args]
        else:
            cmd += ["-m", "splitkit.cli", *args]
        return cmd, env, trace_path

    def run(self, args, unbuffered: bool = False):
        """Run one command on empty stdin; returns (exit code, stdout, trace)."""
        cmd, env, trace_path = self._command(args, unbuffered)
        proc = subprocess.run(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            timeout=self.remaining(), text=True,
        )
        return proc.returncode, proc.stdout, self.collect(trace_path)

    def popen(self, args):
        cmd, env, trace_path = self._command(args, unbuffered=True)
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        return proc, trace_path

    def collect(self, trace_path) -> Optional[dict]:
        if trace_path is None or not trace_path.exists():
            return None
        with open(trace_path) as fh:
            trace = json.load(fh)
        trace_path.unlink()
        return trace


# ---------------------------------------------------------------------------
# census


def expected_header(cls: str, n: int) -> dict:
    total, unbalanced = SPLIT_TOTALS[n], UNBALANCED[n]
    header = {"class": cls, "n": n, "count": total, "balanced": total - unbalanced, "unbalanced": unbalanced}
    if cls == "xy":
        header["count"] = sum(SPLIT_TOTALS[: n + 1])
        if unbalanced:
            header["out_of_domain"] = unbalanced
    return header


def check_census(cls: str, n: int, code: int, out: str) -> Optional[str]:
    """Header counts match the paper and the body has that many lines.

    Counts, not bytes, are checked, so a change of key format is not a
    failure."""
    lines = out.splitlines()
    if code != 0 or not lines or not lines[0].startswith("# "):
        return f"enumerate {cls} n={n}: exit {code}, no header"
    header = {}
    for part in lines[0][2:].split():
        name, _, value = part.partition("=")
        header[name] = value if name == "class" else int(value) if value.isdigit() else value
    want = expected_header(cls, n)
    if header != want:
        return f"enumerate {cls} n={n}: header {header} != {want}"
    body = sum(1 for line in lines[1:] if line and not line.startswith("#"))
    if body != want["count"]:
        return f"enumerate {cls} n={n}: {body} object lines for count={want['count']}"
    return None


def census_pass(runner: Runner, seed: int, index: int, n: int = CENSUS_N) -> PassResult:
    result = PassResult()
    for cls in CLASSES:
        runner.speed.start()
        t0 = time.perf_counter()
        try:
            code, out, trace = runner.run(["enumerate", "--class", cls, "--n", str(n)])
        except subprocess.TimeoutExpired:
            result.attempted += 1
            result.fail(f"enumerate {cls}: timed out")
            break
        result.add_command(cls, time.perf_counter() - t0, runner.speed.factor())
        result.attempted += 1
        if trace:
            result.traces.append(trace)
        problem = check_census(cls, n, code, out)
        if problem:
            result.fail(problem)
    return result


# ---------------------------------------------------------------------------
# certify

SUITES = ("roundtrip", "balance", "compilation", "choice", "counts", "triangle")


def certify_pass(runner: Runner, seed: int, index: int, max_n: int = CERTIFY_MAX_N) -> PassResult:
    """Exit 0, no failures in any asserting suite, triangle agreement 1.0."""
    result = PassResult()
    runner.speed.start()
    t0 = time.perf_counter()
    try:
        code, out, trace = runner.run(["verify", "--suite", "all", "--max-n", str(max_n)])
    except subprocess.TimeoutExpired:
        result.attempted = 1
        result.fail("verify: timed out")
        return result
    result.add_command("verify", time.perf_counter() - t0, runner.speed.factor())
    if trace:
        result.traces.append(trace)
    checked = dict.fromkeys(SUITES, 0)
    for line in out.splitlines():
        result.attempted += 1
        try:
            doc = json.loads(line)
            suite = doc["suite"]
            checked[suite] += doc["checked"]
            if suite == "triangle":
                ok = doc["params"]["agreement"] == 1.0
            else:
                ok = doc["failures"] == []
        except (ValueError, KeyError, TypeError) as exc:
            result.fail(f"verify: bad record {line[:80]!r}: {exc!r}")
            continue
        if not ok:
            result.fail(f"verify: failing record {line[:200]}")
    missing = [s for s in SUITES if not checked[s]]
    if code != 0 or missing:
        result.attempted += 1
        result.fail(f"verify: exit {code}, suites without checks {missing}")
    result.counts = {f"verify.{s}.checked": checked[s] for s in SUITES}
    return result


# ---------------------------------------------------------------------------
# stream

_HEX = re.compile(r"[0-9a-f]+")
_CLASSIFY_FIELDS = {
    "split": {"class", "key", "balance", "witness", "omega", "alpha"},
    "cover": {"class", "key", "balance", "witness", "n_sets"},
    "xy": {"class", "key", "balance", "witness"},
    "poset": {"class", "key", "balance", "witness"},
}
_MAP_FIELDS = {"from", "to", "map", "input", "output", "object", "choices"}


class _Lines:
    """Reads reply lines from a child's stdout with a deadline."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buf = b""

    def readline(self, deadline: float) -> Optional[bytes]:
        while b"\n" not in self.buf:
            timeout = deadline - time.perf_counter()
            if timeout <= 0 or not select.select([self.fd], [], [], timeout)[0]:
                raise TimeoutError("no reply before the deadline")
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line


def _is_key(value) -> bool:
    return isinstance(value, str) and _HEX.fullmatch(value) is not None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _within_bound(cls: str, text: str) -> bool:
    if cls == "split":
        return not text.startswith("{") and ord(text[0]) - 63 <= streamgen.MAX_GRAPH_N
    doc = json.loads(text)
    if doc.get("class") != cls:
        return False
    if cls == "cover":
        dims = (doc["n"], len(doc["sets"]))
    elif cls == "xy":
        dims = (doc["nx"], doc["ny"])
    else:
        dims = (doc["n0"], doc["n1"])
    return min(dims) <= streamgen.MAX_MATRIX_SIDE


def check_reply(seg: streamgen.Segment, item: streamgen.Item, rec) -> Optional[str]:
    """Rejected exactly when out of domain, and the record schema is right."""
    if not isinstance(rec, dict):
        return "reply is not a JSON object"
    if item.reject:
        if set(rec) == {"error", "line"} and isinstance(rec["error"], str) and rec["line"] == item.line:
            return None
        return "out-of-domain input was not rejected"
    if "error" in rec:
        return f"in-domain input rejected: {rec['error']}"
    expect = item.expect
    if seg.argv[0] == "classify":
        cls = expect["class"]
        if set(rec) != _CLASSIFY_FIELDS[cls] or rec["class"] != cls or not _is_key(rec["key"]):
            return f"classify record schema: {sorted(rec)}"
        unbalanced = expect["balance"] == "unbalanced"
        if rec["balance"] != expect["balance"] or _is_int(rec["witness"]) != unbalanced:
            return f"balance {rec['balance']}/{rec['witness']} for a {expect['balance']} input"
        if rec["witness"] is not None and not unbalanced:
            return "witness on a balanced input"
        for name in ("omega", "alpha", "n_sets"):
            if name in expect and rec[name] != expect[name]:
                return f"{name} {rec[name]} != {expect[name]}"
        return None
    if set(rec) != _MAP_FIELDS:
        return f"map record schema: {sorted(rec)}"
    if (rec["from"], rec["to"], rec["map"]) != (seg.input_class, seg.codomain, seg.map_name):
        return f"map record names {rec['from']}->{rec['to']} {rec['map']}"
    if not (_is_key(rec["input"]) and _is_key(rec["output"]) and isinstance(rec["object"], str)):
        return "map record keys or object"
    choices = rec["choices"]
    if not isinstance(choices, list) or not all(
        isinstance(c, list) and len(c) == 2 and isinstance(c[0], str) and _is_int(c[1]) for c in choices
    ):
        return f"map record choices {choices!r}"
    if not rec["object"] or not _within_bound(seg.codomain, rec["object"]):
        return f"output outside the size bound: {rec['object'][:80]}"
    return None


def _key_fields(rec) -> tuple:
    return tuple(rec.get(k) for k in ("key", "input", "output"))


def _run_segment(runner: Runner, seg: streamgen.Segment, result: PassResult):
    runner.speed.start()
    proc, trace_path = runner.popen(seg.argv)
    lines = _Lines(proc.stdout.fileno())
    replies: list = []
    latencies: list = []
    busy = 0.0
    code = None

    def ask(text: str) -> Optional[bytes]:
        os.write(proc.stdin.fileno(), text.encode() + b"\n")
        return lines.readline(runner.deadline)

    try:
        warm = ask(streamgen.WARMUP[seg.input_class])
        if warm is None or b'"error"' in warm:
            result.fail(f"{' '.join(seg.argv)}: warm-up item failed: {warm!r}")
        start = end = time.perf_counter()
        for item in seg.items:
            t0 = time.perf_counter()
            reply = ask(item.line)
            end = time.perf_counter()
            if reply is None:
                break
            latencies.append((end - t0) * 1000)
            replies.append(reply)
        busy = end - start
        proc.stdin.close()
        code = proc.wait(timeout=runner.remaining())
    except (TimeoutError, subprocess.TimeoutExpired, BrokenPipeError) as exc:
        result.fail(f"{' '.join(seg.argv)}: {exc!r}", 0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if not proc.stdin.closed:
            proc.stdin.close()
        proc.stdout.close()
    result.add_segment(busy, runner.speed.factor(), latencies)
    trace = runner.collect(trace_path)
    if trace:
        result.traces.append(trace)

    result.attempted += len(seg.items)
    if len(replies) < len(seg.items):
        result.fail(f"{' '.join(seg.argv)}: {len(seg.items) - len(replies)} items unanswered",
                    len(seg.items) - len(replies))
    records = []
    for item, reply in zip(seg.items, replies):
        try:
            rec = json.loads(reply)
            problem = check_reply(seg, item, rec)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            rec, problem = None, f"unreadable reply {reply[:80]!r}: {exc!r}"
        if problem is None and item.copy_of is not None:
            original = records[item.copy_of]
            if original is not None and _key_fields(original) != _key_fields(rec):
                problem = "relabelled copy got a different key"
        records.append(rec if problem is None else None)
        if problem:
            result.fail(f"{' '.join(seg.argv)} <- {item.line}: {problem}")
    want = 3 if any(item.reject for item in seg.items) else 0
    if code is not None and code != want:
        result.attempted += 1
        result.fail(f"{' '.join(seg.argv)}: exit {code}, expected {want}")


def stream_pass(runner: Runner, seed: int, index: int, scale: float = 1.0) -> PassResult:
    result = PassResult()
    segments = streamgen.make_round(seed, index, scale)
    for seg in segments:
        _run_segment(runner, seg, result)
        if runner.remaining() <= 0:
            break
    comp = streamgen.composition(segments)
    result.counts = {
        "stream.items": comp["items"],
        "stream.rejects": comp["out_of_domain"],
        "stream.copies": comp["relabelled_copies"],
    }
    return result


# ---------------------------------------------------------------------------
# registry

SETUP = {
    "census": [["enumerate", "--class", cls, "--n", "0"] for cls in CLASSES],
    "certify": [["verify", "--suite", "all", "--max-n", "0"]],
    "stream": [["classify"], ["map", "--from", "split", "--to", "cover"],
               ["compile", "--class", "split", "--direction", "down"]],
}
PASSES = {"census": census_pass, "certify": certify_pass, "stream": stream_pass}
