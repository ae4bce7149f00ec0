"""Self-tests of the benchmark: tracer reach, coverage, exact counts,
generator composition and the correctness gates.

    python3 -m pytest perfbench -q

The workload tests run scaled-down passes (census at n = 6, verify at
max-n 5, a tenth of a stream round); they exercise the same code paths as
the full workloads in about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import streamgen  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, Runner  # noqa: E402

SMALL = {
    "census": lambda r: workloads.census_pass(r, 1, 0, n=6),
    "certify": lambda r: workloads.certify_pass(r, 1, 0, max_n=5),
    "stream": lambda r: workloads.stream_pass(r, 1, 0, scale=0.1),
}

_REACH = r"""
import inspect, json, importlib
import tracer
tracer.install()
import splitkit
missed = []
for m in ("splitkit",) + tuple("splitkit." + n for n in tracer.MODULES):
    mod = importlib.import_module(m)
    for name, value in vars(mod).items():
        if (inspect.isfunction(value) and value.__module__.startswith("splitkit.")
                and not value.__name__.startswith("_")
                and not getattr(value, "__perfbench_traced__", False)):
            missed.append(f"{m}.{name}")
from splitkit import biject, verify
tables = [("MAPS", [s.fn for s in biject.MAPS.values()]),
          ("_PAIRS", [f for v in verify._PAIRS.values() for f in v if callable(f)]),
          ("_COMPILE", [f for v in verify._COMPILE.values() for f in v])]
for label, fns in tables:
    missed += [f"{label}:{f.__name__}" for f in fns if not getattr(f, "__perfbench_traced__", False)]
print(json.dumps(missed))
"""


def test_tracer_reaches_bindings_and_tables():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", _REACH], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


@pytest.fixture(scope="module")
def traced_twice():
    results = {}
    for workload, small_pass in SMALL.items():
        deadline = time.perf_counter() + 170
        results[workload] = [small_pass(Runner(deadline, trace=True)) for _ in range(2)]
    return results


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_listed_function_records_a_call(traced_twice, workload):
    first = traced_twice[workload][0]
    assert first.failed == 0, first.problems[:5]
    functions = run.layer_metrics(first)[1]["functions"]
    uncovered = [name for name in workloads.EXERCISES[workload] if functions.get(name, {}).get("calls", 0) == 0]
    assert uncovered == []


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_exact_counts_repeat(traced_twice, workload):
    first, second = traced_twice[workload]
    a, _ = run.layer_metrics(first)
    b, _ = run.layer_metrics(second)
    counts = {name for name, (_, unit) in a.items() if unit == "count"}
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    assert first.counts == second.counts


def test_stream_round_is_seeded_with_fixed_composition():
    one = streamgen.make_round(1, 0)
    assert one == streamgen.make_round(1, 0)
    other = streamgen.make_round(2, 0)
    assert one != other
    comp = streamgen.composition(one)
    assert comp == streamgen.composition(other)
    assert comp["items"] >= 1000
    assert 0.05 <= comp["relabelled_copies"] / comp["items"] <= 0.12
    assert 0.05 <= comp["out_of_domain"] / comp["items"] <= 0.15
    classes = {seg.input_class for seg in one}
    assert classes == {"split", "cover", "xy", "poset"}
    assert {seg.argv[0] for seg in one} == {"classify", "map", "compile"}


def test_stream_items_stay_inside_the_size_bound():
    for seg in streamgen.make_round(3, 0):
        for i, item in enumerate(seg.items):
            if item.copy_of is not None:
                assert item.copy_of < i and not seg.items[item.copy_of].reject
            if item.line.startswith("{"):
                assert workloads._within_bound(json.loads(item.line)["class"], item.line)
            else:
                assert workloads._within_bound("split", item.line)


def test_census_gate_checks_counts():
    good = "# class=split n=3 count=4 balanced=0 unbalanced=4\nBw\nBg\nB?\nBW\n"
    assert workloads.check_census("split", 3, 0, good) is None
    assert workloads.check_census("split", 3, 0, good.replace("count=4", "count=5"))
    assert workloads.check_census("split", 3, 0, good.rsplit("B", 1)[0])
    assert workloads.check_census("split", 3, 1, good)
    xy = "# class=xy n=2 count=4 balanced=0 unbalanced=2 out_of_domain=2\n" + "{}\n" * 4
    assert workloads.check_census("xy", 2, 0, xy) is None


def test_stream_gate_checks_rejections_and_schema():
    seg = streamgen.Segment(("map", "--from", "split", "--to", "cover"), "split", ())
    ok = streamgen.Item("Bw", {"class": "split", "balance": "unbalanced"}, reject=False)
    bad = streamgen.Item("Bw", None, reject=True)
    record = {"from": "split", "to": "cover", "map": "split_to_cover", "input": "7302", "output": "6302",
              "object": '{"class":"cover","n":2,"sets":[[0,1]]}', "choices": []}
    assert workloads.check_reply(seg, ok, record) is None
    assert workloads.check_reply(seg, bad, record)
    assert workloads.check_reply(seg, ok, {"error": "not a split graph", "line": "Bw"})
    assert workloads.check_reply(seg, bad, {"error": "not a split graph", "line": "Bw"}) is None
    assert workloads.check_reply(seg, ok, dict(record, map="split_to_xy"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
