"""The measuring scripts under tools/ still run against this checkout."""

import subprocess
import sys
from pathlib import Path

from splitkit import verify

ROOT = Path(__file__).resolve().parent.parent


def _tool(*argv):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / argv[0]), *argv[1:]],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_verify_passes_prints_its_tables():
    out = _tool("verify_passes.py", "3")
    assert "run_all(3) CPU ms and uncached kernel searches by suite" in out
    assert "run_all(3) body runs / distinct inputs / map CPU us per call" in out
    for row in ("census", "verify_roundtrip", "total", "all maps"):
        assert f"  {row} " in out
    maps = [line.split() for line in out.splitlines() if line.startswith("  map ")]
    assert len(maps) == 22 and "compile_poset_up" in {fields[1] for fields in maps}
    for _, _, runs, distinct, us in maps:
        assert int(runs) >= int(distinct) > 0 and float(us) > 0
    assert "run_all(3) choice points compared / map calls there / single-choice points" in out
    choices = [line.split() for line in out.splitlines() if line.startswith("  choice ")]
    assert [fields[1] for fields in choices] == list(verify.CHOICE_MAPS)
    for _, _, compared, calls, single in choices:
        assert int(calls) >= 2 * int(compared) and int(compared) + int(single) > 0
    total = next(line.split()[3:] for line in out.splitlines() if line.startswith("  all choice maps "))
    assert [int(v) for v in total] == [sum(int(fields[i]) for fields in choices) for i in (2, 3, 4)]


def test_fresh_process_compares_a_checkout_with_itself():
    out = _tool("fresh_process.py", "--against", str(ROOT), "--pairs", "2", "--", "enumerate", "--class", "split", "--n", "3")
    lines = out.splitlines()
    assert lines[0] == "splitkit enumerate --class split --n 3: exit 0, 2 pairs"
    assert lines[1].split() == ["side", "median", "ms", "q1", "ms", "q3", "ms"]
    assert [line.split()[0] for line in lines[2:4]] == ["this", "against"]
    assert lines[4].startswith("this checkout faster in ") and lines[4].endswith("/2 pairs")


def test_kernel_percall_prints_the_kernel_and_keying_tables():
    lines = _tool("kernel_percall.py").splitlines()
    assert lines[0].split() == ["kernel", "inputs", "us"]
    assert lines[4].split() == ["keying", "objects", "us"]
    for table in (lines[1:4], lines[5:8]):
        assert [line.split()[0] for line in table] == ["census", "certify", "stream"]
        for line in table:
            count, us = line.split()[1:]
            assert int(count) > 0 and float(us) > 0
    assert len(lines) == 8
