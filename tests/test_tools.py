"""The measuring scripts under tools/ still run against this checkout."""

import subprocess
import sys
from pathlib import Path

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
    assert "run_all(3) body runs / distinct inputs" in out
    for row in ("census", "verify_roundtrip", "total", "map xy_to_split", "all pair maps"):
        assert f"  {row} " in out


def test_fresh_process_compares_a_checkout_with_itself():
    out = _tool("fresh_process.py", "--against", str(ROOT), "--pairs", "2", "--", "enumerate", "--class", "split", "--n", "3")
    lines = out.splitlines()
    assert lines[0] == "splitkit enumerate --class split --n 3: exit 0, 2 pairs"
    assert lines[1].split() == ["side", "median", "ms", "q1", "ms", "q3", "ms"]
    assert [line.split()[0] for line in lines[2:4]] == ["this", "against"]
    assert lines[4].startswith("this checkout faster in ") and lines[4].endswith("/2 pairs")


def test_kernel_percall_prints_the_kernel_and_keying_tables():
    lines = _tool("kernel_percall.py").splitlines()
    assert lines[0].split() == ["kernel", "inputs", "raw", "us", "scaled", "us"]
    assert lines[4].split() == ["keying", "objects", "raw", "us", "scaled", "us"]
    for table in (lines[1:4], lines[5:8]):
        assert [line.split()[0] for line in table] == ["census", "certify", "stream"]
        for line in table:
            count, raw, scaled = line.split()[1:]
            assert int(count) > 0 and float(raw) > 0 and float(scaled) > 0
    assert len(lines) == 8
