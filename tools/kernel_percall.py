"""Per-call cost of the matrix kernel on the inputs the benchmark gives it.

Records the distinct ``canon._canon_rows`` inputs of three workloads, run
in-process through ``splitkit.cli.main`` with empty census stores, so the
census and certify sets hold the census generation's inputs too:

* census: ``enumerate --class {split,cover,xy,poset} --n 7``;
* certify: ``verify --suite all --max-n 6``;
* stream: the items of round 0 of seeds 1-3 (``perfbench/streamgen``).

Then times the uncached kernel (``_canon_rows.__wrapped__``) on each set,
best of ``REPEAT`` sweeps, and prints microseconds per call.

    python tools/kernel_percall.py
"""

import contextlib
import io
import os
import sys
import time
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import streamgen  # noqa: E402
from splitkit import canon, census, cli  # noqa: E402

REPEAT = 7  # timed sweeps per set; the best counts
SETS = {
    "census": [(["enumerate", "--class", cls, "--n", "7"], "") for cls in ("split", "cover", "xy", "poset")],
    "certify": [(["verify", "--suite", "all", "--max-n", "6"], "")],
    "stream": [
        (list(seg.argv), "".join(item.line + "\n" for item in seg.items))
        for seed in (1, 2, 3)
        for seg in streamgen.make_round(seed, 0)
    ],
}


def record(commands) -> list:
    """The distinct kernel inputs of ``commands``, in order of first call."""
    seen = {}
    kernel = canon._canon_rows

    def recording(rows, c):
        seen.setdefault((rows, c), None)
        return kernel(rows, c)

    for argv, stdin in commands:
        kernel.cache_clear()
        with (
            mock.patch.object(canon, "_canon_rows", recording),
            mock.patch.object(census, "_canon_rows", recording),
            mock.patch.object(sys, "stdin", io.StringIO(stdin)),
            contextlib.redirect_stdout(io.StringIO()),
            mock.patch.dict(census._records, clear=True),
            mock.patch.dict(census._levels, clear=True),
        ):
            cli.main(argv)
    return list(seen)


def per_call_us(inputs) -> float:
    kernel = canon._canon_rows.__wrapped__
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        for rows, c in inputs:
            kernel(rows, c)
        best = min(best, time.perf_counter() - start)
    return best / len(inputs) * 1e6


def main() -> int:
    print("set      inputs  us/call")
    for name, commands in SETS.items():
        inputs = record(commands)
        print(f"{name:<8} {len(inputs):>6}  {per_call_us(inputs):7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
