"""Per-call cost of the matrix kernel on the inputs the benchmark gives it.

Records the distinct ``canon._canon_rows`` inputs of three workloads, run
in-process through ``splitkit.cli.main`` with empty census stores, so the
census and certify sets hold the census generation's inputs too:

* census: ``enumerate --class {split,cover,xy,poset} --n 7``;
* certify: ``verify --suite all --max-n 6``;
* stream: the items of round 0 of seeds 1-3 (``perfbench/streamgen``).

Then times the uncached kernel (``_canon_rows.__wrapped__``) on each set,
best of ``REPEAT`` sweeps, and prints microseconds per call, raw and
scaled for host speed the way the benchmark scales its times
(``perfbench/workloads.Speed``): each sweep is bracketed by timings of
the fixed ``reference_kernel``, and the best sweep is scaled by the
median over the sweeps of its nominal time over their mean, since one
sample of the reference kernel carries noise of its own.

    python tools/kernel_percall.py
"""

import contextlib
import io
import os
import statistics
import sys
import time
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import streamgen  # noqa: E402
import workloads  # noqa: E402
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


def per_call_us(inputs) -> tuple[float, float]:
    """(raw, scaled) microseconds per call: the best sweep, then the same
    scaled by the median of the sweeps' speed factors."""
    kernel = canon._canon_rows.__wrapped__
    speed = workloads.Speed()
    speed.start()
    best, factors = float("inf"), []
    for _ in range(REPEAT):
        start = time.perf_counter()
        for rows, c in inputs:
            kernel(rows, c)
        best = min(best, time.perf_counter() - start)
        factors.append(speed.factor())
    raw = best / len(inputs) * 1e6
    return raw, raw * statistics.median(factors)


def main() -> int:
    print("set      inputs   raw us  scaled us")
    for name, commands in SETS.items():
        inputs = record(commands)
        raw, scaled = per_call_us(inputs)
        print(f"{name:<8} {len(inputs):>6}  {raw:7.1f}  {scaled:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
