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

With ``--against DIR`` it also loads the kernel of the checkout at DIR
(its ``src/splitkit``, imported as a package of its own in the same
process) and times the two kernels on the same inputs in ``PAIRS``
interleaved pairs of sweeps, the side that runs first alternating.  For
each set it prints the median over the pairs of this kernel's time over
the other's, and in how many pairs this kernel was faster.  Host drift
moves both sides of a pair alike, so a per-call claim should rest on
these ratios rather than on two separate runs.  Both kernels run on the
inputs this checkout records, so the ratio sees only a change in how the
kernel searches: a change in *what* it is asked, such as fewer or smaller
inputs from a caller, leaves it near 1.00 and shows in the input counts
and per-call times of each checkout run on its own.

    python tools/kernel_percall.py [--against DIR]
"""

import argparse
import contextlib
import importlib.util
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
PAIRS = 10  # interleaved pairs of sweeps per set with --against
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


def _sweep(kernel, inputs) -> float:
    start = time.perf_counter()
    for rows, c in inputs:
        kernel(rows, c)
    return time.perf_counter() - start


def per_call_us(inputs) -> tuple[float, float]:
    """(raw, scaled) microseconds per call: the best sweep, then the same
    scaled by the median of the sweeps' speed factors."""
    kernel = canon._canon_rows.__wrapped__
    speed = workloads.Speed()
    speed.start()
    best, factors = float("inf"), []
    for _ in range(REPEAT):
        best = min(best, _sweep(kernel, inputs))
        factors.append(speed.factor())
    raw = best / len(inputs) * 1e6
    return raw, raw * statistics.median(factors)


def load_kernel(root: str):
    """The uncached ``_canon_rows`` of the checkout at ``root``."""
    name = "splitkit_against"
    package = os.path.join(os.path.abspath(root), "src", "splitkit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return sys.modules[name + ".canon"]._canon_rows.__wrapped__


def interleaved(inputs, other) -> tuple[float, int]:
    """(median over the pairs of this kernel's sweep time over the other's,
    pairs in which this kernel was faster)."""
    kernel = canon._canon_rows.__wrapped__
    ratios = []
    for i in range(PAIRS):
        if i % 2:
            theirs = _sweep(other, inputs)
            ours = _sweep(kernel, inputs)
        else:
            ours = _sweep(kernel, inputs)
            theirs = _sweep(other, inputs)
        ratios.append(ours / theirs)
    return statistics.median(ratios), sum(r < 1 for r in ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Per-call cost of the matrix kernel.")
    parser.add_argument("--against", metavar="DIR", help="a second checkout whose kernel to interleave with")
    args = parser.parse_args(argv)
    other = load_kernel(args.against) if args.against else None
    try:
        print("set      inputs   raw us  scaled us" + ("  ratio  won" if other else ""))
        for name, commands in SETS.items():
            inputs = record(commands)
            raw, scaled = per_call_us(inputs)
            line = f"{name:<8} {len(inputs):>6}  {raw:7.1f}  {scaled:9.1f}"
            if other:
                ratio, won = interleaved(inputs, other)
                line += f"  {ratio:5.3f}  {won:>2}/{PAIRS}"
            print(line, flush=True)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
