"""Per-call cost of the matrix kernel and per-object cost of keying, on the
inputs the benchmark gives them.

Runs three workloads in-process through ``splitkit.cli.main`` with empty
census stores, so the census and certify sets hold the census
generation's inputs too:

* census: ``enumerate --class {split,cover,xy,poset} --n 7``;
* certify: ``verify --suite all --max-n 6``;
* stream: the items of round 0 of seeds 1-3 (``perfbench/streamgen``).

It records two things of each:

* the distinct ``canon._canon_rows`` inputs, and times the uncached
  kernel (``_canon_rows.__wrapped__``) on them: microseconds per call;
* every object the program hands to ``canonical_object`` or ``canon_key``
  from outside ``splitkit.canon``, command by command, and replays those
  calls with the kernel's cache emptied at each command boundary, as a
  fresh process would have it: microseconds per object, for the whole
  keying path (incidence, kernel, key bytes and canonical object).

Each is the best of ``REPEAT`` sweeps, in microseconds of wall time on
this host.  Two runs of it do not compare: host speed drifts between
them by more than a change of a few percent.  Scaling by a reference
kernel timed around the sweeps, as the benchmark scales its times, did
not help: the factor swung more than the times it corrected.

With ``--against DIR`` it also loads the package of the checkout at DIR
(its ``src/splitkit``, imported as a package of its own in the same
process) and times the two sides on the same inputs in ``PAIRS``
interleaved pairs of sweeps, the side that runs first alternating; the
recorded objects are rebuilt as the other package's classes from their
fields.  For each set it prints the median and the largest over the pairs
of this side's time over the other's, and in how many pairs this side was
faster.  Host drift moves both sides of a pair alike, so a per-call claim
should rest on these ratios rather than on two separate runs.  Both sides
run on the inputs this checkout records, so the ratio sees only a change
in how the inputs are keyed: a change in *what* is keyed, such as fewer or
smaller inputs from a caller, leaves it near 1.00 and shows in the input
counts and per-call times of each checkout run on its own.

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
from splitkit import biject, canon, census, cli, verify  # noqa: E402

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


def record(commands) -> tuple[list, list]:
    """(the distinct kernel inputs of ``commands`` in order of first call,
    the (function name, object) keying calls of each command)."""
    seen = {}
    keyed = []
    kernel = canon._canon_rows

    def recording(rows, c):
        seen.setdefault((rows, c), None)
        return kernel(rows, c)

    def keying(fn):
        def call(obj):
            keyed[-1].append((fn.__name__, obj))
            return fn(obj)

        return call

    patches = [(module, name, keying(getattr(canon, name)))
               for module in (biject, census, cli, verify)
               for name in ("canonical_object", "canon_key") if hasattr(module, name)]
    for argv, stdin in commands:
        kernel.cache_clear()
        keyed.append([])
        with contextlib.ExitStack() as stack:
            for module, name, fn in patches:
                stack.enter_context(mock.patch.object(module, name, fn))
            stack.enter_context(mock.patch.object(canon, "_canon_rows", recording))
            stack.enter_context(mock.patch.object(census, "_canon_rows", recording))
            stack.enter_context(mock.patch.object(sys, "stdin", io.StringIO(stdin)))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            stack.enter_context(mock.patch.dict(census._records, clear=True))
            stack.enter_context(mock.patch.dict(census._levels, clear=True))
            cli.main(argv)
    return list(seen), keyed


def _sweep(kernel, inputs) -> float:
    start = time.perf_counter()
    for rows, c in inputs:
        kernel(rows, c)
    return time.perf_counter() - start


def _keying_sweep(package, calls) -> float:
    """Seconds to replay the keying calls of each command, the kernel's
    cache emptied at each command."""
    fns = {name: getattr(package.canon, name) for name in ("canonical_object", "canon_key")}
    clear = package.canon._canon_rows.cache_clear
    elapsed = 0.0
    for command in calls:
        clear()
        start = time.perf_counter()
        for name, obj in command:
            fns[name](obj)
        elapsed += time.perf_counter() - start
    return elapsed


def per_call_us(sweep, count) -> float:
    """Microseconds per input of ``count``: the best of ``REPEAT`` runs of
    ``sweep``."""
    return min(sweep() for _ in range(REPEAT)) / count * 1e6


def load_package(root: str):
    """The splitkit package of the checkout at ``root``, imported under a
    name of its own."""
    name = "splitkit_against"
    package = os.path.join(os.path.abspath(root), "src", "splitkit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def rebuilt(package, calls) -> list:
    """``calls`` with every object rebuilt as the same class of ``package``."""
    return [[(name, getattr(package.core, type(obj).__name__)(*obj._fields())) for name, obj in command]
            for command in calls]


def interleaved(ours, theirs) -> tuple[float, float, int]:
    """(median and largest over the pairs of the time of ``ours`` over
    ``theirs``, pairs in which ``ours`` was faster)."""
    ratios = []
    for i in range(PAIRS):
        if i % 2:
            b, a = theirs(), ours()
        else:
            a, b = ours(), theirs()
        ratios.append(a / b)
    return statistics.median(ratios), max(ratios), sum(r < 1 for r in ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Per-call cost of the matrix kernel and of keying.")
    parser.add_argument("--against", metavar="DIR", help="a second checkout to interleave with")
    args = parser.parse_args(argv)
    other = load_package(args.against) if args.against else None
    this = sys.modules["splitkit"]
    kernel = canon._canon_rows.__wrapped__
    compared = "  ratio  worst  won" if other else ""
    try:
        recorded = {name: record(commands) for name, commands in SETS.items()}
        print("kernel   inputs    us" + compared)
        for name, (inputs, _) in recorded.items():
            line = f"{name:<8} {len(inputs):>6}  {per_call_us(lambda: _sweep(kernel, inputs), len(inputs)):5.1f}"
            if other:
                theirs = other.canon._canon_rows.__wrapped__
                ratio, worst, won = interleaved(lambda: _sweep(kernel, inputs), lambda: _sweep(theirs, inputs))
                line += f"  {ratio:5.3f}  {worst:5.3f}  {won:>2}/{PAIRS}"
            print(line, flush=True)
        print("keying  objects    us" + compared)
        for name, (_, calls) in recorded.items():
            count = sum(map(len, calls))
            line = f"{name:<8} {count:>6}  {per_call_us(lambda: _keying_sweep(this, calls), count):5.1f}"
            if other:
                others = rebuilt(other, calls)
                ratio, worst, won = interleaved(lambda: _keying_sweep(this, calls), lambda: _keying_sweep(other, others))
                line += f"  {ratio:5.3f}  {worst:5.3f}  {won:>2}/{PAIRS}"
            print(line, flush=True)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
