"""Wall time of one CLI command in fresh processes, two checkouts interleaved.

    python tools/fresh_process.py --against DIR [--pairs N] -- <cli arguments>

Byte-compiles ``src/splitkit`` of this checkout and of the one at DIR
first, as ``perfbench/run.py`` does: with bytecode writing off
(``PYTHONDONTWRITEBYTECODE``), each process would otherwise compile the
package from source.  Then runs N pairs of fresh ``python -m splitkit.cli
<cli arguments>`` processes, one per checkout, each with its own ``src`` on
``PYTHONPATH``, ``PYTHONHASHSEED=0`` and stdin from the null device; the
side that runs first alternates.  Each process is timed from start to exit,
its stdout read to the end; both sides must give the same stdout bytes and
exit code.  Prints each side's median and quartiles in milliseconds and in
how many pairs this checkout was faster.  Host drift moves both sides of a
pair alike, which is what lets a few milliseconds of start-up or exit show
that the benchmark's ``setup_s`` cannot resolve.
"""

import argparse
import compileall
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def timed(root: str, cli_args: list) -> tuple[float, int, bytes]:
    """(seconds, exit code, stdout) of one fresh process of the checkout at ``root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "splitkit.cli", *cli_args],
        cwd=root,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fresh-process wall time of a CLI command, two checkouts interleaved.")
    parser.add_argument("--against", metavar="DIR", required=True, help="the checkout to compare with")
    parser.add_argument("--pairs", type=int, default=30, help="interleaved pairs of processes (default 30)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the splitkit CLI arguments")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sides = {"this": ROOT, "against": os.path.abspath(args.against)}
    for root in sides.values():
        if not compileall.compile_dir(os.path.join(root, "src", "splitkit"), quiet=1):
            print(f"error: cannot byte-compile {root}/src/splitkit", file=sys.stderr)
            return 2
    times = {side: [] for side in sides}
    for i in range(args.pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        outputs = {}
        for side in order:
            seconds, code, out = timed(sides[side], cli_args)
            times[side].append(seconds)
            outputs[side] = (code, out)
        if outputs["this"] != outputs["against"]:
            print(f"error: the two checkouts differ in exit code or stdout (pair {i})", file=sys.stderr)
            return 1
    print(f"splitkit {' '.join(cli_args)}: exit {outputs['this'][0]}, {args.pairs} pairs")
    print("side      median ms  q1 ms  q3 ms")
    for side, samples in times.items():
        q1, median, q3 = statistics.quantiles(samples, n=4)
        print(f"{side:<8} {median * 1e3:9.1f} {q1 * 1e3:6.1f} {q3 * 1e3:6.1f}")
    won = sum(ours < theirs for ours, theirs in zip(times["this"], times["against"]))
    print(f"this checkout faster in {won}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
