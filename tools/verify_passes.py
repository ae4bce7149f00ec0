"""Where ``verify.run_all(N)`` spends its work, free of the start-up cost.

Two in-process runs of ``run_all(N)``, each from empty census stores and
cleared memos:

* a timed run, which first builds every census record the suites read and
  then prints the CPU time (``time.process_time``) of the census build and
  of each suite, summed over the suite's calls, beside its uncached matrix
  kernel searches (``canon._canon_rows`` cache misses);
* a counted run under ``sys.setprofile``, which prints, for each
  structural pass and for the twelve maps of the roundtrip and balance
  pairs (``verify._PAIRS``), how often its body ran and on how many
  distinct inputs.  A pass kept behind a memo is counted where its body
  runs, so a memo hit counts nothing.

    python tools/verify_passes.py [N]        (N defaults to 6)
"""

import argparse
import os
import sys
import time
from collections import defaultdict
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from splitkit import canon, census, classify, core, verify  # noqa: E402

# (module, name) of each structural pass; a memoized pass is counted in
# the body its memo wraps
PASSES = [
    (classify, "_degree_split_data"),
    (classify, "k_max_partition"),
    (core, "_validate_partition"),
    (core, "_validate_cover"),
    (classify, "loyal_elements"),
    (classify, "xy_isolates_universals"),
    (classify, "poset_support"),
    (classify, "balance_of"),
]
SUITES = ("verify_roundtrip", "verify_balance", "verify_compilation",
          "verify_choice_independence", "verify_counts", "verify_triangle")


def _body(fn):
    return getattr(fn, "__wrapped__", fn).__code__


def _pass_codes() -> dict:
    """code object -> label, for each pass and each pair map."""
    codes = {}
    for module, name in PASSES:
        # a public pass whose memo is the private ``_name`` runs its body there
        fn = getattr(module, "_" + name, None) if not name.startswith("_") else None
        if not hasattr(fn, "__wrapped__"):
            fn = getattr(module, name)
        codes[_body(fn)] = name
    for dom, fwd, cod, inv in verify._PAIRS.values():
        for fn in (fwd, inv):
            codes[_body(fn)] = "map " + fn.__name__
    return codes


def _fresh():
    """Empty census stores and memos: ``run_all`` starts as in a new process."""
    census._records.clear()
    census._levels.clear()
    for module in (canon, classify, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _searches() -> int:
    return canon._canon_rows.cache_info().misses


def suite_times(max_n: int) -> tuple[dict, dict]:
    """CPU seconds and uncached kernel searches of the census build and of
    each suite in ``run_all``."""
    _fresh()
    spent = defaultdict(float)
    searched = defaultdict(int)
    start = time.process_time()
    for tag in ("split", "cover", "xy", "poset"):
        for n in range(max_n + 1):
            census.records(tag, n, require_no_y_isolates=(tag == "xy"))
            if tag == "xy":
                census.records(tag, n)
    spent["census"] = time.process_time() - start
    searched["census"] = _searches()

    def timed(name, fn):
        def run(*args, **kwargs):
            t0, s0 = time.process_time(), _searches()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.process_time() - t0
                searched[name] += _searches() - s0
        return run

    patches = [mock.patch.object(verify, name, timed(name, getattr(verify, name))) for name in SUITES]
    for p in patches:
        p.start()
    try:
        verify.run_all(max_n)
    finally:
        for p in patches:
            p.stop()
    return spent, searched


def pass_counts(max_n: int) -> dict:
    """label -> [body runs, distinct first arguments] over ``run_all``."""
    _fresh()
    codes = _pass_codes()
    runs = defaultdict(int)
    seen = defaultdict(set)

    def profile(frame, event, arg):
        if event == "call":
            label = codes.get(frame.f_code)
            if label is not None:
                runs[label] += 1
                seen[label].add(frame.f_locals[frame.f_code.co_varnames[0]])

    sys.setprofile(profile)
    try:
        verify.run_all(max_n)
    finally:
        sys.setprofile(None)
    return {label: (runs[label], len(seen[label])) for label in dict.fromkeys(codes.values())}


def report(max_n: int) -> None:
    times, searched = suite_times(max_n)
    print(f"run_all({max_n}) CPU ms and uncached kernel searches by suite")
    for name, seconds in times.items():
        print(f"  {name:<28} {seconds * 1e3:8.1f} {searched[name]:6}")
    print(f"  {'total':<28} {sum(times.values()) * 1e3:8.1f} {sum(searched.values()):6}")
    counts = pass_counts(max_n)
    print(f"run_all({max_n}) body runs / distinct inputs")
    for label, (runs, distinct) in counts.items():
        print(f"  {label:<28} {runs:6} {distinct:6}")
    maps = [v for label, v in counts.items() if label.startswith("map ")]
    print(f"  {'all pair maps':<28} {sum(r for r, _ in maps):6} {sum(d for _, d in maps):6}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Where verify.run_all(N) spends its work.")
    parser.add_argument("max_n", metavar="N", nargs="?", type=int, default=6,
                        choices=range(census.MAX_N + 1), help="the largest census size (default 6)")
    args = parser.parse_args(argv)
    try:
        report(args.max_n)
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
