"""Command-line interface.

Commands compose over JSON-lines pipes: ``enumerate`` emits censuses,
``classify`` / ``map`` / ``compile`` read objects from stdin one per line
(graph6 for split graphs, JSON for the other classes) and emit one JSON
record per input line, ``verify`` runs the certification suites and
``gallery`` prints the aligned multi-class listing.  Nothing is randomized.
``--workers`` is accepted for compatibility and has no effect.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 parse or
domain error in the input.

``main()`` runs one command and returns its exit code; tests and tools
call it in-process.  The process entry ``run()`` (``python -m
splitkit.cli`` and the ``splitkit`` script) calls it, flushes stdout and
stderr and ends with ``os._exit``, so a command skips the interpreter's
teardown of every module, census record and memo.  That teardown took
about a sixth of a census command: ``enumerate --class split --n 7`` ran
in 152 ms with it and 131 ms without, ``verify --suite all --max-n 0`` in
103 and 86 ms (medians of 30 interleaved pairs of fresh processes,
``tools/fresh_process.py``, Python 3.11 on a 2-core host).  Skipping it
is safe because a splitkit process registers no ``atexit`` handler,
starts no thread or child and opens no file but the standard streams.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

from . import biject, census, verify
from .canon import canon_key, canonical_object
from .classify import balance_of, omega_alpha
from .core import (
    CLASS_TAGS,
    GRAPH6_MAX_N,
    MAX_KEY_DIM,
    DomainError,
    Graph,
    ParseError,
    SetCover,
    SizeLimitError,
    UsageError,
    ValidationError,
    class_tag_of,
    parse_graph6,
    parse_object,
    serialize_graph6,
    serialize_object,
)

def _serialize(obj) -> str:
    if isinstance(obj, Graph):
        return serialize_graph6(obj)
    return serialize_object(obj)


def _parse_line(line: str):
    if line.lstrip().startswith("{"):
        return parse_object(line)
    return parse_graph6(line.strip())


def _each_line(record_of) -> int:
    """Print the JSON record ``record_of(obj)`` of each object read from
    stdin, one line each; blank lines and ``#`` comments are skipped.  A
    line that fails gives an error record naming it, and then exit code 3.
    Each record is one ``write`` (``print`` makes two, which an unbuffered
    stdout sends as two writes)."""
    errors = 0
    for line in sys.stdin:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        try:
            record = record_of(_parse_line(line))
        except (ParseError, ValidationError, DomainError, UsageError, SizeLimitError) as exc:
            record = {"error": str(exc), "line": line}
            errors += 1
        sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    return 3 if errors else 0


# ---------------------------------------------------------------------------
# enumerate


def _census_header(c: census.Census) -> str:
    header = (
        f"# class={c.class_tag} n={c.n} count={c.count} "
        f"balanced={c.balanced} unbalanced={c.unbalanced}"
    )
    if c.out_of_domain:
        header += f" out_of_domain={c.out_of_domain}"
    return header


def cmd_enumerate(args) -> int:
    fmt = args.format or ("g6" if args.cls == "split" else "json")
    if (fmt == "g6") != (args.cls == "split"):
        raise UsageError("graph6 output is available exactly for --class split")
    if args.no_y_isolates and args.cls != "xy":
        raise UsageError("--no-y-isolates applies to --class xy only")

    def emit(record):
        if args.balance != "all":
            if record.balance is None or record.balance.value != args.balance:
                return  # filtered out; None means undefined (Y-isolates)
        print(_serialize(record.obj))

    header = _census_header(census.enumerate_class(args.cls, args.n, args.no_y_isolates))
    if args.count_only:
        print(header)
        return 0
    stored = census.records(args.cls, args.n, args.no_y_isolates)
    if not args.stream:
        print(header)
        stored = sorted(stored, key=lambda r: r.key)
    for record in stored:
        emit(record)
    if args.stream:
        print(header)
    return 0


# ---------------------------------------------------------------------------
# classify


def _classify_record(obj) -> dict:
    balance = balance_of(obj)  # rejects a graph that is not split or a cover that is not minimal
    record = {
        "class": class_tag_of(obj),
        "key": canon_key(obj).hex,
        "balance": balance.value,
        "witness": balance.witness,
    }
    if isinstance(obj, Graph):
        analysis = omega_alpha(obj)
        record.update(omega=analysis.omega, alpha=analysis.alpha)
    elif isinstance(obj, SetCover):
        record["n_sets"] = len(obj.sets)
    return record


def cmd_classify(args) -> int:
    def record_of(obj):
        if args.cls != "auto" and class_tag_of(obj) != args.cls:
            raise UsageError(f"expected a {args.cls} object")
        return _classify_record(obj)

    return _each_line(record_of)


# ---------------------------------------------------------------------------
# map / compile


def _emit_map(name: str, obj, n=None) -> dict:
    out, report = biject.apply_named_map(name, obj, n)
    spec = biject.MAPS[name]
    return {
        "from": spec.domain,
        "to": spec.codomain,
        "map": name,
        "input": report.input_key.hex,
        "output": report.output_key.hex,
        "object": _serialize(out),
        "choices": [list(c) for c in report.choices],
    }


def cmd_map(args) -> int:
    name = biject.ROUTES.get((args.src, args.dst))
    if name is None:
        known = ", ".join(f"{a}->{b}" for a, b in sorted(biject.ROUTES))
        raise UsageError(f"no map from {args.src!r} to {args.dst!r}; known: {known}")
    if args.inverse:
        name = biject.MAPS[name].inverse
    return _each_line(lambda obj: _emit_map(name, obj))


def cmd_compile(args) -> int:
    name = f"compile_{args.cls}_{args.direction}"
    if args.direction == "down" and args.n is not None:
        raise UsageError("--n applies to --direction up only")
    if args.direction == "up":
        if args.n is None:
            raise UsageError("compile --direction up needs a target size --n")
        # the target must exceed the size of the input, which is at least 0
        if not 1 <= args.n <= MAX_KEY_DIM:
            raise UsageError(
                f"--n must be between 1 and {MAX_KEY_DIM}, the largest size a key encodes; got {args.n}"
            )
        if args.cls == "split" and args.n > GRAPH6_MAX_N:
            raise UsageError(
                f"--n must be at most {GRAPH6_MAX_N} for --class split, the largest graph6 size; got {args.n}"
            )
    return _each_line(lambda obj: _emit_map(name, obj, args.n))


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.suite == "all":
        results = verify.run_all(args.max_n)
    else:
        results = verify.run_suite(args.suite, args.max_n)
    failed = False
    for result in results:
        print(json.dumps(result.to_doc(), separators=(",", ":")))
        if result.suite != "triangle" and not result.passed:
            failed = True
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# gallery


def cmd_gallery(args) -> int:
    rows = []
    for record in census.records("split", args.n):
        g, balance = record.obj, record.balance
        cover, cover_key = canonical_object(biject.split_to_cover(g))
        poset, poset_key = canonical_object(biject.split_to_poset(g))
        xy, xy_key = canonical_object(biject.split_to_xy(g))
        row = {
            "balance": balance.value,
            "split": serialize_graph6(g),
            "split_key": record.key.hex,
            "cover": serialize_object(cover),
            "cover_key": cover_key.hex,
            "poset": serialize_object(poset),
            "poset_key": poset_key.hex,
            "xy": serialize_object(xy),
            "xy_key": xy_key.hex,
            "xy_shift": None,
            "xy_shift_key": None,
        }
        if not balance.is_balanced:
            shifted, shifted_key = canonical_object(biject.unbalanced_split_to_xy(g))
            row["xy_shift"] = serialize_object(shifted)
            row["xy_shift_key"] = shifted_key.hex
        rows.append(row)
    rows.sort(key=lambda r: (r["balance"] != "unbalanced", r["split_key"]))
    balanced = sum(1 for r in rows if r["balance"] == "balanced")
    print(
        f"# gallery n={args.n} rows={len(rows)} balanced={balanced} "
        f"unbalanced={len(rows) - balanced}"
    )
    for i, row in enumerate(rows, start=1):
        row = {"row": i, **row}
        print(json.dumps(row, separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# parser


_COMMANDS = ("enumerate", "classify", "map", "compile", "verify", "gallery")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv``: with only the subcommand ``argv[0]`` names,
    else all six.  ``argv`` parses to the same result and output either way."""
    parser = argparse.ArgumentParser(
        prog="splitkit",
        description="Enumerate, classify, map and verify split graphs, "
        "minimal set covers, XY-graphs and bipartite posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    if only:
        # the top-level usage (an unrecognized argument prints it) lists all
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"

    if only in (None, "enumerate"):
        p = sub.add_parser("enumerate", help="emit the census of a class at size n")
        p.add_argument("--class", dest="cls", required=True, choices=CLASS_TAGS)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--balance", choices=["all", "balanced", "unbalanced"], default="all")
        p.add_argument("--no-y-isolates", action="store_true")
        p.add_argument("--count-only", action="store_true")
        p.add_argument("--format", choices=["g6", "json"], default=None)
        p.add_argument("--stream", action="store_true", help="emit in generation order, header last")
        p.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
        p.set_defaults(fn=cmd_enumerate)

    if only in (None, "classify"):
        p = sub.add_parser("classify", help="classify objects read from stdin")
        p.add_argument("--class", dest="cls", default="auto", choices=("auto",) + CLASS_TAGS)
        p.set_defaults(fn=cmd_classify)

    if only in (None, "map"):
        p = sub.add_parser("map", help="apply a bijection to objects read from stdin")
        p.add_argument("--from", dest="src", required=True)
        p.add_argument("--to", dest="dst", required=True)
        p.add_argument("--inverse", action="store_true", help="apply the inverse of the named map")
        p.set_defaults(fn=cmd_map)

    if only in (None, "compile"):
        p = sub.add_parser("compile", help="apply a compilation map to objects from stdin")
        p.add_argument("--class", dest="cls", required=True, choices=CLASS_TAGS)
        p.add_argument("--direction", required=True, choices=["down", "up"])
        p.add_argument("--n", type=int, default=None, help="target size for --direction up")
        p.set_defaults(fn=cmd_compile)

    if only in (None, "verify"):
        p = sub.add_parser("verify", help="run verification suites")
        p.add_argument(
            "--suite",
            required=True,
            choices=["all", "roundtrip", "balance", "compilation", "choice", "counts", "triangle"],
        )
        p.add_argument("--max-n", type=int, required=True)
        p.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
        p.set_defaults(fn=cmd_verify)

    if only in (None, "gallery"):
        p = sub.add_parser("gallery", help="aligned multi-class listing at size n")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
        p.set_defaults(fn=cmd_gallery)

    return parser


def _drop_stdout() -> None:
    """Point stdout at the null device, so that output still buffered when
    downstream closed the pipe (e.g. ``| head``) goes nowhere, quietly."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise UsageError(f"--workers must be at least 1; got {args.workers}")
        return args.fn(args)
    except (UsageError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        _drop_stdout()
        return 0


def _observed() -> bool:
    """Whether a tracer or profiler (coverage, cProfile) or ``python -i``
    waits for the interpreter's normal exit."""
    if sys.gettrace() is not None or sys.getprofile() is not None or sys.flags.inspect:
        return True
    monitoring = getattr(sys, "monitoring", None)  # where Python 3.12+ tools register
    return monitoring is not None and any(monitoring.get_tool(i) for i in range(6))


def run() -> NoReturn:
    """The process entry: ``main()``, a flush of stdout and stderr, and
    ``os._exit`` with the code (see the module docstring).  An exception or
    ``SystemExit`` out of ``main()`` and an ``_observed`` run take the
    normal exit.  A pipe closed before the flush exits 0 quietly, as one
    closed while ``main()`` writes does."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
        code = 0
    sys.stderr.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
