"""Outside-in tracer for the splitkit layers.

``install()`` wraps every public function of the modules in ``MODULES``
and then rebinds every reference the package holds to an original, so
calls are seen whichever path they take:

* module attributes, including the ``from .x import y`` bindings in
  ``census``, ``biject``, ``verify`` and ``cli``;
* function objects captured in module-level tables at import time, such
  as ``biject.MAPS`` (a dict of frozen dataclasses), ``verify._PAIRS`` and
  ``verify._COMPILE`` (dicts of tuples).

Each call is a span on a stack; a span's self time is its duration minus
the time of the spans it caused.  Spans are not kept one by one: they are
folded into per-function totals and per (caller, callee) edges as they
end, which keeps memory flat over millions of calls.  A generator is one
span per resumption.  The tracer assumes one thread, which is what the
benchmark's default ``--workers 1`` runs.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
import time

MODULES = ("core", "canon", "classify", "biject", "census", "verify", "cli")

_VERIFY_SUITES = {
    "verify_roundtrip": "roundtrip",
    "verify_balance": "balance",
    "verify_compilation": "compilation",
    "verify_choice_independence": "choice",
    "verify_counts": "counts",
    "verify_triangle": "triangle",
}
_CENSUS_BUILDERS = {"enumerate_class", "enumerate_split", "enumerate_cover", "enumerate_poset", "enumerate_xy"}


def layer_of(module: str, name: str, is_map: bool) -> str:
    """Layer a public function's time is reported under."""
    if module == "canon":
        return {"canon_matrix": "canon.matrix", "canon_graph": "canon.graph"}.get(name, "canon.object")
    if module == "census":
        if name == "iter_xy":
            return "census.generate"
        if name in ("iter_split", "iter_cover", "iter_poset", "iter_objects"):
            return "census.transport"
        if name in _CENSUS_BUILDERS:
            return "census.build"
        return "census.other"
    if module == "classify":
        return "classify.balance" if name.startswith("balance_") else "classify.structure"
    if module == "biject":
        if is_map:
            return "biject.map"
        return "biject.named" if name == "apply_named_map" else "biject.other"
    if module == "core":
        if name.startswith("parse_"):
            return "core.parse"
        if name.startswith("serialize_"):
            return "core.serialize"
        return "core.other"
    if module == "verify":
        suite = _VERIFY_SUITES.get(name)
        return f"verify.{suite}" if suite else "verify.other"
    return module


class Tracer:
    """Per-function call counts and times plus the benchmark's counters."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [child seconds, qualname]
        self.stats: dict[str, list] = {}  # qualname -> [calls, total s, self s, max s]
        self.layers: dict[str, str] = {}  # qualname -> layer
        self.edges: dict[tuple, list] = {}  # (caller, callee) -> [spans, seconds]
        self.perms = 0
        self.wide_calls = 0
        self.census_objects = 0
        self.census_distinct: set = set()
        self.build_calls = 0
        self.build_args: set = set()
        self.census_generators: set[str] = set()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, qualname: str, fn, layer: str, before=None, on_yield=None):
        stats = self.stats.setdefault(qualname, [0, 0.0, 0.0, 0.0])
        self.layers[qualname] = layer
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter

        def close(frame, t0):
            dt = clock() - t0
            stack.pop()
            caller = stack[-1] if stack else None
            if caller is not None:
                caller[0] += dt
            edge = edges.get((caller and caller[1], qualname))
            if edge is None:
                edge = edges[(caller and caller[1], qualname)] = [0, 0.0]
            edge[0] += 1
            edge[1] += dt
            stats[1] += dt
            stats[2] += dt - frame[0]
            if dt > stats[3]:
                stats[3] = dt

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                stats[0] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [0.0, qualname]
                        stack.append(frame)
                        t0 = clock()
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close(frame, t0)
                        if on_yield is not None:
                            on_yield(value)
                        yield value
                finally:
                    inner.close()

        else:

            def wrapper(*args, **kwargs):
                stats[0] += 1
                if before is not None:
                    before(args, kwargs)
                frame = [0.0, qualname]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame, t0)

        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_traced__ = True
        return wrapper

    # -- counters ----------------------------------------------------------

    def count_matrix(self, args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        r = len(matrix)
        side = min(r, len(matrix[0]) if r else 0)
        self.perms += math.factorial(side)
        self.wide_calls += side >= 7

    def census_builder(self, qualname: str, fn):
        signature = inspect.signature(fn)

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple((k, v) for k, v in bound.arguments.items() if k != "workers")
            self.build_calls += 1
            self.build_args.add((qualname, key))

        return before

    def census_yield(self, value):
        # Objects handed out of the census; nested transport steps (iter_xy
        # feeding iter_split feeding iter_cover) are not counted again.
        if not self.stack or self.stack[-1][1] not in self.census_generators:
            self.census_objects += 1
            self.census_distinct.add(value)

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "functions": {
                name: {"layer": self.layers[name], "calls": s[0], "total_s": s[1], "self_s": s[2], "max_s": s[3]}
                for name, s in self.stats.items()
            },
            "edges": [[caller, callee, n, t] for (caller, callee), (n, t) in sorted(self.edges.items(), key=str)],
            "counters": {
                "canon.matrix.perms": self.perms,
                "canon.matrix.wide_calls": self.wide_calls,
                "census.objects": self.census_objects,
                "census.distinct": len(self.census_distinct),
                "census.build.calls": self.build_calls,
                "census.build.distinct": len(self.build_args),
            },
        }

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)


def _substitute(value, wrapped: dict, depth: int = 0):
    """``value`` with every wrapped function replaced by its wrapper.

    Dicts and lists are updated in place; tuples and frozen dataclasses
    are rebuilt.  Returns ``value`` itself when nothing changed.
    """
    if inspect.isfunction(value):
        return wrapped.get(value, value)
    if depth > 4:
        return value
    if isinstance(value, dict):
        for k, v in value.items():
            new = _substitute(v, wrapped, depth + 1)
            if new is not v:
                value[k] = new
        return value
    if isinstance(value, list):
        for i, v in enumerate(value):
            value[i] = _substitute(v, wrapped, depth + 1)
        return value
    if isinstance(value, tuple):
        items = tuple(_substitute(v, wrapped, depth + 1) for v in value)
        return value if all(a is b for a, b in zip(items, value)) else type(value)(items)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        changes = {}
        for f in dataclasses.fields(value):
            old = getattr(value, f.name)
            new = _substitute(old, wrapped, depth + 1)
            if new is not old:
                changes[f.name] = new
        return dataclasses.replace(value, **changes) if changes else value
    return value


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself, by name."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__
    }


def install() -> Tracer:
    """Wrap the package's public functions and rebind every reference."""
    tracer = Tracer()
    modules = {m: importlib.import_module(f"splitkit.{m}") for m in MODULES}
    map_fns = {spec.fn for spec in modules["biject"].MAPS.values()}
    wrapped = {}
    for m, mod in modules.items():
        for name, fn in public_functions(mod).items():
            qualname = f"{m}.{name}"
            before = on_yield = None
            if qualname == "canon.canon_matrix":
                before = tracer.count_matrix
            elif m == "census" and name in _CENSUS_BUILDERS:
                before = tracer.census_builder(qualname, fn)
            elif m == "census" and inspect.isgeneratorfunction(fn):
                tracer.census_generators.add(qualname)
                on_yield = tracer.census_yield
            layer = layer_of(m, name, fn in map_fns)
            wrapped[fn] = tracer.wrap(qualname, fn, layer, before, on_yield)
    for mod in [importlib.import_module("splitkit"), *modules.values()]:
        for name, value in list(vars(mod).items()):
            if inspect.ismodule(value) or isinstance(value, type):
                continue
            new = _substitute(value, wrapped)
            if new is not value:
                setattr(mod, name, new)
    return tracer
