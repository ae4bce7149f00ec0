"""Seeded input generator for the ``stream`` workload.

A round is a fixed list of segments.  Each segment is one long-lived
``splitkit`` CLI command (``classify``, ``map`` or ``compile``) and the
lines it is fed.  The composition of a round is fixed; the seed only picks
the objects, so every seed gives the same number of items of every kind:

* all four classes, spread over classify, map and compile;
* a fixed share of out-of-domain inputs that the program must reject:
  non-split graphs sent to ``map --from split``, balanced objects sent to
  ``compile ... --direction down`` and XY-graphs with isolated Y-vertices;
* about 10% relabelled isomorphic copies of earlier items of the same
  segment (the only items a key cache inside one process could serve).

Every object is built here, without importing splitkit, and carries what
the program must answer for it (balance, clique and stability numbers,
whether it is out of domain), so the checks share no code with the program.

Size bound.  Every item, and every object a map or compilation returns for
it, is a split graph on at most ``MAX_GRAPH_N`` vertices or a 0/1 matrix
whose smaller side is at most ``MAX_MATRIX_SIDE``.  The reason is cost on
the seed code: ``canon_matrix`` enumerates min(r, c)! permutations, so an
8-wide sweep takes about 0.5 s and a 9-wide one about 7 s, and
``canon_graph`` on sparse split graphs with 13 or more vertices takes
seconds to minutes.  Inside the bound one item costs at most about a
second, and its costliest cases (7-wide matrices, 11-vertex graphs) still
show in ``latency_p99_ms``, ``canon.matrix.perms`` and ``canon.*.max_ms``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

MAX_GRAPH_N = 11
MAX_MATRIX_SIDE = 7

# Tiny in-domain, unbalanced objects.  One is sent before a segment's timed
# items so that interpreter start-up is not counted as item latency.
WARMUP = {
    "split": "Bw",
    "cover": '{"class":"cover","n":2,"sets":[[0,1]]}',
    "xy": '{"class":"xy","nx":1,"ny":1,"edges":[[0,0]]}',
    "poset": '{"class":"poset","n0":1,"n1":1,"below":[[0,0]]}',
}


@dataclass(frozen=True)
class Item:
    """One input line and what the program must answer for it.

    ``reject`` marks an out-of-domain item.  ``expect`` holds the class and
    balance of the input and, for split graphs and covers, the other fields
    ``classify`` reports; it is None for objects outside every class
    (non-split graphs, XY-graphs with Y-isolates).  ``copy_of`` is the
    segment index of the item this one relabels.
    """

    line: str
    expect: Optional[dict]
    reject: bool
    copy_of: Optional[int] = None


@dataclass(frozen=True)
class Segment:
    """One CLI child: its arguments, input class and timed items."""

    argv: tuple[str, ...]
    input_class: str
    items: tuple[Item, ...]

    @property
    def map_name(self) -> Optional[str]:
        return _MAP_NAMES.get(self.argv)

    @property
    def codomain(self) -> Optional[str]:
        return _CODOMAINS.get(self.argv)


# ---------------------------------------------------------------------------
# objects


def _graph6(n: int, adj: list[int]) -> str:
    bits = [(adj[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k : k + 6]:
            group = group << 1 | b
        out.append(chr(63 + group))
    return "".join(out)


@dataclass(frozen=True)
class _Split:
    n: int
    edges: frozenset  # pairs (u, v), u < v

    def line(self, rng: random.Random) -> str:
        perm = list(range(self.n))
        rng.shuffle(perm)
        adj = [0] * self.n
        for u, v in self.edges:
            a, b = perm[u], perm[v]
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return _graph6(self.n, adj)


@dataclass(frozen=True)
class _Matrix:
    """Cover, XY-graph or poset as a rows x cols incidence relation.

    Covers have one row per element and one column per set; XY-graphs have
    rows X and columns Y; posets have rows at height 0 and columns at 1.
    """

    cls: str
    rows: int
    cols: int
    cells: frozenset  # pairs (row, col)

    def line(self, rng: random.Random) -> str:
        rp = list(range(self.rows))
        cp = list(range(self.cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        cells = sorted((rp[i], cp[j]) for i, j in self.cells)
        if self.cls == "cover":
            sets = [sorted(i for i, j in cells if j == col) for col in range(self.cols)]
            doc = {"class": "cover", "n": self.rows, "sets": sorted(sets)}
        elif self.cls == "xy":
            doc = {"class": "xy", "nx": self.rows, "ny": self.cols, "edges": [list(c) for c in cells]}
        else:
            doc = {"class": "poset", "n0": self.rows, "n1": self.cols, "below": [list(c) for c in cells]}
        return json.dumps(doc, separators=(",", ":"))


def _split(rng: random.Random, n: int, s: int, balanced: bool):
    """Split graph with clique K = 0..k-1 and stable set S = k..n-1.

    With A = "some S-vertex is adjacent to all of K" and B = "some K-vertex
    has no S-neighbour" (never both), the graph is balanced iff neither
    holds, omega = |K| + A and alpha = |S| + B.  The S-max partition has
    |S| + B vertices on its stable side.
    """
    k = n - s
    ks, ss = range(k), range(k, n)
    while True:
        p = rng.uniform(0.25, 0.75)
        cross = {(u, v) for u in ks for v in ss if rng.random() < p}
        if not balanced:
            if rng.random() < 0.5 or s + 1 > MAX_MATRIX_SIDE:
                v = rng.choice(ss)
                cross |= {(u, v) for u in ks}
            else:
                u = rng.choice(ks)
                cross = {(a, b) for a, b in cross if a != u}
        a = any(all((u, v) in cross for u in ks) for v in ss)
        b = any(not any((u, v) in cross for v in ss) for u in ks)
        if (not a and not b) == balanced and s + b <= MAX_MATRIX_SIDE:
            break
    edges = frozenset(cross) | {(u, v) for u in ks for v in ks if u < v}
    expect = {
        "class": "split",
        "balance": "balanced" if balanced else "unbalanced",
        "omega": k + a,
        "alpha": s + b,
    }
    return _Split(n, edges), expect


def _nonsplit(rng: random.Random, n: int, s: int):
    """A split graph plus two disjoint edges inside S: an induced 2K2."""
    g, _ = _split(rng, n, s, balanced=rng.random() < 0.5)
    a, b, c, d = rng.sample(range(n - s, n), 4)
    return _Split(n, g.edges | {(min(a, b), max(a, b)), (min(c, d), max(c, d))}), None


def _cover(rng: random.Random, n: int, k: int, balanced: bool):
    """Minimal cover: set j holds its loyal representative j plus shared
    elements k..n-1.  Unbalanced iff some set has n - k + 1 elements, that
    is, holds every shared element."""
    shared = range(k, n)
    while True:
        p = rng.uniform(0.25, 0.6)
        cells = {(e, j) for e in shared for j in range(k) if rng.random() < p}
        for e in shared:
            if not any((e, j) in cells for j in range(k)):
                cells.add((e, rng.randrange(k)))
        if not balanced:
            j = rng.randrange(k)
            cells |= {(e, j) for e in shared}
        full = any(all((e, j) in cells for e in shared) for j in range(k))
        if full != balanced:
            break
    cells |= {(j, j) for j in range(k)}
    expect = {"class": "cover", "balance": "balanced" if balanced else "unbalanced", "n_sets": k}
    return _Matrix("cover", n, k, frozenset(cells)), expect


def _bipartite(rng: random.Random, cls: str, rows: int, cols: int, balanced: bool, isolates: bool = False):
    """XY-graph or poset.  Every column has a neighbour unless ``isolates``
    asks for at least one empty column (an XY-graph out of the balance
    domain).  Unbalanced iff some row is adjacent to every column."""
    while True:
        p = rng.uniform(0.25, 0.65)
        cells = {(i, j) for i in range(rows) for j in range(cols) if rng.random() < p}
        for j in range(cols):
            if not any((i, j) in cells for i in range(rows)):
                cells.add((rng.randrange(rows), j))
        if isolates:
            empty = rng.randrange(cols)
            cells = {(i, j) for i, j in cells if j != empty}
        elif not balanced:
            i = rng.randrange(rows)
            cells |= {(i, j) for j in range(cols)}
        full = any(all((i, j) in cells for j in range(cols)) for i in range(rows))
        if isolates or full != balanced:
            break
    expect = None if isolates else {"class": cls, "balance": "balanced" if balanced else "unbalanced"}
    return _Matrix(cls, rows, cols, frozenset(cells)), expect


# ---------------------------------------------------------------------------
# recipes
#
# A recipe is (count, kind, sizes, balance) where sizes lists (n, side)
# pairs cycled over the count and balance is "both" (alternating), "bal"
# or "unbal".  The side is |S| for split graphs, the number of sets for
# covers and |X| (rows) for XY-graphs and posets.  Output bounds per map:
# split -> cover gives an n x (|S| + B) matrix, so |S| + B <= 7; cover ->
# split gives a split graph on n vertices; xy -> split-shift adds a vertex,
# so XY inputs there have n <= 10; compile up --n 11 outputs 11 points, and
# for covers one more set, so cover inputs there have at most 6 sets.

_SPLIT_SIZES = [(n, s) for n in (9, 10, 11) for s in (3, 4, 5, 6, 7) if n - s >= 3]
_NONSPLIT_SIZES = [(n, s) for n in (9, 10, 11) for s in (4, 5, 6)]
_COVER_SIZES = [(n, k) for n in (9, 10, 11) for k in (2, 3, 4, 5, 6, 7)]
_XY_SIZES = [(n, x) for n in (9, 10) for x in (2, 3, 4, 5, 6, 7)]
_POSET_SIZES = [(n, x) for n in (9, 10, 11) for x in (2, 3, 4, 5, 6, 7)]
_SMALL = {
    "split": [(n, s) for n in (9, 10) for s in (3, 4, 5, 6)],
    "cover": [(n, k) for n in (9, 10) for k in (2, 3, 4, 5, 6)],
    "xy": _XY_SIZES,
    "poset": [(n, x) for n in (9, 10) for x in (2, 3, 4, 5, 6, 7)],
}
# (argv, input class, recipes, relabelled copies); classify takes every
# class, and its input class only picks the warm-up line.
ROUND = (
    (("classify",), "split", (
        (60, "split", _SPLIT_SIZES, "both"),
        (60, "cover", _COVER_SIZES, "both"),
        (48, "xy", _XY_SIZES, "both"),
        (54, "poset", _POSET_SIZES, "both"),
        (18, "xy-isolates", _XY_SIZES, "both"),
    ), 24),
    (("map", "--from", "split", "--to", "cover"), "split", (
        (60, "split", _SPLIT_SIZES, "both"),
        (9, "nonsplit", _NONSPLIT_SIZES, "both"),
    ), 7),
    (("map", "--from", "split", "--to", "xy-shift"), "split", (
        (48, "split", _SPLIT_SIZES, "unbal"),
        (9, "nonsplit", _NONSPLIT_SIZES, "both"),
    ), 6),
    (("map", "--from", "cover", "--to", "split"), "cover", (
        (60, "cover", _COVER_SIZES, "both"),
    ), 6),
    (("map", "--from", "xy", "--to", "split"), "xy", (
        (48, "xy", _XY_SIZES, "both"),
        (12, "xy-isolates", _XY_SIZES, "both"),
    ), 6),
    (("map", "--from", "xy", "--to", "split-shift"), "xy", (
        (36, "xy", _XY_SIZES, "both"),
        (12, "xy-isolates-ok", _XY_SIZES, "both"),
    ), 5),
    (("map", "--from", "poset", "--to", "cover"), "poset", (
        (54, "poset", _POSET_SIZES, "both"),
    ), 6),
    (("compile", "--class", "split", "--direction", "down"), "split", (
        (45, "split", _SPLIT_SIZES, "unbal"),
        (15, "split", _SPLIT_SIZES, "bal"),
    ), 5),
    (("compile", "--class", "cover", "--direction", "down"), "cover", (
        (48, "cover", _COVER_SIZES, "unbal"),
        (12, "cover", _COVER_SIZES, "bal"),
    ), 5),
    (("compile", "--class", "xy", "--direction", "down"), "xy", (
        (48, "xy", _XY_SIZES, "unbal"),
        (12, "xy", _XY_SIZES, "bal"),
    ), 5),
    (("compile", "--class", "poset", "--direction", "down"), "poset", (
        (42, "poset", _POSET_SIZES, "unbal"),
        (12, "poset", _POSET_SIZES, "bal"),
    ), 5),
    (("compile", "--class", "split", "--direction", "up", "--n", "11"), "split", (
        (40, "split", _SMALL["split"], "both"),
    ), 4),
    (("compile", "--class", "cover", "--direction", "up", "--n", "11"), "cover", (
        (40, "cover", _SMALL["cover"], "both"),
    ), 4),
    (("compile", "--class", "xy", "--direction", "up", "--n", "11"), "xy", (
        (36, "xy", _SMALL["xy"], "both"),
    ), 4),
    (("compile", "--class", "poset", "--direction", "up", "--n", "11"), "poset", (
        (36, "poset", _SMALL["poset"], "both"),
    ), 4),
)

_MAP_NAMES = {
    ("map", "--from", "split", "--to", "cover"): "split_to_cover",
    ("map", "--from", "split", "--to", "xy-shift"): "unbalanced_split_to_xy",
    ("map", "--from", "cover", "--to", "split"): "cover_to_split",
    ("map", "--from", "xy", "--to", "split"): "xy_to_split",
    ("map", "--from", "xy", "--to", "split-shift"): "xy_to_unbalanced_split",
    ("map", "--from", "poset", "--to", "cover"): "poset_to_cover",
}
_CODOMAINS = {
    ("map", "--from", "split", "--to", "cover"): "cover",
    ("map", "--from", "split", "--to", "xy-shift"): "xy",
    ("map", "--from", "cover", "--to", "split"): "split",
    ("map", "--from", "xy", "--to", "split"): "split",
    ("map", "--from", "xy", "--to", "split-shift"): "split",
    ("map", "--from", "poset", "--to", "cover"): "cover",
}
for _argv, _cls, _recipes, _copies in ROUND:
    if _argv[0] == "compile":
        _MAP_NAMES[_argv] = f"compile_{_argv[2]}_{_argv[4]}"
        _CODOMAINS[_argv] = _argv[2]


def _build(rng: random.Random, kind: str, n: int, side: int, balanced: bool):
    if kind == "split":
        return _split(rng, n, side, balanced)
    if kind == "nonsplit":
        return _nonsplit(rng, n, side)
    if kind == "cover":
        return _cover(rng, n, side, balanced)
    if kind == "xy-isolates":
        return _bipartite(rng, "xy", side, n - side, balanced, isolates=True)
    if kind == "xy-isolates-ok":
        # xy -> split-shift is defined on every XY-graph, isolates included.
        obj, _ = _bipartite(rng, "xy", side, n - side, balanced, isolates=True)
        return obj, {"class": "xy", "balance": None}
    return _bipartite(rng, kind, side, n - side, balanced)


def _segment(rng: random.Random, argv, input_class, recipes, copies) -> Segment:
    originals = []
    for count, kind, sizes, balance in recipes:
        offset = rng.randrange(len(sizes))
        for i in range(count):
            n, side = sizes[(offset + i) % len(sizes)]
            balanced = {"both": i % 2 == 0, "bal": True, "unbal": False}[balance]
            originals.append(_build(rng, kind, n, side, balanced))
    rng.shuffle(originals)
    down = argv[0] == "compile" and argv[4] == "down"
    rejects = [
        expect is None or (down and expect["balance"] == "balanced") for _, expect in originals
    ]
    # Entries are (original index, is copy); a copy goes somewhere after
    # its original.
    order = [(i, False) for i in range(len(originals))]
    in_domain = [i for i, reject in enumerate(rejects) if not reject]
    for src in rng.sample(in_domain, copies):
        after = order.index((src, False)) + 1
        order.insert(rng.randrange(after, len(order) + 1), (src, True))
    position = {src: at for at, (src, is_copy) in enumerate(order) if not is_copy}
    items = []
    for src, is_copy in order:
        obj, expect = originals[src]
        items.append(Item(obj.line(rng), expect, rejects[src], position[src] if is_copy else None))
    return Segment(tuple(argv), input_class, tuple(items))


def make_round(seed: int, index: int, scale: float = 1.0) -> list[Segment]:
    """Segments of round ``index`` for ``seed``.  ``scale`` shrinks every
    recipe count (for quick self-tests); 1.0 is the benchmark's round."""
    rng = random.Random(f"splitkit-stream:{seed}:{index}")
    segments = []
    for argv, input_class, recipes, copies in ROUND:
        scaled = tuple((max(1, round(c * scale)), k, s, b) for c, k, s, b in recipes)
        segments.append(_segment(rng, argv, input_class, scaled, max(1, round(copies * scale))))
    return segments


def composition(segments: list[Segment]) -> dict:
    """Counts that describe a round: items, rejects and relabelled copies."""
    items = [it for seg in segments for it in seg.items]
    return {
        "segments": len(segments),
        "items": len(items),
        "out_of_domain": sum(1 for it in items if it.reject),
        "relabelled_copies": sum(1 for it in items if it.copy_of is not None),
        "by_command": {" ".join(seg.argv): len(seg.items) for seg in segments},
    }
