"""Reference code the tests check the package against.

The naive oracle builds a census without the package's generation,
transport or classification: it sweeps every labeled object of a class on
n points, keys each with ``canon_key`` and keeps the first of each key,
with its balance decided from the definitions.  It is exponential in the
number of labeled objects, so each class has a small bound
(``ORACLE_MAX_N``).

The adjacency oracle keys any graph, split or not, by its least adjacency
bits read in growing order.  It is the reference that split-graph keys
are checked against: two graphs get equal bits iff they are isomorphic.

The other helpers are shared by several test modules.  This module
imports only public names of ``splitkit.core`` and ``splitkit.canon``, so
that an oracle never checks census, classify or biject code, or the
kernel's own helpers, with themselves; ``tests/test_census.py`` holds it
to that.
"""

import itertools
from collections import Counter, namedtuple
from typing import Optional

from splitkit.canon import canon_key, relabel_graph
from splitkit.core import BipartitePoset, CanonicalKey, Graph, SetCover, SizeLimitError, UsageError, XYGraph

ORACLE_MAX_N = {"split": 5, "cover": 5, "xy": 6, "poset": 6}


# the fields of a ``census.Census``, in its order
OracleCensus = namedtuple("OracleCensus", "class_tag n keys balanced unbalanced out_of_domain")


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for code in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if code >> k & 1])


def _split_sweep(n: int):
    """Each split graph on n vertices, with whether some partition takes
    both a largest clique and a largest stable set."""
    full = (1 << n) - 1
    for g in all_graphs(n):
        clique = [all(m & ~g.adj[v] == 1 << v for v in _members(m)) for m in range(full + 1)]
        stable = [not any(g.adj[v] & m for v in _members(m)) for m in range(full + 1)]
        sides = [k for k in range(full + 1) if clique[k] and stable[full ^ k]]
        if sides:
            omega = max(m.bit_count() for m in range(full + 1) if clique[m])
            alpha = max(m.bit_count() for m in range(full + 1) if stable[m])
            yield g, any(k.bit_count() == omega and n - k.bit_count() == alpha for k in sides)


def _cover_sweep(n: int):
    """Each minimal cover of n points, with whether no set has n - k + 1
    elements (k the number of sets).  Every set of a minimal cover owns an
    element, so it has at most n sets."""
    full = (1 << n) - 1
    for k in range(n + 1):
        for family in itertools.combinations(range(1, full + 1), k):
            covered = twice = 0
            for m in family:
                twice |= covered & m
                covered |= m
            once = covered & ~twice  # each set owns one of these, or none
            if covered == full and once.bit_count() >= k and all(m & once for m in family):
                balanced = all(m.bit_count() != n - k + 1 for m in family)
                yield SetCover(n, [_members(m) for m in family]), balanced


def _relations(n: int):
    """Each relation between a points and b points, a + b = n, with None
    when some b point is related to nothing, else whether no a point is
    related to every b point."""
    for na in range(n + 1):
        nb = n - na
        cells = [(a, b) for a in range(na) for b in range(nb)]
        for code in range(1 << len(cells)):
            pairs = frozenset(c for k, c in enumerate(cells) if code >> k & 1)
            verdict = None
            if len({b for _, b in pairs}) == nb:
                ups = Counter(a for a, _ in pairs)
                verdict = all(ups[a] < nb for a in range(na))
            yield na, nb, pairs, verdict


def _xy_sweep(n: int):
    for nx, ny, edges, verdict in _relations(n):
        yield XYGraph(nx, ny, edges), verdict


def _poset_sweep(n: int):
    # a height-1 point below nothing would have height 0
    for n0, n1, below, verdict in _relations(n):
        if verdict is not None:
            yield BipartitePoset(n0, n1, below), verdict


_SWEEPS = {"split": _split_sweep, "cover": _cover_sweep, "xy": _xy_sweep, "poset": _poset_sweep}


def oracle_verdicts(class_tag: str, n: int) -> dict[CanonicalKey, Optional[bool]]:
    """Key -> balanced (None: undefined) of each unlabeled object of the
    class on n points, from a sweep over the labeled ones.  Every labeled
    copy of one key must get the same verdict."""
    bound = ORACLE_MAX_N.get(class_tag)
    if bound is None:
        raise UsageError(f"unknown class {class_tag!r}")
    if not 0 <= n <= bound:
        raise SizeLimitError(f"naive oracle supports n <= {bound} for {class_tag}, got n={n}")
    found: dict[CanonicalKey, Optional[bool]] = {}
    for obj, verdict in _SWEEPS[class_tag](n):
        key = canon_key(obj)
        if found.setdefault(key, verdict) is not verdict:
            raise AssertionError(f"two labeled {class_tag} objects with key {key.hex} differ in balance")
    return found


def naive_oracle(class_tag: str, n: int) -> OracleCensus:
    """The census of the class on n points, tallied from ``oracle_verdicts``."""
    verdicts = oracle_verdicts(class_tag, n)
    tally = Counter(verdicts.values())
    return OracleCensus(class_tag, n, tuple(sorted(verdicts)), tally[True], tally[False], tally[None])


# ---------------------------------------------------------------------------
# the adjacency oracle


def _reading(mask: int, cells) -> int:
    """The least reading of a row (bit j for vertex j) over the orders that
    permute vertices inside the cells: in each cell, zeros first."""
    value = 0
    for cell in cells:
        value = value << cell.bit_count() | (1 << (cell & mask).bit_count()) - 1
    return value


def _split_cells(cells, mask: int) -> list[int]:
    """Each cell split into its zeros, then its ones, of ``mask``."""
    split = []
    for cell in cells:
        ones = cell & mask
        if ones and ones != cell:
            split.append(cell ^ ones)
            split.append(ones)
        else:
            split.append(cell)
    return split


def _twin_classes(g: Graph) -> list[list[int]]:
    """Vertices grouped so that swapping two in a group is an automorphism
    (open or closed twins, closed under chains of either)."""
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    seen: dict[int, int] = {}
    for v in range(g.n):
        for row in (g.adj[v], g.adj[v] | 1 << v):
            if row in seen:
                ra, rb = find(seen[row]), find(v)
                parent[max(ra, rb)] = min(ra, rb)
            else:
                seen[row] = v
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(find(v), []).append(v)
    return list(classes.values())


def canon_adjacency(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(bits, order): the least adjacency bits of any graph read in growing
    order (vertex k against vertices 0..k-1, for k = 1..n-1) over all
    vertex orders, and the least vertex order that reads them.

    A search state is an ordered list of cells of placed vertices; each
    cell is a clique or an independent set, and adjacency between two
    cells is complete or empty, so every order inside the cells reads the
    same bits.  A vertex appended to a state reads zeros first, then ones,
    in every cell, and splits each cell that way; it then joins the last
    cell when that keeps the invariant.  Candidates are one vertex per twin
    class, every tied state is kept, and equal states are merged.

    Exponential: 30 ms on the 16-cycle, and on split graphs the tied
    states grow with the subsets of the stable side (0.4 s at 28 vertices,
    more than 20 s at 40).
    """
    n = g.n
    if n < 2:
        return (), tuple(range(n))
    adj = g.adj
    classes = _twin_classes(g)

    def candidates(used: int) -> list[int]:
        out = []
        for members in classes:
            for v in members:
                if not used >> v & 1:
                    out.append(v)
                    break
        return out

    states = {(1 << v,): 1 << v for v in candidates(0)}
    packed = 0
    for k in range(1, n):
        best = None
        tied = []
        for cells, used in states.items():
            for v in candidates(used):
                block = _reading(adj[v], cells)
                if best is None or block < best:
                    best, tied = block, [(cells, used, v)]
                elif block == best:
                    tied.append((cells, used, v))
        packed = packed << k | best
        states = {}
        for cells, used, v in tied:
            row = adj[v]
            split = _split_cells(cells, row)
            last = split[-1]
            u = (last & -last).bit_length() - 1
            if not (row ^ adj[u]) & used & ~last and (
                last == 1 << u or bool(adj[u] & last) == bool(row & last)
            ):
                split[-1] = last | 1 << v
            else:
                split.append(1 << v)
            states[tuple(split)] = used | 1 << v
    order = min(tuple(v for cell in cells for v in _members(cell)) for cells in states)
    return tuple(map(int, f"{packed:0{n * (n - 1) // 2}b}")), order


# ---------------------------------------------------------------------------
# helpers shared by the test modules


def relabeled(obj, rng):
    """``obj`` with its points renumbered at random (a cover's sets reordered)."""

    def perm(k):
        return rng.sample(range(k), k)

    if isinstance(obj, Graph):
        return relabel_graph(obj, perm(obj.n))
    if isinstance(obj, SetCover):
        p = perm(obj.n)
        return SetCover(obj.n, rng.sample([[p[e] for e in s] for s in obj.sets], len(obj.sets)))
    if isinstance(obj, XYGraph):
        px, py = perm(obj.nx), perm(obj.ny)
        return XYGraph(obj.nx, obj.ny, {(px[x], py[y]) for x, y in obj.edges})
    p0, p1 = perm(obj.n0), perm(obj.n1)
    return BipartitePoset(obj.n0, obj.n1, {(p0[a], p1[b]) for a, b in obj.below})


def ref_loyal_elements(c):
    """Per set of a cover, its elements no other set holds, by counting."""
    membership = [0] * c.n
    for s in c.sets:
        for e in s:
            membership[e] += 1
    return tuple(tuple(e for e in s if membership[e] == 1) for s in c.sets)
