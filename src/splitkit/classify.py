"""Structural analysis: split recognition, partitions, and balance.

Each of the four classes has an "unbalanced" subclass characterized by the
existence of a structure: a swing vertex (split graphs), a set of size
|V| - |C| + 1 (minimal covers), a universal vertex in X (XY-graphs with no
isolates in Y), a full support point (bipartite posets).  Vacuous cases
resolve uniformly toward "structure exists": K = {} makes every S-vertex a
swing, Y = {} makes every X-vertex universal, and a poset with no height-1
points makes every height-0 point full support.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache

from .core import (
    Balance,
    BipartitePoset,
    DomainError,
    Graph,
    KSPartition,
    SetCover,
    SplitAnalysis,
    XYGraph,
    _bits,
    _mask,
    _named_first,
    validate,
)


# The structural passes below are pure functions of immutable values, and
# ``verify`` asks them about the same census objects and map images again
# and again.  Each memoized pass keeps its last _MEMO results keyed by the
# object itself, as ``verify._key`` does: exact, because values compare
# equal only with the same class and fields.  Results are immutable; a
# refusal is raised again on every call, never stored.  A public pass
# stays a plain function that calls its memoized private body.  With 256
# entries the in-process peak of ``verify.run_all(8)`` rises by 1.0 MB and
# with 4,096 by 12 MB; at max-n 6, 256 entries run as fast as 512.
_MEMO = 256


# ---------------------------------------------------------------------------
# split graphs


@lru_cache(maxsize=_MEMO)
def _degree_split_data(g: Graph):
    """(is_split, m, order) for the descending-degree criterion.

    With degrees d_1 >= ... >= d_n and m = max{i : d_i >= i-1}, the graph is
    split iff sum(d_i, i<=m) = m(m-1) + sum(d_i, i>m); then omega = m and
    the m highest-degree vertices form a maximum clique.  ``order`` lists
    the vertices by descending degree, ties by index.
    """
    degree = [row.bit_count() for row in g.adj]
    order = tuple(sorted(range(g.n), key=degree.__getitem__, reverse=True))
    degs = [degree[v] for v in order]
    # d_i - (i - 1) falls by at least 1 per step, so the first failure is final
    m = 0
    while m < g.n and degs[m] >= m:
        m += 1
    head = sum(degs[:m])
    tail = sum(degs[m:])
    return head == m * (m - 1) + tail, m, order


def is_split(g: Graph) -> bool:
    ok, _, _ = _degree_split_data(g)
    return ok


def _require_split(g: Graph):
    ok, m, order = _degree_split_data(g)
    if not ok:
        raise DomainError(f"not a split graph (n={g.n})")
    return m, order


def s_swings(g: Graph, S, K) -> list[int]:
    """S-vertices adjacent to all of K (all of S when K is empty), sorted."""
    kmask = _mask(K)
    return sorted(s for s in S if g.adj[s] & kmask == kmask)


def k_swings(g: Graph, S, K) -> list[int]:
    """K-vertices with no S-neighbor, sorted."""
    smask = _mask(S)
    return sorted(k for k in K if not g.adj[k] & smask)


def k_max_partition(g: Graph) -> KSPartition:
    """Partition with |K| = omega(G): the m highest-degree vertices."""
    return _k_max_partition(g)


@lru_cache(maxsize=_MEMO)
def _k_max_partition(g: Graph) -> KSPartition:
    m, order = _require_split(g)
    p = KSPartition(g, frozenset(order[:m]), frozenset(order[m:]))
    if validate(p):
        raise AssertionError(f"degree criterion produced an invalid partition: {validate(p)}")
    return p


def _swing_into_s(g: Graph, s_side, k_side) -> tuple[list[int], list[int]]:
    """(S, K), each sorted, after the least K-vertex with no S-neighbor (a
    swing vertex) moves from a K-max partition into S, when one exists."""
    k_side = sorted(k_side)
    s_side = sorted(s_side)
    smask = _mask(s_side)
    for i, k in enumerate(k_side):
        if not g.adj[k] & smask:
            del k_side[i]
            insort(s_side, k)
            break
    return s_side, k_side


def s_max_sides(g: Graph) -> tuple[list[int], list[int]]:
    """(S, K) of the S-max partition, each sorted, from one degree pass.

    The same partition as :func:`s_max_partition`, without building or
    validating a partition object.  Any two S-max partitions differ by
    exchanging one pair of adjacent twins, so the S x K incidence of this
    one identifies the graph up to isomorphism.
    """
    m, order = _require_split(g)
    return _swing_into_s(g, order[m:], order[:m])


def s_max_partition(g: Graph) -> KSPartition:
    """Partition with |S| = alpha(G).

    Obtained from the K-max partition by moving one swing vertex (a
    K-vertex with no S-neighbor) into S when one exists; the least one
    moves, as in :func:`s_max_sides`.  Unique up to automorphism of the
    graph.
    """
    p = k_max_partition(g)
    s_side, k_side = _swing_into_s(g, p.S, p.K)
    return KSPartition(g, frozenset(k_side), frozenset(s_side))


def omega_alpha(g: Graph) -> SplitAnalysis:
    """Exact clique and stability numbers of a split graph.

    alpha is |S| of the S-max partition; omega is |K|, plus one when an
    S-vertex sees all of K (K plus that vertex is then a larger clique).
    """
    S, K = s_max_sides(g)
    return SplitAnalysis(omega=len(K) + bool(s_swings(g, S, K)), alpha=len(S))


def swing_vertices(g: Graph, p: KSPartition) -> frozenset[int]:
    """S-vertices adjacent to all of K plus K-vertices with no S-neighbor.

    For a balanced partition both sides are automatically empty.
    """
    problems = validate(p)
    if problems:
        raise DomainError("invalid partition: " + "; ".join(problems))
    return frozenset(s_swings(g, p.S, p.K) + k_swings(g, p.S, p.K))


def trichotomy(g: Graph, p: KSPartition) -> SplitAnalysis:
    """Classify a partition as case (i)/(ii)/(iii) of the split trichotomy.

    Exactly one case holds: (i) K-max and S-max, (ii) |K| = omega-1 with a
    swing vertex in S, (iii) |S| = alpha-1 with a swing vertex in K.
    """
    problems = validate(p)
    if problems:
        raise DomainError("invalid partition: " + "; ".join(problems))
    oa = omega_alpha(g)
    k_full = len(p.K) == oa.omega
    s_full = len(p.S) == oa.alpha
    if k_full and s_full:
        return SplitAnalysis(oa.omega, oa.alpha, "balanced", None)
    if s_full and len(p.K) == oa.omega - 1:
        swings = s_swings(g, p.S, p.K)
        if not swings:
            raise AssertionError("case (ii) partition without a swing vertex")
        return SplitAnalysis(oa.omega, oa.alpha, "unbalanced_S_max", swings[0])
    if k_full and len(p.S) == oa.alpha - 1:
        swings = k_swings(g, p.S, p.K)
        if not swings:
            raise AssertionError("case (iii) partition without a swing vertex")
        return SplitAnalysis(oa.omega, oa.alpha, "unbalanced_K_max", swings[0])
    raise AssertionError(
        f"partition sizes ({len(p.K)},{len(p.S)}) fit no trichotomy case for "
        f"omega={oa.omega} alpha={oa.alpha}"
    )


def balance_split(g: Graph) -> Balance:
    """Balanced iff some partition is simultaneously K-max and S-max.

    Equivalently, unbalanced iff the S-max partition has a swing vertex;
    the least such vertex is the witness.
    """
    S, K = s_max_sides(g)
    swings = s_swings(g, S, K)
    if swings:
        return Balance("unbalanced", swings[0])
    return Balance("balanced")


def maximal_cliques_split(g: Graph) -> list[frozenset[int]]:
    """All maximal cliques of a split graph.

    Every maximal clique is either {s} plus its neighborhood for some
    S-vertex, or the clique side K itself when nothing extends it.
    """
    p = k_max_partition(g)
    cliques = [frozenset({s} | set(g.neighbors(s))) for s in sorted(p.S)]
    if p.K and not s_swings(g, p.S, p.K):
        cliques.append(frozenset(p.K))
    return cliques


def loyal_vertices_split(g: Graph) -> frozenset[int]:
    """Vertices lying in exactly one maximal clique."""
    cliques = maximal_cliques_split(g)
    counts = [0] * g.n
    for c in cliques:
        for v in c:
            counts[v] += 1
    return frozenset(v for v in range(g.n) if counts[v] == 1)


# ---------------------------------------------------------------------------
# set covers


def loyal_elements(c: SetCover) -> tuple[tuple[int, ...], ...]:
    """Per-set tuples of loyal elements (elements lying in that set only);
    an element outside 0..n-1 raises IndexError."""
    once = twice = 0  # the elements in one set or more, in two or more
    masks = []
    for s in c.sets:
        if s and (s[0] < 0 or s[-1] >= c.n):  # each set is sorted
            raise IndexError(f"element outside 0..{c.n - 1} in set {list(s)}")
        members = 0
        for e in s:
            members |= 1 << e
        masks.append(members)
        twice |= once & members
        once |= members
    return tuple([tuple(_bits(members & (once ^ twice))) for members in masks])


def _require_cover(c: SetCover):
    problems = validate(c)
    if problems:
        raise DomainError("not a set cover: " + "; ".join(problems))


@lru_cache(maxsize=_MEMO)
def _cover_loyal(c: SetCover) -> tuple[tuple[int, ...], ...]:
    """``loyal_elements`` of a set cover; any other value is refused."""
    _require_cover(c)
    return loyal_elements(c)


def is_minimal(c: SetCover) -> bool:
    """True iff every set contains a loyal element.

    Equivalent to no set being contained in the union of the others.
    """
    return all(_cover_loyal(c))


_NOT_MINIMAL = "cover is not minimal: some set has no loyal element"


def _minimal_loyal(c: SetCover) -> tuple[tuple[int, ...], ...]:
    """``loyal_elements`` of a minimal cover; any other value is refused."""
    loyal = _cover_loyal(c)
    if not all(loyal):
        raise DomainError(_NOT_MINIMAL)
    return loyal


def extremal_sets(c: SetCover) -> list[int]:
    """Indices of sets of size |V| - |C| + 1, the unbalanced witnesses."""
    threshold = c.n - len(c.sets) + 1
    return [i for i, s in enumerate(c.sets) if len(s) == threshold]


def balance_cover(c: SetCover) -> Balance:
    """Unbalanced iff some set has size |V| - |C| + 1 (witness: its index)."""
    if not is_minimal(c):
        raise DomainError(_NOT_MINIMAL)
    extremal = extremal_sets(c)
    if extremal:
        return Balance("unbalanced", extremal[0])
    return Balance("balanced")


# ---------------------------------------------------------------------------
# XY-graphs


def xy_isolates_universals(g: XYGraph) -> tuple[frozenset[int], frozenset[int]]:
    """(isolates in Y, universals in X).

    A Y-vertex is an isolate if it has no X-neighbor; an X-vertex is
    universal if adjacent to every Y-vertex (vacuously all of X when Y is
    empty).
    """
    return _xy_isolates_universals(g)


@lru_cache(maxsize=_MEMO)
def _xy_isolates_universals(g: XYGraph) -> tuple[frozenset[int], frozenset[int]]:
    x_deg = [0] * g.nx
    y_deg = [0] * g.ny
    for x, y in g.edges:
        x_deg[x] += 1
        y_deg[y] += 1
    isolates = frozenset(y for y in range(g.ny) if y_deg[y] == 0)
    universals = frozenset(x for x in range(g.nx) if x_deg[x] == g.ny)
    return isolates, universals


def _y_isolates_named(isolates) -> str:
    """The Y-isolates named in a refusal: the first few, then a count."""
    named, more = _named_first(sorted(isolates))
    return f"Y-vertices {named}{f' and {more} more' if more else ''} are isolates"


def balance_xy(g: XYGraph) -> Balance:
    """Unbalanced iff a universal X-vertex exists; needs no isolates in Y."""
    isolates, universals = xy_isolates_universals(g)
    if isolates:
        raise DomainError(f"balance undefined: {_y_isolates_named(isolates)}")
    if universals:
        return Balance("unbalanced", min(universals))
    return Balance("balanced")


# ---------------------------------------------------------------------------
# bipartite posets


def poset_support(p: BipartitePoset) -> tuple[frozenset[int], frozenset[int]]:
    """(full support points, partial support points) among height-0 points.

    A full support point is comparable to every height-1 point; with no
    height-1 points every height-0 point is vacuously full support.
    """
    return _poset_support(p)


@lru_cache(maxsize=_MEMO)
def _poset_support(p: BipartitePoset) -> tuple[frozenset[int], frozenset[int]]:
    up_counts = [0] * p.n0
    for a, _ in p.below:
        up_counts[a] += 1
    full = frozenset(a for a in range(p.n0) if up_counts[a] == p.n1)
    partial = frozenset(range(p.n0)) - full
    return full, partial


def balance_poset(p: BipartitePoset) -> Balance:
    """Unbalanced iff the poset contains a full support point."""
    full, _ = poset_support(p)
    if full:
        return Balance("unbalanced", min(full))
    return Balance("balanced")


# ---------------------------------------------------------------------------
# dispatch


def balance_of(obj) -> Balance:
    if isinstance(obj, Graph):
        if not is_split(obj):
            raise DomainError("not a split graph")
        return balance_split(obj)
    if isinstance(obj, SetCover):
        return balance_cover(obj)
    if isinstance(obj, XYGraph):
        return balance_xy(obj)
    if isinstance(obj, BipartitePoset):
        return balance_poset(obj)
    raise DomainError(f"no balance notion for {type(obj).__name__}")
