"""Bijections between the four classes and the four compilation maps.

Every map follows the explicit construction used to prove it is a
bijection; each inverse is implemented separately and the pair is checked
over full censuses by the verification suites.  Maps that involve picking a
structure (a representative loyal element, a swing vertex, a universal
vertex, an extremal set, a demotable or promotable point) accept the choice
as an argument; the default is always the least admissible index, and any
admissible choice yields the same canonical key (checked exhaustively at
small sizes).  ``MAPS`` lists every map with its inverse and its admissible
choices; the CLI and the verification suites derive their tables from it.

The compilation maps connect unbalanced objects on n points with all
objects of the class on at most n-1 points:

* split graphs -- drop a swing S-vertex and the K-vertices left without an
  S-neighbor; inversely add a fresh swing vertex plus padding K-vertices;
* covers -- drop an extremal set and the elements only it covered;
  inversely add a set of fresh elements plus all non-representatives;
* XY-graphs -- drop a universal X-vertex and the Y-vertices it alone
  covered; inversely pad Y with isolate candidates and attach a fresh
  universal vertex;
* posets -- remove the full support points, demoting a height-1 point
  whose down-set was exactly the full support set when one exists;
  inversely add fresh full-support points, promoting one old full-support
  point when one exists.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .canon import canonical_object
from .core import (
    BipartitePoset,
    CanonicalKey,
    DomainError,
    Graph,
    SetCover,
    UsageError,
    Value,
    XYGraph,
    _mask,
    _set,
    class_tag_of,
)
from .classify import (
    _minimal_loyal,
    _y_isolates_named,
    extremal_sets,
    is_split,
    k_max_partition,
    k_swings,
    poset_support,
    s_max_partition,
    s_max_sides,
    s_swings,
    xy_isolates_universals,
)


# ---------------------------------------------------------------------------
# choice plumbing


def default_reps(c: SetCover) -> tuple[int, ...]:
    """Least loyal element of each set; the default representative choice."""
    return _check_reps(c, None)


def _check_reps(c: SetCover, reps: Optional[Sequence[int]]) -> tuple[int, ...]:
    loyal = _minimal_loyal(c)
    if reps is None:
        return tuple(min(l) for l in loyal)
    if len(reps) != len(c.sets):
        raise UsageError(f"need one representative per set ({len(c.sets)}), got {len(reps)}")
    for i, r in enumerate(reps):
        if r not in loyal[i]:
            raise UsageError(f"element {r} is not loyal to set {i}")
    return tuple(reps)


def _pick(choice, admissible: Sequence[int], refusal: str) -> int:
    """``choice``, or the first admissible choice when it is None; a choice
    that is not admissible is refused with ``refusal.format(choice)``."""
    if choice is None:
        return admissible[0]
    if choice not in admissible:
        raise UsageError(refusal.format(choice))
    return choice


def _renumber(pairs, rows: Sequence[int], cols: Sequence[int]) -> tuple[int, int, frozenset[tuple[int, int]]]:
    """(|rows|, |cols|, the pairs (a, b) with a in rows and b in cols), each
    side renumbered by its place in the sequence given."""
    row_index = {v: i for i, v in enumerate(rows)}
    col_index = {v: j for j, v in enumerate(cols)}
    kept = frozenset((row_index[a], col_index[b]) for a, b in pairs if a in row_index and b in col_index)
    return len(rows), len(cols), kept


# ---------------------------------------------------------------------------
# split graphs <-> minimal set covers


def split_to_cover(g: Graph) -> SetCover:
    """One set per S-vertex of the S-max partition: the vertex plus its neighbors."""
    if not is_split(g):
        raise DomainError("not a split graph")
    p = s_max_partition(g)
    sets = tuple(tuple(sorted({s} | set(g.neighbors(s)))) for s in sorted(p.S))
    return SetCover(g.n, sets)


def cover_to_split(c: SetCover, reps: Optional[Sequence[int]] = None) -> Graph:
    """Representatives become the stable set; co-membership and K-pairs become edges."""
    reps = _check_reps(c, reps)
    s_side = _mask(reps)
    k_side = (1 << c.n) - 1 ^ s_side
    adj = [0 if s_side >> e & 1 else k_side for e in range(c.n)]
    for s in c.sets:
        members = _mask(s)
        for e in s:
            adj[e] |= members
    # every element lies in a set, so each row holds its own bit once
    return Graph(c.n, tuple(row ^ 1 << e for e, row in enumerate(adj)))


# ---------------------------------------------------------------------------
# split graphs <-> XY-graphs (same n)


def _s_max_incidence(g: Graph) -> tuple[int, int, frozenset[tuple[int, int]]]:
    """(|S|, |K|, pairs (i, j) with S-vertex i adjacent to K-vertex j) of the
    S-max partition, both sides numbered in ascending vertex order."""
    xs, ys = s_max_sides(g)
    return _renumber(((u, v) for u in xs for v in g.neighbors(u)), xs, ys)


def split_to_xy(g: Graph) -> XYGraph:
    """X = S and Y = K of the S-max partition, keeping only cross edges."""
    return XYGraph(*_s_max_incidence(g))


def _check_no_y_isolates(h: XYGraph) -> frozenset[int]:
    """The universal X-vertices of ``h``, which must have no isolates in Y."""
    isolates, universals = xy_isolates_universals(h)
    if isolates:
        raise DomainError(_y_isolates_named(isolates))
    return universals


def _incidence_split(rows: int, cols: int, pairs) -> Graph:
    """Rows 0..rows-1 become the stable side and the columns, numbered after
    them, a clique; each (row, column) pair becomes an edge."""
    n = rows + cols
    adj = [0] * rows + [(1 << n) - (1 << rows) ^ 1 << v for v in range(rows, n)]
    for a, b in pairs:
        v = rows + b
        if not (0 <= a < rows and 0 <= b < cols):  # only in an unvalidated object
            Graph.from_edges(n, [(a, v)])  # raises as the edge list did, or keeps it as it did
        adj[a] |= 1 << v
        adj[v] |= 1 << a
    return Graph(n, tuple(adj))


def xy_to_split(h: XYGraph) -> Graph:
    """Complete Y into a clique; X becomes the stable side."""
    _check_no_y_isolates(h)
    return _incidence_split(h.nx, h.ny, h.edges)


# ---------------------------------------------------------------------------
# split graphs <-> bipartite posets


def split_to_poset(g: Graph) -> BipartitePoset:
    """Height-1 points are the K-side of the S-max partition."""
    return BipartitePoset(*_s_max_incidence(g))


def poset_to_split(p: BipartitePoset) -> Graph:
    """Height-1 points become a clique; comparabilities become edges."""
    return _incidence_split(p.n0, p.n1, p.below)


# ---------------------------------------------------------------------------
# XY-graphs on n <-> unbalanced split graphs on n+1


def xy_to_unbalanced_split(h: XYGraph) -> Graph:
    """Add a fresh vertex to Y and complete Y into a clique (output has n+1 vertices)."""
    return _incidence_split(h.nx, h.ny + 1, h.edges)


def unbalanced_split_to_xy(g: Graph, swing: Optional[int] = None) -> XYGraph:
    """Remove a swing vertex of the K-max partition (output has n-1 vertices)."""
    if not is_split(g):
        raise DomainError("not a split graph")
    p = k_max_partition(g)
    swings = k_swings(g, p.S, p.K)
    if not swings:
        raise DomainError("balanced split graph: no swing vertex to remove")
    swing = _pick(swing, swings, "vertex {} is not a swing vertex of the K-max partition")
    xs = sorted(p.S)
    pairs = ((u, v) for u in xs for v in g.neighbors(u))
    return XYGraph(*_renumber(pairs, xs, sorted(p.K - {swing})))


# ---------------------------------------------------------------------------
# minimal set covers <-> bipartite posets


def _rep_incidence(
    c: SetCover, reps: Optional[Sequence[int]]
) -> tuple[int, int, frozenset[tuple[int, int]]]:
    """(rows, columns, pairs): the representatives in ascending order are the
    rows, the other elements the columns, and each set pairs its
    representative with its other members."""
    reps = _check_reps(c, reps)
    pairs = ((r, e) for r, s in zip(reps, c.sets) for e in s)
    return _renumber(pairs, sorted(reps), sorted(set(range(c.n)) - set(reps)))


def _incidence_cover(rows: int, cols: int, pairs) -> SetCover:
    """One set per row: the row together with its columns, numbered after the rows."""
    sets = [[a] for a in range(rows)]
    for a, b in sorted(pairs):
        sets[a].append(rows + b)
    return SetCover(rows + cols, tuple(map(tuple, sets)))


def cover_to_poset(c: SetCover, reps: Optional[Sequence[int]] = None) -> BipartitePoset:
    """Representatives sit at height 0, below their co-members."""
    return BipartitePoset(*_rep_incidence(c, reps))


def poset_to_cover(p: BipartitePoset) -> SetCover:
    """One set per height-0 point: the point together with its up-set."""
    return _incidence_cover(p.n0, p.n1, p.below)


# ---------------------------------------------------------------------------
# XY-graphs <-> minimal set covers


def xy_to_cover(h: XYGraph) -> SetCover:
    """One set per X-vertex: the vertex plus its Y-neighbors."""
    _check_no_y_isolates(h)
    return _incidence_cover(h.nx, h.ny, h.edges)


def cover_to_xy(c: SetCover, reps: Optional[Sequence[int]] = None) -> XYGraph:
    """Representatives form X; co-membership becomes the bipartite edge set."""
    return XYGraph(*_rep_incidence(c, reps))


# ---------------------------------------------------------------------------
# XY-graphs <-> bipartite posets (shared encoding)


def xy_to_poset(h: XYGraph) -> BipartitePoset:
    """X becomes height 0, Y height 1; edges become the order relation."""
    _check_no_y_isolates(h)
    return BipartitePoset(h.nx, h.ny, frozenset(h.edges))


def poset_to_xy(p: BipartitePoset) -> XYGraph:
    return XYGraph(p.n0, p.n1, frozenset(p.below))


# ---------------------------------------------------------------------------
# compilation: split graphs


def compile_split_down(g: Graph, swing: Optional[int] = None) -> Graph:
    """Unbalanced split graph on n -> split graph on at most n-1 vertices."""
    if not is_split(g):
        raise DomainError("not a split graph")
    p = s_max_partition(g)
    swings = s_swings(g, p.S, p.K)
    if not swings:
        raise DomainError("balanced split graph: no swing vertex (no balance witness)")
    swing = _pick(swing, swings, "vertex {} is not a swing vertex of the S-max partition")
    s_rest = p.S - {swing}
    keep = sorted(s_rest | (p.K - set(k_swings(g, s_rest, p.K))))
    n, _, edges = _renumber(g.edges(), keep, keep)
    return Graph.from_edges(n, edges)


def compile_split_up(h: Graph, n: int) -> Graph:
    """Split graph on t <= n-1 vertices -> unbalanced split graph on n vertices.

    New vertex n-1 is the swing vertex; vertices t..n-2 pad the clique side.
    """
    if not is_split(h):
        raise DomainError("not a split graph")
    if h.n > n - 1:
        raise DomainError(f"input has {h.n} vertices; need at most {n - 1}")
    p = s_max_partition(h)
    swing = n - 1
    k_side = sorted(p.K) + list(range(h.n, n - 1))
    edges = h.edges()
    for i, a in enumerate(k_side):
        for b in k_side[i + 1 :]:
            edges.append((a, b))
    for a in k_side:
        edges.append((swing, a))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# compilation: minimal set covers


def compile_cover_down(c: SetCover, extremal_set: Optional[int] = None) -> SetCover:
    """Drop an extremal set together with the elements only it covered."""
    loyal = _minimal_loyal(c)
    candidates = extremal_sets(c)
    if not candidates:
        raise DomainError("balanced cover: no set of size |V|-|C|+1 (no balance witness)")
    extremal_set = _pick(extremal_set, candidates, "set {} does not have the extremal size")
    dropped = set(loyal[extremal_set])
    keep = sorted(set(range(c.n)) - dropped)
    index = {e: i for i, e in enumerate(keep)}
    sets = tuple(
        tuple(index[e] for e in s) for j, s in enumerate(c.sets) if j != extremal_set
    )
    return SetCover(len(keep), sets)


def compile_cover_up(c: SetCover, n: int, reps: Optional[Sequence[int]] = None) -> SetCover:
    """Add a set holding n-t fresh elements plus every non-representative."""
    reps = _check_reps(c, reps)
    if c.n > n - 1:
        raise DomainError(f"input has {c.n} elements; need at most {n - 1}")
    fresh = range(c.n, n)
    extremal = tuple(sorted(set(fresh) | (set(range(c.n)) - set(reps))))
    return SetCover(n, c.sets + (extremal,))


# ---------------------------------------------------------------------------
# compilation: XY-graphs


def compile_xy_down(h: XYGraph, universal: Optional[int] = None) -> XYGraph:
    """Drop a universal X-vertex and the Y-vertices left without a neighbor."""
    universals = _check_no_y_isolates(h)
    if not universals:
        raise DomainError("balanced XY-graph: no universal X-vertex (no balance witness)")
    universal = _pick(universal, sorted(universals), "X-vertex {} is not universal")
    xs = [x for x in range(h.nx) if x != universal]
    ys = sorted({y for x, y in h.edges if x != universal})
    return XYGraph(*_renumber(h.edges, xs, ys))


def compile_xy_up(h: XYGraph, n: int) -> XYGraph:
    """Pad Y with fresh vertices, then attach a universal X-vertex."""
    _check_no_y_isolates(h)
    t = h.nx + h.ny
    if t > n - 1:
        raise DomainError(f"input has {t} vertices; need at most {n - 1}")
    ny = h.ny + (n - 1 - t)
    u = h.nx
    edges = set(h.edges) | {(u, y) for y in range(ny)}
    return XYGraph(h.nx + 1, ny, frozenset(edges))


# ---------------------------------------------------------------------------
# compilation: bipartite posets


def _demotable(p: BipartitePoset, partial: frozenset[int]) -> list[int]:
    """Height-1 points above no partial support point, in order."""
    return [b for b in range(p.n1) if not p.down_set(b) & partial]


def compile_poset_down(p: BipartitePoset, demote: Optional[int] = None) -> BipartitePoset:
    """Remove the full support points, demoting a suitable height-1 point if needed.

    If every height-1 point lies above some partial support point the full
    support points simply disappear; otherwise a height-1 point whose
    down-set is exactly the full support set is demoted to height 0 and put
    below every other height-1 point.
    """
    full, partial = poset_support(p)
    if not full:
        raise DomainError("balanced poset: no full support point (no balance witness)")
    candidates = _demotable(p, partial)
    if not candidates:
        if demote is not None:
            raise UsageError("no height-1 point needs demoting for this poset")
        return BipartitePoset(*_renumber(p.below, sorted(partial), range(p.n1)))
    demote = _pick(demote, candidates, "height-1 point {} is not comparable to exactly the full support points")
    n0, n1, below = _renumber(p.below, sorted(partial), [b for b in range(p.n1) if b != demote])
    return BipartitePoset(n0 + 1, n1, below | {(n0, j) for j in range(n1)})


def compile_poset_up(q: BipartitePoset, n: int, promote: Optional[int] = None) -> BipartitePoset:
    """Add n-t fresh full-support points, promoting an old one if any exists."""
    t = q.n0 + q.n1
    if t > n - 1:
        raise DomainError(f"input has {t} points; need at most {n - 1}")
    full, _ = poset_support(q)
    fresh = n - t
    if not full:
        if promote is not None:
            raise UsageError("no full support point to promote in this poset")
        below = set(q.below)
        below |= {(q.n0 + i, b) for i in range(fresh) for b in range(q.n1)}
        return BipartitePoset(q.n0 + fresh, q.n1, frozenset(below))
    promote = _pick(promote, sorted(full), "height-0 point {} is not a full support point")
    # The promoted point joins height 1 with the last id (q.n1) and keeps
    # only its comparabilities to the fresh points.
    n0, _, below = _renumber(q.below, [a for a in range(q.n0) if a != promote], range(q.n1))
    below |= {(n0 + i, b) for i in range(fresh) for b in range(q.n1 + 1)}
    return BipartitePoset(n0 + fresh, q.n1 + 1, below)


# ---------------------------------------------------------------------------
# named maps with reports


class MapReport(Value):
    """Audit record of one map application on canonically labeled objects.

    ``choices`` holds the choice made, each label the keyword that replays
    it, with ``rep[i]`` for entry i of ``reps``.
    """

    __slots__ = ("input_key", "output_key", "choices")
    input_key: CanonicalKey
    output_key: CanonicalKey
    choices: tuple[tuple[str, int], ...]

    def __init__(self, input_key, output_key, choices):
        _set(self, "input_key", input_key)
        _set(self, "output_key", output_key)
        _set(self, "choices", choices)


def _rep_choices(c: SetCover) -> Iterator[dict]:
    default = default_reps(c)
    yield {"reps": default}
    for reps in itertools.product(*_minimal_loyal(c)):
        if reps != default:
            yield {"reps": reps}


def _k_swing_choices(g: Graph) -> Iterator[dict]:
    p = k_max_partition(g)
    for k in k_swings(g, p.S, p.K):
        yield {"swing": k}


def _s_swing_choices(g: Graph) -> Iterator[dict]:
    S, K = s_max_sides(g)  # the partition of s_max_partition, unvalidated
    for s in s_swings(g, S, K):
        yield {"swing": s}


def _extremal_choices(c: SetCover) -> Iterator[dict]:
    for i in extremal_sets(c):
        yield {"extremal_set": i}


def _universal_choices(h: XYGraph) -> Iterator[dict]:
    for u in sorted(xy_isolates_universals(h)[1]):
        yield {"universal": u}


def _demote_choices(p: BipartitePoset) -> Iterator[dict]:
    full, partial = poset_support(p)
    if not full:
        return
    candidates = _demotable(p, partial)
    if not candidates:
        yield {}  # nothing to demote: the full support points just go
    for b in candidates:
        yield {"demote": b}


def _promote_choices(q: BipartitePoset) -> Iterator[dict]:
    full, _ = poset_support(q)
    if not full:
        yield {}  # nothing to promote
    for a in sorted(full):
        yield {"promote": a}


class MapSpec(tuple):
    """A map ``fn(obj)``, or ``fn(obj, n)`` when ``needs_n``, from the
    ``domain`` class to the ``codomain`` class; ``inverse`` names the map
    that undoes it.  ``choices(obj)``, when not None, lazily yields the
    keyword arguments of every admissible choice on ``obj``, the default
    first, and nothing when the map has no choice to make on ``obj``.

    Built from one iterable of these six fields in this order, so a copy
    with a field replaced is ``MapSpec(fields)``."""

    __slots__ = ()
    fn = property(itemgetter(0))
    domain = property(itemgetter(1))
    codomain = property(itemgetter(2))
    inverse = property(itemgetter(3))
    needs_n = property(itemgetter(4))
    choices = property(itemgetter(5))


def _pair(domain: str, codomain: str, fwd: Callable, inv: Callable, fwd_choices=None, inv_choices=None):
    """Entries of ``fwd`` and its inverse ``inv``, each naming the other; in
    a compilation pair ``inv`` is the up map, which takes a target size."""
    return {
        fwd.__name__: MapSpec((fwd, domain, codomain, inv.__name__, False, fwd_choices)),
        inv.__name__: MapSpec((inv, codomain, domain, fwd.__name__, domain == codomain, inv_choices)),
    }


# The one table of maps.  The CLI routes and the verification suites are
# derived from it, in this order.
MAPS: dict[str, MapSpec] = {
    **_pair("split", "cover", split_to_cover, cover_to_split, inv_choices=_rep_choices),
    **_pair("split", "xy", split_to_xy, xy_to_split),
    **_pair("split", "poset", split_to_poset, poset_to_split),
    **_pair("cover", "xy", cover_to_xy, xy_to_cover, _rep_choices),
    **_pair("cover", "poset", cover_to_poset, poset_to_cover, _rep_choices),
    **_pair("xy", "poset", xy_to_poset, poset_to_xy),
    **_pair("xy", "split", xy_to_unbalanced_split, unbalanced_split_to_xy, inv_choices=_k_swing_choices),
    **_pair("split", "split", compile_split_down, compile_split_up, _s_swing_choices),
    **_pair("cover", "cover", compile_cover_down, compile_cover_up, _extremal_choices, _rep_choices),
    **_pair("xy", "xy", compile_xy_down, compile_xy_up, _universal_choices),
    **_pair("poset", "poset", compile_poset_down, compile_poset_up, _demote_choices, _promote_choices),
}


def _routes() -> dict[tuple[str, str], str]:
    """(source class, target) -> map name for every map between two
    classes.  The second map between the same two classes, the one that
    changes the size by one, has the target ``<codomain>-shift``."""
    routes: dict[tuple[str, str], str] = {}
    for name, spec in MAPS.items():
        if spec.domain != spec.codomain:
            shifted = (spec.domain, spec.codomain) in routes
            routes[spec.domain, spec.codomain + ("-shift" if shifted else "")] = name
    return routes


ROUTES = _routes()


def _report_choices(choice: dict) -> tuple[tuple[str, int], ...]:
    if "reps" in choice:
        return tuple((f"rep[{i}]", r) for i, r in enumerate(choice["reps"]))
    return tuple(choice.items())


def apply_named_map(name: str, obj, n: Optional[int] = None):
    """Run a named map on the canonical form of ``obj`` with its default
    choice.

    Returns (canonical output object, MapReport).  Batch callers sort their
    outputs by input key, so identical batches serialize identically.
    """
    if name not in MAPS:
        raise UsageError(f"unknown map {name!r}; known: {', '.join(sorted(MAPS))}")
    spec = MAPS[name]
    tag = class_tag_of(obj)
    if tag != spec.domain:
        raise UsageError(f"map {name} expects a {spec.domain} object, got {tag}")
    if spec.needs_n and n is None:
        raise UsageError(f"map {name} needs a target size n")
    if tag == "split" and not is_split(obj):
        # every map on split graphs rejects this first; checking before
        # canonicalizing spares the search on an arbitrary graph
        raise DomainError("not a split graph")
    if tag == "xy" and spec.fn is not xy_to_unbalanced_split:
        # the other maps on XY-graphs reject isolates in Y first; checking
        # the input names them by its own labels
        _check_no_y_isolates(obj)
    canon_in, key_in = canonical_object(obj)
    # with no choice to make the map raises its own domain error
    choice = next(spec.choices(canon_in), {}) if spec.choices else {}
    out = spec.fn(canon_in, n, **choice) if spec.needs_n else spec.fn(canon_in, **choice)
    canon_out, key_out = canonical_object(out)
    return canon_out, MapReport(key_in, key_out, _report_choices(choice))
