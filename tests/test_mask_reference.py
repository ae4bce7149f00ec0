"""The per-item paths that work on adjacency and set masks, checked against
reference copies of the list-building code they replaced.

Each reference below is the earlier implementation kept verbatim apart
from its name: split-graph outputs built as edge lists through
``Graph.from_edges``, ``canon_matrix`` converting rows bit by bit,
``canon_graph`` reading its incidence vertex pair by vertex pair, an
O(n^2) ``relabel_graph``, and the validators on Python sets;
``loyal_elements`` is checked against the counting copy in ``oracles``.
The package must give equal objects, keys and witnesses, and the same
messages in the same order.
"""

import random

import pytest

from splitkit import biject, census
from splitkit.biject import (
    cover_to_split,
    poset_to_split,
    xy_to_split,
    xy_to_unbalanced_split,
)
from splitkit.canon import (
    GraphCanon,
    _canon_rows,
    _make_key,
    canon_graph,
    canon_matrix,
    canonical_object,
    cover_matrix,
    poset_matrix,
    relabel_graph,
    xy_matrix,
)
from splitkit.classify import k_max_partition, loyal_elements, s_max_partition, s_max_sides
from splitkit.core import (
    KEY_DIM_BYTES,
    BipartitePoset,
    Graph,
    KSPartition,
    SetCover,
    XYGraph,
    _bits,
    validate,
)

from oracles import ref_loyal_elements, relabeled

# ---------------------------------------------------------------------------
# reference copies


def ref_incidence_split(rows, cols, pairs):
    edges = [(a, rows + b) for a, b in pairs]
    edges += [(rows + a, rows + b) for b in range(cols) for a in range(b)]
    return Graph.from_edges(rows + cols, edges)


def ref_xy_to_split(h):
    biject._check_no_y_isolates(h)
    return ref_incidence_split(h.nx, h.ny, h.edges)


def ref_poset_to_split(p):
    return ref_incidence_split(p.n0, p.n1, p.below)


def ref_xy_to_unbalanced_split(h):
    return ref_incidence_split(h.nx, h.ny + 1, h.edges)


def ref_cover_to_split(c, reps=None):
    reps = biject._check_reps(c, reps)
    s_side = frozenset(reps)
    k_side = frozenset(range(c.n)) - s_side
    edges = set()
    for s in c.sets:
        for i, u in enumerate(s):
            for v in s[i + 1 :]:
                edges.add((u, v))
    ks = sorted(k_side)
    for i, u in enumerate(ks):
        for v in ks[i + 1 :]:
            edges.add((u, v))
    return Graph.from_edges(c.n, edges)


def ref_canon_matrix(matrix):
    c = len(matrix[0]) if matrix else 0
    return _canon_rows(tuple(sum(1 << j for j in range(c) if row[j]) for row in matrix), c)


def ref_canon_graph(g):
    s_side, k_side = s_max_sides(g)  # raises on a graph that is not split
    mcf = ref_canon_matrix([[g.adj[u] >> v & 1 for v in k_side] for u in s_side])
    order = tuple(s_side[i] for i in mcf.row_perm) + tuple(k_side[j] for j in mcf.col_perm)
    return GraphCanon(_make_key("split", (len(s_side), len(k_side)), mcf.values, len(k_side)), order)


def ref_relabel_graph(g, order):
    pos = {v: i for i, v in enumerate(order)}
    rows = []
    for i in range(g.n):
        row = 0
        src = g.adj[order[i]]
        for v in range(g.n):
            if src >> v & 1:
                row |= 1 << pos[v]
        rows.append(row)
    return Graph(g.n, tuple(rows))


def ref_canonical_ones(key, cols):
    packed = key.data[1 + 2 * KEY_DIM_BYTES :]
    last = 8 * len(packed) - 1
    ones = [divmod(last - p, cols) for p in _bits(int.from_bytes(packed, "big"))]
    ones.reverse()
    return ones


def ref_canon_key(obj):
    if isinstance(obj, Graph):
        return ref_canon_graph(obj).key
    if isinstance(obj, SetCover):
        mcf = ref_canon_matrix(cover_matrix(obj))
        return _make_key("cover", (obj.n, len(obj.sets)), mcf.values, len(obj.sets))
    if isinstance(obj, XYGraph):
        mcf = ref_canon_matrix(xy_matrix(obj))
        return _make_key("xy", (obj.nx, obj.ny), mcf.values, obj.ny)
    mcf = ref_canon_matrix(poset_matrix(obj))
    return _make_key("poset", (obj.n0, obj.n1), mcf.values, obj.n1)


def ref_canonical_object(obj):
    if isinstance(obj, Graph):
        gc = ref_canon_graph(obj)
        return ref_relabel_graph(obj, gc.order), gc.key
    key = ref_canon_key(obj)
    if isinstance(obj, XYGraph):
        return XYGraph(obj.nx, obj.ny, frozenset(ref_canonical_ones(key, obj.ny))), key
    if isinstance(obj, SetCover):
        sets = [[] for _ in obj.sets]
        for e, j in ref_canonical_ones(key, len(obj.sets)):
            sets[j].append(e)
        return SetCover(obj.n, tuple(map(tuple, sets))), key
    return BipartitePoset(obj.n0, obj.n1, frozenset(ref_canonical_ones(key, obj.n1))), key


def ref_validate_cover(c):
    out = []
    if c.n < 0:
        return [f"ground size {c.n} negative"]
    covered = set()
    outside = []
    for i, s in enumerate(c.sets):
        for e in s:
            if not 0 <= e < c.n:
                outside.append(f"set {i} contains out-of-range element {e}")
            else:
                covered.add(e)
    out += outside if len(outside) <= 6 else outside[:5] + [f"and {len(outside) - 5} more out-of-range elements"]
    for i in range(len(c.sets) - 1):
        if c.sets[i] == c.sets[i + 1]:
            out.append(f"duplicate set at indices {i},{i + 1}")
    uncovered = [e for e in range(c.n) if e not in covered]
    named, more = (uncovered, 0) if len(uncovered) <= 6 else (uncovered[:5], len(uncovered) - 5)
    out += [f"union ≠ ground set: element {e} uncovered" for e in named]
    if more:
        out.append(f"union ≠ ground set: and {more} more elements uncovered")
    return out


def ref_validate_partition(p):
    g = p.graph
    out = []
    all_v = frozenset(range(g.n))
    if p.K | p.S != all_v:
        missing = sorted(all_v - (p.K | p.S))
        out.append(f"K ∪ S misses vertices {missing}")
    extra = sorted((p.K | p.S) - all_v)
    if extra:
        out.append(f"partition uses unknown vertices {extra}")
    overlap = sorted(p.K & p.S)
    if overlap:
        out.append(f"K ∩ S nonempty: {overlap}")
    ks = sorted(p.K & all_v)
    for i, u in enumerate(ks):
        for v in ks[i + 1 :]:
            if not g.has_edge(u, v):
                out.append(f"K not a clique: ({u},{v})")
    ss = sorted(p.S & all_v)
    for i, u in enumerate(ss):
        for v in ss[i + 1 :]:
            if g.has_edge(u, v):
                out.append(f"S not stable: ({u},{v})")
    return out


# ---------------------------------------------------------------------------
# inputs


def _outcome(fn, *args, **kwargs):
    """The value of the call, or the type and text of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the reference and the package must agree on any error
        return type(exc).__name__, str(exc)


def _census_objects(class_tag, max_n=6, relabelings=3):
    """Every census object of the class on at most ``max_n`` points, each
    followed by seeded relabelings of it."""
    rng = random.Random(17)
    out = []
    for n in range(max_n + 1):
        for rec in census.records(class_tag, n):
            out.append(rec.obj)
            out += [relabeled(rec.obj, rng) for _ in range(relabelings)]
    return out


# ---------------------------------------------------------------------------
# split-graph outputs and canonical forms


@pytest.mark.parametrize(
    "fn,ref,class_tag",
    [
        (xy_to_split, ref_xy_to_split, "xy"),
        (xy_to_unbalanced_split, ref_xy_to_unbalanced_split, "xy"),
        (poset_to_split, ref_poset_to_split, "poset"),
    ],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_incidence_split_outputs_match_the_reference(fn, ref, class_tag):
    for obj in _census_objects(class_tag):
        out = _outcome(fn, obj)
        assert out == _outcome(ref, obj)
        if isinstance(out, Graph):
            assert validate(out) == []


def test_cover_to_split_matches_the_reference_under_every_choice():
    for c in _census_objects("cover"):
        for choice in biject._rep_choices(c):
            out = cover_to_split(c, **choice)
            assert out == ref_cover_to_split(c, **choice)
            assert validate(out) == []


def test_split_outputs_of_unvalidated_objects_fail_as_the_reference_does():
    # pairs outside the blocks, as a caller that skips validation may pass
    rng = random.Random(18)
    for _ in range(2000):
        n0, n1 = rng.randrange(4), rng.randrange(4)
        pairs = frozenset((rng.randrange(-2, n0 + 3), rng.randrange(-2, n1 + 3)) for _ in range(rng.randrange(4)))
        for cls, fn, ref in (
            (XYGraph, xy_to_split, ref_xy_to_split),
            (XYGraph, xy_to_unbalanced_split, ref_xy_to_unbalanced_split),
            (BipartitePoset, poset_to_split, ref_poset_to_split),
        ):
            obj = cls(n0, n1, pairs)
            assert _outcome(fn, obj) == _outcome(ref, obj), (fn.__name__, obj)


@pytest.mark.parametrize("class_tag", ["split", "cover", "xy", "poset"])
def test_canonical_object_matches_the_reference(class_tag):
    objects = _census_objects(class_tag)
    if class_tag == "split":
        objects += [biject.xy_to_unbalanced_split(h) for h in _census_objects("xy", 5, 1)]
    for obj in objects:
        assert canonical_object(obj) == ref_canonical_object(obj)
        if isinstance(obj, Graph):
            assert canon_graph(obj) == ref_canon_graph(obj)


def test_matrix_conversion_and_relabeling_match_the_reference():
    rng = random.Random(19)
    for _ in range(500):
        r, c = rng.randrange(0, 8), rng.randrange(1, 8)
        matrix = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
        assert canon_matrix(matrix) == ref_canon_matrix(matrix)
        n = rng.randrange(0, 15)
        g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.4])
        order = list(range(n))
        rng.shuffle(order)
        assert relabel_graph(g, order) == ref_relabel_graph(g, order)


# ---------------------------------------------------------------------------
# validators


def _invalid_cover(rng):
    n = rng.randrange(-1, 10)
    sets = []
    for _ in range(rng.randrange(0, 6)):
        hi = max(n, 0)
        sets.append([rng.randrange(-2, hi + 3) if rng.random() < 0.1 else rng.randrange(0, hi + 1) for _ in range(rng.randrange(0, 5))])
    if sets and rng.random() < 0.3:
        sets.append(list(rng.choice(sets)))  # a duplicate set
    return SetCover(n, sets)


def _partition(rng):
    """A seeded graph, now and then with an asymmetric adjacency bit, and
    seeded K and S that may overlap, miss vertices or name unknown ones."""
    n = rng.randrange(0, 9)
    adj = [0] * n
    for v in range(n):
        for u in range(v):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    if n and rng.random() < 0.2:
        adj[rng.randrange(n)] ^= 1 << rng.randrange(n)
    points = range(-1, n + 2)
    K = frozenset(v for v in points if rng.random() < 0.4)
    S = frozenset(v for v in points if rng.random() < 0.4)
    return KSPartition(Graph(n, tuple(adj)), K, S)


def test_cover_messages_match_the_reference_on_seeded_covers():
    rng = random.Random(20)
    for _ in range(2000):
        c = _invalid_cover(rng)
        assert validate(c) == ref_validate_cover(c), c


def test_cover_messages_match_the_reference_at_the_listing_bound():
    for n in range(12):
        for c in (SetCover(n, ()), SetCover(n, [[0]]), SetCover(n, [[n - 1]] if n else [])):
            assert validate(c) == ref_validate_cover(c)
    c = SetCover(65535, ())
    assert validate(c) == ref_validate_cover(c)


def test_partition_messages_match_the_reference_on_seeded_partitions():
    rng = random.Random(21)
    for _ in range(2000):
        p = _partition(rng)
        assert validate(p) == ref_validate_partition(p), p


def test_partition_messages_match_on_the_census_partitions():
    for g in _census_objects("split", 5, 1):
        for p in (k_max_partition(g), s_max_partition(g)):
            assert validate(p) == ref_validate_partition(p) == []
            swapped = KSPartition(g, p.S, p.K)
            assert validate(swapped) == ref_validate_partition(swapped)


def test_loyal_elements_match_the_reference():
    for c in _census_objects("cover"):
        assert loyal_elements(c) == ref_loyal_elements(c)
    rng = random.Random(22)
    for _ in range(2000):
        c = _invalid_cover(rng)
        got, want = _outcome(loyal_elements, c), _outcome(ref_loyal_elements, c)
        if isinstance(want, tuple) and want and want[0] == "IndexError":
            assert got[:1] == ("IndexError",), c
        elif all(0 <= e for s in c.sets for e in s):
            assert got == want, c
