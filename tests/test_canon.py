"""Canonical forms: worked examples, witnesses, and brute-force agreement."""

import itertools
import random
import time

import pytest

from splitkit import census
from splitkit.biject import cover_to_split, split_to_xy
from splitkit.canon import (
    _make_key,
    canon_cover,
    canon_graph,
    canon_key,
    canon_matrix,
    canon_poset,
    canon_xy,
    canonical_object,
    cover_matrix,
    is_isomorphic,
    relabel_graph,
)
from splitkit.core import BipartitePoset, DomainError, Graph, SetCover, SizeLimitError, UsageError, XYGraph

from oracles import all_graphs, canon_adjacency, naive_oracle


def brute_min_matrix(matrix):
    r = len(matrix)
    c = len(matrix[0]) if r else 0
    best = None
    for rp in itertools.permutations(range(r)):
        for cp in itertools.permutations(range(c)):
            bits = tuple(matrix[rp[i]][cp[j]] for i in range(r) for j in range(c))
            if best is None or bits < best:
                best = bits
    return best if best is not None else ()


def all_matrices(r, c):
    for code in range(1 << (r * c)):
        yield [[(code >> (i * c + j)) & 1 for j in range(c)] for i in range(r)]


# ---------------------------------------------------------------------------
# matrices


def test_matrix_examples():
    mcf = canon_matrix([[0, 1], [1, 0]])
    assert mcf.bits == (0, 1, 1, 0)

    zero = canon_matrix([[0, 0, 0], [0, 0, 0]])
    assert zero.bits == (0,) * 6
    assert zero.row_perm == (0, 1) and zero.col_perm == (0, 1, 2)

    a = canon_matrix([[1, 1], [1, 0]])
    b = canon_matrix([[0, 1], [1, 1]])
    assert a.bits == b.bits == brute_min_matrix([[1, 1], [1, 0]])


def test_matrix_brute_force_up_to_3x3():
    for r in range(4):
        for c in range(4):
            for m in all_matrices(r, c):
                assert canon_matrix(m).bits == brute_min_matrix(m), m


def test_matrix_witness_replay_random():
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        m = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
        mcf = canon_matrix(m)
        replay = tuple(
            m[mcf.row_perm[i]][mcf.col_perm[j]] for i in range(r) for j in range(c)
        )
        assert replay == mcf.bits


def test_matrix_idempotent_identity_witness():
    rng = random.Random(5)
    for _ in range(100):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        m = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
        mcf = canon_matrix(m)
        again = canon_matrix(mcf.rows())
        assert again.bits == mcf.bits
        assert again.row_perm == tuple(range(r))
        assert again.col_perm == tuple(range(c))


def test_matrix_witness_replay_on_both_sides_of_the_packed_read_off():
    # the canonical values are read off one packed integer when the ones
    # outnumber r + c + r c (r + 2c) / 4096, one 1 at a time otherwise:
    # 0.3-dense rows take the first way up to 300 x 14 and unit rows the
    # second; both must replay the witness
    rng = random.Random(4096)
    shapes = ((64, 64), (65, 64), (64, 65), (300, 14), (1, 4097), (4097, 1), (120, 40))
    for (r, c), unit in itertools.product(shapes, (False, True)):
        if unit:
            m = [[int(j == k) for j in range(c)] for k in (rng.randrange(c) for _ in range(r))]
        else:
            m = [[int(rng.random() < 0.3) for _ in range(c)] for _ in range(r)]
        mcf = canon_matrix(m)
        assert mcf.values == tuple(sorted(mcf.values))
        for i, value in enumerate(mcf.values):
            row = m[mcf.row_perm[i]]
            assert value == sum(row[j] << (c - 1 - k) for k, j in enumerate(mcf.col_perm))
        assert sorted(mcf.row_perm) == list(range(r)) and sorted(mcf.col_perm) == list(range(c))


# ---------------------------------------------------------------------------
# graphs


def graph(n, edges):
    return Graph.from_edges(n, edges)


def relabel(g, perm):
    return graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_graph_examples():
    p4 = graph(4, [(0, 1), (1, 2), (2, 3)])
    p4_scrambled = graph(4, [(2, 0), (0, 3), (3, 1)])  # path 2-0-3-1
    assert canon_graph(p4).key == canon_graph(p4_scrambled).key

    k3_k1 = graph(4, [(0, 1), (0, 2), (1, 2)])
    assert canon_graph(p4).key != canon_graph(k3_k1).key

    paw = graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    keys = {canon_graph(relabel(paw, perm)).key for perm in itertools.permutations(range(4))}
    assert len(keys) == 1

    star = graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canon_graph(star).key != canon_graph(paw).key


def test_relabel_graph_on_both_sides_of_the_packed_move():
    # the rows move as fields of one integer when the ones outnumber
    # 2n + 3n^3 / 4096, bit by bit otherwise: 0.4-dense graphs from 10 to
    # 130 vertices take the first way and graphs with about one edge per
    # vertex the second; both agree with relabelling the edge list
    rng = random.Random(64)
    for n in list(range(12)) + [40, 63, 64, 65, 90, 130]:
        for p in (0.4, 0.4, 1 / max(n, 1), 1 / max(n, 1)):
            g = graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            order = list(range(n))
            rng.shuffle(order)
            position = {v: i for i, v in enumerate(order)}
            assert relabel_graph(g, order) == relabel(g, position)


def test_graph_witness_and_idempotence():
    rng = random.Random(3)
    graphs = [graph(0, []), graph(1, [])]
    graphs += [random_split_graph(rng, rng.randrange(2, 9)) for _ in range(80)]
    for g in graphs:
        n = g.n
        gc = canon_graph(g)
        canonical = relabel_graph(g, gc.order)
        assert canon_graph(canonical).key == gc.key
        assert canon_graph(canonical).order == tuple(range(n))


def test_equal_keys_have_witnessing_isomorphism():
    # soundness by replay: two relabelings of one graph get equal keys, and
    # applying each witness order lands both on the identical labeled graph
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(2, 9)
        g1 = random_split_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = relabel(g1, perm)
        c1, c2 = canon_graph(g1), canon_graph(g2)
        assert c1.key == c2.key
        assert relabel_graph(g1, c1.order) == relabel_graph(g2, c2.order)


def test_graph_completeness_small():
    # on split graphs, key partition == orbit partition, exhaustively (n <= 6
    # runs in acceptance); every other graph is refused
    for n in range(6):
        orbits = {}
        for g in all_graphs(n):
            fro = frozenset(g.edges())
            if fro in orbits:
                continue
            orbit_id = len(orbits)
            stack = [g]
            while stack:
                h = stack.pop()
                fh = frozenset(h.edges())
                if orbits.get(fh) == orbit_id:
                    continue
                orbits[fh] = orbit_id
                for i in range(n - 1):
                    perm = list(range(n))
                    perm[i], perm[i + 1] = perm[i + 1], perm[i]
                    stack.append(relabel(h, perm))
        keys = {}
        refused = set()
        for g in all_graphs(n):
            orbit = orbits[frozenset(g.edges())]
            try:
                keys.setdefault(canon_graph(g).key, set()).add(orbit)
            except DomainError as exc:
                assert str(exc).startswith("not a split graph")
                refused.add(orbit)
        # each key covers exactly one orbit, no orbit is both keyed and
        # refused, and the keyed orbits are the split ones
        assert all(len(v) == 1 for v in keys.values())
        assert len(keys) + len(refused) == len(set(orbits.values()))
        assert len(keys) == (1, 1, 2, 4, 9, 21)[n]


# ---------------------------------------------------------------------------
# XY-graphs, covers, posets


def test_xy_keys():
    center_x = XYGraph(1, 2, frozenset({(0, 0), (0, 1)}))  # P3, center distinguished
    ends_x = XYGraph(2, 1, frozenset({(0, 0), (1, 0)}))  # P3, endpoints distinguished
    assert canon_xy(center_x) != canon_xy(ends_x)

    swapped = XYGraph(2, 1, frozenset({(1, 0), (0, 0)}))
    assert canon_xy(ends_x) == canon_xy(swapped)


def test_xy_census_on_three_vertices_has_eight_keys():
    keys = set()
    for nx in range(4):
        ny = 3 - nx
        cells = [(x, y) for x in range(nx) for y in range(ny)]
        for code in range(1 << len(cells)):
            edges = frozenset(cells[k] for k in range(len(cells)) if code >> k & 1)
            keys.add(canon_xy(XYGraph(nx, ny, edges)))
    assert len(keys) == 8


def test_cover_keys():
    a = SetCover(3, ((0, 1), (1, 2)))
    b = SetCover(3, ((1, 2), (0, 1)))
    assert canon_cover(a) == canon_cover(b)
    # element permutation 0<->2
    c = SetCover(3, ((2, 1), (1, 0)))
    assert canon_cover(a) == canon_cover(c)


def test_covers_whose_rows_differ_only_in_order_share_one_kernel_search():
    """A cover's incidence is searched with its rows sorted, so relabeled
    elements that leave every set in its column cost one search."""
    from splitkit import canon

    cover = SetCover(5, ((0, 1), (1, 2, 3), (3, 4)))
    relabeled = []
    for perm in itertools.permutations(range(5)):
        sets = [tuple(sorted(perm[e] for e in s)) for s in cover.sets]
        if sets == sorted(sets):  # the normal form keeps the columns
            relabeled.append(SetCover(5, sets))
    assert len(set(relabeled)) > 1
    canon._canon_rows.cache_clear()
    assert {canon_cover(c) for c in relabeled} == {canon_cover(cover)}
    assert canon._canon_rows.cache_info().misses == 1


def _unstripped_cover_key(c):
    """The reference key: the search over every incidence row, identity
    blocks included."""
    values = canon_matrix(sorted(cover_matrix(c))).values
    return _make_key("cover", (c.n, len(c.sets)), values, len(c.sets))


def _fewest_loyal(c):
    """k: the fewest elements of their own over the sets, 0 with no sets."""
    owners = [0] * c.n
    for s in c.sets:
        for e in s:
            owners[e] += 1
    return min((sum(owners[e] == 1 for e in s) for s in c.sets), default=0)


def _random_covers(rng, count):
    """Seeded covers of every kind the stripping meets: minimal with one or
    several loyal elements per set, not minimal (k = 0), every row a unit
    row, and the cover with no sets; elements are shuffled."""
    covers = [SetCover(0, ())]
    for i in range(count):
        kind = i % 4
        m = rng.randint(1, 7)
        if kind == 0:  # one loyal element per set
            loyal = [1] * m
        elif kind == 1:  # several per set
            loyal = [rng.randint(2, 3) for _ in range(m)]
        elif kind == 2:  # some set has none: not minimal
            loyal = [rng.randint(0, 2) for _ in range(m)]
            loyal[rng.randrange(m)] = 0
        else:  # a partition: every row a unit row
            loyal = [rng.randint(1, 3) for _ in range(m)]
        shared = rng.randint(0, 5) if kind != 3 and m > 1 else 0
        sets = [[] for _ in range(m)]
        n = 0
        for j, k in enumerate(loyal):
            sets[j] += range(n, n + k)
            n += k
        for _ in range(shared):
            for j in rng.sample(range(m), rng.randint(2, m)):
                sets[j].append(n)
            n += 1
        for j in range(m):
            if not sets[j]:  # an empty set gets an element shared with the next
                sets[j].append(n)
                sets[(j + 1) % m].append(n)
                n += 1
        labels = list(range(n))
        rng.shuffle(labels)
        covers.append(SetCover(n, [[labels[e] for e in s] for s in sets]))
    return covers


def test_cover_keys_strip_the_loyal_identity_exactly():
    """``canon_cover`` searches without k identity copies; its key is the
    search over every row, on the census and on seeded random covers."""
    objects = [r.obj for n in range(9) for r in census.records("cover", n)]
    assert len(objects) == 815
    covers = _random_covers(random.Random(2021), 2400)
    assert {0, 1, 2, 3} <= {_fewest_loyal(c) for c in covers}
    assert any(c.sets and all(sum(row) == 1 for row in cover_matrix(c)) for c in covers)
    for c in objects + covers:
        assert canon_cover(c) == _unstripped_cover_key(c), c


def test_cover_search_gets_the_rows_left_after_stripping(monkeypatch):
    """A cover with k loyal elements in every set hands the kernel exactly
    n - k * |C| rows; one with a set of no loyal element hands it all n."""
    from splitkit import canon

    sizes = []

    def spy(matrix):
        sizes.append(len(matrix))
        return canon_matrix(matrix)

    monkeypatch.setattr(canon, "canon_matrix", spy)
    # three sets, two loyal elements each (0-5), three shared (6-8)
    two_each = SetCover(9, ((0, 1, 6, 7), (2, 3, 6, 8), (4, 5, 7, 8)))
    # the third set has three, so k is still 2
    one_more = SetCover(10, ((0, 1, 6, 7), (2, 3, 6, 8), (4, 5, 7, 8, 9)))
    partition = SetCover(6, ((0, 1), (2, 3, 4), (5,)))
    not_minimal = SetCover(4, ((0, 1), (1, 2), (0, 1, 2, 3), (3,)))
    assert [_fewest_loyal(c) for c in (two_each, one_more, partition, not_minimal)] == [2, 2, 1, 0]
    for c in (two_each, one_more, partition, not_minimal):
        canon_cover(c)
    assert sizes == [9 - 2 * 3, 10 - 2 * 3, 6 - 1 * 3, 4]


def test_the_identity_cover_of_2000_sets_is_keyed_within_a_second():
    """The unit rows are counted in one pass over the sets, with no m x m
    identity built and no search of the rows for each unit row (that took
    0.36 s at m = 800 and grew as m^3)."""
    m = 2000
    identity = SetCover(m, tuple((j,) for j in range(m)))
    start = time.process_time()
    key = canon_cover(identity)
    elapsed = time.process_time() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert key == _make_key("cover", (m, m), [1 << j for j in range(m)], m)


def test_a_key_dimension_above_the_limit_is_a_size_limit_error():
    # 65,536 does not fit the two bytes a dimension takes; once this raised
    # OverflowError, which the CLI reported with a traceback and exit 1
    for dims in ((65536, 2), (2, 65536)):
        with pytest.raises(SizeLimitError, match="65535"):
            _make_key("split", dims, [1, 2], 2)
    assert _make_key("xy", (65535, 1), [], 1).data[1:5] == bytes((255, 255, 0, 1))


def test_nine_minimal_covers_of_a_four_set():
    census = naive_oracle("cover", 4)
    assert len(census.keys) == 9
    assert len(set(census.keys)) == 9


def test_poset_keys():
    v1 = BipartitePoset(2, 1, frozenset({(0, 0), (1, 0)}))
    v2 = BipartitePoset(2, 1, frozenset({(1, 0), (0, 0)}))
    assert canon_poset(v1) == canon_poset(v2)

    chain = BipartitePoset(1, 1, frozenset({(0, 0)}))
    antichain = BipartitePoset(2, 0, frozenset())
    assert canon_poset(chain) != canon_poset(antichain)


def test_nine_posets_on_four_points():
    census = naive_oracle("poset", 4)
    assert len(census.keys) == 9


def test_poset_and_xy_share_one_kernel():
    rng = random.Random(9)
    for _ in range(60):
        n0 = rng.randrange(0, 4)
        n1 = rng.randrange(0, 4)
        below = frozenset(
            (a, b) for a in range(n0) for b in range(n1) if rng.random() < 0.5
        )
        below |= frozenset((rng.randrange(n0), b) for b in range(n1) if n0)
        if n1 and not n0:
            continue
        p = BipartitePoset(n0, n1, below)
        h = XYGraph(n0, n1, below)
        # identical dimensions and bits, only the class tag differs
        assert canon_poset(p).data[1:] == canon_xy(h).data[1:]


def test_graph_keys_against_networkx_beyond_exhaustive_range():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2718)
    for trial in range(40):
        n = rng.randrange(8, 13)
        g1 = random_split_graph(rng, n)
        if trial % 2 == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = relabel(g1, perm)
        else:
            g2 = random_split_graph(rng, n)
        h1 = nx.Graph(g1.edges())
        h1.add_nodes_from(range(n))
        h2 = nx.Graph(g2.edges())
        h2.add_nodes_from(range(n))
        same = canon_graph(g1).key == canon_graph(g2).key
        assert same == nx.is_isomorphic(h1, h2)


def split_graph(k, s_neighbors):
    """Clique K = 0..k-1 and one stable vertex after it per K-neighbor set."""
    clique = [(i, j) for j in range(k) for i in range(j)]
    cross = [(u, k + i) for i, nbrs in enumerate(s_neighbors) for u in nbrs]
    return graph(k + len(s_neighbors), clique + cross)


def thin_spider(k):
    """K_k with a pendant vertex on each clique vertex: its S-max incidence
    is the k x k identity."""
    return split_graph(k, [[i] for i in range(k)])


def co_spider(k):
    """Each stable vertex sees all of K_k but one: the k x k co-identity."""
    return split_graph(k, [[j for j in range(k) if j != i] for i in range(k)])


def random_split_graph(rng, n):
    k = rng.randrange(1, n)
    p = rng.choice((0.3, 0.5, 0.7))
    return split_graph(k, [[u for u in range(k) if rng.random() < p] for _ in range(n - k)])


def _symmetric_cases():
    """Highly symmetric inputs, where tied search states are most numerous."""
    cases = []
    for k in range(7, 11):
        cases.append((f"identity {k}", [[int(i == j) for j in range(k)] for i in range(k)]))
        cases.append((f"co-identity {k}", [[int(i != j) for j in range(k)] for i in range(k)]))
    for k in (16, 32, 64):
        cases.append((f"identity {k}", [[int(i == j) for j in range(k)] for i in range(k)]))
    for k in (12, 16, 24):
        # element e of a cover of k disjoint pairs lies in set e // 2
        pairs_k = [[int(e // 2 == j) for j in range(k)] for e in range(2 * k)]
        cases.append((f"{k} disjoint pairs", pairs_k))
    pairs_16 = SetCover(32, tuple((2 * j, 2 * j + 1) for j in range(16)))
    cases.append(("split graph of 16 disjoint pairs", cover_to_split(pairs_16)))
    pairs = list(itertools.combinations(range(6), 2))
    cases.append(("edge-vertex incidence of K6", [[int(v in e) for v in range(6)] for e in pairs]))
    triples = list(itertools.combinations(range(7), 3))
    cases.append(("3-subsets of a 7-set", [[int(v in t) for v in range(7)] for t in triples]))
    # a lone state's tied rows that a column swap matches are searched once;
    # each tied row was searched at first (3.3 s, 35 s and 0.14 s)
    for k in (8, 9):
        edges = list(itertools.combinations(range(k), 2))
        cases.append((f"edge-vertex incidence of K{k}", [[int(v in e) for v in range(k)] for e in edges]))
    cases.append(("co-identity 12", [[int(i != j) for j in range(12)] for i in range(12)]))
    cases.append(("16-cycle", graph(16, [(i, (i + 1) % 16) for i in range(16)])))
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    cases.append(("Petersen graph", graph(10, outer + inner + spokes)))
    rng = random.Random(20)
    clique = [(i, j) for j in range(10) for i in range(j)]
    cross = [(u, v) for u in range(10) for v in range(10, 20) if rng.random() < 0.5]
    cases.append(("random split graph n=20", graph(20, clique + cross)))
    cases.append(("thin spider n=16", thin_spider(8)))
    cases.append(("thin spider n=20", thin_spider(10)))
    cases.append(("thin spider n=40", thin_spider(20)))
    cases.append(("co-spider n=16", co_spider(8)))
    cases.append(("split graph of the pairs of a 6-set", split_graph(6, pairs)))
    for n in (40, 62):
        k = n // 2
        cross = [[u for u in range(k) if rng.random() < 0.5] for _ in range(n - k)]
        cases.append((f"random split graph n={n}", split_graph(k, cross)))
    return cases


# Graphs in _symmetric_cases that are not split: the product refuses them,
# and the adjacency oracle keys them.
_NOT_SPLIT_CASES = ("16-cycle", "Petersen graph")


def test_symmetric_worst_cases_within_budget():
    # CPU seconds of this process, so that load from other processes on
    # the host does not count against the budget
    budget_s = 2.0
    rng = random.Random(7)
    for name, obj in _symmetric_cases():
        inputs = [obj]
        for _ in range(3):
            if isinstance(obj, Graph):
                perm = list(range(obj.n))
                rng.shuffle(perm)
                inputs.append(relabel(obj, perm))
            else:
                rows = list(range(len(obj)))
                cols = list(range(len(obj[0])))
                rng.shuffle(rows)
                rng.shuffle(cols)
                inputs.append([[obj[i][j] for j in cols] for i in rows])
        keys = set()
        for x in inputs:
            start = time.process_time()
            if name in _NOT_SPLIT_CASES:
                with pytest.raises(DomainError, match="not a split graph"):
                    canon_graph(x)
                refused = time.process_time() - start
                assert refused <= 0.01, f"{name}: refused in {refused:.3f} s"
                start = time.process_time()
                keys.add(canon_adjacency(x)[0])
            else:
                keys.add(canon_graph(x).key if isinstance(x, Graph) else canon_matrix(x).bits)
            elapsed = time.process_time() - start
            assert elapsed <= budget_s, f"{name}: {elapsed:.2f} s"
        assert len(keys) == 1, name


def test_is_isomorphic():
    p4 = graph(4, [(0, 1), (1, 2), (2, 3)])
    p4r = graph(4, [(3, 2), (2, 1), (1, 0)])
    assert is_isomorphic(p4, p4r)

    paw = graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert not is_isomorphic(p4, paw)

    with pytest.raises(UsageError):
        is_isomorphic(p4, SetCover(2, ((0, 1),)))


_NOT_SPLIT_GRAPHS = {
    "C4": graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "2K2": graph(4, [(0, 1), (2, 3)]),
    "16-cycle": graph(16, [(i, (i + 1) % 16) for i in range(16)]),
}


@pytest.mark.parametrize("name", list(_NOT_SPLIT_GRAPHS))
def test_a_graph_that_is_not_split_has_no_key(name):
    g = _NOT_SPLIT_GRAPHS[name]
    p4 = graph(4, [(0, 1), (1, 2), (2, 3)])
    calls = [
        lambda: canon_graph(g),
        lambda: canon_key(g),
        lambda: canonical_object(g),
        lambda: is_isomorphic(g, g),
        lambda: is_isomorphic(p4, g),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="^not a split graph"):
            call()


def test_canonical_object_round_trips_key():
    objs = [
        graph(4, [(0, 1), (1, 2), (2, 3)]),
        SetCover(3, ((0, 1), (1, 2))),
        XYGraph(2, 2, frozenset({(0, 1), (1, 0)})),
        BipartitePoset(2, 2, frozenset({(0, 0), (1, 1)})),
    ]
    for obj in objs:
        canonical, key = canonical_object(obj)
        assert canon_key(canonical) == key == canon_key(obj)
        again, key2 = canonical_object(canonical)
        assert again == canonical and key2 == key


# ---------------------------------------------------------------------------
# split graphs: the S-max incidence key against the adjacency oracle


def _same_partition(objects, key_a, key_b):
    """True iff two keys make the same classes on ``objects``."""
    pairs = {(key_a(g), key_b(g)) for g in objects}
    return len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


def _adjacency_key(g):
    return g.n, canon_adjacency(g)[0]


def test_split_keys_partition_the_census_as_the_adjacency_search_does():
    for n in range(9):
        graphs = [r.obj for r in census.records("split", n)]
        assert _same_partition(graphs, lambda g: canon_graph(g).key, _adjacency_key)
        assert len({canon_graph(g).key for g in graphs}) == (1, 1, 2, 4, 9, 21, 56, 164, 557)[n]


def test_split_keys_partition_relabeled_graphs_as_the_adjacency_search_does():
    rng = random.Random(1981)
    graphs = [random_split_graph(rng, rng.randrange(2, 15)) for _ in range(60)]
    # graphs built from one clique size and few stable vertices often coincide
    graphs += [random_split_graph(rng, 6) for _ in range(40)]
    graphs += [thin_spider(k) for k in range(1, 8)] + [co_spider(k) for k in range(1, 8)]
    objects = []
    for g in graphs:
        assert canon_graph(g).key.data[:1] == b"S"
        objects.append(g)
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            objects.append(relabel(g, perm))
    assert _same_partition(objects, lambda g: canon_graph(g).key, _adjacency_key)


def test_split_key_is_the_xy_key_of_its_s_max_incidence():
    # X = S and Y = K of the same S-max partition: only the tag byte differs
    for n in range(9):
        for r in census.records("split", n):
            assert r.key == canon_graph(r.obj).key
            assert r.key.data[1:] == canon_xy(split_to_xy(r.obj)).data[1:]


def test_canonical_split_graph_lists_s_first_with_identity_witness():
    rng = random.Random(62)
    for g in [random_split_graph(rng, rng.randrange(2, 20)) for _ in range(100)] + [thin_spider(5)]:
        gc = canon_graph(g)
        canonical = relabel_graph(g, gc.order)
        s = int.from_bytes(gc.key.data[1:3], "big")
        assert all(not canonical.adj[v] & ((1 << s) - 1) for v in range(s))  # S is stable
        again = canon_graph(canonical)
        assert again.key == gc.key and again.order == tuple(range(g.n))


@pytest.mark.parametrize("value", [[[1]], None, {"class": "cover"}], ids=["list", "none", "dict"])
def test_key_of_a_value_outside_the_domain_is_a_usage_error(value):
    with pytest.raises(UsageError, match="cannot canonicalize"):
        canon_key(value)
