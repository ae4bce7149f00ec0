"""Split recognition, partitions, balance and the loyal/swing structure."""

import itertools
import random

import pytest

from splitkit.census import iter_cover, iter_split
from splitkit.classify import (
    _degree_split_data,
    balance_cover,
    balance_poset,
    balance_split,
    balance_xy,
    extremal_sets,
    is_minimal,
    is_split,
    k_max_partition,
    loyal_elements,
    loyal_vertices_split,
    maximal_cliques_split,
    omega_alpha,
    poset_support,
    s_max_partition,
    swing_vertices,
    trichotomy,
    xy_isolates_universals,
)
from splitkit.core import (
    BipartitePoset,
    DomainError,
    Graph,
    KSPartition,
    SetCover,
    XYGraph,
    validate,
)

from oracles import all_graphs


def graph(n, edges):
    return Graph.from_edges(n, edges)


P4 = graph(4, [(0, 1), (1, 2), (2, 3)])
C4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K4 = graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
P3 = graph(3, [(0, 1), (1, 2)])
K3 = graph(3, [(0, 1), (0, 2), (1, 2)])
STAR = graph(4, [(0, 1), (0, 2), (0, 3)])
PAW = graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def valid_k_masks(g):
    """All K-sides of valid partitions, by brute force over subsets."""
    out = []
    full = (1 << g.n) - 1
    for kmask in range(1 << g.n):
        ok = True
        m = kmask
        while m and ok:
            v = (m & -m).bit_length() - 1
            if g.adj[v] & kmask != kmask ^ (1 << v):
                ok = False
            m &= m - 1
        smask = full ^ kmask
        m = smask
        while m and ok:
            v = (m & -m).bit_length() - 1
            if g.adj[v] & smask:
                ok = False
            m &= m - 1
        if ok:
            out.append(kmask)
    return out


def census_and_relabeled(max_n, seed=0):
    """Each census split graph on fewer than ``max_n`` vertices, then a
    seeded random relabeling of it.  Canonical labels put S first; a
    relabeling also exercises the degree-order ties the swing scans meet."""
    rng = random.Random(seed)
    for n in range(max_n):
        for g in iter_split(n):
            yield g
            perm = list(range(n))
            rng.shuffle(perm)
            yield graph(n, [(perm[u], perm[v]) for u, v in g.edges()])


def automorphisms(g):
    out = []
    edges = frozenset(g.edges())
    for perm in itertools.permutations(range(g.n)):
        if frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in edges) == edges:
            out.append(perm)
    return out


# ---------------------------------------------------------------------------
# recognition and partitions


def test_is_split_examples():
    assert not is_split(C4)
    assert is_split(K4)
    assert is_split(P4)


def test_degree_criterion_matches_brute_force():
    for n in range(7):
        for g in all_graphs(n):
            assert is_split(g) == bool(valid_k_masks(g)), g.edges()


def _degree_split_data_by_definition(g):
    """(is_split, m, order) spelled out: m is the largest i with
    d_i >= i - 1 over all i, ties in degree ordered by index; ``order``
    is a tuple, as the memoized pass returns it."""
    degree = [row.bit_count() for row in g.adj]
    order = sorted(range(g.n), key=lambda v: (-degree[v], v))
    degs = [degree[v] for v in order]
    m = 0
    for i in range(1, g.n + 1):
        if degs[i - 1] >= i - 1:
            m = i
    return sum(degs[:m]) == m * (m - 1) + sum(degs[m:]), m, tuple(order)


def test_degree_split_data_matches_its_definition():
    graphs = [g for n in range(7) for g in all_graphs(n)]
    rng = random.Random(2016)
    for i in range(200):
        n, p = rng.randrange(21), rng.random()
        pairs = itertools.combinations(range(n), 2)
        if i % 2:  # a clique on 0..k-1 and a stable set on the rest
            k = rng.randrange(n + 1)
            edges = [(u, v) for u, v in pairs if v < k or (u < k and rng.random() < p)]
        else:
            edges = [e for e in pairs if rng.random() < p]
        graphs.append(graph(n, edges))
    for g in graphs:
        assert _degree_split_data(g) == _degree_split_data_by_definition(g), g.edges()


def test_omega_alpha_examples():
    assert (omega_alpha(K3).omega, omega_alpha(K3).alpha) == (3, 1)
    assert (omega_alpha(P4).omega, omega_alpha(P4).alpha) == (2, 2)
    empty4 = graph(4, [])
    assert (omega_alpha(empty4).omega, omega_alpha(empty4).alpha) == (1, 4)
    with pytest.raises(DomainError):
        omega_alpha(C4)


def test_partition_examples():
    p = s_max_partition(P3)
    assert p.K == {1} and p.S == {0, 2}

    k2 = graph(2, [(0, 1)])
    p = s_max_partition(k2)
    assert len(p.K) == 1 and len(p.S) == 1

    p = s_max_partition(P4)
    assert p.K == {1, 2} and p.S == {0, 3}

    p = k_max_partition(P3)
    assert len(p.K) == 2 and 1 in p.K  # the center is in every 2-clique

    p = k_max_partition(k2)
    assert p.K == {0, 1} and p.S == frozenset()

    empty2 = graph(2, [])
    p = k_max_partition(empty2)
    assert len(p.K) == 1 and len(p.S) == 1


def test_partitions_are_valid_and_extreme():
    for g in census_and_relabeled(7):
        oa = omega_alpha(g)
        pk = k_max_partition(g)
        ps = s_max_partition(g)
        assert validate(pk) == [] and validate(ps) == []
        assert len(pk.K) == oa.omega
        assert len(ps.S) == oa.alpha
        masks = valid_k_masks(g)
        assert oa.omega == max((bin(m).count("1") for m in masks), default=0)
        assert oa.alpha == max(g.n - bin(m).count("1") for m in masks) if g.n else oa.alpha == 0


# ---------------------------------------------------------------------------
# trichotomy


def test_trichotomy_examples():
    sa = trichotomy(P4, KSPartition(P4, frozenset({1, 2}), frozenset({0, 3})))
    assert sa.case == "balanced" and sa.swing is None

    k2 = graph(2, [(0, 1)])
    sa = trichotomy(k2, KSPartition(k2, frozenset({0}), frozenset({1})))
    assert sa.case == "unbalanced_S_max" and sa.swing == 1

    sa = trichotomy(k2, KSPartition(k2, frozenset({0, 1}), frozenset()))
    assert sa.case == "unbalanced_K_max" and sa.swing == 0

    with pytest.raises(DomainError):
        trichotomy(P4, KSPartition(P4, frozenset({0, 3}), frozenset({1, 2})))


def test_trichotomy_exhaustive():
    # every valid partition of every split graph falls in exactly one case,
    # and the promised swing vertex exists
    for n in range(6):
        for g in all_graphs(n):
            masks = valid_k_masks(g)
            if not masks:
                continue
            oa = omega_alpha(g)
            for kmask in masks:
                K = frozenset(v for v in range(g.n) if kmask >> v & 1)
                S = frozenset(range(g.n)) - K
                cases = []
                if len(K) == oa.omega and len(S) == oa.alpha:
                    cases.append("balanced")
                if len(K) == oa.omega - 1 and len(S) == oa.alpha:
                    cases.append("unbalanced_S_max")
                if len(K) == oa.omega and len(S) == oa.alpha - 1:
                    cases.append("unbalanced_K_max")
                assert len(cases) == 1, (g.edges(), sorted(K))
                sa = trichotomy(g, KSPartition(g, K, S))
                assert sa.case == cases[0]
                if sa.case == "unbalanced_S_max":
                    assert sa.swing in S
                    assert all(g.has_edge(sa.swing, k) for k in K)
                if sa.case == "unbalanced_K_max":
                    assert sa.swing in K
                    assert not any(g.has_edge(sa.swing, s) for s in S)


def test_swing_vertices_examples():
    empty3 = graph(3, [])
    p = KSPartition(empty3, frozenset(), frozenset({0, 1, 2}))
    assert swing_vertices(empty3, p) == {0, 1, 2}

    p = KSPartition(P4, frozenset({1, 2}), frozenset({0, 3}))
    assert swing_vertices(P4, p) == frozenset()

    p = KSPartition(STAR, frozenset({0}), frozenset({1, 2, 3}))
    assert swing_vertices(STAR, p) == {1, 2, 3}


# ---------------------------------------------------------------------------
# balance for split graphs


def test_balance_split_examples():
    fours = list(iter_split(4))
    values = [balance_split(g).value for g in fours]
    assert values.count("unbalanced") == 8
    assert values.count("balanced") == 1
    assert balance_split(P4).value == "balanced"
    for n in range(1, 6):
        kn = graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        assert balance_split(kn).value == "unbalanced"


def test_balance_iff_swing_vertex():
    # unbalanced iff the S-max partition has a swing vertex
    for g in census_and_relabeled(7):
        b = balance_split(g)
        swings = swing_vertices(g, s_max_partition(g))
        assert (b.value == "unbalanced") == bool(swings)
        if b.value == "unbalanced":
            assert b.witness in swings


def test_partition_uniqueness_up_to_automorphism():
    for n in range(7):
        for g in iter_split(n):
            oa = omega_alpha(g)
            masks = valid_k_masks(g)
            k_max = [m for m in masks if bin(m).count("1") == oa.omega]
            s_max = [m for m in masks if g.n - bin(m).count("1") == oa.alpha]
            auts = automorphisms(g)

            def orbit_count(mask_list):
                reps = []
                for m in mask_list:
                    K = {v for v in range(g.n) if m >> v & 1}
                    if not any(
                        {p[v] for v in K} in reps for p in auts
                    ):
                        reps.append(K)
                return len(reps)

            assert orbit_count(k_max) == 1
            assert orbit_count(s_max) == 1
            if balance_split(g).value == "balanced":
                assert orbit_count(masks) == 1
                assert set(k_max) == set(s_max) == set(masks)


# ---------------------------------------------------------------------------
# loyal vertices


def brute_maximal_cliques(g):
    cliques = []
    for code in range(1 << g.n):
        mem = [v for v in range(g.n) if code >> v & 1]
        if not all(g.has_edge(u, v) for i, u in enumerate(mem) for v in mem[i + 1 :]):
            continue
        if any(
            all(g.has_edge(w, v) for v in mem)
            for w in range(g.n)
            if w not in mem
        ):
            continue
        if mem:
            cliques.append(frozenset(mem))
    return cliques


def test_loyal_vertices_examples():
    assert loyal_vertices_split(P3) == {0, 2}
    assert loyal_vertices_split(K3) == {0, 1, 2}
    assert loyal_vertices_split(P4) == {0, 3}


def test_maximal_cliques_match_brute_force():
    for n in range(7):
        for g in iter_split(n):
            assert set(maximal_cliques_split(g)) == set(brute_maximal_cliques(g))
            assert len(maximal_cliques_split(g)) == len(brute_maximal_cliques(g))


def test_loyal_vertex_structure():
    # every S-vertex is loyal; extra loyal vertices appear only with a
    # unique swing vertex, and then they are the K-vertices whose single
    # S-neighbor is that swing vertex
    for n in range(1, 7):
        for g in iter_split(n):
            p = s_max_partition(g)
            loyal = loyal_vertices_split(g)
            assert p.S <= loyal
            swings = {s for s in p.S if all(g.has_edge(s, k) for k in p.K)}
            if len(swings) == 1:
                s = next(iter(swings))
                expected = set(p.S) | {
                    k for k in p.K if {v for v in g.neighbors(k) if v in p.S} == {s}
                }
                assert loyal == expected
            else:
                assert loyal == p.S


# ---------------------------------------------------------------------------
# set covers


def test_loyal_elements_examples():
    assert loyal_elements(SetCover(3, ((0, 1), (1, 2)))) == ((0,), (2,))
    assert loyal_elements(SetCover(3, ((0, 1, 2),))) == ((0, 1, 2),)
    assert loyal_elements(SetCover(3, ((0, 1), (0, 1, 2)))) == ((), (2,))


def test_is_minimal_examples():
    assert is_minimal(SetCover(3, ((0, 1), (1, 2))))
    assert not is_minimal(SetCover(3, ((0, 1), (0, 1, 2))))
    for c in iter_cover(4):
        assert is_minimal(c)
    with pytest.raises(DomainError):
        is_minimal(SetCover(3, ((0, 1),)))


def contained_in_union_criterion(c):
    masks = [sum(1 << e for e in s) for s in c.sets]
    for i, m in enumerate(masks):
        rest = 0
        for j, other in enumerate(masks):
            if j != i:
                rest |= other
        if not m & ~rest:
            return False
    return True


def all_covering_families(n):
    full = (1 << n) - 1
    masks = list(range(1, 1 << n))
    for k in range(0, len(masks) + 1):
        for family in itertools.combinations(masks, k):
            union = 0
            for m in family:
                union |= m
            if union == full:
                yield family
        if k > n + 2:
            break


def test_minimality_criteria_agree_exhaustively():
    # loyal-element criterion == no-set-inside-the-union-of-others; the full
    # family space is feasible up to n = 4 (2^15 families)
    for n in range(5):
        for family in all_covering_families(n):
            sets = tuple(tuple(v for v in range(n) if m >> v & 1) for m in family)
            c = SetCover(n, sets)
            assert is_minimal(c) == contained_in_union_criterion(c)


def test_minimality_criteria_agree_random():
    rng = random.Random(42)
    for _ in range(2000):
        n = rng.randrange(5, 8)
        pool = list(range(1, 1 << n))
        family = rng.sample(pool, rng.randrange(1, min(8, len(pool))))
        union = 0
        for m in family:
            union |= m
        if union != (1 << n) - 1:
            continue
        sets = tuple(tuple(v for v in range(n) if m >> v & 1) for m in sorted(family))
        c = SetCover(n, sets)
        assert is_minimal(c) == contained_in_union_criterion(c)


def test_balance_cover_examples():
    b = balance_cover(SetCover(3, ((0, 1), (1, 2))))
    assert b.value == "unbalanced" and b.witness == 0

    singles = SetCover(3, ((0,), (1,), (2,)))
    assert balance_cover(singles).value == "unbalanced"

    with pytest.raises(DomainError):
        balance_cover(SetCover(3, ((0, 1), (0, 1, 2))))


def test_extremal_set_size_bound_and_multiplicity():
    # no set ever exceeds |V| - |C| + 1 ...
    for n in range(7):
        for c in iter_cover(n):
            threshold = c.n - len(c.sets) + 1
            assert all(len(s) <= threshold for s in c.sets)
    # ... but the extremal size can be attained more than once, so the
    # witness is a genuine choice point
    two_extremal = SetCover(3, ((0, 1), (1, 2)))
    assert extremal_sets(two_extremal) == [0, 1]


# ---------------------------------------------------------------------------
# XY-graphs and posets


def test_xy_isolates_universals_examples():
    iso, uni = xy_isolates_universals(XYGraph(1, 2, frozenset({(0, 0)})))
    assert iso == {1} and uni == frozenset()

    iso, uni = xy_isolates_universals(XYGraph(1, 0, frozenset()))
    assert iso == frozenset() and uni == {0}

    complete22 = XYGraph(2, 2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    iso, uni = xy_isolates_universals(complete22)
    assert iso == frozenset() and uni == {0, 1}


def test_balance_xy_examples():
    matching = XYGraph(2, 2, frozenset({(0, 0), (1, 1)}))
    assert balance_xy(matching).value == "balanced"

    star = XYGraph(1, 3, frozenset({(0, 0), (0, 1), (0, 2)}))
    b = balance_xy(star)
    assert b.value == "unbalanced" and b.witness == 0

    with pytest.raises(DomainError):
        balance_xy(XYGraph(1, 2, frozenset({(0, 0)})))


def test_poset_support_examples():
    v_poset = BipartitePoset(2, 1, frozenset({(0, 0), (1, 0)}))
    full, partial = poset_support(v_poset)
    assert full == {0, 1} and partial == frozenset()

    n_poset = BipartitePoset(2, 2, frozenset({(0, 0), (1, 0), (1, 1)}))
    full, partial = poset_support(n_poset)
    assert full == {1} and partial == {0}

    antichain = BipartitePoset(4, 0, frozenset())
    full, partial = poset_support(antichain)
    assert full == {0, 1, 2, 3} and partial == frozenset()


def test_balance_poset_examples():
    from splitkit.census import iter_poset

    values = [balance_poset(p).value for p in iter_poset(4)]
    assert values.count("unbalanced") == 8 and values.count("balanced") == 1

    chain = BipartitePoset(1, 1, frozenset({(0, 0)}))
    assert balance_poset(chain).value == "unbalanced"
