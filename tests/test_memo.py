"""The analysis memos of ``splitkit.classify`` are invisible.

The degree criterion, the K-max partition, the loyal elements of a set
cover, ``xy_isolates_universals`` and ``poset_support`` each keep their
recent results keyed by the object.  Every census object with n <= 6 of
each class, and three relabelings of each, must get the same results as
the uncached reference copies below (the loyal elements: ``oracles``), on
the first call and on the second; the memos hold only immutable values,
refusals are raised every time with the same text, and every memo is
bounded.
"""

import random

import pytest

from splitkit import biject, census, classify
from splitkit.core import (
    DomainError,
    Graph,
    KSPartition,
    SetCover,
    Value,
    validate,
)

from oracles import ref_loyal_elements, relabeled

MEMOS = ("_degree_split_data", "_k_max_partition", "_cover_loyal", "_xy_isolates_universals", "_poset_support")

# ---------------------------------------------------------------------------
# uncached reference copies


def ref_degree_split_data(g):
    degree = [row.bit_count() for row in g.adj]
    order = sorted(range(g.n), key=degree.__getitem__, reverse=True)
    degs = [degree[v] for v in order]
    m = 0
    while m < g.n and degs[m] >= m:
        m += 1
    return sum(degs[:m]) == m * (m - 1) + sum(degs[m:]), m, order


def ref_k_max_partition(g):
    ok, m, order = ref_degree_split_data(g)
    if not ok:
        raise DomainError(f"not a split graph (n={g.n})")
    return KSPartition(g, frozenset(order[:m]), frozenset(order[m:]))


def ref_is_minimal(c):
    problems = validate(c)
    if problems:
        raise DomainError("not a set cover: " + "; ".join(problems))
    return all(ref_loyal_elements(c))


def ref_xy_isolates_universals(g):
    x_deg = [0] * g.nx
    y_deg = [0] * g.ny
    for x, y in g.edges:
        x_deg[x] += 1
        y_deg[y] += 1
    isolates = frozenset(y for y in range(g.ny) if y_deg[y] == 0)
    universals = frozenset(x for x in range(g.nx) if x_deg[x] == g.ny)
    return isolates, universals


def ref_poset_support(p):
    up_counts = [0] * p.n0
    for a, _ in p.below:
        up_counts[a] += 1
    full = frozenset(a for a in range(p.n0) if up_counts[a] == p.n1)
    return full, frozenset(range(p.n0)) - full


# ---------------------------------------------------------------------------
# helpers


def _objects(tag, rng):
    for n in range(7):
        for rec in census.records(tag, n):
            yield rec.obj
            for _ in range(3):
                yield relabeled(rec.obj, rng)


def _immutable(value) -> bool:
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable(v) for v in value)
    return isinstance(value, Value) and all(_immutable(v) for v in value._fields())


def _refusal(fn, *args):
    with pytest.raises(Exception) as caught:
        fn(*args)
    return type(caught.value), str(caught.value)


@pytest.fixture
def cleared():
    for name in MEMOS:
        getattr(classify, name).cache_clear()
    yield


# ---------------------------------------------------------------------------
# tests


def test_split_passes_match_the_uncached_references(cleared):
    rng = random.Random(18)
    checked = 0
    for g in _objects("split", rng):
        for _ in range(2):  # the second call reads the memo
            ok, m, order = classify._degree_split_data(g)
            assert (ok, m, list(order)) == ref_degree_split_data(g)
            assert type(order) is tuple
            p = classify.k_max_partition(g)
            assert p == ref_k_max_partition(g) and _immutable(p)
            assert classify.is_split(g)
            s_side, k_side = classify.s_max_sides(g)
            q = classify.s_max_partition(g)
            assert (sorted(q.S), sorted(q.K)) == (s_side, k_side)
            checked += 1
    assert checked > 2 * 4 * 90
    assert classify._degree_split_data.cache_info().hits > 0


def test_cover_passes_match_the_uncached_references(cleared):
    rng = random.Random(19)
    for c in _objects("cover", rng):
        for _ in range(2):
            loyal = classify.loyal_elements(c)
            assert loyal == ref_loyal_elements(c) and _immutable(loyal)
            assert classify.is_minimal(c) == ref_is_minimal(c) is True
            assert biject.default_reps(c) == tuple(min(s) for s in ref_loyal_elements(c))
            assert _immutable(classify._cover_loyal(c))
    assert classify._cover_loyal.cache_info().hits > 0


def test_xy_and_poset_passes_match_the_uncached_references(cleared):
    rng = random.Random(20)
    for h in _objects("xy", rng):  # with isolates in Y too
        for _ in range(2):
            got = classify.xy_isolates_universals(h)
            assert got == ref_xy_isolates_universals(h) and _immutable(got)
    for p in _objects("poset", rng):
        for _ in range(2):
            got = classify.poset_support(p)
            assert got == ref_poset_support(p) and _immutable(got)
    assert classify._xy_isolates_universals.cache_info().hits > 0
    assert classify._poset_support.cache_info().hits > 0


def test_refusals_are_raised_again_with_the_same_text(cleared):
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    not_minimal = SetCover(3, [[0], [0, 1], [2]])
    out_of_range = SetCover(2, [[0, 5], [1]])
    calls = [
        (classify.k_max_partition, c4, DomainError, "not a split graph (n=4)"),
        (classify.s_max_partition, c4, DomainError, "not a split graph (n=4)"),
        (classify.omega_alpha, c4, DomainError, "not a split graph (n=4)"),
        (classify.s_max_sides, c4, DomainError, "not a split graph (n=4)"),
        (biject.default_reps, not_minimal, DomainError, classify._NOT_MINIMAL),
        (classify.balance_cover, not_minimal, DomainError, classify._NOT_MINIMAL),
        (classify.loyal_elements, out_of_range, IndexError, "element outside 0..1 in set [0, 5]"),
        (classify.is_minimal, out_of_range, DomainError,
         "not a set cover: set 0 contains out-of-range element 5"),
    ]
    for fn, obj, error, text in calls:
        assert _refusal(fn, obj) == _refusal(fn, obj) == (error, text), fn.__name__
    assert classify.is_split(c4) is classify.is_split(c4) is False
    assert classify.is_minimal(not_minimal) is classify.is_minimal(not_minimal) is False


def test_memos_are_bounded():
    memos = {name for name, value in vars(classify).items() if hasattr(value, "cache_info")}
    assert memos == set(MEMOS)
    for name in MEMOS:
        maxsize = getattr(classify, name).cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize < 1 << 16, name
