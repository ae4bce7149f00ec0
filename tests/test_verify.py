"""The verification suites themselves: all asserting suites pass at small n,
and every public operation of classify and biject is exercised somewhere."""

import os
import random

import pytest

from splitkit import biject, census, classify, verify
from splitkit.canon import canon_key, relabel_graph
from splitkit.core import BipartitePoset, Graph, SetCover, UsageError, XYGraph

LONG = os.environ.get("SPLITKIT_LONG") == "1"


def test_roundtrip_suites_pass():
    for pair in verify.PAIR_NAMES:
        result = verify.verify_roundtrip(pair, 4)
        assert result.passed, (pair, result.failures[:5])
        assert result.checked > 0


def test_roundtrip_vacuous_at_zero():
    result = verify.verify_roundtrip("split-poset", 0)
    assert result.passed and result.checked == 2  # one object, two directions


def test_balance_suites_pass():
    for pair in verify.BALANCE_PAIR_NAMES:
        result = verify.verify_balance(pair, 4)
        assert result.passed, (pair, result.failures[:5])


def test_compilation_suites_pass():
    for tag in ("split", "cover", "xy", "poset"):
        for n in range(1, 6):
            result = verify.verify_compilation(tag, n)
            assert result.passed, (tag, n, result.failures[:5])


def test_compilation_counts_example():
    # 17 unbalanced split graphs on 5 vertices = 1+1+2+4+9
    result = verify.verify_compilation("split", 5)
    down_checks = result.checked - sum(
        verify.census.enumerate_split(t).count for t in range(5)
    )
    assert down_checks == 17


def test_choice_suites_pass():
    for name in verify.CHOICE_MAPS:
        result = verify.verify_choice_independence(name, 4)
        assert result.passed, (name, result.failures[:5])


def test_choice_vacuous_for_choiceless_map():
    result = verify.verify_choice_independence("split_to_xy", 3)
    assert result.passed and result.checked == 0


def test_counts_suite():
    result = verify.verify_counts(5)
    assert result.passed, result.failures
    unbalanced_column = [row["split_unbalanced"] for row in result.params["table"]]
    assert unbalanced_column == [0, 1, 2, 4, 8, 17]


def test_triangle_reports_full_agreement():
    result = verify.verify_triangle(4)
    assert result.params["agreement"] == 1.0
    assert result.params["total"] == 17
    assert result.passed  # informational: never asserts


def test_unknown_names_rejected():
    with pytest.raises(UsageError):
        verify.verify_roundtrip("split-split", 2)
    with pytest.raises(UsageError):
        verify.run_suite("nonsense", 2)
    with pytest.raises(UsageError):
        verify.verify_choice_independence("nonsense", 2)


@pytest.mark.skipif(not LONG, reason="set SPLITKIT_LONG=1 for the n=7..8 sweeps")
def test_suites_still_pass_beyond_gate():
    for pair in verify.BALANCE_PAIR_NAMES:
        assert verify.verify_roundtrip(pair, 7).passed
        assert verify.verify_balance(pair, 7).passed
    assert verify.verify_roundtrip("xy-shift", 7).passed  # XY(7) vs splits on 8
    for tag in ("split", "cover", "xy", "poset"):
        assert verify.verify_compilation(tag, 7).passed
        assert verify.verify_compilation(tag, 8).passed
    assert verify.verify_counts(8).passed  # includes the 557 total at n=8


def test_run_all_aggregates():
    results = verify.run_all(3)
    suites = {r.suite for r in results}
    assert suites == {"roundtrip", "balance", "compilation", "choice", "counts", "triangle"}
    assert all(r.passed for r in results if r.suite != "triangle")
    doc = results[0].to_doc()
    assert set(doc) == {"suite", "params", "checked", "failures"}


def test_every_operation_is_touched():
    # the suites above consume censuses; this checklist drives each public
    # operation directly at least once on a concrete object
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    cover = SetCover(3, ((0, 1), (1, 2)))
    xy = XYGraph(2, 1, frozenset({(0, 0), (1, 0)}))
    poset = BipartitePoset(2, 1, frozenset({(0, 0), (1, 0)}))

    assert classify.is_split(p4)
    classify.omega_alpha(p4)
    classify.k_max_partition(p4)
    p = classify.s_max_partition(p4)
    classify.trichotomy(p4, p)
    classify.swing_vertices(p4, p)
    classify.balance_split(p4)
    classify.loyal_vertices_split(p4)
    classify.loyal_elements(cover)
    classify.is_minimal(cover)
    classify.balance_cover(cover)
    classify.xy_isolates_universals(xy)
    classify.balance_xy(xy)
    classify.poset_support(poset)
    classify.balance_poset(poset)

    biject.split_to_cover(p4)
    biject.cover_to_split(cover)
    biject.split_to_xy(p4)
    biject.xy_to_split(xy)
    biject.split_to_poset(p4)
    biject.poset_to_split(poset)
    biject.xy_to_unbalanced_split(xy)
    biject.unbalanced_split_to_xy(star)
    biject.cover_to_poset(cover)
    biject.poset_to_cover(poset)
    biject.xy_to_cover(xy)
    biject.cover_to_xy(cover)
    biject.xy_to_poset(xy)
    biject.poset_to_xy(poset)
    biject.compile_split_down(star)
    biject.compile_split_up(p4, 6)
    biject.compile_cover_down(cover)
    biject.compile_cover_up(cover, 5)
    biject.compile_xy_down(xy)
    biject.compile_xy_up(xy, 5)
    biject.compile_poset_down(poset)
    biject.compile_poset_up(poset, 5)


# ---------------------------------------------------------------------------
# the key memo


def _relabeled(obj, rng):
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


def test_memo_keys_are_the_uncached_keys():
    rng = random.Random(16)
    verify._key.cache_clear()
    checked = 0
    for tag in ("split", "cover", "xy", "poset"):
        for n in range(7):
            for r in census.records(tag, n):
                objects = [r.obj] + [_relabeled(r.obj, rng) for _ in range(3)]
                for obj in objects + objects:  # the second pass reads the memo
                    assert verify._key(obj) == canon_key(obj) == r.key
                    checked += 1
    assert checked > 2000 and verify._key.cache_info().hits > 0


def test_memo_tells_classes_with_equal_fields_apart():
    edges = frozenset({(0, 0), (0, 1), (1, 1)})
    xy, poset = XYGraph(2, 2, edges), BipartitePoset(2, 2, edges)
    assert hash(xy) == hash(poset) and xy != poset
    for first, second in ((xy, poset), (poset, xy)):
        verify._key.cache_clear()
        verify._key(first)
        assert verify._key(second) == canon_key(second)
        assert verify._key(xy).data[:1] == b"x" and verify._key(poset).data[:1] == b"p"


def test_memo_is_bounded():
    maxsize = verify._key.cache_info().maxsize
    assert isinstance(maxsize, int) and 0 < maxsize < 1 << 16
