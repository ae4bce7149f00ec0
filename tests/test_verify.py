"""The verification suites themselves: all asserting suites pass at small n,
and every public operation of classify and biject is exercised somewhere."""

import os
import random

import pytest

from splitkit import biject, canon, census, classify, verify
from splitkit.canon import canon_key
from splitkit.core import BipartitePoset, Graph, SetCover, UsageError, XYGraph

from oracles import relabeled

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


def test_memo_keys_are_the_uncached_keys():
    rng = random.Random(16)
    verify._key.cache_clear()
    checked = 0
    for tag in ("split", "cover", "xy", "poset"):
        for n in range(7):
            for r in census.records(tag, n):
                objects = [r.obj] + [relabeled(r.obj, rng) for _ in range(3)]
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


# ---------------------------------------------------------------------------
# the image handoff between the roundtrip and balance suites


def ref_roundtrip_failures(pair, max_n):
    """The roundtrip loop of a pair as it was before the handoff."""
    dom, fwd, cod, inv = verify._PAIRS[pair]
    failures = []
    for n in range(max_n + 1):
        for rec in census.records(dom, n, require_no_y_isolates=(dom == "xy")):
            back_key = canon_key(inv(fwd(rec.obj)))
            if back_key != rec.key:
                failures.append((rec.key.hex, rec.key.hex, back_key.hex))
        for rec in census.records(cod, n, require_no_y_isolates=(cod == "xy")):
            back_key = canon_key(fwd(inv(rec.obj)))
            if back_key != rec.key:
                failures.append((rec.key.hex, rec.key.hex, back_key.hex))
    return failures


def ref_balance_failures(pair, max_n):
    """The balance loop of a pair as it was before the handoff."""
    dom, fwd, cod, inv = verify._PAIRS[pair]
    failures = []
    for n in range(max_n + 1):
        for tag, fn in ((dom, fwd), (cod, inv)):
            for rec in census.records(tag, n, require_no_y_isolates=(tag == "xy")):
                got = classify.balance_of(fn(rec.obj)).value
                if rec.balance.value != got:
                    failures.append((rec.key.hex, rec.balance.value, got))
    return failures


def _docs(results):
    return [r.to_doc() for r in results]


def test_suites_run_alone_give_the_records_of_run_all():
    everything = _docs(verify.run_all(6))
    roundtrip = _docs(verify.run_suite("roundtrip", 6))
    balance = _docs(verify.run_suite("balance", 6))
    assert everything[: len(roundtrip) + len(balance)] == roundtrip + balance
    assert [d["suite"] for d in everything[len(roundtrip) + len(balance):]] == (
        ["compilation"] * 24 + ["choice"] * len(verify.CHOICE_MAPS) + ["counts", "triangle"]
    )


def test_a_wrong_inverse_fails_both_suites_as_the_old_loops_did(monkeypatch):
    dom, fwd, cod, _ = verify._PAIRS["xy-poset"]
    # every poset goes to the edgeless XY-graph with all its points in X
    monkeypatch.setitem(verify._PAIRS, "xy-poset", (dom, fwd, cod, lambda p: XYGraph(p.n0 + p.n1, 0, ())))
    want_roundtrip = ref_roundtrip_failures("xy-poset", 4)
    want_balance = ref_balance_failures("xy-poset", 4)
    assert want_roundtrip and want_balance
    index = list(verify._PAIRS).index("xy-poset")
    results = verify.run_all(4)
    shared = (results[index], results[len(verify.PAIR_NAMES) + index])
    alone = (verify.verify_roundtrip("xy-poset", 4), verify.verify_balance("xy-poset", 4))
    for roundtrip, balance in (shared, alone):
        assert (roundtrip.suite, roundtrip.params["pair"]) == ("roundtrip", "xy-poset")
        assert (balance.suite, balance.params["pair"]) == ("balance", "xy-poset")
        assert roundtrip.failures == want_roundtrip
        assert balance.failures == want_balance


def test_each_census_object_is_mapped_once_per_direction(monkeypatch):
    # counts, not times: run_all(5) from empty census stores and memos
    monkeypatch.setattr(census, "_records", {})
    monkeypatch.setattr(census, "_levels", {})
    for memo in [verify._key] + [v for v in vars(classify).values() if hasattr(v, "cache_clear")]:
        memo.cache_clear()
    calls = {}

    def counted(label, fn):
        def run(obj):
            calls[label] = calls.get(label, 0) + 1
            return fn(obj)
        return run

    for pair, (dom, fwd, cod, inv) in list(verify._PAIRS.items()):
        monkeypatch.setitem(
            verify._PAIRS, pair, (dom, counted((pair, "fwd"), fwd), cod, counted((pair, "inv"), inv))
        )
    degree = classify._degree_split_data
    graphs = set()

    def recorded(g):
        graphs.add(g)
        return degree(g)

    monkeypatch.setattr(classify, "_degree_split_data", recorded)
    results = verify.run_all(5)
    assert all(r.passed for r in results)
    for pair, (dom, _, cod, _) in verify._PAIRS.items():
        objects = sum(len(verify._iter(tag, n)) for tag in (dom, cod) for n in range(6))
        assert calls[(pair, "fwd")] == calls[(pair, "inv")] == objects, pair
    assert 0 < degree.cache_info().misses <= len(graphs)


def test_run_all_keys_covers_by_their_row_multiset(monkeypatch):
    # counts, not times: run_all(6) from empty census stores, memos and
    # kernel cache; with covers searched in their given row order it made
    # 1,119 searches, and 747 with their loyal identity blocks searched too
    monkeypatch.setattr(census, "_records", {})
    monkeypatch.setattr(census, "_levels", {})
    for module in (canon, classify, verify):
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
    results = verify.run_all(6)
    assert all(r.passed for r in results if r.suite != "triangle")
    assert canon._canon_rows.cache_info().misses <= 633
