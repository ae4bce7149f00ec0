"""Census counts, oracle agreement, transport cardinality, determinism."""

import ast
import os
import sys
from pathlib import Path

import pytest

from splitkit import census, verify
from splitkit.canon import canon_key, canonical_object
from splitkit.census import (
    MAX_N,
    count_table,
    enumerate_cover,
    enumerate_poset,
    enumerate_split,
    enumerate_xy,
    iter_split,
    iter_xy,
)
from splitkit.classify import balance_of, xy_isolates_universals
from splitkit.core import Graph, SizeLimitError

import oracles
from oracles import naive_oracle, oracle_verdicts

UNBALANCED = [0, 1, 2, 4, 8, 17, 38, 94, 258]  # splits, n = 0..8
TOTALS = [1, 1, 2, 4, 9, 21, 56, 164]  # splits, n = 0..7
# (split graphs, XY-graphs) on n points past MAX_N: OEIS A048194 and its
# partial sums
PAST_THE_BOUND = {9: (2223, 3038), 10: (10766, 13804)}
LONG = os.environ.get("SPLITKIT_LONG") == "1"


def test_xy_counts():
    assert enumerate_xy(3, False).count == 8
    assert enumerate_xy(0, False).count == 1
    assert enumerate_xy(4, True).count == 9
    # unrestricted XY counts equal the unbalanced split counts shifted by one
    for n in range(7):
        assert enumerate_xy(n, False).count == UNBALANCED[n + 1]


def test_split_counts():
    for n in range(8):
        census = enumerate_split(n)
        assert census.count == TOTALS[n]
        assert census.unbalanced == UNBALANCED[n]
        assert census.balanced + census.unbalanced == census.count


def test_cover_poset_counts_match_split():
    for n in range(8):
        split = enumerate_split(n)
        for census in (enumerate_cover(n), enumerate_poset(n)):
            assert census.count == split.count
            assert census.balanced == split.balanced
            assert census.unbalanced == split.unbalanced
    assert enumerate_poset(0).count == 1


def test_filtered_xy_census_is_a_subset():
    for n in range(6):
        filtered = set(enumerate_xy(n, True).keys)
        unrestricted = set(enumerate_xy(n, False).keys)
        assert filtered <= unrestricted


def test_oracle_equivalence_everywhere_defined():
    for n in range(6):
        for tag in ("split", "cover"):
            oracle = naive_oracle(tag, n)
            master = enumerate_split(n) if tag == "split" else enumerate_cover(n)
            assert oracle.keys == master.keys
            assert (oracle.balanced, oracle.unbalanced) == (master.balanced, master.unbalanced)
    for n in range(7):
        oracle = naive_oracle("xy", n)
        master = enumerate_xy(n, False)
        assert oracle.keys == master.keys
        assert (oracle.balanced, oracle.unbalanced, oracle.out_of_domain) == (
            master.balanced,
            master.unbalanced,
            master.out_of_domain,
        )
        oracle = naive_oracle("poset", n)
        master = enumerate_poset(n)
        assert oracle.keys == master.keys
        assert (oracle.balanced, oracle.unbalanced) == (master.balanced, master.unbalanced)


def test_oracle_matches_the_xy_census_without_y_isolates():
    # that census is read off the level values, never canonicalized
    for n in range(7):
        verdicts = oracle_verdicts("xy", n)
        defined = sorted(key for key, balanced in verdicts.items() if balanced is not None)
        master = enumerate_xy(n, True)
        assert tuple(defined) == master.keys
        balanced = sum(1 for key in defined if verdicts[key])
        assert (balanced, len(defined) - balanced) == (master.balanced, master.unbalanced)
        assert master.out_of_domain == 0


def test_oracle_imports_only_core_and_canon():
    # an oracle that imports census, classify or biject code, or a helper of
    # the kernel, checks it with itself
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    from_canon = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
            # a module imported whole would lend the oracle its helpers
            assert not any(alias.name.split(".")[0] == "splitkit" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "no relative imports"
            imported.add(node.module)
            if node.module.split(".")[0] == "splitkit":
                assert not any(alias.name.startswith("_") for alias in node.names), node.module
            if node.module == "splitkit.canon":
                from_canon.update(alias.name for alias in node.names)
    package = {name for name in imported if name.split(".")[0] == "splitkit"}
    assert package == {"splitkit.core", "splitkit.canon"}
    assert from_canon <= {"canon_key", "relabel_graph"}
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in imported - package)


def test_oracle_bounds():
    with pytest.raises(SizeLimitError) as err:
        naive_oracle("split", 6)
    assert "5" in str(err.value)
    with pytest.raises(SizeLimitError):
        naive_oracle("poset", 7)


def test_enumeration_bound_named():
    with pytest.raises(SizeLimitError) as err:
        enumerate_split(MAX_N + 1)
    assert str(MAX_N) in str(err.value)


@pytest.mark.parametrize(
    "n", [9, pytest.param(10, marks=pytest.mark.skipif(not LONG, reason="set SPLITKIT_LONG=1 for n=10"))]
)
def test_levels_past_the_bound_count_oeis_a048194(monkeypatch, n):
    # the levels are deduplicated by the kernel; the paper's counts show
    # that it neither merges nor splits classes
    monkeypatch.setattr(census, "_levels", {})
    split = sum(len(census._level(nx, n - nx)) for nx in range(n + 1))
    xy = sum(len(census._level(nx, m)) for nx in range(n + 1) for m in range(n - nx + 1))
    assert (split, xy) == PAST_THE_BOUND[n]


def test_transport_does_not_merge_keys(monkeypatch):
    # a census pass raises if two of its objects share a key; a full first
    # pass at the largest everyday size exercises the check
    monkeypatch.setattr(census, "_records", {})
    assert sum(1 for _ in iter_split(6)) == 56
    monkeypatch.setattr(census, "_records", {})
    real = census.canonical_object
    monkeypatch.setattr(census, "canonical_object", lambda obj: (real(obj)[0], canon_key(Graph(0, ()))))
    with pytest.raises(RuntimeError, match="share key"):
        list(iter_split(3))


def test_census_keys_sorted_distinct():
    for n in range(6):
        census = enumerate_split(n)
        assert list(census.keys) == sorted(set(census.keys))


def test_replay_matches_the_first_pass(monkeypatch):
    monkeypatch.setattr(census, "_records", {})
    for tag in ("split", "cover", "xy", "poset"):
        first = list(census.iter_objects(tag, 5))
        stored = census.records(tag, 5)
        assert [r.obj for r in stored] == first
        assert list(census.iter_objects(tag, 5)) == first
        for r in stored:
            assert canon_key(r.obj) == r.key
            if tag == "xy" and xy_isolates_universals(r.obj)[0]:
                assert r.balance is None
            else:
                assert r.balance == balance_of(r.obj)
    # split graphs come straight from the generation, which stores no XY
    # records, and each census stores only itself
    assert set(census._records) == {(t, 5, False) for t in ("split", "cover", "xy", "poset")}


@pytest.mark.parametrize("tag", ["split", "cover", "xy", "poset"])
def test_a_pass_that_stops_early_stores_the_whole_census(monkeypatch, tag):
    monkeypatch.setattr(census, "_records", {})
    head = census.iter_objects(tag, 5)
    assert [next(head) for _ in range(3)]
    head.close()
    assert set(census._records) == {(tag, 5, False)}
    stored = census._records[tag, 5, False]
    monkeypatch.setattr(census, "_records", {})
    assert census.records(tag, 5) == stored
    assert len(stored) == (21 if tag != "xy" else 38)


def _count_work(monkeypatch):
    """Empty census stores, and lists that collect the key of every
    canonicalization and the level of every augmentation by the census."""
    monkeypatch.setattr(census, "_records", {})
    monkeypatch.setattr(census, "_levels", {})
    canonicalized, augmented = [], []
    real_canon, real_augment = census.canonical_object, census._augment

    def counting_canon(obj):
        out = real_canon(obj)
        canonicalized.append(out[1])
        return out

    def counting_augment(parents, m):
        augmented.append(m + 1)
        return real_augment(parents, m)

    monkeypatch.setattr(census, "canonical_object", counting_canon)
    monkeypatch.setattr(census, "_augment", counting_augment)
    return canonicalized, augmented


def _built_once(augmented, n):
    """Whether the stored levels are those that the censuses at n read or
    build on (nx + m <= n), each level past 0 built by one augmentation."""
    wanted = [(nx, m) for nx in range(n + 1) for m in range(n - nx + 1)]
    stored = [(nx, m) for nx, levels in census._levels.items() for m in range(len(levels))]
    return sorted(stored) == wanted and sorted(augmented) == sorted(m for _, m in wanted if m)


def test_verify_canonicalizes_each_census_object_once(monkeypatch):
    """One census pass per process: verify replays the stored records."""
    canonicalized, augmented = _count_work(monkeypatch)
    results = verify.run_all(5)
    assert all(r.passed for r in results if r.suite != "triangle")
    # XY records without isolates in Y are read off the levels, uncanonicalized;
    # the unrestricted XY census shares them and canonicalizes only the padded
    # levels, the objects with isolates in Y
    stored = [
        r.key
        for (tag, _, no_isolates), records in census._records.items()
        if not no_isolates
        for r in records
        if tag != "xy" or r.balance is None
    ]
    censuses = [census.enumerate_class(tag, n) for tag in ("split", "cover", "poset") for n in range(6)]
    census_keys = [k for c in censuses for k in c.keys]
    for n in range(6):
        census_keys += set(enumerate_xy(n, False).keys) - set(enumerate_xy(n, True).keys)
    assert sorted(canonicalized) == sorted(stored) == sorted(census_keys)
    # one augmentation per level that the censuses at n <= 5 read
    assert _built_once(augmented, 5)


@pytest.mark.parametrize("first_without_isolates", [True, False])
def test_xy_census_without_isolates_is_the_unrestricted_one_with_a_balance(monkeypatch, first_without_isolates):
    canonicalized, augmented = _count_work(monkeypatch)
    census.records("xy", 6, first_without_isolates)
    # a one-shot census does only its own work and stores only itself: the
    # census without isolates in Y is read off the levels, and the
    # unrestricted one canonicalizes each of its 94 - 56 objects with
    # isolates once
    assert len(canonicalized) == (0 if first_without_isolates else 94 - 56)
    assert _built_once(augmented, 6)
    assert set(census._records) == {("xy", 6, first_without_isolates)}
    census.records("xy", 6, not first_without_isolates)
    unrestricted = census.records("xy", 6, False)
    assert census.records("xy", 6, True) == tuple(r for r in unrestricted if r.balance is not None)
    assert canonicalized == [r.key for r in unrestricted if r.balance is None]
    assert len(unrestricted) == 94 and len(canonicalized) == 94 - 56
    assert _built_once(augmented, 6)


def test_xy_records_read_off_the_levels_are_the_canonicalized_ones(monkeypatch):
    """Each XY record without isolates in Y equals the level's XY-graph
    put through ``canonical_object`` again, as the census once built it."""
    monkeypatch.setattr(census, "_records", {})
    for n in range(MAX_N + 1):
        reference = []
        for nx in range(n, -1, -1):
            for values in census._level(nx, n - nx):
                obj, key = canonical_object(census._xy_graph(nx, n - nx, values))
                reference.append(census.Record(obj, key, balance_of(obj)))
        assert census.records("xy", n, True) == tuple(reference)


def test_a_transported_census_builds_only_itself(monkeypatch):
    """A cover census canonicalizes its covers and nothing it passes through."""
    canonicalized, augmented = _count_work(monkeypatch)
    assert len(census.records("cover", 6)) == 56
    assert len(canonicalized) == 56 and {key.class_tag for key in canonicalized} == {"cover"}
    assert _built_once(augmented, 6)
    assert set(census._records) == {("cover", 6, False)}


def test_balanced_objects_at_four_are_the_images_of_p4():
    from splitkit import biject
    from splitkit.canon import canon_key
    from splitkit.classify import balance_of
    from splitkit.census import iter_cover, iter_poset, iter_xy
    from splitkit.core import Graph

    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    balanced_covers = [c for c in iter_cover(4) if balance_of(c).is_balanced]
    assert [canon_key(c) for c in balanced_covers] == [canon_key(biject.split_to_cover(p4))]

    balanced_posets = [p for p in iter_poset(4) if balance_of(p).is_balanced]
    assert [canon_key(p) for p in balanced_posets] == [canon_key(biject.split_to_poset(p4))]

    balanced_xy = [h for h in iter_xy(4, True) if balance_of(h).is_balanced]
    assert [canon_key(h) for h in balanced_xy] == [canon_key(biject.split_to_xy(p4))]


def test_count_table():
    rows = count_table(5)
    assert [r["n"] for r in rows] == [0, 1, 2, 3, 4, 5]
    for r in rows:
        n = r["n"]
        assert r["split_total"] == TOTALS[n]
        assert r["cover_total"] == r["poset_total"] == r["xy_total"] == r["split_total"]
        assert r["cumulative_below"] == r["split_unbalanced"]
        assert r["xy_all_total"] == UNBALANCED[n + 1]
