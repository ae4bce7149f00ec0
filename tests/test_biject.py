"""Hand-checked examples for every map, plus report/replay behavior."""

from collections import Counter

import pytest

from splitkit import biject, census, verify
from splitkit.biject import (
    MAPS,
    ROUTES,
    apply_named_map,
    compile_cover_down,
    compile_cover_up,
    compile_poset_down,
    compile_poset_up,
    compile_split_down,
    compile_split_up,
    compile_xy_down,
    compile_xy_up,
    cover_to_poset,
    cover_to_split,
    cover_to_xy,
    poset_to_cover,
    poset_to_split,
    poset_to_xy,
    split_to_cover,
    split_to_poset,
    split_to_xy,
    unbalanced_split_to_xy,
    xy_to_cover,
    xy_to_poset,
    xy_to_split,
    xy_to_unbalanced_split,
)
from splitkit.canon import canon_key
from splitkit.core import (
    BipartitePoset,
    DomainError,
    Graph,
    SetCover,
    UsageError,
    XYGraph,
)


def graph(n, edges):
    return Graph.from_edges(n, edges)


def iso(a, b):
    return canon_key(a) == canon_key(b)


P3 = graph(3, [(0, 1), (1, 2)])
P4 = graph(4, [(0, 1), (1, 2), (2, 3)])
K1 = graph(1, [])
STAR = graph(4, [(0, 1), (0, 2), (0, 3)])
V_POSET = BipartitePoset(2, 1, frozenset({(0, 0), (1, 0)}))
CHAIN2 = BipartitePoset(1, 1, frozenset({(0, 0)}))


def test_split_to_cover_examples():
    assert iso(split_to_cover(P3), SetCover(3, ((0, 1), (1, 2))))
    assert iso(split_to_cover(K1), SetCover(1, ((0,),)))
    assert iso(split_to_cover(P4), SetCover(4, ((0, 1), (2, 3))))


def test_cover_to_split_examples():
    assert iso(cover_to_split(SetCover(3, ((0, 1), (1, 2)))), P3)
    assert iso(cover_to_split(SetCover(1, ((0,),))), K1)
    # row alignment at n=4: transport back and forth is the identity
    from splitkit.census import iter_split

    for g in iter_split(4):
        assert iso(cover_to_split(split_to_cover(g)), g)


def test_split_to_xy_examples():
    h = split_to_xy(P4)
    assert (h.nx, h.ny) == (2, 2)
    assert iso(h, XYGraph(2, 2, frozenset({(0, 0), (1, 1)})))

    h = split_to_xy(K1)
    assert (h.nx, h.ny) == (1, 0)

    h = split_to_xy(STAR)
    assert (h.nx, h.ny) == (3, 1)
    assert len(h.edges) == 3


def test_xy_to_split_requires_no_isolates():
    with pytest.raises(DomainError):
        xy_to_split(XYGraph(1, 2, frozenset({(0, 0)})))
    assert iso(xy_to_split(split_to_xy(P4)), P4)


def test_split_to_poset_examples():
    p = split_to_poset(P3)
    assert iso(p, V_POSET)
    empty5 = graph(5, [])
    p = split_to_poset(empty5)
    assert (p.n0, p.n1) == (5, 0)
    assert iso(poset_to_split(p), empty5)


def test_shift_examples():
    single_edge = XYGraph(1, 1, frozenset({(0, 0)}))
    assert iso(xy_to_unbalanced_split(single_edge), P3)

    lonely_x = XYGraph(1, 0, frozenset())
    assert iso(xy_to_unbalanced_split(lonely_x), graph(2, []))

    # the 8 XY-graphs on 3 vertices hit the 8 unbalanced splits on 4 exactly
    from splitkit.census import iter_split, iter_xy
    from splitkit.classify import balance_split

    images = {canon_key(xy_to_unbalanced_split(h)) for h in iter_xy(3)}
    unbalanced4 = {
        canon_key(g) for g in iter_split(4) if balance_split(g).value == "unbalanced"
    }
    assert images == unbalanced4 and len(images) == 8


def test_unbalanced_split_to_xy_errors():
    with pytest.raises(DomainError):
        unbalanced_split_to_xy(P4)
    with pytest.raises(UsageError):
        unbalanced_split_to_xy(STAR, swing=99)


def test_cover_poset_examples():
    assert iso(cover_to_poset(SetCover(3, ((0, 1), (1, 2)))), V_POSET)
    assert iso(cover_to_poset(SetCover(1, ((0,),))), BipartitePoset(1, 0, frozenset()))
    assert iso(poset_to_cover(V_POSET), SetCover(3, ((0, 2), (1, 2))))


def test_xy_cover_examples():
    matching = XYGraph(2, 2, frozenset({(0, 0), (1, 1)}))
    assert iso(xy_to_cover(matching), SetCover(4, ((0, 1), (2, 3))))

    fan = XYGraph(1, 2, frozenset({(0, 0), (0, 1)}))
    assert iso(xy_to_cover(fan), SetCover(3, ((0, 1, 2),)))

    lonely_x = XYGraph(1, 0, frozenset())
    assert iso(xy_to_cover(lonely_x), SetCover(1, ((0,),)))

    assert iso(cover_to_xy(SetCover(4, ((0, 1), (2, 3)))), matching)


def test_xy_poset_examples():
    single_edge = XYGraph(1, 1, frozenset({(0, 0)}))
    assert iso(xy_to_poset(single_edge), CHAIN2)

    two_chains = XYGraph(2, 2, frozenset({(0, 0), (1, 1)}))
    assert iso(
        xy_to_poset(two_chains),
        BipartitePoset(2, 2, frozenset({(0, 0), (1, 1)})),
    )

    vee = XYGraph(2, 1, frozenset({(0, 0), (1, 0)}))
    assert iso(xy_to_poset(vee), V_POSET)
    assert iso(poset_to_xy(V_POSET), vee)


def test_compile_split_examples():
    assert iso(compile_split_down(STAR), P3)
    assert iso(compile_split_down(K1), graph(0, []))
    with pytest.raises(DomainError):
        compile_split_down(P4)

    up = compile_split_up(P3, 4)
    assert up.n == 4
    assert iso(compile_split_down(up), P3)
    with pytest.raises(DomainError):
        compile_split_up(P4, 4)


def test_compile_cover_examples():
    whole = SetCover(4, ((0, 1, 2, 3),))
    assert iso(compile_cover_down(whole), SetCover(0, ()))

    up = compile_cover_up(SetCover(1, ((0,),)), 2)
    assert iso(up, SetCover(2, ((0,), (1,))))
    from splitkit.classify import balance_cover

    assert balance_cover(up).value == "unbalanced"

    with pytest.raises(DomainError):
        compile_cover_down(SetCover(4, ((0, 1), (2, 3))))  # balanced (P4's cover)
    with pytest.raises(DomainError):
        compile_cover_down(SetCover(4, ((0, 1), (1, 2), (2, 3))))  # not minimal


def test_compile_xy_examples():
    fan = XYGraph(1, 2, frozenset({(0, 0), (0, 1)}))
    down = compile_xy_down(fan)
    assert (down.nx, down.ny) == (0, 0)

    up = compile_xy_up(XYGraph(0, 0, frozenset()), 3)
    assert iso(up, fan)

    with pytest.raises(DomainError):
        compile_xy_down(XYGraph(2, 2, frozenset({(0, 0), (1, 1)})))  # balanced


def test_compile_poset_examples():
    assert iso(compile_poset_down(CHAIN2), BipartitePoset(1, 0, frozenset()))

    up = compile_poset_up(BipartitePoset(1, 0, frozenset()), 2)
    assert iso(up, CHAIN2)

    four_antichain = BipartitePoset(4, 0, frozenset())
    assert iso(compile_poset_down(four_antichain), BipartitePoset(0, 0, frozenset()))

    up = compile_poset_up(BipartitePoset(0, 0, frozenset()), 2)
    assert iso(up, BipartitePoset(2, 0, frozenset()))

    with pytest.raises(DomainError):
        compile_poset_down(BipartitePoset(2, 2, frozenset({(0, 0), (1, 1)})))


def test_compile_poset_demote_branch():
    # V-poset: both minima are full support, the maximum sits above exactly
    # them, so the down map demotes it to an isolated point
    down = compile_poset_down(V_POSET)
    assert iso(down, BipartitePoset(1, 0, frozenset()))
    back = compile_poset_up(down, 3)
    assert iso(back, V_POSET)


def test_apply_named_map_reports():
    out, report = apply_named_map("split_to_cover", P3)
    assert report.input_key == canon_key(P3)
    assert report.output_key == canon_key(out)
    assert report.choices == ()

    out, report = apply_named_map("cover_to_split", SetCover(3, ((0, 1), (1, 2))))
    assert len(report.choices) == 2
    assert all(name.startswith("rep[") for name, _ in report.choices)

    out, report = apply_named_map("compile_split_up", P3, 5)
    assert out.n == 5

    with pytest.raises(UsageError):
        apply_named_map("compile_split_up", P3)  # missing target size
    with pytest.raises(UsageError):
        apply_named_map("split_to_cover", SetCover(1, ((0,),)))
    with pytest.raises(UsageError):
        apply_named_map("no_such_map", P3)


def test_report_choices_replay():
    # replaying the recorded choices on the same labeled input reproduces
    # the same labeled output
    from splitkit.canon import canonical_object

    cover = SetCover(4, ((0, 1, 2, 3),))
    canon_in, _ = canonical_object(cover)
    out, report = apply_named_map("cover_to_split", cover)
    reps = tuple(v for _, v in report.choices)
    replay = cover_to_split(canon_in, reps=reps)
    assert canonical_object(replay)[0] == out

    g = STAR
    canon_in, _ = canonical_object(g)
    out, report = apply_named_map("compile_split_down", g)
    swing = dict(report.choices)["swing"]
    replay = compile_split_down(canon_in, swing=swing)
    assert canonical_object(replay)[0] == out


def test_map_registry_is_complete():
    for name, spec in MAPS.items():
        assert spec.fn.__name__ == name
        assert spec.domain in ("split", "cover", "xy", "poset")
        assert spec.codomain in ("split", "cover", "xy", "poset")
        inverse = MAPS[spec.inverse]
        assert inverse.inverse == name
        assert (inverse.domain, inverse.codomain) == (spec.codomain, spec.domain)
    # one CLI (--from, --to) route per map, compile maps excepted
    routed = Counter(ROUTES.values())
    assert routed == Counter(name for name in MAPS if not name.startswith("compile_"))
    assert verify.CHOICE_MAPS == (
        "cover_to_split",
        "cover_to_xy",
        "cover_to_poset",
        "unbalanced_split_to_xy",
        "compile_split_down",
        "compile_cover_down",
        "compile_cover_up",
        "compile_xy_down",
        "compile_poset_down",
        "compile_poset_up",
    )


def test_first_choice_is_the_default_and_its_report_replays():
    for name, spec in MAPS.items():
        if spec.choices is None:
            continue
        for n in range(6):
            for rec in census.records(spec.domain, n, spec.domain == "xy"):
                first = next(spec.choices(rec.obj), None)
                if first is None:
                    continue
                size = (n + 1,) if spec.needs_n else ()
                assert spec.fn(rec.obj, *size, **first) == spec.fn(rec.obj, *size), (name, rec.key.hex)
                # each label replays as its keyword, rep[i] as entry i of reps
                labels = apply_named_map(name, rec.obj, *size)[1].choices
                if "reps" in first:
                    assert [label for label, _ in labels] == [f"rep[{i}]" for i in range(len(labels))]
                    labels = [("reps", tuple(v for _, v in labels))]
                assert dict(labels) == first, (name, rec.key.hex)


def test_named_map_does_not_enumerate_the_choice_space(monkeypatch):
    # the product of loyal elements is left unbuilt: only the default is used
    monkeypatch.setattr(biject, "itertools", None)
    out, report = apply_named_map("cover_to_split", SetCover(5, ((0, 1), (2, 3, 4))))
    assert [label for label, _ in report.choices] == ["rep[0]", "rep[1]"] and out.n == 5
