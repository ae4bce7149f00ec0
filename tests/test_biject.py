"""Hand-checked examples for every map, plus report/replay behavior."""

import hashlib
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
from splitkit.classify import loyal_elements
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


@pytest.mark.parametrize(
    "name, n", [("xy_to_split", None), ("xy_to_cover", None), ("xy_to_poset", None),
                ("compile_xy_down", None), ("compile_xy_up", 7)]
)
def test_named_xy_maps_name_the_inputs_isolates(name, n):
    # Y-vertex 2 is the isolate; canonically labeled it would be Y-vertex 0
    h = XYGraph(2, 3, frozenset({(0, 0), (0, 1), (1, 1)}))
    with pytest.raises(DomainError, match=r"^Y-vertices \[2\] are isolates$"):
        apply_named_map(name, h, n)


def test_the_shift_map_takes_y_isolates():
    out, _ = apply_named_map("xy_to_unbalanced_split", XYGraph(2, 3, frozenset({(0, 0), (0, 1), (1, 1)})))
    assert out.n == 6


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


# ---------------------------------------------------------------------------
# labelled outputs and refusals, pinned byte for byte


def _labelled(obj) -> str:
    """repr of ``obj`` with its sets sorted: two equal frozensets may list
    their members in different orders."""
    fields = tuple(sorted(v) if isinstance(v, frozenset) else v for v in obj._fields())
    return f"{type(obj).__name__}{fields!r}"


def _labelled_outputs(name: str) -> str:
    """sha256 of the labelled output of ``name`` on every census record at
    n <= 5, under every admissible choice (targets n+1 and n+2 for an up
    map), one line each; a record the map rejects gives its DomainError
    text instead."""
    spec = MAPS[name]
    lines = []
    for n in range(6):
        for rec in census.records(spec.domain, n):
            space = list(spec.choices(rec.obj)) if spec.choices else []
            for size in [(n + 1,), (n + 2,)] if spec.needs_n else [()]:
                for choice in space or [{}]:
                    try:
                        out = _labelled(spec.fn(rec.obj, *size, **choice))
                    except DomainError as exc:
                        out = f"DomainError: {exc}"
                    lines.append(f"{rec.key.hex} {size} {choice!r} {out}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


LABELLED_OUTPUTS = {
    'split_to_cover': '0263e53bf9d3dd7a069f45918f6286609ba7be7f9e3fba1d72e769ce053ad5e0',
    'cover_to_split': 'cfd307a8f22ce847b5dcbe2b58ed92af64fe82ce9b656ad10700c8bcc6e8146e',
    'split_to_xy': 'b5646d0502ac61e3be4783c0c25ea5df93f45f03b217041612eeaca3a2d61459',
    'xy_to_split': '703de3e5dbc725d286c0b757980f4d873dedd705459195cc9cea91e273f0d6b3',
    'split_to_poset': '6feceac901a649d8e1c588f8d0f87d6c0c7a4466f9e62f4192adf1c76ba07d12',
    'poset_to_split': '29e8b8bb54c552bf9f0e17aa410fcaf2972deab9df7e0ccd10ab72b4aa2177c8',
    'cover_to_xy': 'd3578e92a932970ea08fada685ba5b8350a58d1941f9960c6970c74e59661a06',
    'xy_to_cover': 'c04e5a6f1b42b4da22ce21a374b334f8f714ee5cbffc1a611f031815d9a0565c',
    'cover_to_poset': 'e8dc80d63ae9009239fcca187dbe638112a6b5c569b23e3fe574b8cea49b19d5',
    'poset_to_cover': 'ce4723b9ad4f35ceb38c898b50c60b6517a28bc85e341747399c602a067d24db',
    'xy_to_poset': '89a4fd45e6e780ed9a99486e6247c6540210828a94b2cb888510c36377ef2c97',
    'poset_to_xy': '6b3dbe843b510f7031c72ed2f7fe62fdff9bb0d7d127d2d9ce8ffb200bbdaa6d',
    'xy_to_unbalanced_split': '8d7061f584812e90ded5d4e6bb3c5373e2331bb28f124da14d1aa0d0ee85412f',
    'unbalanced_split_to_xy': 'e31093caf3db42896e0f9d5a29e809a419b6ad672a73d68445d10aff67fc8a90',
    'compile_split_down': 'e3d674bbfa7b393e6823bc10288a80c504f2eda9ca34e9d696e346ac644e4c02',
    'compile_split_up': 'ffcb32eb7e9bfb29c79f8cc23e559fa32ba5a13e101af7a8246efc50bc0c1d62',
    'compile_cover_down': '20085623c3640ed0251f189be981604fbf432b94e207974b180f929ea616f604',
    'compile_cover_up': '0b8092a8622907a0ed607bede73cfe81e369b44bc5fd234b8fec1217b6ee67fd',
    'compile_xy_down': 'd3fa03d511ca429ef5e4aae67480c4e8fce99d85c633ed3cac6e83c807de3bbe',
    'compile_xy_up': 'b99882ed2e5a94f8f1bcfeba28ddbc8fcc1fde2c81f396f8c368510089bb4da6',
    'compile_poset_down': '3a9eb7c79b18611782fc57ba909b6c1b25fcb898ab3acc947973ce80c3b0ee6f',
    'compile_poset_up': '7db5d265f25c93b13ad565ce0db8c778487decc7fc3521f205ab38009ac0b7e3',
}


@pytest.mark.parametrize("name", list(MAPS))
def test_labelled_outputs_are_pinned(name):
    # the map tests above compare keys; this pins the labels as well
    assert _labelled_outputs(name) == LABELLED_OUTPUTS[name]


# map -> (keyword, refusal of an inadmissible choice, refusal of any choice
# when there is nothing to choose)
_REFUSALS = {
    "unbalanced_split_to_xy": ("swing", "vertex {} is not a swing vertex of the K-max partition", None),
    "compile_split_down": ("swing", "vertex {} is not a swing vertex of the S-max partition", None),
    "compile_cover_down": ("extremal_set", "set {} does not have the extremal size", None),
    "compile_xy_down": ("universal", "X-vertex {} is not universal", None),
    "compile_poset_down": (
        "demote",
        "height-1 point {} is not comparable to exactly the full support points",
        "no height-1 point needs demoting for this poset",
    ),
    "compile_poset_up": (
        "promote",
        "height-0 point {} is not a full support point",
        "no full support point to promote in this poset",
    ),
}


def _refusal(fn, *args, **kwargs) -> str:
    with pytest.raises(UsageError) as info:
        fn(*args, **kwargs)
    return str(info.value)


def test_choice_maps_are_all_listed():
    rep_maps = {name for name, spec in MAPS.items() if spec.choices is biject._rep_choices}
    assert set(_REFUSALS) | rep_maps == {name for name, spec in MAPS.items() if spec.choices}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_inadmissible_choice_is_refused_and_none_is_the_first(name):
    spec = MAPS[name]
    keyword, refusal, nothing = _REFUSALS[name]
    seen = set()
    for n in range(5):
        for rec in census.records(spec.domain, n, spec.domain == "xy"):
            size = (n + 1,) if spec.needs_n else ()
            space = list(spec.choices(rec.obj))
            if space == [{}]:
                assert _refusal(spec.fn, rec.obj, *size, **{keyword: 0}) == nothing
                seen.add("nothing")
            elif space:
                first = spec.fn(rec.obj, *size, **space[0])
                assert spec.fn(rec.obj, *size, **{keyword: None}) == first
                admissible = {choice[keyword] for choice in space}
                bad = min(set(range(n + 2)) - admissible)
                assert _refusal(spec.fn, rec.obj, *size, **{keyword: bad}) == refusal.format(bad)
                seen.add("refusal")
    assert seen == ({"refusal", "nothing"} if nothing else {"refusal"})


@pytest.mark.parametrize("name", sorted(n for n, s in MAPS.items() if s.choices is biject._rep_choices))
def test_inadmissible_reps_are_refused_and_none_is_the_least(name):
    spec = MAPS[name]
    refused = 0
    for n in range(1, 5):
        for rec in census.records("cover", n):
            c, size = rec.obj, (n + 1,) if spec.needs_n else ()
            first = next(spec.choices(c))
            assert spec.fn(c, *size, reps=None) == spec.fn(c, *size, **first)
            reps = first["reps"]
            got = _refusal(spec.fn, c, *size, reps=reps[:-1])
            assert got == f"need one representative per set ({len(c.sets)}), got {len(reps) - 1}"
            for i, s in enumerate(c.sets):
                shared = [e for e in s if e not in loyal_elements(c)[i]]
                if shared:
                    bad = reps[:i] + (shared[0],) + reps[i + 1 :]
                    assert _refusal(spec.fn, c, *size, reps=bad) == f"element {shared[0]} is not loyal to set {i}"
                    refused += 1
                    break
    assert refused
