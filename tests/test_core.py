"""JSON serialization, normal forms and invariant validation."""

import json

import pytest

from splitkit.core import (
    BipartitePoset,
    Graph,
    KSPartition,
    ParseError,
    SetCover,
    ValidationError,
    XYGraph,
    parse_object,
    serialize_object,
    validate,
)


def test_parse_object_examples():
    cover = parse_object('{"class":"cover","n":3,"sets":[[0,1],[1,2]]}')
    assert cover == SetCover(3, ((0, 1), (1, 2)))

    xy = parse_object('{"class":"xy","nx":1,"ny":1,"edges":[[0,0]]}')
    assert xy == XYGraph(1, 1, frozenset({(0, 0)}))

    poset = parse_object('{"class":"poset","n0":2,"n1":1,"below":[[0,0],[1,0]]}')
    assert poset == BipartitePoset(2, 1, frozenset({(0, 0), (1, 0)}))


def test_roundtrip_field_identity():
    objects = [
        SetCover(0, ()),
        SetCover(4, ((0, 1), (1, 2), (2, 3))),
        XYGraph(0, 0, frozenset()),
        XYGraph(2, 3, frozenset({(0, 0), (1, 2), (0, 2)})),
        BipartitePoset(0, 0, frozenset()),
        BipartitePoset(3, 2, frozenset({(0, 0), (1, 0), (2, 1)})),
    ]
    for obj in objects:
        assert parse_object(serialize_object(obj)) == obj


def test_serialized_normal_form_is_sorted():
    # field identity <=> byte identity: scrambled input serializes the same
    a = SetCover(3, ((1, 0), (2, 1)))
    b = SetCover(3, ((1, 2), (0, 1)))
    assert serialize_object(a) == serialize_object(b)
    doc = json.loads(serialize_object(a))
    assert doc["sets"] == [[0, 1], [1, 2]]

    xy = XYGraph(2, 2, frozenset({(1, 1), (0, 0)}))
    assert json.loads(serialize_object(xy))["edges"] == [[0, 0], [1, 1]]


def test_parse_rejects_invalid_structure():
    with pytest.raises(ValidationError) as err:
        parse_object('{"class":"cover","n":3,"sets":[[0,1]]}')
    assert "element 2 uncovered" in str(err.value)

    with pytest.raises(ValidationError):
        parse_object('{"class":"xy","nx":1,"ny":1,"edges":[[0,5]]}')

    with pytest.raises(ValidationError) as err:
        parse_object('{"class":"poset","n0":1,"n1":1,"below":[]}')
    assert "empty down-set" in str(err.value)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_object("{not json")
    with pytest.raises(ParseError):
        parse_object('{"class":"widget","n":1}')
    with pytest.raises(ParseError):
        parse_object('{"n":3,"sets":[]}')
    with pytest.raises(ParseError):
        parse_object('{"class":"cover","n":3}')



_PAIR = "must be a pair, and each {} entry must be an integer; got"
SCHEMA_MESSAGES = {
    # a missing field, or a field or an entry of the wrong kind: each is named
    '{"class":"xy","nx":2,"ny":2}': """class 'xy': missing "edges" field""",
    '{"class":"cover","sets":[[0]]}': """class 'cover': missing "n" field""",
    '{"class":"poset","n1":1,"below":[]}': """class 'poset': missing "n0" field""",
    '{"class":"xy","nx":2,"ny":2,"edges":5}': "class 'xy': edges must be a list, got 5",
    '{"class":"cover","n":1,"sets":{}}': "class 'cover': sets must be a list, got {}",
    '{"class":"cover","n":3,"sets":[[0,1],3]}': (
        "class 'cover': sets[1] must be a list, and each sets entry must be an integer; got 3"
    ),
    '{"class":"xy","nx":2,"ny":2,"edges":[[0,0,1]]}': f"class 'xy': edges[0] {_PAIR.format('edges')} [0, 0, 1]",
    '{"class":"xy","nx":2,"ny":2,"edges":["ab"]}': f"""class 'xy': edges[0] {_PAIR.format('edges')} \"ab\"""",
    '{"class":"poset","n0":1,"n1":1,"below":[[0]]}': f"class 'poset': below[0] {_PAIR.format('below')} [0]",
    # a value shown in a message is cut to 40 characters
    '{"class":"xy","nx":1,"ny":1,"edges":[["%s",0]]}' % ("y" * 50): (
        """class 'xy': each edges entry must be an integer, got "%s...""" % ("y" * 36)
    ),
}


@pytest.mark.parametrize("text", list(SCHEMA_MESSAGES))
def test_schema_violations_name_the_field_or_entry(text):
    with pytest.raises(ParseError) as err:
        parse_object(text)
    assert str(err.value) == f"schema violation for {SCHEMA_MESSAGES[text]}"


def test_validate_cover_examples():
    assert validate(SetCover(3, ((0, 1),))) == ["union ≠ ground set: element 2 uncovered"]
    assert validate(SetCover(3, ((0, 1), (1, 2)))) == []
    dup = SetCover(2, ((0, 1), (0, 1)))
    assert any("duplicate" in v for v in validate(dup))
    bad = SetCover(2, ((0, 5),))
    assert any("out-of-range" in v for v in validate(bad))


def test_validate_names_the_first_few_missing_points_and_counts_the_rest():
    assert validate(SetCover(6, ())) == [f"union ≠ ground set: element {e} uncovered" for e in range(6)]
    assert validate(SetCover(7, ())) == [
        *(f"union ≠ ground set: element {e} uncovered" for e in range(5)),
        "union ≠ ground set: and 2 more elements uncovered",
    ]
    assert validate(BipartitePoset(1, 9, frozenset({(0, 3)}))) == [
        *(f"height-1 point {b} has empty down-set" for b in (0, 1, 2, 4, 5)),
        "and 3 more height-1 points have empty down-sets",
    ]


def test_validate_names_the_first_few_entries_out_of_range_and_counts_the_rest():
    # one line lists these entries, so the error text must not grow with them
    assert validate(SetCover(1, ((0, 1, 2, 3, 4, 5, 6),))) == [
        f"set 0 contains out-of-range element {e}" for e in range(1, 7)
    ]
    assert validate(SetCover(1, (tuple(range(20)),))) == [
        *(f"set 0 contains out-of-range element {e}" for e in range(1, 6)),
        "and 14 more out-of-range elements",
    ]
    assert validate(SetCover(2, ((0, 5, 6), (1, 7, 8), (9,)))) == [
        "set 0 contains out-of-range element 5",
        "set 0 contains out-of-range element 6",
        "set 1 contains out-of-range element 7",
        "set 1 contains out-of-range element 8",
        "set 2 contains out-of-range element 9",
    ]
    assert validate(XYGraph(1, 1, frozenset((0, y) for y in range(8)))) == [
        *(f"edge (0,{y}) outside X×Y" for y in range(1, 6)),
        "and 2 more edges outside X×Y",
    ]
    assert validate(BipartitePoset(1, 1, frozenset((a, 0) for a in range(9)))) == [
        *(f"relation ({a},0) outside height-0×height-1" for a in range(1, 6)),
        "and 3 more relations outside height-0×height-1",
    ]


def test_validate_partition_examples():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    good = KSPartition(p4, frozenset({1, 2}), frozenset({0, 3}))
    assert validate(good) == []

    bad_clique = KSPartition(p4, frozenset({0, 3}), frozenset({1, 2}))
    problems = validate(bad_clique)
    assert any("K not a clique" in v for v in problems)
    assert any("S not stable" in v for v in problems)

    overlapping = KSPartition(p4, frozenset({0, 1}), frozenset({1, 2, 3}))
    assert any("∩" in v for v in validate(overlapping))

    incomplete = KSPartition(p4, frozenset({1}), frozenset({0}))
    assert any("misses" in v for v in validate(incomplete))


def test_validate_is_total_on_odd_values():
    # arbitrary well-typed fields never raise, they report
    assert validate(Graph(2, (2, 0))) == ["adjacency not symmetric: (0,1)"]
    assert validate(Graph(1, (1,))) == ["self-loop at 0"]
    assert any("beyond" in v for v in validate(Graph(1, (2,))))
    assert validate(XYGraph(1, 1, frozenset({(0, 3)}))) != []
    assert validate(BipartitePoset(1, 2, frozenset({(0, 0)}))) == [
        "height-1 point 1 has empty down-set"
    ]


def test_n_zero_objects_are_legal():
    for text in (
        '{"class":"cover","n":0,"sets":[]}',
        '{"class":"xy","nx":0,"ny":0,"edges":[]}',
        '{"class":"poset","n0":0,"n1":0,"below":[]}',
    ):
        obj = parse_object(text)
        assert validate(obj) == []
