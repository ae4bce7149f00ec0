"""Behaviour of the value classes: constructors, equality, hashing,
immutability, ordering and repr."""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import subprocess
import sys

import pytest

import splitkit
from splitkit.biject import MAPS, MapReport, MapSpec, compile_cover_up
from splitkit.canon import GraphCanon, MatrixCanonForm
from splitkit.census import Census, Record
from splitkit.core import (
    Balance,
    BipartitePoset,
    CanonicalKey,
    Graph,
    KSPartition,
    SetCover,
    SplitAnalysis,
    XYGraph,
)
from splitkit.verify import SuiteResult

KEY = CanonicalKey("cover", b"c\x00\x01")
PATH = Graph(3, (2, 5, 2))


def _instances():
    """For each value class, a function that builds one instance, with its repr."""
    return [
        (lambda: Graph(3, (2, 5, 2)), "Graph(n=3, adj=(2, 5, 2))"),
        (
            lambda: KSPartition(PATH, frozenset({1}), frozenset({0, 2})),
            "KSPartition(graph=Graph(n=3, adj=(2, 5, 2)), K=frozenset({1}), S=frozenset({0, 2}))",
        ),
        (
            lambda: SplitAnalysis(2, 2, "unbalanced_S_max", 1),
            "SplitAnalysis(omega=2, alpha=2, case='unbalanced_S_max', swing=1)",
        ),
        (lambda: SetCover(2, ((1, 0), (1,))), "SetCover(n=2, sets=((0, 1), (1,)))"),
        (lambda: XYGraph(1, 2, [(0, 1)]), "XYGraph(nx=1, ny=2, edges=frozenset({(0, 1)}))"),
        (lambda: BipartitePoset(2, 1, [(1, 0)]), "BipartitePoset(n0=2, n1=1, below=frozenset({(1, 0)}))"),
        (lambda: Balance("unbalanced", 3), "Balance(value='unbalanced', witness=3)"),
        (lambda: CanonicalKey("cover", b"c\x00\x01"), "CanonicalKey(class_tag='cover', data=b'c\\x00\\x01')"),
        (
            lambda: MatrixCanonForm(1, 2, (1,), (0,), (1, 0)),
            "MatrixCanonForm(row_count=1, col_count=2, values=(1,), row_perm=(0,), col_perm=(1, 0))",
        ),
        (
            lambda: GraphCanon(KEY, (0,)),
            "GraphCanon(key=CanonicalKey(class_tag='cover', data=b'c\\x00\\x01'), order=(0,))",
        ),
        (
            lambda: Census("cover", 1, (KEY,), 1, 0, 2),
            "Census(class_tag='cover', n=1, keys=(CanonicalKey(class_tag='cover', data=b'c\\x00\\x01'),), "
            "balanced=1, unbalanced=0, out_of_domain=2)",
        ),
        (
            lambda: Record(SetCover(1, ((0,),)), KEY, Balance("balanced")),
            "Record(obj=SetCover(n=1, sets=((0,),)), key=CanonicalKey(class_tag='cover', data=b'c\\x00\\x01'), "
            "balance=Balance(value='balanced', witness=None))",
        ),
        (
            lambda: MapReport(KEY, KEY, (("rep[0]", 1),)),
            "MapReport(input_key=CanonicalKey(class_tag='cover', data=b'c\\x00\\x01'), "
            "output_key=CanonicalKey(class_tag='cover', data=b'c\\x00\\x01'), choices=(('rep[0]', 1),))",
        ),
        (
            lambda: SuiteResult("counts", {"max_n": 1}, 2, [("k", "e", "o")]),
            "SuiteResult(suite='counts', params={'max_n': 1}, checked=2, failures=[('k', 'e', 'o')])",
        ),
    ]


INSTANCES = _instances()
IDS = [text.split("(")[0] for _, text in INSTANCES]
FROZEN = [(make, text) for make, text in INSTANCES if not text.startswith("SuiteResult")]
FROZEN_IDS = [i for i in IDS if i != "SuiteResult"]

REQUIRED = inspect.Parameter.empty
FRESH = object()  # a default built anew for each instance

SIGNATURES = {
    Graph: [("n", REQUIRED), ("adj", REQUIRED)],
    KSPartition: [("graph", REQUIRED), ("K", REQUIRED), ("S", REQUIRED)],
    SplitAnalysis: [("omega", REQUIRED), ("alpha", REQUIRED), ("case", None), ("swing", None)],
    SetCover: [("n", REQUIRED), ("sets", REQUIRED)],
    XYGraph: [("nx", REQUIRED), ("ny", REQUIRED), ("edges", REQUIRED)],
    BipartitePoset: [("n0", REQUIRED), ("n1", REQUIRED), ("below", REQUIRED)],
    Balance: [("value", REQUIRED), ("witness", None)],
    CanonicalKey: [("class_tag", REQUIRED), ("data", REQUIRED)],
    MatrixCanonForm: [(f, REQUIRED) for f in ("row_count", "col_count", "values", "row_perm", "col_perm")],
    GraphCanon: [("key", REQUIRED), ("order", REQUIRED)],
    Census: [(f, REQUIRED) for f in ("class_tag", "n", "keys", "balanced", "unbalanced")] + [("out_of_domain", 0)],
    Record: [("obj", REQUIRED), ("key", REQUIRED), ("balance", REQUIRED)],
    MapReport: [("input_key", REQUIRED), ("output_key", REQUIRED), ("choices", REQUIRED)],
    SuiteResult: [("suite", REQUIRED), ("params", REQUIRED), ("checked", REQUIRED), ("failures", FRESH)],
}


@pytest.mark.parametrize("make,text", INSTANCES, ids=IDS)
def test_repr_names_every_field(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("cls,params", SIGNATURES.items(), ids=[c.__name__ for c in SIGNATURES])
def test_constructor_signature(cls, params):
    got = list(inspect.signature(cls).parameters.values())
    assert all(p.kind == p.POSITIONAL_OR_KEYWORD for p in got)
    assert [p.name for p in got] == [name for name, _ in params]
    for p, (_, default) in zip(got, params):
        if default is FRESH:
            assert p.default is not REQUIRED
        else:
            assert p.default == default and type(p.default) is type(default)


def test_keyword_construction_equals_positional():
    assert Graph(n=1, adj=(0,)) == Graph(1, (0,))
    assert XYGraph(ny=2, nx=1, edges=[(0, 1)]) == XYGraph(1, 2, frozenset({(0, 1)}))
    assert Census("xy", 2, (), 1, 0, out_of_domain=3).out_of_domain == 3


@pytest.mark.parametrize("make,text", FROZEN, ids=FROZEN_IDS)
def test_equal_fields_compare_and_hash_equal(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_inequality_by_fields_and_by_type():
    assert Graph(2, (2, 1)) != Graph(2, (0, 0))
    assert SetCover(2, ((0, 1),)) != SetCover(3, ((0, 1),))
    assert CanonicalKey("xy", b"x") != CanonicalKey("poset", b"x")
    edges = frozenset({(0, 0), (1, 1)})
    assert XYGraph(2, 2, edges) != BipartitePoset(2, 2, edges)
    assert BipartitePoset(2, 2, edges) != XYGraph(2, 2, edges)
    assert Graph(0, ()) != SetCover(0, ())
    assert Balance("balanced") != ("balanced", None)
    assert len({XYGraph(2, 2, edges), BipartitePoset(2, 2, edges)}) == 2


def test_suite_result_compares_by_fields_and_is_unhashable():
    assert SuiteResult("counts", {}, 1) == SuiteResult("counts", {}, 1)
    assert SuiteResult("counts", {}, 1) != SuiteResult("counts", {}, 2)
    with pytest.raises(TypeError):
        hash(SuiteResult("counts", {}, 1))


@pytest.mark.parametrize("make,text", FROZEN, ids=FROZEN_IDS)
def test_fields_cannot_be_assigned_or_deleted(make, text):
    obj = make()
    field = text.split("(", 1)[1].split("=", 1)[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


def test_suite_result_stays_mutable():
    result = SuiteResult("counts", {}, 0)
    result.checked += 2
    result.failures.append(("k", "e", "o"))
    assert (result.checked, result.passed) == (2, False)


@pytest.mark.parametrize("make,text", INSTANCES, ids=IDS)
def test_pickle_round_trip(make, text):
    obj = make()
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_canonical_key_orders_by_tag_then_data():
    a, b, c = CanonicalKey("cover", b"c\x01"), CanonicalKey("cover", b"c\x02"), CanonicalKey("xy", b"\x00")
    assert a < b < c and a <= a <= b and c > b > a and b >= b >= a
    assert not a < a and not a > a
    assert not c < a and not c <= a and not a > c and not a >= c
    assert sorted([c, b, a, b]) == [a, b, b, c]
    assert max([a, c, b]) is c
    with pytest.raises(TypeError):
        a < ("cover", b"c\x02")


def test_other_value_classes_have_no_order():
    with pytest.raises(TypeError):
        Graph(1, (0,)) < Graph(1, (0,))


def test_set_cover_normalizes_its_sets():
    cover = SetCover(3, [[2, 1], [0], (1, 2, 1)])
    assert cover.sets == ((0,), (1, 2), (1, 2))
    assert cover == SetCover(3, ((1, 2), (2, 1), (0,)))
    assert type(cover.sets) is tuple and all(type(s) is tuple for s in cover.sets)


def test_xy_graph_and_poset_store_frozensets():
    for cls in (XYGraph, BipartitePoset):
        obj = cls(2, 2, [(1, 0), (0, 1), (1, 0)])
        assert type(obj.edges if cls is XYGraph else obj.below) is frozenset
        assert obj == cls(2, 2, {(0, 1), (1, 0)})
        assert hash(obj) == hash(cls(2, 2, ((0, 1), (1, 0))))


def test_defaults():
    assert Census("cover", 1, (), 0, 0).out_of_domain == 0
    analysis = SplitAnalysis(2, 1)
    assert (analysis.case, analysis.swing) == (None, None)
    assert Balance("balanced").witness is None
    a, b = SuiteResult("counts", {}, 0), SuiteResult("counts", {}, 0)
    assert a.failures == [] and a.failures is not b.failures
    a.failures.append(("k", "e", "o"))
    assert b.failures == [] and SuiteResult("counts", {}, 0).failures == []


def test_no_class_is_a_dataclass_and_the_cli_imports_neither_dataclasses_nor_inspect():
    # Each dataclass generates and compiles its methods when its module is
    # imported, about 0.7 ms per class, and ``import dataclasses`` (with
    # ``inspect``) costs about 10 ms more in every splitkit process.
    found = []
    for info in pkgutil.iter_modules(splitkit.__path__):
        module = importlib.import_module(f"splitkit.{info.name}")
        found += [
            f"{info.name}.{value.__qualname__}"
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
        ]
    assert found == []
    code = "import sys, splitkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_map_spec_is_a_tuple_rebuilt_from_one_iterable():
    spec = MAPS["compile_cover_up"]
    fields = (spec.fn, spec.domain, spec.codomain, spec.inverse, spec.needs_n, spec.choices)
    assert fields == (compile_cover_up, "cover", "cover", "compile_cover_down", True, spec[5])
    assert tuple(spec) == fields and MapSpec(fields) == spec and type(spec) is MapSpec
    with pytest.raises(AttributeError):
        spec.fn = None
