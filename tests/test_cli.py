"""CLI behavior: pipelines, exit codes, determinism across worker counts."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from splitkit import biject, census, verify
from splitkit.canon import canon_key
from splitkit.cli import main
from splitkit.core import CLASS_TAGS, Graph, XYGraph, parse_graph6, serialize_graph6, serialize_object

P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def run(argv, stdin_text="", monkeypatch=None, capsys=None):
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate_count_only(capsys):
    code, out, _ = run(["enumerate", "--class", "split", "--n", "4", "--count-only"], capsys=capsys)
    assert code == 0
    assert out.strip() == "# class=split n=4 count=9 balanced=1 unbalanced=8"

    code, out, _ = run(["enumerate", "--class", "xy", "--n", "3", "--count-only"], capsys=capsys)
    assert code == 0
    assert "count=8" in out

    code, out, _ = run(["enumerate", "--class", "poset", "--n", "0", "--count-only"], capsys=capsys)
    assert code == 0
    assert "count=1" in out


def test_enumerate_emits_sorted_census(capsys):
    code, out, _ = run(["enumerate", "--class", "split", "--n", "4"], capsys=capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# class=split")
    objects = lines[1:]
    assert len(objects) == 9
    keys = [canon_key(parse_graph6(line)) for line in objects]
    assert keys == sorted(keys)


def test_enumerate_balance_filter(capsys):
    code, out, _ = run(
        ["enumerate", "--class", "split", "--n", "4", "--balance", "balanced"], capsys=capsys
    )
    lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
    assert len(lines) == 1
    assert canon_key(parse_graph6(lines[0])) == canon_key(P4)


def test_enumerate_stream_mode(capsys):
    code, out, _ = run(["enumerate", "--class", "cover", "--n", "3", "--stream"], capsys=capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].startswith("# class=cover n=3 count=4")
    assert len(lines) == 5


def test_enumerate_no_y_isolates_flag(capsys):
    code, out, _ = run(
        ["enumerate", "--class", "xy", "--n", "4", "--no-y-isolates", "--count-only"],
        capsys=capsys,
    )
    assert code == 0
    assert "count=9" in out and "out_of_domain" not in out


def test_classify_class_mismatch_is_per_line(monkeypatch, capsys):
    cover = '{"class":"cover","n":3,"sets":[[0,1],[1,2]]}\n'
    code, out, _ = run(["classify", "--class", "split"], cover, monkeypatch, capsys)
    assert code == 3
    assert "expected a split object" in json.loads(out)["error"]


def test_enumerate_usage_errors(capsys):
    code, _, err = run(["enumerate", "--class", "cover", "--n", "3", "--format", "g6"], capsys=capsys)
    assert code == 2 and "graph6" in err
    code, _, err = run(["enumerate", "--class", "split", "--n", "99"], capsys=capsys)
    assert code == 2 and "8" in err


def test_classify_pipeline(monkeypatch, capsys):
    code, out, _ = run(["classify"], "Ch\n", monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["balance"] == "balanced" and doc["omega"] == 2 and doc["alpha"] == 2

    code, out, _ = run(["classify"], "Cr\n", monkeypatch, capsys)  # C4
    assert code == 3
    assert "not a split graph" in json.loads(out)["error"]

    bad_cover = '{"class":"cover","n":3,"sets":[[0,1],[0,1,2]]}\n'
    code, out, _ = run(["classify"], bad_cover, monkeypatch, capsys)
    assert code == 3
    assert "minimal" in json.loads(out)["error"]


_NOT_MINIMAL = '{"class":"cover","n":3,"sets":[[0],[0,1],[2]]}'
_NOT_COVERING = '{"class":"cover","n":3,"sets":[[0,1],[1]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--from", "cover", "--to", "split"],
        ["map", "--from", "cover", "--to", "xy"],
        ["map", "--from", "cover", "--to", "poset"],
        ["compile", "--class", "cover", "--direction", "down"],
        ["compile", "--class", "cover", "--direction", "up", "--n", "6"],
        ["map", "--from", "split", "--to", "cover", "--inverse"],
        ["classify", "--class", "cover"],
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_cover_maps_refuse_with_one_pinned_line(argv, monkeypatch, capsys):
    not_minimal = "cover is not minimal: some set has no loyal element"
    for line, error in ((_NOT_MINIMAL, not_minimal), (_NOT_COVERING, "union ≠ ground set: element 2 uncovered")):
        code, out, _ = run(argv, line + "\n", monkeypatch, capsys)
        assert code == 3
        assert out == json.dumps({"error": error, "line": line}, separators=(",", ":")) + "\n"


_Y_ISOLATE = '{"class":"xy","nx":2,"ny":3,"edges":[[0,0],[0,1],[1,1]]}'


@pytest.mark.parametrize(
    "argv, error",
    [
        (["map", "--from", "xy", "--to", "split"], "Y-vertices [2] are isolates"),
        (["map", "--from", "xy", "--to", "cover"], "Y-vertices [2] are isolates"),
        (["map", "--from", "xy", "--to", "poset"], "Y-vertices [2] are isolates"),
        (["compile", "--class", "xy", "--direction", "down"], "Y-vertices [2] are isolates"),
        (["compile", "--class", "xy", "--direction", "up", "--n", "7"], "Y-vertices [2] are isolates"),
        (["classify"], "balance undefined: Y-vertices [2] are isolates"),
    ],
    ids=lambda v: " ".join(v[1:]) if isinstance(v, list) else "",
)
def test_xy_maps_name_the_y_isolates_by_the_inputs_labels(argv, error, monkeypatch, capsys):
    code, out, _ = run(argv, _Y_ISOLATE + "\n", monkeypatch, capsys)
    assert code == 3
    assert out == json.dumps({"error": error, "line": _Y_ISOLATE}, separators=(",", ":")) + "\n"


_MANY_Y_ISOLATES = '{"class":"xy","nx":62,"ny":65535,"edges":[]}'


@pytest.mark.parametrize(
    "argv, error",
    [
        (["classify"], "balance undefined: Y-vertices [0, 1, 2, 3, 4] and 65530 more are isolates"),
        (["map", "--from", "xy", "--to", "cover"], "Y-vertices [0, 1, 2, 3, 4] and 65530 more are isolates"),
        (["compile", "--class", "xy", "--direction", "down"], "Y-vertices [0, 1, 2, 3, 4] and 65530 more are isolates"),
    ],
    ids=["classify", "map", "compile"],
)
def test_a_short_line_with_many_y_isolates_gets_a_short_record(argv, error, monkeypatch, capsys):
    # the isolates are named up to five and counted after that, so the
    # record does not grow with ny (it listed all 65,535 in 448 KB)
    code, out, _ = run(argv, _MANY_Y_ISOLATES + "\n", monkeypatch, capsys)
    assert code == 3
    assert out == json.dumps({"error": error, "line": _MANY_Y_ISOLATES}, separators=(",", ":")) + "\n"
    assert len(out.encode()) < 1024


def _rejected_line(line, monkeypatch, capsys):
    """classify gives ``line`` a per-line error record and exits with 3."""
    code, out, _ = run(["classify"], line + "\n", monkeypatch, capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["line"] == line
    return doc["error"]


def test_classify_rejects_a_float_size_instead_of_truncating(monkeypatch, capsys):
    error = _rejected_line('{"class":"cover","n":3.9,"sets":[[0,1,2]]}', monkeypatch, capsys)
    assert "n must be an integer, got 3.9" in error


def test_classify_rejects_a_bool_size(monkeypatch, capsys):
    error = _rejected_line('{"class":"xy","nx":true,"ny":1,"edges":[[0,0]]}', monkeypatch, capsys)
    assert "nx must be an integer, got true" in error


def test_classify_rejects_a_string_size(monkeypatch, capsys):
    error = _rejected_line('{"class":"xy","nx":"2","ny":1,"edges":[[0,0]]}', monkeypatch, capsys)
    assert 'nx must be an integer, got "2"' in error


def test_classify_rejects_non_integer_entries(monkeypatch, capsys):
    for line in (
        '{"class":"cover","n":3,"sets":[[0,1,2.0]]}',
        '{"class":"cover","n":3,"sets":["012"]}',
        '{"class":"xy","nx":1,"ny":1,"edges":[[false,0]]}',
        '{"class":"poset","n0":1,"n1":1,"below":[[0,"0"]]}',
        '{"class":"poset","n0":1,"n1":1.0,"below":[[0,0]]}',
    ):
        assert "must be an integer" in _rejected_line(line, monkeypatch, capsys)


def test_classify_rejects_a_cover_size_no_key_holds(monkeypatch, capsys):
    # without the cap, validation describes 10^8 uncovered elements one by one
    error = _rejected_line('{"class":"cover","n":100000000,"sets":[]}', monkeypatch, capsys)
    assert "n must be at most 65535" in error and "100000000" in error
    error = _rejected_line(json.dumps({"class": "cover", "n": 1, "sets": [[0]] * 65536}), monkeypatch, capsys)
    assert "the number of sets must be at most 65535" in error


def test_classify_rejects_a_large_poset_in_time_linear_in_its_line(monkeypatch, capsys):
    # every height-1 point used to rescan all relations: 5.3 s at n = 8000
    n = 8000
    line = json.dumps({"class": "poset", "n0": n, "n1": n, "below": [[a, 0] for a in range(n)]})
    start = time.process_time()
    error = _rejected_line(line, monkeypatch, capsys)
    assert time.process_time() - start < 0.5
    assert error.startswith("height-1 point 1 has empty down-set;")
    assert error.endswith(f"and {n - 6} more height-1 points have empty down-sets")
    assert len(error) < 400


def test_an_error_record_does_not_grow_with_the_stated_size(monkeypatch, capsys):
    # each uncovered element or empty point had a clause: a 3.2 MB record
    for line in (
        '{"class":"cover","n":65535,"sets":[]}',
        '{"class":"poset","n0":1,"n1":65535,"below":[]}',
    ):
        error = _rejected_line(line, monkeypatch, capsys)
        assert "and 65530 more" in error and len(error) < 400


def test_classify_rejects_a_side_no_key_holds(monkeypatch, capsys):
    # without the cap, packing the key overflows its 2-byte dimension
    for line, name in (
        ('{"class":"xy","nx":70000,"ny":1,"edges":[[0,0]]}', "nx"),
        ('{"class":"xy","nx":1,"ny":65536,"edges":[[0,0]]}', "ny"),
        ('{"class":"poset","n0":65536,"n1":0,"below":[]}', "n0"),
        ('{"class":"poset","n0":1,"n1":65536,"below":[]}', "n1"),
    ):
        assert f"{name} must be at most 65535" in _rejected_line(line, monkeypatch, capsys)


def test_classify_rejects_an_entry_listed_twice(monkeypatch, capsys):
    # the parsed objects hold sets, so a repeat used to vanish without a word
    for line, message in (
        ('{"class":"cover","n":2,"sets":[[0,0,1]]}', "element 0 in input set 0 listed more than once"),
        ('{"class":"xy","nx":1,"ny":1,"edges":[[0,0],[0,0]]}', "edge (0,0) listed more than once"),
        ('{"class":"poset","n0":1,"n1":1,"below":[[0,0],[0,0]]}', "relation (0,0) listed more than once"),
    ):
        assert _rejected_line(line, monkeypatch, capsys) == message


def test_repeated_entries_give_a_bounded_error_record(monkeypatch, capsys):
    line = json.dumps({"class": "xy", "nx": 1, "ny": 500, "edges": [[0, y] for y in range(500)] * 2})
    error = _rejected_line(line, monkeypatch, capsys)
    assert error.startswith("edge (0,0) listed more than once; edge (0,1) listed more than once;")
    assert error.endswith("and 495 more entries listed more than once") and len(error) < 400


def test_workers_below_one_is_a_usage_error(capsys):
    for workers in ("0", "-2"):
        code, out, err = run(["enumerate", "--class", "split", "--n", "3", "--workers", workers], capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --workers must be at least 1; got {workers}\n"
    code, out, err = run(["verify", "--suite", "counts", "--max-n", "2", "--workers", "0"], capsys=capsys)
    assert (code, out) == (2, "") and err.count("\n") == 1
    code, out, err = run(["gallery", "--n", "3", "--workers", "-2"], capsys=capsys)
    assert (code, out) == (2, "") and err.count("\n") == 1


def test_compile_down_rejects_a_target_size(monkeypatch, capsys):
    # --n only sizes the up direction; down used to ignore it
    argv = ["compile", "--class", "split", "--direction", "down", "--n", "5"]
    code, out, err = run(argv, "CF\n", monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == "error: --n applies to --direction up only\n"


def test_no_y_isolates_outside_xy_is_a_usage_error(capsys):
    # it used to be ignored, printing the whole census of the class
    for cls in ("split", "cover", "poset"):
        code, out, err = run(["enumerate", "--class", cls, "--n", "3", "--no-y-isolates"], capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: --no-y-isolates applies to --class xy only\n"


def test_compile_up_rejects_a_size_keys_cannot_hold(monkeypatch, capsys):
    empty_poset = '{"class":"poset","n0":0,"n1":0,"below":[]}\n'
    argv = ["compile", "--class", "poset", "--direction", "up", "--n"]
    for n in ("100000", "65536", "-1", "0"):
        code, out, err = run(argv + [n], empty_poset, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "65535" in err and n in err
        assert sys.stdin.read() == empty_poset  # rejected before reading input
    code, out, _ = run(argv + ["65535"], empty_poset, monkeypatch, capsys)
    assert code == 0
    assert json.loads(json.loads(out)["object"])["n0"] == 65535


def test_compile_split_up_rejects_a_size_graph6_cannot_hold(monkeypatch, capsys):
    argv = ["compile", "--class", "split", "--direction", "up", "--n"]
    code, out, err = run(argv + ["2000"], "@\n", monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "62" in err and "2000" in err
    assert sys.stdin.read() == "@\n"  # rejected before reading input
    code, out, _ = run(argv + ["62"], "@\n", monkeypatch, capsys)
    assert code == 0
    assert parse_graph6(json.loads(out)["object"]).n == 62


# A child that runs main() under a cap on its address space and prints the
# CPU seconds main() took to stderr, so a map that builds the output after
# all fails or times out instead of filling the host's memory.
_CAPPED = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from splitkit.cli import main
start = time.process_time()
code = main(sys.argv[1:])
sys.stdout.flush()
print(time.process_time() - start, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, line, n",
    [
        (["--from", "xy", "--to", "split-shift"], '{"class":"xy","nx":62,"ny":1600,"edges":[]}', 1663),
        (["--from", "split", "--to", "xy-shift", "--inverse"], '{"class":"xy","nx":61,"ny":1,"edges":[]}', 63),
        (["--from", "xy", "--to", "split"], '{"class":"xy","nx":65535,"ny":2,"edges":[[1,1],[2,0]]}', 65537),
        (["--from", "poset", "--to", "split"], '{"class":"poset","n0":65535,"n1":1,"below":[[2,0]]}', 65536),
        (["--from", "split", "--to", "poset", "--inverse"], json.dumps({"class": "poset", "n0": 62, "n1": 1, "below": [[a, 0] for a in range(62)]}), 63),
        (["--from", "cover", "--to", "split"], json.dumps({"class": "cover", "n": 63, "sets": [list(range(63))]}), 63),
        (["--from", "split", "--to", "cover", "--inverse"], json.dumps({"class": "cover", "n": 64, "sets": [[0, 1], list(range(1, 64))]}), 64),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v) if isinstance(v, int) else "",
)
def test_a_split_output_graph6_cannot_hold_is_refused_before_it_is_built(argv, line, n):
    # xy -> split-shift built a 1,663-vertex graph in 0.9 s before graph6
    # refused it, and did not finish in 10 minutes at ny = 65535
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED, "map", *argv], input=line + "\n",
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    error = f"graph6 output supports n <= 62, got n={n}"
    assert proc.stdout == json.dumps({"error": error, "line": line}, separators=(",", ":")) + "\n"
    assert len(proc.stdout.encode()) < 1024
    assert float(proc.stderr) < 0.25  # a few ms: nothing of the output's size is built


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--from", "xy", "--to", "split-shift"], '{"class":"xy","nx":60,"ny":1,"edges":[]}'),
        (["--from", "xy", "--to", "split"], '{"class":"xy","nx":61,"ny":1,"edges":[[0,0]]}'),
        (["--from", "poset", "--to", "split"], json.dumps({"class": "poset", "n0": 61, "n1": 1, "below": [[a, 0] for a in range(61)]})),
        (["--from", "cover", "--to", "split"], json.dumps({"class": "cover", "n": 62, "sets": [list(range(62))]})),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_a_split_output_of_62_vertices_is_still_mapped(argv, line, monkeypatch, capsys):
    code, out, _ = run(["map", *argv], line + "\n", monkeypatch, capsys)
    assert code == 0
    assert parse_graph6(json.loads(out)["object"]).n == 62


def test_classify_skips_headers_and_blanks(monkeypatch, capsys):
    text = "# class=split n=1 count=1 balanced=0 unbalanced=1\n\n@\n"
    code, out, _ = run(["classify"], text, monkeypatch, capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 1


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [["classify"], ["map", "--from", "split", "--to", "cover"], ["compile", "--class", "split", "--direction", "down"]],
)
def test_each_record_is_one_write(monkeypatch, argv):
    # the stream runs its children unbuffered, where every write is a
    # system call; good and error records alike are one write each
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bg\n# note\nCF\nC\nCr\n"))
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    main(argv)
    assert len(out.writes) == 4
    assert all(text.endswith("\n") and text.count("\n") == 1 for text in out.writes)
    assert "".join(out.writes) == out.getvalue()


def test_map_pipeline(monkeypatch, capsys):
    code, out, _ = run(["map", "--from", "split", "--to", "cover"], "Bg\n", monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["map"] == "split_to_cover"
    inner = json.loads(doc["object"])
    assert inner["class"] == "cover" and inner["n"] == 3 and len(inner["sets"]) == 2

    single_edge = '{"class":"xy","nx":1,"ny":1,"edges":[[0,0]]}\n'
    code, out, _ = run(["map", "--from", "xy", "--to", "split-shift"], single_edge, monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert canon_key(parse_graph6(doc["object"])) == canon_key(
        Graph.from_edges(3, [(0, 1), (1, 2)])
    )

    code, _, err = run(["map", "--from", "split", "--to", "split"], "", monkeypatch, capsys)
    assert code == 2 and "no map" in err


def test_map_rejects_a_non_split_graph_before_canonicalizing(monkeypatch, capsys):
    import splitkit.biject
    import splitkit.canon

    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for module, name in (
        (splitkit.biject, "canonical_object"),
        (splitkit.canon, "canonical_object"),
        (splitkit.canon, "canon_graph"),
        (splitkit.canon, "canon_matrix"),
    ):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    cycle16 = "OhCGGC@?G?_@?@??_?K?@"  # the 16-cycle, not a split graph
    for target in ("cover", "xy", "poset", "xy-shift"):
        code, out, _ = run(["map", "--from", "split", "--to", target], cycle16 + "\n", monkeypatch, capsys)
        assert code == 3
        assert out == '{"error":"not a split graph","line":"OhCGGC@?G?_@?@??_?K?@"}\n'
    for direction in (["down"], ["up", "--n", "20"]):
        argv = ["compile", "--class", "split", "--direction", *direction]
        code, out, _ = run(argv, cycle16 + "\n", monkeypatch, capsys)
        assert code == 3 and json.loads(out)["error"] == "not a split graph"
    assert calls == []


def test_map_inverse_flag(monkeypatch, capsys):
    cover = '{"class":"cover","n":3,"sets":[[0,1],[1,2]]}\n'
    code, out, _ = run(
        ["map", "--from", "split", "--to", "cover", "--inverse"], cover, monkeypatch, capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["map"] == "cover_to_split"
    assert canon_key(parse_graph6(doc["object"])) == canon_key(
        Graph.from_edges(3, [(0, 1), (1, 2)])
    )


def test_compile_pipeline(monkeypatch, capsys):
    star = "CF\n"  # canonical star K(1,3)
    code, out, _ = run(["compile", "--class", "split", "--direction", "down"], star, monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert canon_key(parse_graph6(doc["object"])) == canon_key(
        Graph.from_edges(3, [(0, 1), (1, 2)])
    )
    assert dict(doc["choices"])  # a swing vertex was chosen

    code, out, _ = run(["compile", "--class", "split", "--direction", "down"], "Ch\n", monkeypatch, capsys)
    assert code == 3
    assert "balanced" in json.loads(out)["error"]

    code, _, err = run(["compile", "--class", "poset", "--direction", "up"], "", monkeypatch, capsys)
    assert code == 2 and "--n" in err

    code, out, _ = run(
        ["compile", "--class", "poset", "--direction", "up", "--n", "2"],
        '{"class":"poset","n0":0,"n1":0,"below":[]}\n',
        monkeypatch,
        capsys,
    )
    assert code == 0
    inner = json.loads(json.loads(out)["object"])
    assert inner["n0"] == 2 and inner["n1"] == 0


def test_verify_command(capsys):
    code, out, _ = run(["verify", "--suite", "counts", "--max-n", "5"], capsys=capsys)
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["suite"] == "counts" and doc["failures"] == []

    code, out, _ = run(["verify", "--suite", "triangle", "--max-n", "3"], capsys=capsys)
    assert code == 0
    assert json.loads(out.strip())["params"]["agreement"] == 1.0

    code, out, _ = run(["verify", "--suite", "all", "--max-n", "2"], capsys=capsys)
    assert code == 0
    suites = {json.loads(l)["suite"] for l in out.strip().split("\n")}
    assert suites == {"roundtrip", "balance", "compilation", "choice", "counts", "triangle"}


@pytest.mark.parametrize("max_n", ["-1", "9"])
@pytest.mark.parametrize("suite", ["all", "roundtrip", "balance", "compilation", "choice", "counts", "triangle"])
def test_verify_refuses_a_size_outside_the_census(suite, max_n, capsys):
    code, out, err = run(["verify", "--suite", suite, "--max-n", max_n], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: enumeration supports 0 <= n <= 8, got n={max_n}\n"


def test_stream_and_sorted_modes_agree_on_content(monkeypatch, capsys):
    code, sorted_out, _ = run(["enumerate", "--class", "xy", "--n", "4"], capsys=capsys)
    assert code == 0
    code, stream_out, _ = run(["enumerate", "--class", "xy", "--n", "4", "--stream"], capsys=capsys)
    assert code == 0
    body = lambda text: {l for l in text.strip().split("\n") if not l.startswith("#")}
    assert body(sorted_out) == body(stream_out)
    assert sorted_out.strip().split("\n")[0] == stream_out.strip().split("\n")[-1]


def test_gallery(capsys):
    code, out, _ = run(["gallery", "--n", "4"], capsys=capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# gallery n=4 rows=9 balanced=1 unbalanced=8"
    rows = [json.loads(l) for l in lines[1:]]
    assert len(rows) == 9
    assert [r["balance"] for r in rows] == ["unbalanced"] * 8 + ["balanced"]
    assert canon_key(parse_graph6(rows[-1]["split"])) == canon_key(P4)
    assert rows[-1]["xy_shift"] is None
    assert all(r["xy_shift"] is not None for r in rows[:8])

    code, out, _ = run(["gallery", "--n", "1"], capsys=capsys)
    assert len(out.strip().split("\n")) == 2

    code, out, _ = run(["gallery", "--n", "3"], capsys=capsys)
    assert len(out.strip().split("\n")) == 5  # 1+2 split graphs at n<=3 is 4 rows


def test_pipe_composition(monkeypatch, capsys):
    code, out, _ = run(["enumerate", "--class", "split", "--n", "3"], capsys=capsys)
    assert code == 0
    code, out, _ = run(["classify"], out, monkeypatch, capsys)
    assert code == 0
    docs = [json.loads(l) for l in out.strip().split("\n")]
    assert len(docs) == 4
    assert sum(1 for d in docs if d["balance"] == "unbalanced") == 4


def _cli(*args, n_workers=None):
    argv = [sys.executable, "-m", "splitkit.cli", *args]
    if n_workers:
        argv += ["--workers", str(n_workers)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    return proc


def test_worker_determinism_in_fresh_processes():
    one = _cli("enumerate", "--class", "split", "--n", "5", n_workers=1)
    eight = _cli("enumerate", "--class", "split", "--n", "5", n_workers=8)
    assert one.returncode == eight.returncode == 0
    assert one.stdout == eight.stdout

    one = _cli("verify", "--suite", "roundtrip", "--max-n", "3", n_workers=1)
    eight = _cli("verify", "--suite", "roundtrip", "--max-n", "3", n_workers=8)
    assert one.returncode == eight.returncode == 0
    assert one.stdout == eight.stdout


def test_console_entry_point():
    proc = _cli("enumerate", "--class", "poset", "--n", "2", "--count-only")
    assert proc.returncode == 0
    assert "count=2" in proc.stdout


# ---------------------------------------------------------------------------
# the process entry, ``cli.run``: ``main`` and then ``os._exit``

# a child that breaks the inverse of the xy-poset pair, so ``verify`` fails
_BREAK_XY_POSET = (
    "from splitkit import cli, verify\n"
    "from splitkit.core import XYGraph\n"
    "dom, fwd, cod, _ = verify._PAIRS['xy-poset']\n"
    "verify._PAIRS['xy-poset'] = (dom, fwd, cod, lambda p: XYGraph(p.n0 + p.n1, 0, ()))\n"
    "cli.run()\n"
)
_ENTRY_CASES = {  # exit code: (argv, stdin)
    0: (["enumerate", "--class", "cover", "--n", "4"], ""),
    1: (["verify", "--suite", "roundtrip", "--max-n", "3"], ""),
    2: (["enumerate", "--class", "cover", "--n", "3", "--format", "g6"], ""),
    3: (["classify"], 'CF\n{"class":"xy","nx":2,"ny":2}\n'),
}


@pytest.mark.parametrize("code", list(_ENTRY_CASES))
def test_the_process_entry_exits_as_main_returns(code, monkeypatch, capsys):
    argv, stdin = _ENTRY_CASES[code]
    entry = ["-m", "splitkit.cli"]
    if code == 1:
        entry = ["-c", _BREAK_XY_POSET]
        dom, fwd, cod, _ = verify._PAIRS["xy-poset"]
        monkeypatch.setitem(verify._PAIRS, "xy-poset", (dom, fwd, cod, lambda p: XYGraph(p.n0 + p.n1, 0, ())))
    proc = subprocess.run([sys.executable, *entry, *argv], input=stdin.encode(), capture_output=True, timeout=300)
    returned, out, err = run(argv, stdin, monkeypatch, capsys)
    assert returned == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert proc.stderr.count(b"\n") == (code == 2)  # one line, for the usage error only


def test_the_process_entry_skips_teardown():
    # an atexit handler would run at the interpreter's normal exit
    script = "import atexit\natexit.register(print, 'teardown')\nfrom splitkit import cli\ncli.run()\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, "enumerate", "--class", "poset", "--n", "2", "--count-only"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "# class=poset n=2 count=2 balanced=0 unbalanced=2\n", "")


def test_a_profiler_still_gets_the_normal_exit():
    argv = ["-m", "cProfile", "-m", "splitkit.cli", "verify", "--suite", "counts", "--max-n", "2"]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    first, table = proc.stdout.split("\n", 1)
    assert json.loads(first)["suite"] == "counts"
    assert "function calls" in table and "ncalls  tottime  percall  cumtime  percall" in table


def test_only_the_process_entry_turns_the_collector_off(capsys):
    script = (
        "import gc\nfrom splitkit import cli\nmain = cli.main\n"
        "cli.main = lambda: print(gc.isenabled()) or main()\ncli.run()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "enumerate", "--class", "poset", "--n", "1", "--count-only"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout.split("\n")[0]) == (0, "False")
    assert gc.isenabled()
    main(["enumerate", "--class", "poset", "--n", "1", "--count-only"])
    assert gc.isenabled()


def _lines(tags, count: int) -> str:
    """``count`` input lines: census objects of the classes ``tags`` with
    n <= 5 in turn, every eighth line one that is refused."""
    pool = [
        serialize_graph6(rec.obj) if tag == "split" else serialize_object(rec.obj)
        for n in range(1, 6)
        for tag in tags
        for rec in census.records(tag, n)
    ]
    return "".join(("C~" if i % 8 == 7 else pool[i % len(pool)]) + "\n" for i in range(count))


def _line_commands():
    """(argv, the classes it reads) of every command that reads lines."""
    cases = [(["classify"], CLASS_TAGS)]
    for (src, dst), name in biject.ROUTES.items():
        cases.append((["map", "--from", src, "--to", dst], (src,)))
        cases.append((["map", "--from", src, "--to", dst, "--inverse"], (biject.MAPS[name].codomain,)))
    for tag in CLASS_TAGS:
        cases.append((["compile", "--class", tag, "--direction", "down"], (tag,)))
        cases.append((["compile", "--class", tag, "--direction", "up", "--n", "7"], (tag,)))
    return [pytest.param(argv, tags, id=" ".join(argv)) for argv, tags in cases]


def _cyclic_garbage(argv, stdin_text, monkeypatch, capsys) -> int:
    """Unreachable objects that ``main(argv)`` leaves when it runs with
    the cyclic collector off, as the process entry runs it."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    gc.collect()
    gc.disable()
    try:
        main(argv)
        found = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    return found


_SIZED = [
    pytest.param(argv, small, large, id=" ".join(argv).format(f"{small}-{large}"))
    for argv, small, large in [(["enumerate", "--class", tag, "--n", "{}"], 5, 7) for tag in CLASS_TAGS]
    + [(["verify", "--suite", "all", "--max-n", "{}"], 4, 6)]
]


@pytest.mark.parametrize("argv, tags", _line_commands())
def test_a_line_command_leaves_no_cycle_per_line(argv, tags, monkeypatch, capsys):
    # the process entry runs with the collector off, so a cycle made per
    # line would stay until exit
    _cyclic_garbage(argv, _lines(tags, 16), monkeypatch, capsys)  # warm the memos and stores
    assert _cyclic_garbage(argv, _lines(tags, 16), monkeypatch, capsys) == _cyclic_garbage(
        argv, _lines(tags, 64), monkeypatch, capsys
    )


@pytest.mark.parametrize("argv, small, large", _SIZED)
def test_a_sized_command_leaves_no_cycle_per_object(argv, small, large, monkeypatch, capsys):
    def sized(n):
        return [arg.format(n) for arg in argv]

    _cyclic_garbage(sized(small), "", monkeypatch, capsys)
    assert _cyclic_garbage(sized(small), "", monkeypatch, capsys) == _cyclic_garbage(sized(large), "", monkeypatch, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--class", "split", "--n", "5"],  # all of it still buffered when main returns
        ["enumerate", "--class", "xy", "--n", "7"],  # more than the buffer: main writes
    ],
    ids=["small", "large"],
)
def test_a_closed_pipe_exits_quietly(argv):
    # without PYTHONUNBUFFERED, stdout is block-buffered; the pipe's reader is
    # gone before the child starts, so every write to it fails
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "splitkit.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=300
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


# ---------------------------------------------------------------------------
# argparse output, pinned byte for byte (sha256 of exit code, stdout and
# stderr at an 80-column terminal); ``build_parser`` builds only the
# subcommand a command line names, and these must not notice


def _parser_output(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


PARSER_OUTPUTS = {
    "--help": "4a5455a29e160f65dda2d6189b7a255f8100ab86eea9661033fa301e1dc1e7d1",
    "": "267897bf7aab586141b35db0d18c866595296b825041d40cc57cbc1c84299c58",
    "-h map": "4a5455a29e160f65dda2d6189b7a255f8100ab86eea9661033fa301e1dc1e7d1",
    "enumerate --help": "c70cde4eeca33358a76418e634a768805355ffd955e00b48591ff45f1f3f7bc0",
    "classify --help": "1c580c2be11619be093ada5436962dabd398d285f886674efd740c5b05dfc71a",
    "map --help": "20fce2adf39780aca3e14e5f5327b682e61d203c7563b27492ec164f385e1a4a",
    "compile --help": "3f0e71a246365ea95d1ce60b9de90db64cb62764acf9822185f4b3337565d684",
    "verify --help": "35a4261c9b3404ab960d0e3f8739157f7d8ad51192e6aace4489dc9270f72258",
    "gallery --help": "e392be1060c87f664add950a1cbaa042eefd2153b9bba66ff9bd083be11a06ab",
    # a missing argument, an unknown command, an extra argument (the error
    # names the top-level usage) and a bad choice
    "map --from split": "200181c88c7890c56a069ca94d5f195d8887ba47c8576055782bdb3b320e5922",
    "frobnicate": "8baf2a02836d5bbf00851a03c5efe17e2f4dd26d53868ee4e104dbbf877580cd",
    "classify extra": "18e3c1560bc51e3f78190b9c489719576eb87ffce2da8a31819ef82f063fedcb",
    "enumerate --class split --n 3 --balance odd": "2e7b087b1fe81bcf0fc9e0bee34753393af33ff58f02f6a727d401a6e46fb8f8",
}


@pytest.mark.parametrize("argv", list(PARSER_OUTPUTS), ids=lambda a: a or "(no arguments)")
def test_parser_output_is_pinned(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256(_parser_output(argv.split()).encode()).hexdigest()
    assert digest == PARSER_OUTPUTS[argv]
