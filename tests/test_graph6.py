"""graph6 encoder/decoder conformance and error reporting."""

import random

import pytest

from splitkit.core import (
    Graph,
    ParseError,
    SizeLimitError,
    parse_graph6,
    serialize_graph6,
)

from oracles import all_graphs


def reference_decode(line):
    """Independent decoder written directly from the published format:
    header byte = n + 63, then the upper triangle column by column packed
    into 6-bit groups, most significant bit first, zero padded."""
    n = ord(line[0]) - 63
    assert 0 <= n <= 62
    bitstring = "".join(format(ord(ch) - 63, "06b") for ch in line[1:])
    edges = set()
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstring[k] == "1":
                edges.add((i, j))
            k += 1
    assert all(b == "0" for b in bitstring[k:])
    return n, edges


def test_hand_decoded_examples():
    k4 = parse_graph6("C~")
    assert k4.n == 4
    assert k4.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    single = parse_graph6("@")
    assert single.n == 1 and single.edges() == []

    triangle = parse_graph6("Bw")
    assert triangle.n == 3
    assert triangle.edges() == [(0, 1), (0, 2), (1, 2)]

    empty = parse_graph6("?")
    assert empty.n == 0


def test_hand_encoded_examples():
    k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert serialize_graph6(k4) == "C~"
    assert serialize_graph6(Graph.from_edges(1, [])) == "@"
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert parse_graph6(serialize_graph6(p4)) == p4


def test_roundtrip_exhaustive_small():
    for n in range(6):
        for g in all_graphs(n):
            line = serialize_graph6(g)
            assert parse_graph6(line) == g
            ref_n, ref_edges = reference_decode(line)
            assert ref_n == g.n
            assert ref_edges == set(g.edges())


def test_roundtrip_random_large():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randrange(0, 63)
        edges = [
            (i, j) for j in range(n) for i in range(j) if rng.random() < 0.35
        ]
        g = Graph.from_edges(n, edges)
        line = serialize_graph6(g)
        assert parse_graph6(line) == g
        ref_n, ref_edges = reference_decode(line)
        assert (ref_n, ref_edges) == (g.n, set(g.edges()))


def test_string_roundtrip():
    # serialize(parse(s)) == s for every valid string
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(0, 20)
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]
        line = serialize_graph6(Graph.from_edges(n, edges))
        assert serialize_graph6(parse_graph6(line)) == line


def test_matches_networkx_encoder():
    # graph6 indexes vertices by node order, so fix 0..n-1 before adding edges
    nx = pytest.importorskip("networkx")
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randrange(0, 31)
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.3]
        g = Graph.from_edges(n, edges)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        reference = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert serialize_graph6(g) == reference
        back = nx.from_graph6_bytes(serialize_graph6(g).encode())
        assert {tuple(sorted(e)) for e in back.edges()} == set(g.edges())


def test_size_limit():
    g = Graph(63, tuple(0 for _ in range(63)))
    with pytest.raises(SizeLimitError):
        serialize_graph6(g)
    with pytest.raises(SizeLimitError):
        parse_graph6("~??" + "?" * 100)


@pytest.mark.parametrize(
    "bad,offset_word",
    [
        ("", "offset 0"),
        (" C~", "offset 0"),  # space is below the bias
        ("C~~", "offset"),  # trailing data
        ("C", "truncated"),
        ("C\x1f", "out of range"),
    ],
)
def test_parse_errors_name_offset(bad, offset_word):
    with pytest.raises(ParseError) as err:
        parse_graph6(bad)
    assert offset_word in str(err.value)


def test_nonzero_padding_rejected():
    # K2 needs one data bit; craft padding bits that are set.
    good = serialize_graph6(Graph.from_edges(2, [(0, 1)]))
    assert good == "A_"
    with pytest.raises(ParseError):
        parse_graph6("A" + chr(63 + 0b111111))


# ---------------------------------------------------------------------------
# the codec against a reference copy of the per-bit list code it replaced,
# on every output and every error


def ref_serialize_graph6(g):
    if g.n > 62:
        raise SizeLimitError(f"graph6 output supports n <= 62, got n={g.n}")
    chars = [chr(63 + g.n)]
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k : k + 6]:
            group = group << 1 | b
        chars.append(chr(63 + group))
    return "".join(chars)


def ref_parse_graph6(text):
    line = text.rstrip("\n")
    if not line:
        raise ParseError("empty graph6 string (offset 0)")
    header = ord(line[0])
    if header == 126:
        raise SizeLimitError("graph6 input supports n <= 62 (long-form header at offset 0)")
    if not 63 <= header <= 125:
        raise ParseError(f"header byte {line[0]!r} out of range at offset 0")
    n = header - 63
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    data = line[1:]
    if len(data) < need_bytes:
        raise ParseError(f"truncated bit field: need {need_bytes} data bytes, got {len(data)} (offset {len(line)})")
    if len(data) > need_bytes:
        raise ParseError(f"trailing data at offset {1 + need_bytes}")
    bits = []
    for off, ch in enumerate(data):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ParseError(f"data byte {ch!r} out of range at offset {off + 1}")
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    for extra in bits[need_bits:]:
        if extra:
            raise ParseError(f"nonzero padding bit (offset {len(line) - 1})")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


def _outcome(fn, arg):
    """The value of ``fn(arg)``, or the type and text of the error it raised."""
    try:
        return fn(arg)
    except (ParseError, SizeLimitError) as exc:
        return type(exc).__name__, str(exc)


def _random_graph(rng, n):
    """A seeded graph on n vertices with edge density 1/8, 1/4, 1/2 or 3/4."""
    draw = rng.choice(
        [
            lambda j: rng.getrandbits(j) & rng.getrandbits(j) & rng.getrandbits(j),
            lambda j: rng.getrandbits(j) & rng.getrandbits(j),
            lambda j: rng.getrandbits(j),
            lambda j: rng.getrandbits(j) | rng.getrandbits(j),
        ]
    )
    adj = [0] * n
    for j in range(1, n):
        column = draw(j)
        adj[j] |= column
        for i in range(j):
            if column >> i & 1:
                adj[i] |= 1 << j
    return Graph(n, tuple(adj))


def test_codec_matches_the_reference_on_every_graph_up_to_six_vertices():
    for n in range(7):
        for g in all_graphs(n):
            line = serialize_graph6(g)
            assert line == ref_serialize_graph6(g)
            assert parse_graph6(line) == g


def test_codec_matches_the_reference_on_seeded_graphs_up_to_62_vertices():
    rng = random.Random(170)
    for _ in range(2000):
        g = _random_graph(rng, rng.randrange(7, 63))
        line = serialize_graph6(g)
        assert line == ref_serialize_graph6(g)
        assert parse_graph6(line) == ref_parse_graph6(line) == g
        assert parse_graph6(line + "\n") == g


@pytest.mark.parametrize(
    "line,error",
    [
        ("", ("ParseError", "empty graph6 string (offset 0)")),
        ("\n", ("ParseError", "empty graph6 string (offset 0)")),
        (" C~", ("ParseError", "header byte ' ' out of range at offset 0")),
        ("\x7f", ("ParseError", "header byte '\\x7f' out of range at offset 0")),
        ("~??" + "?" * 100, ("SizeLimitError", "graph6 input supports n <= 62 (long-form header at offset 0)")),
        ("C", ("ParseError", "truncated bit field: need 1 data bytes, got 0 (offset 1)")),
        ("J???", ("ParseError", "truncated bit field: need 10 data bytes, got 3 (offset 4)")),
        ("C~~", ("ParseError", "trailing data at offset 2")),
        ("A_?", ("ParseError", "trailing data at offset 2")),
        ("C\x1f", ("ParseError", "data byte '\\x1f' out of range at offset 1")),
        ("E?\x7f?", ("ParseError", "data byte '\\x7f' out of range at offset 2")),
        ("E??é", ("ParseError", "data byte 'é' out of range at offset 3")),
        ("A" + chr(63 + 0b111111), ("ParseError", "nonzero padding bit (offset 1)")),
        ("A" + chr(63 + 0b000001), ("ParseError", "nonzero padding bit (offset 1)")),
        ("E??@", ("ParseError", "nonzero padding bit (offset 3)")),
    ],
)
def test_every_parse_error_text_and_offset_is_pinned(line, error):
    assert _outcome(ref_parse_graph6, line) == error
    assert _outcome(parse_graph6, line) == error


def test_parse_errors_match_the_reference_on_seeded_damaged_lines():
    rng = random.Random(171)
    alphabet = [chr(c) for c in range(0, 130)] + ["é", "\n"]
    for _ in range(2000):
        line = serialize_graph6(_random_graph(rng, rng.randrange(0, 20)))
        damage = rng.randrange(4)
        if damage == 0 and line:
            at = rng.randrange(len(line))
            line = line[:at] + rng.choice(alphabet) + line[at + 1 :]
        elif damage == 1:
            line = line[: rng.randrange(len(line) + 1)]
        elif damage == 2:
            line += "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 3)))
        elif len(line) > 1:
            line = line[:-1] + chr(ord(line[-1]) | rng.randrange(1, 64))
        assert _outcome(parse_graph6, line) == _outcome(ref_parse_graph6, line), repr(line)


def test_serialize_matches_the_reference_beyond_the_size_bound():
    g = Graph(63, (0,) * 63)
    assert _outcome(serialize_graph6, g) == _outcome(ref_serialize_graph6, g)
