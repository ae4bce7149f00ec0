"""The cell-search kernels against brute-force reference kernels.

The references below are the earlier searches kept as oracles: the matrix
kernel sweeps every order of the smaller side and sorts the other side
greedily, and the adjacency reference keeps every tied vertex prefix.
They share no code with ``splitkit.canon``; keys are rebuilt here from
their bits.  The adjacency reference checks the cell search of the
adjacency oracle (``oracles.canon_adjacency``), which keys graphs split or
not and is in turn the reference for split-graph keys in
``tests/test_canon.py``.
"""

import hashlib
import itertools
import random
import time
from functools import lru_cache

from splitkit import canon
from splitkit.canon import canon_graph, canon_matrix, canon_xy, canonical_object, relabel_graph
from splitkit.core import BipartitePoset, Graph, SetCover, XYGraph, serialize_graph6, serialize_object

from oracles import canon_adjacency

# ---------------------------------------------------------------------------
# reference kernels


@lru_cache(maxsize=None)
def _perm_tables(width):
    """(perm, table) for every permutation of ``width`` bit positions, where
    ``table[value]`` permutes a ``width``-bit integer whose bit width-1-j
    holds position j."""
    tables = []
    for perm in itertools.permutations(range(width)):
        table = [_apply_bit_perm(value, perm, width) for value in range(1 << width)]
        tables.append((perm, table))
    return tables


def _apply_bit_perm(value, perm, width):
    out = 0
    for pos, src in enumerate(perm):
        out |= ((value >> (width - 1 - src)) & 1) << (width - 1 - pos)
    return out


def _permuted(values, width):
    """(perm, permuted values) for every permutation of ``width`` bits."""
    if width <= 6:
        for perm, table in _perm_tables(width):
            yield perm, [table[v] for v in values]
    else:
        for perm in itertools.permutations(range(width)):
            yield perm, [_apply_bit_perm(v, perm, width) for v in values]


def ref_canon_matrix(matrix):
    """(bits, row_perm, col_perm): the lex-least row-major matrix over row
    and column orders, by sweeping every order of the smaller side."""
    r = len(matrix)
    c = len(matrix[0]) if r else 0
    if r == 0 or c == 0:
        return (), tuple(range(r)), tuple(range(c))
    if c <= r:
        # every column order; for each, the best row order sorts the rows
        rows = [sum(matrix[i][j] << (c - 1 - j) for j in range(c)) for i in range(r)]
        best = None
        for perm, permuted in _permuted(rows, c):
            cand = sorted(permuted)
            if best is None or cand < best[0]:
                best = (cand, perm, permuted)
        _, col_perm, permuted = best
        row_perm = sorted(range(r), key=lambda i: (permuted[i], i))
        bits = tuple((permuted[i] >> (c - 1 - j)) & 1 for i in row_perm for j in range(c))
        return bits, tuple(row_perm), tuple(col_perm)
    # every row order; for each, columns sort by their top-down reading, and
    # candidates compare by their row-major bits
    cols = [sum(matrix[i][j] << (r - 1 - i) for i in range(r)) for j in range(c)]
    best = None
    for perm, permuted in _permuted(cols, r):
        col_perm = sorted(range(c), key=lambda j: (permuted[j], j))
        cand = tuple(
            sum(((permuted[col_perm[j]] >> (r - 1 - i)) & 1) << (c - 1 - j) for j in range(c))
            for i in range(r)
        )
        if best is None or cand < best[0]:
            best = (cand, perm, col_perm)
    cand, row_perm, col_perm = best
    bits = tuple((cand[i] >> (c - 1 - j)) & 1 for i in range(r) for j in range(c))
    return bits, tuple(row_perm), tuple(col_perm)


def _twin_classes(g):
    """Vertices grouped so that swapping two in a group is an automorphism."""
    classes = []
    for v in range(g.n):
        for members in classes:
            u = members[0]
            if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u):
                members.append(v)
                break
        else:
            classes.append([v])
    return classes


def ref_canon_graph(g):
    """(bits, order): the lex-least growing-order adjacency bits, by keeping
    every tied vertex prefix (one candidate per twin class)."""
    n = g.n
    if n == 0:
        return (), ()
    classes = _twin_classes(g)

    def candidates(used):
        return [next(v for v in members if not used >> v & 1)
                for members in classes if any(not used >> v & 1 for v in members)]

    frontier = [((v,), 1 << v) for v in candidates(0)]
    bits = []
    for k in range(1, n):
        best = None
        grown = []
        for order, used in frontier:
            for v in candidates(used):
                block = tuple(g.adj[v] >> u & 1 for u in order)
                if best is None or block < best:
                    best, grown = block, []
                if block == best:
                    grown.append((order + (v,), used | 1 << v))
        bits.extend(best)
        frontier = grown
    return tuple(bits), min(order for order, _ in frontier)


def _pack(bits):
    padded = list(bits) + [0] * (-len(bits) % 8)
    return bytes(int("".join(map(str, padded[i : i + 8])), 2) for i in range(0, len(padded), 8))


def ref_key_bytes(tag, dims, bits):
    return tag + b"".join(d.to_bytes(2, "big") for d in dims) + _pack(bits)


# ---------------------------------------------------------------------------
# inputs


def random_matrices(rng, count, max_side):
    for _ in range(count):
        r = rng.randrange(1, max_side + 1)
        c = rng.randrange(1, max_side + 1)
        p = rng.choice((0.2, 0.5, 0.8))
        yield [[int(rng.random() < p) for _ in range(c)] for _ in range(r)]


def stream_split_graph(rng, n):
    """Clique K = 0..k-1, stable set S = k..n-1 of 3 to 7 vertices, cross
    edges with a per-graph probability; sometimes one S-vertex sees all of
    K or one K-vertex sees none of S, as in the stream benchmark."""
    s = rng.randrange(3, min(7, n - 1) + 1)
    k = n - s
    p = rng.uniform(0.25, 0.75)
    edges = {(u, v) for u in range(k) for v in range(u + 1, k)}
    edges |= {(u, v) for u in range(k) for v in range(k, n) if rng.random() < p}
    twist = rng.random()
    if twist < 0.3:
        v = rng.randrange(k, n)
        edges |= {(u, v) for u in range(k)}
    elif twist < 0.6:
        u = rng.randrange(k)
        edges = {(a, b) for a, b in edges if a != u or b < k}
    return Graph.from_edges(n, sorted(edges))


def cover_shaped_matrix(rng, k):
    """A unit row on each of ``k`` columns, some with two copies, plus 0 to 5
    random rows, rows and columns shuffled: the incidence matrix of a cover
    whose every set has a loyal element."""
    rows = []
    for j in range(k):
        rows += [[int(i == j) for i in range(k)]] * rng.choice((1, 1, 2))
    p = rng.choice((0.2, 0.5, 0.8))
    rows += [[int(rng.random() < p) for _ in range(k)] for _ in range(rng.randrange(6))]
    return _shuffled(rng, rows)


def identity_block_matrix(rng, k):
    """1-3 copies of the unit row on each of ``k`` columns, up to two zero
    rows and up to two dense rows, rows and columns shuffled."""
    rows = []
    for j in range(k):
        rows += [[int(i == j) for i in range(k)]] * rng.randrange(1, 4)
    rows += [[0] * k] * rng.randrange(3)
    rows += [[int(rng.random() < 0.8) for _ in range(k)] for _ in range(rng.randrange(3))]
    return _shuffled(rng, rows)


def _shuffled(rng, rows):
    rng.shuffle(rows)
    cols = rng.sample(range(len(rows[0])), len(rows[0]))
    return [[row[j] for j in cols] for row in rows]


def random_graph(rng, n):
    p = rng.choice((0.3, 0.5, 0.7))
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])


# ---------------------------------------------------------------------------
# agreement


def _check_matrix(m):
    r, c = len(m), len(m[0])
    mcf = canon_matrix(m)
    bits, _, _ = ref_canon_matrix(m)
    assert mcf.bits == bits, m
    replay = tuple(m[mcf.row_perm[i]][mcf.col_perm[j]] for i in range(r) for j in range(c))
    assert replay == mcf.bits, m
    again = canon_matrix([list(row) for row in mcf.rows()])
    assert again.row_perm == tuple(range(r)) and again.col_perm == tuple(range(c)), m
    edges = frozenset((i, j) for i in range(r) for j in range(c) if m[i][j])
    assert canon_xy(XYGraph(r, c, edges)).data == ref_key_bytes(b"x", (r, c), bits)


def test_matrices_agree_with_the_permutation_sweep():
    rng = random.Random(2024)
    for m in random_matrices(rng, 300, 6):
        _check_matrix(m)
    # 7-wide sweeps cost about 0.1 s each in the reference
    for _ in range(6):
        r = rng.randrange(7, 9)
        m = [[int(rng.random() < 0.5) for _ in range(7)] for _ in range(r)]
        _check_matrix(m)
    _check_matrix([[int(rng.random() < 0.5) for _ in range(9)] for _ in range(7)])


def test_cover_shaped_matrices_agree_with_the_permutation_sweep():
    rng = random.Random(1998)
    for _ in range(200):
        _check_matrix(cover_shaped_matrix(rng, rng.randrange(1, 7)))
    for _ in range(4):
        _check_matrix(cover_shaped_matrix(rng, 7))


def test_identity_blocks_agree_with_the_permutation_sweep():
    # tied unit rows with and without copies, where the search places runs
    rng = random.Random(1736)
    for _ in range(300):
        _check_matrix(identity_block_matrix(rng, rng.randrange(1, 7)))
    for _ in range(4):
        _check_matrix(identity_block_matrix(rng, 7))


def _single_row_shapes(rng):
    """One distinct row (zero, full or mixed) with 1-4 copies, one row or
    one column of random bits, and matrices with no columns."""
    for c in range(1, 8):
        mixed = rng.sample(range(c), rng.randrange(1, c)) if c > 1 else []
        for row in ([0] * c, [1] * c, [int(j in mixed) for j in range(c)]):
            for copies in range(1, 5):
                yield [list(row) for _ in range(copies)]
    for side in range(1, 9):
        yield [[int(rng.random() < 0.5) for _ in range(side)]]
        yield [[int(rng.random() < 0.5)] for _ in range(side)]
        yield [[] for _ in range(side)]


def test_single_row_shapes_agree_with_the_permutation_sweep():
    # witnesses included: for these shapes the kernel's witness is the
    # sweep's least order
    for m in _single_row_shapes(random.Random(1217)):
        mcf = canon_matrix(m)
        assert (mcf.bits, mcf.row_perm, mcf.col_perm) == ref_canon_matrix(m), m
        assert mcf.row_count == len(m) and mcf.col_count == len(m[0])
    for c in range(9):
        mcf = canon._canon_rows((), c)
        assert (mcf.row_count, mcf.col_count, mcf.values) == (0, c, ())
        assert (mcf.row_perm, mcf.col_perm) == ((), tuple(range(c)))


def test_interchangeable_unit_rows_do_not_multiply_tied_states(monkeypatch):
    # the slowest stream matrix: a 10x7 cover, column j is character j.
    # Placing its unit rows one order at a time grew to 1,632 tied states,
    # and one subset at a time to 140; placed as runs, it keeps at most 4.
    text = "1000000 1111100 0100000 1111010 1110101 0000100 0000001 0001000 0000010 0010000"
    m = [[int(ch) for ch in row] for row in text.split()]
    sizes = []
    settle = canon._settle

    def counting(states, *args):
        sizes.append(len(states))
        return settle(states, *args)

    monkeypatch.setattr(canon, "_settle", counting)
    canon._canon_rows.cache_clear()
    mcf = canon_matrix(m)
    assert sizes and max(sizes) <= 8, sizes
    assert mcf.bits == ref_canon_matrix(m)[0]


def _check_graph(g):
    # the adjacency oracle's cell search; the product keys split graphs by
    # their S-max incidence (tests/test_canon.py)
    bits, order = canon_adjacency(g)
    assert (bits, order) == ref_canon_graph(g)
    assert canon_adjacency(relabel_graph(g, order)) == (bits, tuple(range(g.n)))


def test_graphs_agree_with_the_prefix_frontier():
    rng = random.Random(1981)
    for _ in range(60):
        _check_graph(random_graph(rng, rng.randrange(1, 10)))
    for _ in range(10):
        _check_graph(random_graph(rng, rng.randrange(10, 12)))


def test_stream_shaped_split_graphs_agree_with_the_prefix_frontier():
    rng = random.Random(2014)
    for _ in range(40):
        _check_graph(stream_split_graph(rng, rng.randrange(9, 12)))


def test_key_packing_agrees_with_the_reference_bytes():
    # rows packed as one integer up to 4,096 bits and eight at a time beyond
    # must give the bytes of packing every bit in order; zero rows and
    # zero-row keys included
    rng = random.Random(70)
    for width in range(1, 71):
        for count in (0, 1, 7, 8, 9, 63, 64, 65, 130):
            rows = [rng.getrandbits(width) if rng.random() < 0.7 else 0 for _ in range(count)]
            bits = [row >> (width - 1 - j) & 1 for row in rows for j in range(width)]
            assert canon._make_key("xy", (count, width), rows, width).data == ref_key_bytes(b"x", (count, width), bits)


def test_the_8000_row_identity_packs_within_a_second():
    # shifting one growing integer once per row took 32 s
    m = 8000
    rows = [1 << (m - 1 - i) for i in range(m)]
    start = time.process_time()
    key = canon._make_key("cover", (m, m), rows, m)
    assert time.process_time() - start < 1.0
    assert len(key.data) == 1 + 4 + m * m // 8
    assert key.data[5:5 + m // 8] == bytes([128]) + bytes(m // 8 - 1)


# ---------------------------------------------------------------------------
# kernel pin: the bytes of about 9,000 seeded matrices, hashed


def pinned_matrices(rng):
    """3,000 each of cover-shaped matrices (up to 7 sets over up to 12
    elements, each set with a loyal element), random matrices up to 10x8,
    and identity blocks with 1-3 copies of each unit row plus zero and
    dense rows; rows and columns shuffled."""
    for _ in range(3000):
        k = rng.randrange(1, 8)
        rows = [[int(i == j) for i in range(k)] for j in range(k)]
        rows += [rows[rng.randrange(k)] for _ in range(rng.randrange(0, 12 - k + 1) // 2)]
        p = rng.choice((0.2, 0.4, 0.6))
        while len(rows) < 12 and rng.random() < 0.6:
            rows.append([int(rng.random() < p) for _ in range(k)])
        yield _shuffled(rng, rows)
    for m in random_matrices(rng, 3000, 8):
        if len(m) > 1 and rng.random() < 0.3:
            m += [list(row) for row in m[: rng.randrange(1, 3)]]
        yield m[:10]
    for _ in range(3000):
        yield identity_block_matrix(rng, rng.randrange(1, 8))


def test_kernel_bytes_are_pinned():
    # sha256 over the canon_matrix bits and the canon_xy key bytes of every
    # pinned matrix; the golden transcript covers only censuses with n <= 8,
    # this covers stream-sized inputs of the shapes the search treats apart
    digest = hashlib.sha256()
    count = 0
    for m in pinned_matrices(random.Random(2017)):
        edges = frozenset((i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v)
        digest.update(bytes(canon_matrix(m).bits))
        digest.update(canon_xy(XYGraph(len(m), len(m[0]), edges)).data)
        count += 1
    assert count == 9000
    assert digest.hexdigest() == "b236bcec32c17b0742764494f654c29430bfea25d1e7bf2a96379d90609f9b4c"


def test_kernel_witnesses_are_pinned():
    # sha256 over the values, row_perm and col_perm of every pinned matrix,
    # then over the canon_graph vertex order of stream-shaped split graphs,
    # which is built from the kernel's witness
    digest = hashlib.sha256()
    for m in pinned_matrices(random.Random(2017)):
        mcf = canon_matrix(m)
        digest.update(repr((mcf.values, mcf.row_perm, mcf.col_perm)).encode())
    rng = random.Random(2015)
    for _ in range(1000):
        digest.update(repr(canon_graph(stream_split_graph(rng, rng.randrange(9, 12))).order).encode())
    assert digest.hexdigest() == "e3114d2658933fb5ab740fae6d79d02c83929fc5134fa10637c79843d5961e3b"


def test_canonical_objects_are_pinned():
    # sha256 over the key hex and the serialized canonical object that
    # canonical_object gives for every pinned matrix read as an XY-graph
    # and as a poset, the cover-shaped ones (the first 3,000) read as covers
    # too, then for stream-shaped split graphs: this pins what
    # relabel_graph and the read-back of matrix-class keys build
    digest = hashlib.sha256()

    def pin(obj):
        canonical, key = canonical_object(obj)
        text = serialize_graph6(canonical) if isinstance(canonical, Graph) else serialize_object(canonical)
        digest.update(f"{key.hex} {text}\n".encode())

    for i, m in enumerate(pinned_matrices(random.Random(2017))):
        r, c = len(m), len(m[0])
        ones = frozenset((a, b) for a, row in enumerate(m) for b, v in enumerate(row) if v)
        pin(XYGraph(r, c, ones))
        pin(BipartitePoset(r, c, ones))
        if i < 3000:
            pin(SetCover(r, [[a for a in range(r) if m[a][b]] for b in range(c)]))
    rng = random.Random(2015)
    for _ in range(1000):
        pin(stream_split_graph(rng, rng.randrange(9, 12)))
    assert digest.hexdigest() == "81fe059d47c1514cf4495e2eab237c3d9393d5fb6bb683d0a6428818ec962e6a"
