"""Canonical forms reducing "unlabeled" equality to byte equality.

A key is defined by a lex-least objective, not by the search that finds
it:

* 0/1 matrices under independent row and column permutations -- the least
  row-major bit string over all row and column orders.  Covers, XY-graphs
  and posets are keyed by their incidence matrix, and a split graph by the
  incidence of its S-max partition (rows S, columns K);
* graphs that are not split -- the least adjacency bit string read in
  growing order (vertex k against vertices 0..k-1, for k = 1..n-1) over
  all vertex orders.

Both kernels find their objective by an exact search over ordered cells.
A search state stands for every order that permutes the vertices (or the
columns) inside its cells, all of which emit the same bits so far.  Each
step places the least-reading vertex or row, reading zeros before ones in
every cell, and splits the cells the same way; every tied state is kept
and equivalent states are merged.  In the matrix kernel, unit rows (a
single 1) with as many copies, which every placed row of several ones
treats alike, share one cell of their columns: the branches that placed
them in different orders are one state.  Nothing is pruned by size or by
an invariant, so the result is the objective itself.  Tied states can
still multiply on highly symmetric inputs: apart from interchangeable
twin vertices and unit rows, automorphisms are not pruned.

Single-threaded, measured with Python 3.11 on a 2-core Intel Xeon host:
sub-millisecond for 7x7 and random 12x11 matrices, for 11-vertex split
graphs and for random split graphs up to 40 vertices (1.7 ms at 62);
1.6 ms for the incidence of a 7-set cover on 10 elements whose loyal
elements tie k! ways; about 20 ms for the 10x10 identity, 26-41 ms for
the 20-vertex thin spider (K10 with a pendant vertex on each clique
vertex, whose S-max incidence is that identity) and 30 ms for the
16-cycle; about 0.45 s for the 35x7 incidence of the 3-subsets of a
7-set, the slowest input in the test suite.

The row and column groups of the matrix kernel act independently, which
is exactly what keeps X distinguished, keeps a cover's elements and sets
apart and keeps a split graph's stable side apart from its clique.  Keys
embed a tag byte and the dimensions before the bits, so objects of
different shapes never collide, nor do split graphs and graphs that are
not split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .core import (
    KEY_DIM_BYTES,
    MAX_KEY_DIM,
    BipartitePoset,
    CanonicalKey,
    Graph,
    SetCover,
    UsageError,
    XYGraph,
    class_tag_of,
)
from .classify import s_max_sides

# The first byte of every key, by kind.  A split graph is keyed by its S-max
# incidence; a graph that is not split keeps its adjacency key.  Both are
# keys of the "split" class.
_TAG_BYTES = {"split": b"S", "graph": b"s", "cover": b"c", "xy": b"x", "poset": b"p"}


def _pack_bits(bits: Sequence[int]) -> bytes:
    out = bytearray()
    acc = 0
    fill = 0
    for b in bits:
        acc = acc << 1 | (1 if b else 0)
        fill += 1
        if fill == 8:
            out.append(acc)
            acc = fill = 0
    if fill:
        out.append(acc << (8 - fill))
    return bytes(out)


def _make_key(kind: str, dims: Sequence[int], bits: Sequence[int]) -> CanonicalKey:
    data = _TAG_BYTES[kind] + b"".join(d.to_bytes(KEY_DIM_BYTES, "big") for d in dims) + _pack_bits(bits)
    return CanonicalKey("split" if kind == "graph" else kind, data)


# ---------------------------------------------------------------------------
# ordered cells, shared by both kernels


def _reading(mask: int, cells: Sequence[int]) -> int:
    """The least reading of a 0/1 row (bit j for position j) over the orders
    that permute positions inside the cells: in each cell, zeros first."""
    value = 0
    for cell in cells:
        value = value << cell.bit_count() | (1 << (cell & mask).bit_count()) - 1
    return value


def _split_cells(cells: Sequence[int], mask: int) -> list[int]:
    """Each cell split into its zeros, then its ones, of ``mask``."""
    split = []
    for cell in cells:
        if cell & ~mask:
            split.append(cell & ~mask)
        if cell & mask:
            split.append(cell & mask)
    return split


# ---------------------------------------------------------------------------
# matrix kernel


@dataclass(frozen=True)
class MatrixCanonForm:
    """Lex-least row-major matrix over independent row/column permutations.

    ``canonical[i][j] == original[row_perm[i]][col_perm[j]]`` and ``bits``
    is the canonical matrix flattened row-major.
    """

    row_count: int
    col_count: int
    bits: tuple[int, ...]
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]

    def rows(self) -> list[tuple[int, ...]]:
        c = self.col_count
        return [tuple(self.bits[i * c : (i + 1) * c]) for i in range(self.row_count)]


def canon_matrix(matrix: Sequence[Sequence[int]]) -> MatrixCanonForm:
    """Canonicalize a 0/1 matrix under independent row/column permutations.

    The canonical form is the lexicographically least row-major matrix over
    all row and column orders; its rows come out sorted.  The search places
    one distinct row per step, with all its copies, and keeps the columns
    as an ordered partition into cells: any order inside a cell gives the
    placed rows the same bits, so a candidate row reads zeros first, then
    ones, in every cell, and placing it splits each cell that way.  A
    candidate ranks by (that reading, more copies first): copies of the
    placed row come next in any sorted result, and every other row reads
    strictly higher afterwards.  A placed unit row (a single 1) joins the
    cell right after its own column when every column of that cell carries
    a placed unit row with as many copies and every placed row of several
    ones agrees on both: the placed unit rows are then an identity block
    on the joined cell, which sorts to the same bits in any order inside
    it, so branches that took them in different orders become one state.
    Every tied state is kept, except that states with the same remaining
    rows whose cells agree on everything the remaining rows can still see
    are merged.  A state whose remaining rows split no cell has a fixed
    future, and only the least such state is kept.  Among equal results
    the witness has the least row order for its column order (after a
    join, the order that sorts the rows), so the witness of a canonical
    matrix is the identity.

    Sub-millisecond on random matrices up to 12x11 and 1.6 ms on the 10x7
    incidence of a cover whose loyal elements tie; symmetric inputs keep
    more tied states (20 ms for the 10x10 identity, whose placed subsets
    stay apart, and 0.45 s for the 35x7 incidence of the 3-subsets of a
    7-set).
    """
    c = len(matrix[0]) if matrix else 0
    return _canon_rows(tuple(sum(1 << j for j in range(c) if row[j]) for row in matrix), c)


@lru_cache(maxsize=4096)
def _canon_rows(rows: tuple[int, ...], c: int) -> MatrixCanonForm:
    """``canon_matrix`` of rows given as column masks (bit j is column j).

    The census and the verify suites canonicalize the same small matrices
    many times over (about 11 calls per distinct matrix in
    ``verify --suite all --max-n 6``), so recent results are kept; they are
    immutable.
    """
    r = len(rows)
    if r == 0 or c == 0:
        return MatrixCanonForm(r, c, (), tuple(range(r)), tuple(range(c)))
    groups: dict[int, list[int]] = {}
    for i, mask in enumerate(rows):
        groups.setdefault(mask, []).append(i)
    # Distinct rows, numbered by first occurrence, so the order of placed
    # group numbers is the order of the witness rows.
    masks = list(groups)
    copies = [len(members) for members in groups.values()]
    # col_rows[j]: the groups that are 1 in column j
    col_rows = [sum(1 << g for g, m in enumerate(masks) if m >> j & 1) for j in range(c)]
    # unit_of[j]: the group that is the unit row (a single 1) on column j;
    # non_unit: the mask of every other group
    unit_of = {m.bit_length() - 1: g for g, m in enumerate(masks) if m and not m & (m - 1)}
    non_unit = (1 << len(masks)) - 1 - sum(1 << g for g in unit_of.values())
    joined = False
    # An open state is (placed groups, column cells, remaining groups, their
    # mask); `fixed` is the least state with a fixed future, or None.
    start = ((), ((1 << c) - 1,), tuple(range(len(masks))), (1 << len(masks)) - 1)
    open_states, fixed = _settle([start], None, col_rows, copies)
    emitted: list[int] = []
    while open_states:
        best = None
        tied = []
        for state in open_states:
            cells, cand = state[1], state[2]
            # Reading zeros first in every cell, the least row has the
            # fewest ones in the first cell, then in the second, ...
            for cell in cells:
                counts = [(masks[g] & cell).bit_count() for g in cand]
                low = min(counts)
                cand = [g for g, k in zip(cand, counts) if k == low]
                if len(cand) == 1:
                    break
            most = max(copies[g] for g in cand)
            rank = (_reading(masks[cand[0]], cells), -most)
            if best is None or rank < best:
                best, tied = rank, []
            if rank == best:
                tied.extend((state, g) for g in cand if copies[g] == most)
        if fixed is not None:
            value, g = fixed[0][0]
            if (value, -copies[g]) < best:
                break  # the fixed state beats every open one
            if (value, -copies[g]) > best:
                fixed = None
            else:
                fixed = (fixed[0][1:], fixed[1], fixed[2])
        emitted.extend([best[0]] * -best[1])
        grown = []
        for (placed, cells, left, left_mask), g in tied:
            i = left.index(g)
            left_mask ^= 1 << g
            split = _split_cells(cells, masks[g])
            if unit_of and not non_unit >> g & 1:
                # A unit row on column a joins the next cell when every placed
                # row of several ones agrees on a and on that cell, and the
                # cell's unit rows have as many copies.  Some placed row set
                # the cell apart from a; if none of several ones did, a placed
                # unit row on the cell did, and then every column of the cell
                # carries a placed unit row, since only this join grows such
                # a cell.  Those unit rows and g form an identity block on the
                # joined cell, which sorts to the same bits in any order.
                a = masks[g].bit_length() - 1
                k = split.index(1 << a) + 1
                if k < len(split):
                    j = (split[k] & -split[k]).bit_length() - 1
                    agree = not (col_rows[a] ^ col_rows[j]) & non_unit & ~left_mask
                    if agree and copies[unit_of[j]] == copies[g]:
                        split[k - 1 : k + 1] = [split[k] | 1 << a]
                        joined = True
            grown.append((placed + (g,), tuple(split), left[:i] + left[i + 1 :], left_mask))
        open_states, fixed = _settle(grown, fixed, col_rows, copies)
    future, placed, cells = fixed
    emitted.extend(value for value, g in future for _ in range(copies[g]))
    members = list(groups.values())
    col_perm = tuple(j for cell in cells for j in range(c) if cell >> j & 1)
    if joined:
        # The placed order need not sort the unit rows of a joined cell in
        # this column order; the least row order that sorts the rows does.
        values = [sum((m >> j & 1) << (c - 1 - p) for p, j in enumerate(col_perm)) for m in masks]
        placed = sorted(range(len(masks)), key=values.__getitem__)
    row_perm = tuple(i for g in placed for i in members[g])
    bits = tuple(value >> (c - 1 - j) & 1 for value in emitted for j in range(c))
    return MatrixCanonForm(r, c, bits, row_perm, col_perm)


def _settle(states, fixed, col_rows, copies):
    """Merge equivalent open states and set aside those with a fixed future.

    Open states with the same remaining rows and the same cell signature
    have the same future; the one with the least placed order stays.  A
    state whose cells no remaining row splits has a fixed future, the
    remaining rows in ascending order, and only the least such state is
    kept, as (future (reading, group) pairs, full group order, cells).
    """
    merged: dict = {}
    for state in states:
        placed, cells, _, left_mask = state
        key = _cell_signature(cells, col_rows, left_mask)
        if key is None:
            future = _fixed_future(cells, col_rows, left_mask)
            order = placed + tuple(g for _, g in future)
            if fixed is None or _future_rank(future, order, copies) < _future_rank(*fixed[:2], copies):
                fixed = (future, order, cells)
        elif (left_mask, key) not in merged or placed < merged[left_mask, key][0]:
            merged[left_mask, key] = state
    return list(merged.values()), fixed


def _future_rank(future, order, copies):
    """Fixed futures compare by their rows, then by the witness row order."""
    return [value for value, g in future for _ in range(copies[g])], order


def _fixed_future(cells: Sequence[int], col_rows: Sequence[int], left: int) -> list[tuple[int, int]]:
    """(reading, group) of the remaining rows in ascending order, for cells
    that no remaining row splits: each cell sends the rows that are 0 on it
    ahead of the rows that are 1 on it."""
    blocks = [(left, 0)]
    for cell in cells:
        size = cell.bit_count()
        ones = col_rows[(cell & -cell).bit_length() - 1]
        full = (1 << size) - 1
        nxt = []
        for rows, value in blocks:
            if rows & ~ones:
                nxt.append((rows & ~ones, value << size))
            if rows & ones:
                nxt.append((rows & ones, value << size | full))
        blocks = nxt
    return [(value, rows.bit_length() - 1) for rows, value in blocks]


def _cell_signature(cells: Sequence[int], col_rows: Sequence[int], left: int):
    """What the remaining rows ``left`` can still tell apart in ``cells``.

    A cell that some remaining row splits counts as its exact column set.
    A cell no remaining row splits counts only through its size and the
    remaining rows that are 1 on it.  Returns None when no cell is split.
    """
    key = []
    fixed = True
    for cell in cells:
        ones = None
        rest = cell
        while rest:
            low = rest & -rest
            rows = col_rows[low.bit_length() - 1] & left
            if ones is None:
                ones = rows
            elif rows != ones:
                break
            rest ^= low
        if rest:
            key.append(cell)
            fixed = False
        else:
            key.append((cell.bit_count(), ones))
    return None if fixed else tuple(key)


# ---------------------------------------------------------------------------
# graph kernel


@dataclass(frozen=True)
class GraphCanon:
    """Canonical key plus the witnessing vertex order.

    ``order[i]`` is the input vertex placed at canonical position i, so the
    canonical adjacency is ``adj[order[i]] & (1 << order[j])``.
    """

    key: CanonicalKey
    order: tuple[int, ...]


def _twin_leaders(g: Graph) -> list[list[int]]:
    """Group vertices whose swap is always an automorphism (open or closed twins)."""
    n = g.n
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    seen: dict[int, int] = {}
    for v in range(n):
        for key in (g.adj[v], g.adj[v] | (1 << v)):
            if key in seen:
                union(seen[key], v)
            else:
                seen[key] = v
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(v)
    return [sorted(members) for members in classes.values()]


def canon_graph(g: Graph) -> GraphCanon:
    """Canonical key of a graph with a witnessing vertex order.

    A split graph is keyed by the incidence of its S-max partition, rows S
    and columns K (``classify.s_max_sides``, the sides ``split_to_xy``
    uses): the key holds the split tag, |S|, |K| and the ``canon_matrix``
    bits of that incidence.  Any two S-max partitions differ by exchanging
    a pair of adjacent twins, which is an automorphism, so two split graphs
    have equal keys iff they are isomorphic.  The witness lists S in the
    kernel's row order, then K in its column order, so the canonical split
    graph has S first and its witness is the identity.

    Every other graph keeps the adjacency objective (``_canon_adjacency``).

    On split graphs the cost is that of the matrix kernel on an |S| x |K|
    matrix: about 0.2 ms for 9- to 11-vertex split graphs, 0.5 / 1.7 ms
    for random split graphs on 40 / 62 vertices, and 5-7 / 26-41 ms for
    the thin spider (a k x k identity) on 16 / 20 vertices.
    """
    sides = s_max_sides(g)
    if sides is None:
        return _canon_adjacency(g)
    s_side, k_side = sides
    mcf = canon_matrix([[g.adj[u] >> v & 1 for v in k_side] for u in s_side])
    order = tuple(s_side[i] for i in mcf.row_perm) + tuple(k_side[j] for j in mcf.col_perm)
    return GraphCanon(_make_key("split", (len(s_side), len(k_side)), mcf.bits), order)


def _canon_adjacency(g: Graph) -> GraphCanon:
    """The adjacency key of any graph, with a witnessing vertex order.

    The key holds the lexicographically least adjacency bits read in
    growing order (vertex k against vertices 0..k-1) over all vertex
    orders, so keys of two graphs are equal iff the graphs are isomorphic.
    A search state is an ordered list of cells of placed vertices; each
    cell is a clique or an independent set, and adjacency between two
    cells is complete or empty, so every order inside the cells emits the
    same bits.  A vertex appended to a state reads zeros first, then ones,
    in every cell, and splits each cell that way; it then joins the last
    cell when that keeps the invariant.  Candidates are one vertex per twin
    class, every tied state is kept, and equal states are merged.  The
    witness is the least order attaining the key, so the witness of a
    canonical graph is the identity.

    Sub-millisecond on random 11-vertex graphs and 30 ms on the 16-cycle.
    On split graphs the tied states grow with the subsets of the stable
    side: 13 ms at 20 vertices, 0.4 s at 28, and more than 20 s at 40.
    """
    n = g.n
    if n == 0:
        return GraphCanon(_make_key("graph", (0,), ()), ())
    adj = g.adj
    twin_classes = _twin_leaders(g)

    def candidates(used_mask: int) -> list[int]:
        out = []
        for members in twin_classes:
            for v in members:
                if not used_mask >> v & 1:
                    out.append(v)
                    break
        return out

    states: dict[tuple[int, ...], int] = {(1 << v,): 1 << v for v in candidates(0)}
    bits: list[int] = []
    for k in range(1, n):
        best = None
        tied = []
        for cells, used in states.items():
            for v in candidates(used):
                block = _reading(adj[v], cells)
                if best is None or block < best:
                    best, tied = block, [(cells, used, v)]
                elif block == best:
                    tied.append((cells, used, v))
        bits.extend(best >> (k - 1 - i) & 1 for i in range(k))
        states = {}
        for cells, used, v in tied:
            row = adj[v]
            split = _split_cells(cells, row)
            last = split[-1]
            u = (last & -last).bit_length() - 1
            if not (row ^ adj[u]) & used & ~last and (
                last == 1 << u or bool(adj[u] & last) == bool(row & last)
            ):
                split[-1] = last | 1 << v
            else:
                split.append(1 << v)
            states[tuple(split)] = used | 1 << v
    order = min(
        tuple(v for cell in cells for v in range(n) if cell >> v & 1) for cells in states
    )
    return GraphCanon(_make_key("graph", (n,), bits), order)


def relabel_graph(g: Graph, order: Sequence[int]) -> Graph:
    """Graph whose position-i vertex is input vertex ``order[i]``."""
    pos = {v: i for i, v in enumerate(order)}
    rows = []
    for i in range(g.n):
        row = 0
        src = g.adj[order[i]]
        for v in range(g.n):
            if src >> v & 1:
                row |= 1 << pos[v]
        rows.append(row)
    return Graph(g.n, tuple(rows))


# ---------------------------------------------------------------------------
# per-class keys and canonical representatives


def xy_matrix(g: XYGraph) -> list[list[int]]:
    m = [[0] * g.ny for _ in range(g.nx)]
    for x, y in g.edges:
        m[x][y] = 1
    return m


def cover_matrix(c: SetCover) -> list[list[int]]:
    m = [[0] * len(c.sets) for _ in range(c.n)]
    for j, s in enumerate(c.sets):
        for e in s:
            m[e][j] = 1
    return m


def poset_matrix(p: BipartitePoset) -> list[list[int]]:
    m = [[0] * p.n1 for _ in range(p.n0)]
    for a, b in p.below:
        m[a][b] = 1
    return m


def canon_xy(g: XYGraph) -> CanonicalKey:
    mcf = canon_matrix(xy_matrix(g))
    return _make_key("xy", (g.nx, g.ny), mcf.bits)


def canon_cover(c: SetCover) -> CanonicalKey:
    mcf = canon_matrix(cover_matrix(c))
    return _make_key("cover", (c.n, len(c.sets)), mcf.bits)


def canon_poset(p: BipartitePoset) -> CanonicalKey:
    mcf = canon_matrix(poset_matrix(p))
    return _make_key("poset", (p.n0, p.n1), mcf.bits)


def canon_key(obj) -> CanonicalKey:
    if isinstance(obj, Graph):
        return canon_graph(obj).key
    if isinstance(obj, SetCover):
        return canon_cover(obj)
    if isinstance(obj, XYGraph):
        return canon_xy(obj)
    if isinstance(obj, BipartitePoset):
        return canon_poset(obj)
    raise UsageError(f"cannot canonicalize {type(obj).__name__}")


def _canonical_ones(key: CanonicalKey, cols: int) -> list[tuple[int, int]]:
    """(row, column) of every 1 of the canonical matrix that a matrix-class
    key packs after its tag and two dimensions, in row-major order."""
    packed = key.data[1 + 2 * KEY_DIM_BYTES :]
    bits = format(int.from_bytes(packed, "big"), f"0{8 * len(packed)}b")
    return [divmod(f, cols) for f, bit in enumerate(bits) if bit == "1"]


def canonical_object(obj):
    """Relabel an object to its canonical form; returns (object, key).

    Matrix classes read the canonical matrix back from the bits of their
    key, so each incidence matrix is built and canonicalized once.
    """
    if isinstance(obj, Graph):
        gc = canon_graph(obj)
        return relabel_graph(obj, gc.order), gc.key
    key = canon_key(obj)
    if isinstance(obj, XYGraph):
        return XYGraph(obj.nx, obj.ny, frozenset(_canonical_ones(key, obj.ny))), key
    if isinstance(obj, SetCover):
        sets: list[list[int]] = [[] for _ in obj.sets]
        for e, j in _canonical_ones(key, len(obj.sets)):
            sets[j].append(e)
        return SetCover(obj.n, tuple(map(tuple, sets))), key
    return BipartitePoset(obj.n0, obj.n1, frozenset(_canonical_ones(key, obj.n1))), key


def is_isomorphic(a, b) -> bool:
    if class_tag_of(a) != class_tag_of(b):
        raise UsageError(
            f"cannot compare a {class_tag_of(a)} object with a {class_tag_of(b)} object"
        )
    return canon_key(a) == canon_key(b)
