"""Canonical forms reducing "unlabeled" equality to byte equality.

A key is defined by a lex-least objective, not by the search that finds
it: the least row-major bit string of a 0/1 matrix over all row and
column orders.  Covers, XY-graphs and posets are keyed by their incidence
matrix, and a split graph by the incidence of its S-max partition (rows
S, columns K).  Graphs that are not split have no key: every command
refuses them first, and ``canon_graph`` raises ``DomainError`` on them.

One kernel finds the objective by an exact search over ordered cells of
columns.  A search state stands for every order that permutes the columns
inside its cells, all of which give the placed rows the same bits.  Each
step places the least-reading row, reading zeros before ones in every
cell, and splits the cells the same way; every tied state is kept and
equivalent states are merged.  A tie among unit rows (a single 1) is
placed as one run: the tied states keep only the subsets of their unit
rows that the rows of several ones can still tell apart, and the placed
unit rows share one cell of their columns, so neither their orders nor
their other subsets branch.  Every minimal cover has such rows, one per
loyal element, and ``canon_cover`` takes their identity blocks out before
the search.  Nothing is pruned by size or by an invariant, so the result
is the objective itself.  Tied states can still multiply on highly
symmetric inputs without unit rows: apart from interchangeable unit rows,
automorphisms are not pruned.

Single-threaded, measured with Python 3.11 on a 2-core Intel Xeon host,
uncached: 0.08 / 0.15 ms for random 7x7 / 12x11 matrices; 0.05 ms for
the 9- to 11-vertex split graphs of the stream benchmark and 0.30 /
0.62 ms for random split graphs on 40 / 62 vertices; 0.17-0.22 ms for
the incidence of a 7-set cover on 10 elements whose loyal elements tie,
and 0.10 ms for that cover's key, which searches only its three rows of
several ones; 0.04-0.15 ms for k x k identities and 0.05-0.19 ms for
the incidence of k disjoint pairs (k = 16 to 64), and 0.07 / 0.14 ms for
the thin spiders on 20 and 40 vertices (K_k with a pendant vertex on each
clique vertex, whose S-max incidence is the identity).  Matrices without
unit rows: 25 ms / 0.16 s for the 10x10 / 12x12 co-identity, 0.59 s for
the 35x7 incidence of the 3-subsets of a 7-set and 3.1 s for the 28x8
incidence of K8.

The row and column groups of the kernel act independently, which is
exactly what keeps X distinguished, keeps a cover's elements and sets
apart and keeps a split graph's stable side apart from its clique.  Keys
embed a tag byte and the dimensions before the bits, so objects of
different classes or shapes never collide.
"""

from __future__ import annotations

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
    Value,
    XYGraph,
    _bits,
    _set,
    class_tag_of,
)
from .classify import s_max_sides

# The first byte of every key, by class.
_TAG_BYTES = {"split": b"S", "cover": b"c", "xy": b"x", "poset": b"p"}


def _make_key(kind: str, dims: Sequence[int], rows: Sequence[int], width: int) -> CanonicalKey:
    """The tag byte, the dimensions, then ``rows`` (``width`` bits each, the
    most significant first) packed row-major and padded with zero bits."""
    packed = 0
    for row in rows:
        packed = packed << width | row
    size = len(rows) * width
    pad = -size % 8
    dim_bytes = b"".join(d.to_bytes(KEY_DIM_BYTES, "big") for d in dims)
    data = _TAG_BYTES[kind] + dim_bytes + (packed << pad).to_bytes((size + pad) // 8, "big")
    return CanonicalKey(kind, data)


# ---------------------------------------------------------------------------
# matrix kernel


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
        ones = cell & mask
        if ones and ones != cell:
            split.append(cell ^ ones)
            split.append(ones)
        else:
            split.append(cell)
    return split


class MatrixCanonForm(Value):
    """Lex-least row-major matrix over independent row/column permutations.

    ``values[i]`` is canonical row i read as a ``col_count``-bit integer,
    column 0 the most significant bit, and
    ``canonical[i][j] == original[row_perm[i]][col_perm[j]]``.
    """

    __slots__ = ("row_count", "col_count", "values", "row_perm", "col_perm")
    row_count: int
    col_count: int
    values: tuple[int, ...]
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]

    def __init__(self, row_count, col_count, values, row_perm, col_perm):
        _set(self, "row_count", row_count)
        _set(self, "col_count", col_count)
        _set(self, "values", values)
        _set(self, "row_perm", row_perm)
        _set(self, "col_perm", col_perm)

    @property
    def bits(self) -> tuple[int, ...]:
        """The canonical matrix flattened row-major."""
        return tuple(bit for row in self.rows() for bit in row)

    def rows(self) -> list[tuple[int, ...]]:
        c = self.col_count
        return [tuple(value >> (c - 1 - j) & 1 for j in range(c)) for value in self.values]


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
    strictly higher afterwards.

    Unit rows (a single 1) are placed in runs.  When the least reading is
    a unit row, each tied state's candidates are the unit rows with the
    most copies on the columns U of one cell, with d columns after it in
    the cells D; placed one by one in any order they read 1 << d,
    1 << (d + 1), ...  This goes on until U runs out or a remaining row R
    of several ones with supp(R) inside U and D has its columns in U
    placed: R then reads below the next unit row.  So the run places, in
    every tied state, the units on supp(R) & U for each such R with the
    fewest columns in U over all tied states, or, when there is no such R,
    all of U in the states with the largest U.  The placed units are an
    identity block on one cell, which sorts to the same bits in any order
    inside it, so the orders of a run never branch.  Every tied state is
    kept, except that states with the same remaining rows whose cells
    agree on everything the remaining rows can still see are merged.  A
    state whose remaining rows split no cell has a fixed future, and only
    the least such state is kept.  Among equal results the witness sorts the rows for its
    column order, so the witness of a canonical matrix is the identity.

    About 0.038 / 0.040 ms per uncached call on the stream's matrices with
    / without unit rows (0.058 / 0.037 ms when covers were searched with
    their identity blocks), 2.1-2.5 us on a cache hit on the stream's XY
    matrices (``tools/kernel_percall.py`` gives 0.020-0.022 / 0.018-0.021 /
    0.029-0.043 ms per uncached call on the census, certify and stream
    inputs, scaled to the benchmark's reference speed);
    0.15 / 0.19 ms for the 64x64 identity and the 128x64 incidence of 64
    disjoint pairs.  Symmetric inputs without unit rows keep more tied
    states (25 ms for the 10x10 co-identity, 0.59 s for the 35x7
    incidence of the 3-subsets of a 7-set).
    """
    rows = []
    for row in matrix:
        mask = 0
        for bit in reversed(row):  # column j becomes bit j
            mask = mask + mask + bit
        rows.append(mask)
    return _canon_rows(tuple(rows), len(matrix[0]) if matrix else 0)


@lru_cache(maxsize=4096)
def _canon_rows(rows: tuple[int, ...], c: int) -> MatrixCanonForm:
    """``canon_matrix`` of rows given as column masks (bit j is column j).

    The census and the verify suites canonicalize the same small matrices
    many times over (``verify --suite all --max-n 6`` makes 1,961 calls on
    633 distinct inputs), so recent results are kept; they are immutable.
    """
    r = len(rows)
    if r == 0 or c == 0:
        return MatrixCanonForm(r, c, (0,) * r, tuple(range(r)), tuple(range(c)))
    # Distinct rows, numbered by first occurrence, and their copies.
    groups: dict[int, int] = {}
    for mask in rows:
        groups[mask] = groups.get(mask, 0) + 1
    masks = list(groups)
    copies = list(groups.values())
    # col_rows[j]: the groups that are 1 in column j; several: the groups
    # of several ones
    col_rows = [0] * c
    several = 0
    for g, mask in enumerate(masks):
        if mask & (mask - 1):
            several |= 1 << g
        while mask:
            low = mask & -mask
            col_rows[low.bit_length() - 1] |= 1 << g
            mask ^= low
    # An open state is (placed groups, column cells, remaining groups, their
    # mask); `fixed` is the least state with a fixed future, or None.
    start = ((), ((1 << c) - 1,), tuple(range(len(masks))), (1 << len(masks)) - 1)
    open_states, fixed = _settle([start], None, masks, col_rows, copies)
    while open_states:
        value = most = None
        tied = []
        for state in open_states:
            cells, cand = state[1], state[2]
            # Reading zeros first in every cell, the least row has the
            # fewest ones in the first cell, then in the second, ...
            low = 0
            for cell in cells:
                least = None
                for g in cand:
                    k = (masks[g] & cell).bit_count()
                    if least is None or k < least:
                        least, kept = k, [g]
                    elif k == least:
                        kept.append(g)
                cand = kept
                low = low << cell.bit_count() | (1 << least) - 1
            top = 0
            for g in cand:
                if copies[g] > top:
                    top, kept = copies[g], [g]
                elif copies[g] == top:
                    kept.append(g)
            if value is None or low < value or low == value and top > most:
                value, most, tied = low, top, []
            if low == value and top == most:
                tied.append((state, kept))
        if value & (value - 1) or not value:
            # a row of several ones or the zero row: one row per tied state
            moves = []
            for state, cand in tied:
                for g in cand:
                    moves.append((state, (g,), masks[g]))
            steps = 1
        else:
            moves, steps = _unit_run(tied, masks, several)
        if fixed is not None:
            # The fixed state's next rows against the open states' rows by
            # (reading, more copies first), one unit step at a time.
            future = fixed[0]
            t = 0
            while t < steps and future[t][0] == value << t and copies[future[t][1]] == most:
                t += 1
            if t == steps:
                fixed = (future[steps:], fixed[1], fixed[2])
            elif (future[t][0], most) < (value << t, copies[future[t][1]]):
                break  # the fixed state beats every open one
            else:
                fixed = None
        grown = []
        for (placed, cells, left, left_mask), gs, mask in moves:
            split = _split_cells(cells, mask)
            if len(gs) == 1:
                left_mask ^= 1 << gs[0]
                i = left.index(gs[0])
                left = left[:i] + left[i + 1 :]
            else:
                for g in gs:
                    left_mask ^= 1 << g
                left = tuple(g for g in left if left_mask >> g & 1)
            grown.append((placed + tuple(gs), tuple(split), left, left_mask))
        open_states, fixed = _settle(grown, fixed, masks, col_rows, copies)
    # Every order inside a cell of the least state reads the same bits once
    # its rows are sorted; the witness takes the columns of each cell in
    # ascending order and the least row order that sorts the rows.
    col_perm = []
    values = [0] * len(masks)
    weight = 1 << c
    for cell in fixed[2]:
        while cell:
            low = cell & -cell
            cell ^= low
            j = low.bit_length() - 1
            weight >>= 1
            col_perm.append(j)
            on = col_rows[j]
            while on:
                low = on & -on
                values[low.bit_length() - 1] |= weight
                on ^= low
    value_of = dict(zip(masks, values))
    row_values = list(map(value_of.__getitem__, rows))
    row_perm = sorted(range(r), key=row_values.__getitem__)
    row_values.sort()
    return MatrixCanonForm(r, c, tuple(row_values), tuple(row_perm), tuple(col_perm))


def _unit_run(tied, masks, several):
    """The moves of a run of tied unit rows, and how many unit steps it emits.

    ``tied`` lists (state, candidate unit groups), the candidates on the
    columns U of one cell, followed by the cells D.  A remaining row R of
    several ones with supp(R) inside U | D fits once its columns in U are
    placed.  With F the fewest columns in U of such an R over all tied
    states, each state places the units on supp(R) & U for every such R
    with F of them; with no such R, the states with the largest U place all
    of it.  A move is (state, groups in ascending order, their columns).
    """
    sites = []
    least = None
    for state, cand in tied:
        units = 0
        for g in cand:
            units |= masks[g]
        reach = units
        for cell in reversed(state[1]):
            if cell & units:
                break
            reach |= cell
        fits = set()
        for h in state[2]:
            if several >> h & 1 and not masks[h] & ~reach:
                fit = masks[h] & units
                fits.add(fit)
                if least is None or fit.bit_count() < least:
                    least = fit.bit_count()
        sites.append((state, cand, units, fits))
    moves = []
    if least is None:
        widest = max(units.bit_count() for _, _, units, _ in sites)
        for state, cand, units, _ in sites:
            if units.bit_count() == widest:
                moves.append((state, cand, units))
        return moves, widest
    for state, cand, _, fits in sites:
        for fit in sorted(fits):
            if fit.bit_count() == least:
                moves.append((state, [g for g in cand if masks[g] & fit], fit))
    return moves, least


def _settle(states, fixed, masks, col_rows, copies):
    """Merge equivalent open states and set aside those with a fixed future.

    Open states with the same remaining rows and the same cell signature
    have the same future; the one with the least placed order stays.  A
    state whose cells no remaining row splits has a fixed future, the
    remaining rows in ascending order, and only the least such state is
    kept, as (future (reading, group) pairs, full group order, cells); the
    last state of a search is kept without its future, which nothing reads.
    A lone state merges with nothing, so it is only asked whether some
    remaining row splits a cell.
    """
    if len(states) == 1:
        placed, cells, _, left_mask = states[0]
        if _splits(cells, col_rows, left_mask):
            return states, fixed
        if fixed is None:
            return [], (None, placed, cells)
        return [], _least_fixed(fixed, placed, cells, masks, left_mask, copies)
    merged: dict = {}
    for state in states:
        placed, cells, _, left_mask = state
        key = _cell_signature(cells, col_rows, left_mask)
        if key is None:
            fixed = _least_fixed(fixed, placed, cells, masks, left_mask, copies)
        elif (left_mask, key) not in merged or placed < merged[left_mask, key][0]:
            merged[left_mask, key] = state
    return list(merged.values()), fixed


def _least_fixed(fixed, placed, cells, masks, left, copies):
    """The least of ``fixed`` and the state (placed, cells) whose remaining
    rows ``left`` split no cell; its future is the (reading, group) pairs of
    those rows in ascending order."""
    future = []
    for g in _bits(left):
        future.append((_reading(masks[g], cells), g))
    future.sort()
    order = placed
    for _, g in future:
        order += (g,)
    if fixed is None or _future_rank(future, order, copies) < _future_rank(*fixed[:2], copies):
        return future, order, cells
    return fixed


def _splits(cells: Sequence[int], col_rows: Sequence[int], left: int) -> bool:
    """Whether some remaining row of ``left`` splits one of ``cells``."""
    if not left:
        return False
    for cell in cells:
        if cell & (cell - 1):
            low = cell & -cell
            ones = col_rows[low.bit_length() - 1] & left
            cell ^= low
            while cell:
                low = cell & -cell
                if col_rows[low.bit_length() - 1] & left != ones:
                    return True
                cell ^= low
    return False


def _future_rank(future, order, copies):
    """Fixed futures compare by their rows, then by the witness row order."""
    return [value for value, g in future for _ in range(copies[g])], order


def _cell_signature(cells: Sequence[int], col_rows: Sequence[int], left: int):
    """What the remaining rows ``left`` can still tell apart in ``cells``.

    A cell that some remaining row splits counts as its exact column set.
    A cell no remaining row splits counts only through its size and the
    remaining rows that are 1 on it.  Returns None when no cell is split.
    """
    key = []
    fixed = True
    for cell in cells:
        low = cell & -cell
        ones = col_rows[low.bit_length() - 1] & left
        rest = cell ^ low
        while rest:
            low = rest & -rest
            if col_rows[low.bit_length() - 1] & left != ones:
                break
            rest ^= low
        if rest:
            key.append(cell)
            fixed = False
        else:
            key.append((cell.bit_count(), ones))
    return None if fixed else tuple(key)


# ---------------------------------------------------------------------------
# split graphs


class GraphCanon(Value):
    """Canonical key plus the witnessing vertex order.

    ``order[i]`` is the input vertex placed at canonical position i, so the
    canonical adjacency is ``adj[order[i]] & (1 << order[j])``.
    """

    __slots__ = ("key", "order")
    key: CanonicalKey
    order: tuple[int, ...]

    def __init__(self, key, order):
        _set(self, "key", key)
        _set(self, "order", order)


def canon_graph(g: Graph) -> GraphCanon:
    """Canonical key of a split graph with a witnessing vertex order.

    A split graph is keyed by the incidence of its S-max partition, rows S
    and columns K (``classify.s_max_sides``, the sides ``split_to_xy``
    uses): the key holds the split tag, |S|, |K| and the ``canon_matrix``
    bits of that incidence.  Any two S-max partitions differ by exchanging
    a pair of adjacent twins, which is an automorphism, so two split graphs
    have equal keys iff they are isomorphic.  The witness lists S in the
    kernel's row order, then K in its column order, so the canonical split
    graph has S first and its witness is the identity.  A graph that is
    not split raises ``DomainError`` from the degree test, before any
    search.

    The cost is that of the matrix kernel on an |S| x |K| matrix: about
    0.05 ms for 9- to 11-vertex split graphs, 0.30 / 0.62 ms for random
    split graphs on 40 / 62 vertices, and 0.07 / 0.14 ms for the thin
    spider (a k x k identity) on 20 / 40 vertices.
    """
    s_side, k_side = s_max_sides(g)
    mcf = canon_matrix([[row >> v & 1 for v in k_side] for row in [g.adj[u] for u in s_side]])
    order = tuple(s_side[i] for i in mcf.row_perm) + tuple(k_side[j] for j in mcf.col_perm)
    return GraphCanon(_make_key("split", (len(s_side), len(k_side)), mcf.values, len(k_side)), order)


def relabel_graph(g: Graph, order: Sequence[int]) -> Graph:
    """Graph whose position-i vertex is input vertex ``order[i]``."""
    bit = [0] * g.n  # bit[v]: the bit of v's position
    for i, v in enumerate(order):
        bit[v] = 1 << i
    rows = []
    for v in order:
        src = g.adj[v]
        row = 0
        while src:
            low = src & -src
            row |= bit[low.bit_length() - 1]
            src ^= low
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
    return _make_key("xy", (g.nx, g.ny), mcf.values, g.ny)


def canon_cover(c: SetCover) -> CanonicalKey:
    """The key of a cover's incidence, searched with its rows sorted and
    without the identity blocks of its loyal elements.

    A loyal element (in one set only) is a unit row, and a cover is
    minimal exactly when every set has one, so with k the fewest unit rows
    on any column, k >= 1 for every minimal cover (k = 0 otherwise).  The
    k copies of the identity are taken out before the search and merged
    back into the values.  This is exact: under every column order they
    are the same multiset U of rows, the least matrix for a column order
    has its rows sorted, and merging a fixed U into sorted sequences of
    one length keeps their lexicographic order, so the least matrix is U
    merged into the least matrix of the other rows.  On the stream's
    covers (an identity plus a few rows) the identity's unit runs were
    where the search branched.

    The key does not depend on row order, and the witness never leaves
    here, so the rows are sorted to key the kernel's cache by their
    multiset: rep choices and compile maps swap twin loyal elements, which
    moves rows and keeps the multiset.  XY-graphs and posets keep their
    rows as given: their identity blocks are rare, and stripping them as
    well saved nothing on the stream's items (their total time in-process
    was lower in 4 of 10 pairs), while sorting their rows costs cache hits
    (``verify --suite all --max-n 6`` made 762 searches, not 747, before
    covers were stripped).  Split graphs keep their rows and identity
    blocks because ``canon_graph`` returns a witness, which is pinned.
    """
    m = len(c.sets)
    rows = cover_matrix(c)
    owners = [0] * c.n  # how many sets hold each element
    for s in c.sets:
        for e in s:
            owners[e] += 1
    loyal = [[e for e in s if owners[e] == 1] for s in c.sets]
    k = min(map(len, loyal), default=0)
    for elements in loyal:  # the unit rows of k loyal elements per set go
        for e in elements[:k]:
            rows[e] = None
    rows = sorted(row for row in rows if row is not None)
    values = canon_matrix(rows).values + tuple(1 << j for j in range(m)) * k
    return _make_key("cover", (c.n, m), sorted(values), m)


def canon_poset(p: BipartitePoset) -> CanonicalKey:
    mcf = canon_matrix(poset_matrix(p))
    return _make_key("poset", (p.n0, p.n1), mcf.values, p.n1)


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
    value, last = int.from_bytes(packed, "big"), 8 * len(packed) - 1
    ones = []
    while value:
        top = value.bit_length() - 1
        ones.append(divmod(last - top, cols))
        value ^= 1 << top
    return ones


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
