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
the search.  While the search holds a single state, the state is updated
in place, and of its tied rows it places only the first and those that no
automorphism of the state maps from the first: the automorphism tried
swaps, inside the cells, the columns where the two rows differ, and must
map every remaining row to one with as many copies.  The search after a
row left out is the image of the search after the first, with the same
bits and a later order, so nothing that could be the result is dropped.
Nothing is pruned by size or by an invariant, so the result is the
objective itself.  Tied states can still multiply on symmetric inputs
whose automorphisms these swaps miss, and once several states are open,
automorphisms other than interchangeable unit rows are not pruned.

Single-threaded, measured with Python 3.11 on a 2-core Intel Xeon host,
uncached: 0.07 / 0.09 ms for random 7x7 / 12x11 matrices; 0.04 ms for
the 9- to 11-vertex split graphs of the stream benchmark and 0.17 /
0.31 ms for random split graphs on 40 / 62 vertices; 0.17 ms for the
incidence of a 7-set cover on 10 elements whose loyal elements tie, and
0.03 ms for that cover's key, which searches only its three rows of
several ones; 0.06-0.26 ms for k x k identities and 0.08-0.41 ms for the
incidence of k disjoint pairs (k = 16 to 64, most of it reading the
lists), and 0.04 / 0.05 ms for the thin spiders on 20 and 40 vertices
(K_k with a pendant vertex on each clique vertex, whose S-max incidence
is the identity).  Matrices without unit rows: 0.17 / 0.37 ms for the
10x10 / 12x12 co-identity, 0.43 ms for the 35x7 incidence of the
3-subsets of a 7-set and 0.50 ms for the 28x8 incidence of K8, whose
tied rows the swaps match (21 ms, 0.14 s, 0.53 s and 3.3 s when every
tied row was searched).

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
    SizeLimitError,
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


def _make_key(kind: str, dims: tuple[int, int], rows: Sequence[int], width: int) -> CanonicalKey:
    """The tag byte, the dimensions (rows, columns), then ``rows`` (``width``
    bits each, the most significant first) packed row-major and padded with
    zero bits.

    Shifting one integer per row is quadratic in the key's bits (32 s for
    the rows of the 8,000 x 8,000 identity), but it is the quicker way up to
    about 4,096 bits: 0.45 against 1.0 us for a 5 x 5 key and 6.2 against
    8.6 us for 64 x 30, while 512 x 8 takes 123 us either way and 256 x 30
    takes 53 against 33 us.  Beyond 4,096 bits the rows are packed eight at
    a time, which fill ``width`` whole bytes, so the packing stays linear.
    A dimension above ``MAX_KEY_DIM`` raises ``SizeLimitError``.
    """
    row_count, col_count = dims
    if row_count > MAX_KEY_DIM or col_count > MAX_KEY_DIM:
        raise SizeLimitError(f"a key encodes sizes of at most {MAX_KEY_DIM}; got {row_count} x {col_count}")
    head = _TAG_BYTES[kind] + (row_count << 8 * KEY_DIM_BYTES | col_count).to_bytes(2 * KEY_DIM_BYTES, "big")
    if len(rows) * width <= 4096:
        return CanonicalKey(kind, head + _packed(rows, width))
    return CanonicalKey(kind, head + b"".join(_packed(rows[i : i + 8], width) for i in range(0, len(rows), 8)))


def _packed(rows: Sequence[int], width: int) -> bytes:
    """``rows`` of ``width`` bits, the most significant first, padded with
    zero bits to whole bytes."""
    packed = 0
    for row in rows:
        packed = packed << width | row
    size = len(rows) * width
    pad = -size % 8
    return (packed << pad).to_bytes((size + pad) // 8, "big")


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
    the least such state is kept.  A lone state is not asked for one: it
    places its rows in place, and leaves out tied rows that a swap of
    columns inside its cells maps from the first (see the module
    docstring).  Among equal results the witness sorts the rows for its
    column order, so the witness of a canonical matrix is the identity.

    ``tools/kernel_percall.py --against`` puts an uncached call at
    0.62-0.63 / 0.62-0.63 / 0.71-0.73 of the cost it had before lone states
    were placed in place and tied rows matched by swaps, on the census,
    certify and stream inputs (9 / 8 / 18-19 us raw; the scaled column
    drifts between runs more than it corrects); 0.20 / 0.32 ms for the 64x64 identity and the 128x64
    incidence of 64 disjoint pairs, of which the search on their row masks
    takes 0.08 ms and reading the lists the rest.  Symmetric inputs whose automorphisms no swap from the
    first tied row finds keep more tied states.
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
    many times over (``verify --suite all --max-n 6`` makes 1,740 calls on
    479 distinct inputs), so recent results are kept; they are immutable.
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
    # An open state is (placed groups, column cells, remaining groups, their
    # mask).  The search starts with one, placed in place while it stays
    # alone; most searches end there.
    start = ((), ((1 << c) - 1,), tuple(range(len(masks))), (1 << len(masks)) - 1)
    moves, cells = _lone_steps(start, c, masks, copies)
    if moves is None:
        return _form(rows, c, masks, cells)
    # Several states: col_rows[j] holds the groups that are 1 in column j,
    # which tells cheaply whether a cell is split and which rows cover it.
    col_rows = [0] * c
    for g, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            col_rows[low.bit_length() - 1] |= 1 << g
            mask ^= low
    fixed = None  # the least state with a fixed future, or None
    while True:
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
        if not open_states:
            break
        if fixed is None and len(open_states) == 1:
            moves, cells = _lone_steps(open_states[0], c, masks, copies)
            if moves is None:
                return _form(rows, c, masks, cells)
            continue
        value = most = None
        tied = []
        for state in open_states:
            kept, top = _least_rows(state[2], state[1], masks, copies)
            low = _reading(masks[kept[0]], state[1])
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
            moves, steps = _unit_run(tied, masks)
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
    return _form(rows, c, masks, fixed[2])


def _lone_steps(state, c, masks, copies):
    """Place the rows of a lone open state while no fixed state is kept.

    The state is updated in place, one step at a time, until its rows are
    placed, which gives (None, its cells), or until a step has several
    moves, which gives (those moves, None).  A lone state merges with
    nothing and is compared with nothing, so a step needs its least rows but
    not their reading, and places one row of several ones (or the zero row)
    or one run of unit rows without building a state.

    The state is not asked whether it has a fixed future: placing the rest
    of such a state gives its cells unchanged, with no step of several
    moves.  Each remaining row is then a union of cells, and two of them
    read alike only if they are equal; a least unit row has a cell of its
    own, and every remaining row that fits its run holds its column.  So
    the steps run until one row is left, which is placed by splitting the
    cells whether or not it splits one, or until each of the ``c`` columns
    has a cell of its own, when every future is fixed.
    """
    placed, cells, left, left_mask = list(state[0]), list(state[1]), list(state[2]), state[3]
    while len(left) > 1 and len(cells) < c:
        cand, _ = _least_rows(left, cells, masks, copies)
        g = cand[0]
        if masks[g].bit_count() != 1:
            if len(cand) > 1:
                cand = _unswapped(cand, cells, left, masks, copies)
            if len(cand) > 1:
                state = (tuple(placed), tuple(cells), tuple(left), left_mask)
                moves = []
                for g in cand:
                    moves.append((state, (g,), masks[g]))
                return moves, None
            mask = masks[g]
            left.remove(g)
            left_mask ^= 1 << g
            placed.append(g)
        else:
            state = (tuple(placed), tuple(cells), tuple(left), left_mask)
            moves, _ = _unit_run([(state, cand)], masks)
            if len(moves) > 1:
                return moves, None
            _, gs, mask = moves[0]
            for g in gs:
                left_mask ^= 1 << g
                left.remove(g)
            placed += gs
        cells = _split_cells(cells, mask)
    if len(left) == 1:
        cells = _split_cells(cells, masks[left[0]])
    return None, cells


def _least_rows(cand, cells, masks, copies):
    """The rows of ``cand`` that read least in ``cells``, and of those the
    ones with the most copies, with that number of copies.

    Reading zeros first in every cell, the least row has the fewest ones in
    the first cell, then in the second, ...  This is the one rule that
    ranks the candidates of a step, lone or among several states.
    """
    for cell in cells:
        if len(cand) == 1:
            return cand, copies[cand[0]]
        least = cell.bit_count() + 1
        for g in cand:
            k = (masks[g] & cell).bit_count()
            if k < least:
                least, kept = k, [g]
            elif k == least:
                kept.append(g)
        cand = kept
    top = 0
    for g in cand:
        if copies[g] > top:
            top, kept = copies[g], [g]
        elif copies[g] == top:
            kept.append(g)
    return kept, top


def _unswapped(cand, cells, left, masks, copies):
    """The tied rows ``cand`` of a lone state less each that an
    automorphism of the state maps from the first.

    The automorphism tried for the first row a and a later row b swaps the
    columns of a not in b with those of b not in a, paired in ascending
    order inside each cell (tied rows have as many ones in every cell).  It
    keeps the cells and the placed rows, which are unions of cells, and it
    maps a to b; it is an automorphism when it maps every remaining row to
    one with as many copies.  Then the search after b is the image of the
    search after a, with the same bits, and each of its orders has b where
    the other has the earlier a: it can hold no least result, and is not
    made.  Only the first row is tried, so that this costs one pass over
    the remaining rows per tied row.
    """
    remaining = {}
    for h in left:
        remaining[masks[h]] = copies[h]
    a = cand[0]
    kept = [a]
    for b in cand[1:]:
        swaps = []
        for cell in cells:
            xs = masks[a] & ~masks[b] & cell
            ys = masks[b] & ~masks[a] & cell
            while xs:
                x = xs & -xs
                y = ys & -ys
                swaps.append(x | y)
                xs ^= x
                ys ^= y
        for h in left:
            image = masks[h]
            for swap in swaps:
                if image & swap and image & swap != swap:
                    image ^= swap
            if remaining.get(image) != copies[h]:
                kept.append(b)  # not an automorphism
                break
    return kept


def _form(rows, c, masks, cells) -> MatrixCanonForm:
    """The canonical form read off the cells of the least state.

    Every order inside a cell of the least state reads the same bits once
    its rows are sorted; the witness takes the columns of each cell in
    ascending order and the least row order that sorts the rows.
    """
    col_perm = []
    for cell in cells:
        while cell:
            low = cell & -cell
            col_perm.append(low.bit_length() - 1)
            cell ^= low
    values = _move_columns(rows, c, col_perm[::-1])  # column col_perm[0] leads
    row_perm = sorted(range(len(rows)), key=values.__getitem__)
    values.sort()
    return MatrixCanonForm(len(rows), c, tuple(values), tuple(row_perm), tuple(col_perm))


def _move_columns(rows: Sequence[int], width: int, sources: Sequence[int]) -> list[int]:
    """Each of ``rows`` (``width``-bit integers) with bit ``sources[p]`` of
    it moved to bit p.

    Either every row goes in a ``width``-bit field of one integer, where one
    shift and mask moves a column of all of them at once, or each 1 moves
    on its own.  The first makes ``rows + width`` steps in Python and
    shifts about ``rows x width x (rows + 2 width)`` bits whatever the ones
    (packing and unpacking shift the growing integer once per row, and each
    column shifts all of it); the second makes a step per 1, and a step
    costs about as much as shifting 4,096 bits.  So the first is taken when
    the ones outnumber ``rows + width + rows x width x (rows + 2 width) /
    4096``.  That came within 1% of always taking the faster way on 300
    stream searches and 720 random matrices from 2 x 2 to 96 x 96, unit
    rows to 0.8 dense.  On 59 larger or graph inputs (square matrices of
    128 to 1024, unit rows to half dense; 1,024 to 65,535 rows of 2 to 32
    columns; split graphs of 6 to 512 vertices) it picked the faster way or
    one within 20%, but for the half-dense 1024 x 1024 matrix, 130 ms bit
    by bit against 105 ms packed.  A half-dense 64 x 64 matrix takes 59 us
    packed and 400 us bit by bit, the 64 x 64 identity 52 and 20 us, 4,096
    half-dense rows of 8 columns 4.7 and 1.5 ms, a 10-vertex split graph
    with a 5-clique 4.0 and 6.1 us.  The work stays linear in the ones
    either way.
    """
    r = len(rows)
    ones = 0
    for row in rows:
        ones += row.bit_count()
    moved = []
    if r + width + r * width * (r + 2 * width) // 4096 < ones:
        packed = 0
        for row in reversed(rows):
            packed = packed << width | row
        column = ((1 << width * r) - 1) // ((1 << width) - 1)  # bit 0 of every field
        out = 0
        for p, j in enumerate(sources):
            out |= (packed >> j & column) << p
        full = (1 << width) - 1
        for _ in rows:
            moved.append(out & full)
            out >>= width
        return moved
    bit = [0] * width  # bit[j]: where bit j of a row goes
    for p, j in enumerate(sources):
        bit[j] = 1 << p
    for row in rows:
        value = 0
        while row:
            low = row & -row
            value |= bit[low.bit_length() - 1]
            row ^= low
        moved.append(value)
    return moved


def _unit_run(tied, masks):
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
            mask = masks[h]
            if mask & (mask - 1) and not mask & ~reach:
                fit = mask & units
                fits.add(fit)
                if least is None or fit.bit_count() < least:
                    least = fit.bit_count()
        sites.append((state, cand, units, fits))
    # plain loops: a comprehension costs a call of its own in Python 3.11,
    # and this runs at every unit step, lone states' included
    moves = []
    if least is None:
        widest = 0
        for _, _, units, _ in sites:
            widest = max(widest, units.bit_count())
        for state, cand, units, _ in sites:
            if units.bit_count() == widest:
                moves.append((state, cand, units))
        return moves, widest
    for state, cand, _, fits in sites:
        for fit in sorted(fits):
            if fit.bit_count() == least:
                gs = []
                for g in cand:
                    if masks[g] & fit:
                        gs.append(g)
                moves.append((state, gs, fit))
    return moves, least


def _settle(states, fixed, masks, col_rows, copies):
    """Merge equivalent open states and set aside those with a fixed future.

    Open states with the same remaining rows and the same cell signature
    have the same future; the one with the least placed order stays.  A
    state whose cells no remaining row splits has a fixed future, the
    remaining rows in ascending order, and only the least such state is
    kept, as (future (reading, group) pairs, full group order, cells); the
    last state of a search is kept without its future, which nothing reads.
    The cell signature is built only for open states that share their
    remaining rows with another; the others merge with nothing.  The open
    states come out in no particular order: which of them stay open, and
    which fixed state is kept, does not depend on it.
    """
    if len(states) == 1:
        placed, cells, _, left_mask = states[0]
        if _splits(cells, col_rows, left_mask):
            return states, fixed
        if fixed is None:
            return [], (None, placed, cells)
        return [], _least_fixed(fixed, placed, cells, masks, left_mask, copies)
    shared: dict = {}  # by remaining rows: whether several states have them
    for state in states:
        shared[state[3]] = state[3] in shared
    merged: dict = {}
    for state in states:
        placed, cells, _, left_mask = state
        if not _splits(cells, col_rows, left_mask):
            fixed = _least_fixed(fixed, placed, cells, masks, left_mask, copies)
        elif not shared[left_mask]:
            merged[left_mask] = state
        else:
            key = (left_mask, _cell_signature(cells, col_rows, left_mask))
            if key not in merged or placed < merged[key][0]:
                merged[key] = state
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


def _cell_signature(cells: Sequence[int], col_rows: Sequence[int], left: int) -> tuple:
    """What the remaining rows ``left`` can still tell apart in ``cells``.

    A cell that some remaining row splits counts as its exact column set.
    A cell no remaining row splits counts only through its size and the
    remaining rows that are 1 on it.
    """
    key = []
    for cell in cells:
        low = cell & -cell
        ones = col_rows[low.bit_length() - 1] & left
        rest = cell ^ low
        while rest:
            low = rest & -rest
            if col_rows[low.bit_length() - 1] & left != ones:
                break
            rest ^= low
        key.append(cell if rest else (cell.bit_count(), ones))
    return tuple(key)


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

    The incidence goes to the kernel as row masks read straight off the
    adjacency.  The cost is that of the matrix kernel on an |S| x |K|
    matrix: about 0.04 ms for 9- to 11-vertex split graphs, 0.17 / 0.31 ms
    for random split graphs on 40 / 62 vertices, and 0.04 / 0.05 ms for
    the thin spider (a k x k identity) on 20 / 40 vertices.  With the
    search cached, a stream graph's key costs about 11 us, and its
    canonical graph with the key 17 us (13 and 21 us when the incidence
    was built as lists and the graph relabelled bit by bit).
    """
    s_side, k_side = s_max_sides(g)
    column = [0] * g.n  # column[v]: the bit of K-vertex v in a row mask
    for j, v in enumerate(k_side):
        column[v] = 1 << j
    rows = []
    for u in s_side:  # S is stable: every neighbor of u is in K
        adj = g.adj[u]
        mask = 0
        while adj:
            low = adj & -adj
            mask |= column[low.bit_length() - 1]
            adj ^= low
        rows.append(mask)
    mcf = _canon_rows(tuple(rows), len(k_side))
    order = tuple(map(s_side.__getitem__, mcf.row_perm)) + tuple(map(k_side.__getitem__, mcf.col_perm))
    return GraphCanon(_make_key("split", (len(s_side), len(k_side)), mcf.values, len(k_side)), order)


def relabel_graph(g: Graph, order: Sequence[int]) -> Graph:
    """Graph whose position-i vertex is input vertex ``order[i]``: the
    rows with their columns moved to the new order, then put in it."""
    moved = _move_columns(g.adj, g.n, order)
    return Graph(g.n, tuple(map(moved.__getitem__, order)))


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
    k = None
    for s in c.sets:
        loyal = 0
        for e in s:
            if owners[e] == 1:
                loyal += 1
        if k is None or loyal < k:
            k = loyal
    if k:  # the unit rows of k loyal elements per set go
        for s in c.sets:
            left = k
            for e in s:
                if owners[e] == 1:
                    rows[e] = None
                    left -= 1
                    if not left:
                        break
        rows = [row for row in rows if row is not None]
    rows.sort()
    values = canon_matrix(rows).values
    if k:
        values = sorted(values + tuple(map((1).__lshift__, range(m))) * k)
    return _make_key("cover", (c.n, m), values, m)


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
    key, so each incidence matrix is built and canonicalized once.  The
    sets of a cover read back that way are sorted tuples of distinct
    elements already, so only their order is normalized before
    ``SetCover._from_normal``: decoding and building take 5.2 us per stream
    cover, 8.6 us through ``SetCover``'s constructor.
    """
    if isinstance(obj, Graph):
        gc = canon_graph(obj)
        return relabel_graph(obj, gc.order), gc.key
    key = canon_key(obj)
    if isinstance(obj, XYGraph):
        return XYGraph(obj.nx, obj.ny, _canonical_ones(key, obj.ny)), key
    if isinstance(obj, SetCover):
        sets: list[list[int]] = [[] for _ in obj.sets]
        for e, j in _canonical_ones(key, len(obj.sets)):
            sets[j].append(e)
        return SetCover._from_normal(obj.n, tuple(sorted(map(tuple, sets)))), key
    return BipartitePoset(obj.n0, obj.n1, _canonical_ones(key, obj.n1)), key


def is_isomorphic(a, b) -> bool:
    if class_tag_of(a) != class_tag_of(b):
        raise UsageError(
            f"cannot compare a {class_tag_of(a)} object with a {class_tag_of(b)} object"
        )
    return canon_key(a) == canon_key(b)
