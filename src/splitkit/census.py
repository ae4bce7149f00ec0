"""Exhaustive census of each class at a given size, built once per process.

Every census is read off one store of incidence matrices generated by
column augmentation (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998).  ``_levels[nx][m]`` holds the nx x m 0/1 matrices
with no zero column, one per unlabeled object, as the canonical row values
of the matrix kernel (``canon._canon_rows``); rows are X and columns Y of
an XY-graph without isolates in Y.  Level m + 1 extends each matrix of
level m by one column.  Equal rows are interchangeable, so the new column
is chosen only up to them: one column per vector of counts of ones over
the groups of equal rows, with at least as many ones as the heaviest
column already there.  The rule is complete: deleting a heaviest column of
any matrix of level m + 1 leaves a matrix of level m, and the column put
back has one of the counted vectors.  Children are deduplicated by their
canonical values and kept in order of first appearance.

The XY census without isolates in Y reads level n - nx for nx = n down to
0.  Its records are read straight off the level values, which are
canonical already: the key packs them, and the canonical XY-graph joins
X-vertex x to Y-vertex ny - 1 - j for each bit j of ``values[x]``.  Split
graphs, covers and posets are transported straight from those XY-graphs
(``xy_to_split``, then ``split_to_cover`` or ``split_to_poset``) and
canonicalized.
By the paper's counting fact, the XY-graphs on n points with isolates in Y
are the ones without isolates on fewer points, with isolates added: for
each nx, the unrestricted XY census reads the levels m < n - nx with
n - nx - m isolates added, most isolates first, then level n - nx as the
census without isolates reads it.

Deduplication rests on the kernel, so two checks share nothing with the
generation but the canonical forms: the naive oracle in the test suite
(``tests/oracles.py``: generate every labeled object, canonicalize,
deduplicate) compares whole censuses at small n, and the paper's counts
(OEIS A048194 for split graphs, their partial sums for XY-graphs) check up
to n = 10 that the kernel neither merges nor splits classes.

Per-process stores keep what is built: the levels, the first time any
census needs them, and per census that a caller asks for, its records, a
tuple in generation order, one per unlabeled object, holding the
canonically labeled object, its canonical key and its balance (``None``
for an XY-graph with isolates in Y, whose balance is undefined).  A
(class, n, no-Y-isolates) census is built whole on its first read, with a
check that no two of its objects share a key, and stored; every
``iter_*`` pass reads the stored tuple.  A transported census
canonicalizes and classifies only its own objects, so a one-shot
``enumerate`` builds no XY or split census it does not print, while a
caller that asks for every census (``verify``) canonicalizes each
unlabeled object of each class once, apart from the XY records without
isolates in Y, which need no canonicalization.  Every command reads the
XY census without isolates in Y before the unrestricted one at the same
n, and the unrestricted census takes those records instead of building
them again.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from . import biject
from .canon import _canon_rows, _make_key, canonical_object
from .classify import balance_of
from .core import (
    Balance,
    BipartitePoset,
    CanonicalKey,
    Graph,
    SetCover,
    SizeLimitError,
    UsageError,
    Value,
    XYGraph,
    _set,
)

MAX_N = 8


class Census(Value):
    """Sorted canonical keys of one class at one size, with balance counts.

    For unfiltered XY censuses the objects whose balance is undefined
    (isolates in Y) are tallied as ``out_of_domain``.
    """

    __slots__ = ("class_tag", "n", "keys", "balanced", "unbalanced", "out_of_domain")
    class_tag: str
    n: int
    keys: tuple[CanonicalKey, ...]
    balanced: int
    unbalanced: int
    out_of_domain: int

    def __init__(self, class_tag, n, keys, balanced, unbalanced, out_of_domain=0):
        _set(self, "class_tag", class_tag)
        _set(self, "n", n)
        _set(self, "keys", keys)
        _set(self, "balanced", balanced)
        _set(self, "unbalanced", unbalanced)
        _set(self, "out_of_domain", out_of_domain)

    @property
    def count(self) -> int:
        return len(self.keys)


class Record(Value):
    """One census object: canonically labeled, with its key and balance.

    ``balance`` is None exactly when it is undefined (isolates in Y).
    """

    __slots__ = ("obj", "key", "balance")
    obj: object
    key: CanonicalKey
    balance: Optional[Balance]

    def __init__(self, obj, key, balance):
        _set(self, "obj", obj)
        _set(self, "key", key)
        _set(self, "balance", balance)


def _check_bound(n: int):
    if not 0 <= n <= MAX_N:
        raise SizeLimitError(f"enumeration supports 0 <= n <= {MAX_N}, got n={n}")


# ---------------------------------------------------------------------------
# generation by column augmentation, and census records


_levels: dict[int, list[tuple[tuple[int, ...], ...]]] = {}
_records: dict[tuple[str, int, bool], tuple[Record, ...]] = {}


def _level(nx: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Canonical row values of the nx x m incidences with no zero column,
    one per unlabeled object, each level built once per process."""
    levels = _levels.setdefault(nx, [((0,) * nx,)])
    while len(levels) <= m:
        levels.append(_augment(levels[-1], len(levels) - 1))
    return levels[m]


def _augment(parents: tuple[tuple[int, ...], ...], m: int) -> tuple[tuple[int, ...], ...]:
    """Level m + 1 from level m: each parent with a new column in bit 0,
    one per vector of counts of ones over its groups of equal rows, at
    least as heavy as its heaviest column (and not empty)."""
    children: dict[tuple[int, ...], None] = {}
    for values in parents:
        groups: dict[int, int] = {}
        for v in values:
            groups[v] = groups.get(v, 0) + 1
        heaviest = max([sum(v >> j & 1 for v in values) for j in range(m)] + [1])
        for counts in itertools.product(*(range(k + 1) for k in groups.values())):
            if sum(counts) >= heaviest:
                rows: list[int] = []
                for (v, k), ones in zip(groups.items(), counts):
                    rows += [v << 1 | 1] * ones + [v << 1] * (k - ones)
                # bit j read as column j reverses the columns, which leaves
                # the canonical form as it is
                children.setdefault(_canon_rows(tuple(rows), m + 1).values, None)
    return tuple(children)


def _xy_graph(nx: int, ny: int, values: tuple[int, ...]) -> XYGraph:
    """The XY-graph with X-vertex x on the Y-vertices set in ``values[x]``;
    the Y-vertices past the columns of ``values`` are isolates."""
    return XYGraph(nx, ny, frozenset((x, y) for x, v in enumerate(values) for y in range(ny) if v >> y & 1))


# class -> maps taking an XY-graph without isolates in Y to it
_TRANSPORT = {
    "xy": (),
    "split": (biject.xy_to_split,),
    "cover": (biject.xy_to_split, biject.split_to_cover),
    "poset": (biject.xy_to_split, biject.split_to_poset),
}


def _transported(class_tag: str, n: int, no_isolates: bool) -> Iterator[Record]:
    """Records of a census read off the XY-graphs without isolates in Y;
    an XY record is read straight off the canonical level values.  The
    unrestricted XY census first reads, at each nx, the levels m < n - nx
    with n - nx - m isolates added in Y, most isolates first; at level
    n - nx it takes the records of the census without isolates when that
    is stored."""
    maps = _TRANSPORT[class_tag]
    padded = class_tag == "xy" and not no_isolates
    ready = _records.get(("xy", n, True)) if padded else None
    if ready is not None:
        ready = {nx: list(run) for nx, run in itertools.groupby(ready, lambda r: r.obj.nx)}
    for nx in range(n, -1, -1):
        ny = n - nx
        for m in range(ny if padded else 0):
            for values in _level(nx, m):
                h, key = canonical_object(_xy_graph(nx, ny, values))
                yield Record(h, key, None)
        if ready is not None:
            yield from ready.get(nx, ())
            continue
        for values in _level(nx, ny):
            if maps:
                obj = _xy_graph(nx, ny, values)
                for to_class in maps:
                    obj = to_class(obj)
                obj, key = canonical_object(obj)
            else:
                obj = XYGraph(nx, ny, frozenset((x, ny - 1 - y) for x, v in enumerate(values) for y in range(ny) if v >> y & 1))
                key = _make_key("xy", (nx, ny), values, ny)
            yield Record(obj, key, balance_of(obj))


def _built(class_tag: str, n: int, no_isolates: bool) -> tuple[Record, ...]:
    """The records of one census, built on first read and stored."""
    _check_bound(n)
    cache_key = (class_tag, n, no_isolates)
    stored = _records.get(cache_key)
    if stored is None:
        stored = tuple(_transported(class_tag, n, no_isolates))
        seen: set[CanonicalKey] = set()
        for record in stored:
            if record.key in seen:
                raise RuntimeError(f"two objects of the {class_tag} census at n={n} share key {record.key.hex}")
            seen.add(record.key)
        _records[cache_key] = stored
    return stored


def iter_xy(n: int, require_no_y_isolates: bool = False) -> Iterator[XYGraph]:
    """Canonically labeled XY-graphs on n vertices, one per unlabeled object."""
    for record in _built("xy", n, require_no_y_isolates):
        yield record.obj


def iter_split(n: int) -> Iterator[Graph]:
    """Canonically labeled split graphs on n vertices via XY transport."""
    for record in _built("split", n, False):
        yield record.obj


def iter_cover(n: int) -> Iterator[SetCover]:
    for record in _built("cover", n, False):
        yield record.obj


def iter_poset(n: int) -> Iterator[BipartitePoset]:
    for record in _built("poset", n, False):
        yield record.obj


def iter_objects(class_tag: str, n: int, require_no_y_isolates: bool = False):
    if class_tag == "split":
        return iter_split(n)
    if class_tag == "cover":
        return iter_cover(n)
    if class_tag == "poset":
        return iter_poset(n)
    if class_tag == "xy":
        return iter_xy(n, require_no_y_isolates)
    raise UsageError(f"unknown class {class_tag!r}")


def records(class_tag: str, n: int, require_no_y_isolates: bool = False) -> tuple[Record, ...]:
    """Records of one census in generation order, stored by a first pass
    of ``iter_objects``.  ``require_no_y_isolates`` applies to XY-graphs
    only."""
    cache_key = (class_tag, n, require_no_y_isolates and class_tag == "xy")
    if cache_key not in _records:
        for _ in iter_objects(class_tag, n, require_no_y_isolates):
            pass
    return _records[cache_key]


# ---------------------------------------------------------------------------
# censuses


def _census(class_tag: str, n: int, require_no_y_isolates: bool) -> Census:
    stored = records(class_tag, n, require_no_y_isolates)
    balances = [r.balance for r in stored]
    return Census(
        class_tag,
        n,
        tuple(sorted(r.key for r in stored)),
        sum(1 for b in balances if b is not None and b.is_balanced),
        sum(1 for b in balances if b is not None and not b.is_balanced),
        sum(1 for b in balances if b is None),
    )


def enumerate_xy(n: int, require_no_y_isolates: bool = False) -> Census:
    return _census("xy", n, require_no_y_isolates)


def enumerate_split(n: int) -> Census:
    return _census("split", n, False)


def enumerate_cover(n: int) -> Census:
    return _census("cover", n, False)


def enumerate_poset(n: int) -> Census:
    return _census("poset", n, False)


def enumerate_class(class_tag: str, n: int, require_no_y_isolates: bool = False) -> Census:
    return _census(class_tag, n, require_no_y_isolates)


# ---------------------------------------------------------------------------
# count table


def count_table(max_n: int) -> list[dict]:
    """Per-size totals and balance counts for every class, plus the
    cumulative column sum(split totals below n)."""
    _check_bound(max_n)
    rows = []
    cumulative = 0
    for n in range(max_n + 1):
        split = enumerate_split(n)
        cover = enumerate_cover(n)
        poset = enumerate_poset(n)
        xy = enumerate_xy(n, True)
        xy_all = enumerate_xy(n, False)
        rows.append(
            {
                "n": n,
                "split_total": split.count,
                "split_balanced": split.balanced,
                "split_unbalanced": split.unbalanced,
                "cover_total": cover.count,
                "cover_balanced": cover.balanced,
                "cover_unbalanced": cover.unbalanced,
                "poset_total": poset.count,
                "poset_balanced": poset.balanced,
                "poset_unbalanced": poset.unbalanced,
                "xy_total": xy.count,
                "xy_balanced": xy.balanced,
                "xy_unbalanced": xy.unbalanced,
                "xy_all_total": xy_all.count,
                "cumulative_below": cumulative,
            }
        )
        cumulative += split.count
    return rows
