"""Exhaustive census of each class at a given size, built once per process.

The master enumeration runs over XY incidence matrices: Y-columns (as
bitmasks over the X-rows) are appended one at a time in non-decreasing
order, and a partial matrix survives only while it is canonical, meaning no
permutation of the X-rows yields a smaller sorted column sequence.  Every
canonical sequence has a canonical prefix chain, so the search visits each
unlabeled XY-graph exactly once.  Split graphs, covers and posets are
transported straight from the generated XY-graphs without isolates in Y
(``xy_to_split``, then ``split_to_cover`` or ``split_to_poset``); a naive
oracle (generate every labeled object, canonicalize, deduplicate) provides
the independent cross-check and shares nothing with the master path except
the canonical forms.

Per-process stores keep what is built.  The orderly-generation output
(the XY-graphs as generated, not yet canonicalized) is stored per shard of
the search, the first time any census needs that shard, so no shard runs
twice in a process.  Records are stored per census that a caller asks
for: a tuple in generation order, one per unlabeled object, holding the
canonically labeled object, its canonical key and its balance (``None``
for an XY-graph with isolates in Y, whose balance is undefined).  The
first full pass of an ``iter_*`` generator over a (class, n, no-Y-isolates)
census stores its records; ``records`` and ``enumerate_*`` run that pass
when nothing is stored yet, and every later pass replays the stored
records.  XY records are also kept per shard: the XY census without
isolates in Y is the unrestricted one without the shards whose first
column is empty, that is, its records with a balance, in the same order,
and each XY-graph is canonicalized once whichever of the two is built
first.  A transported census canonicalizes and classifies only its own
objects, so a one-shot ``enumerate`` builds no XY or split census it does
not print, while a caller that asks for every census (``verify``)
canonicalizes each unlabeled object of each class once.  A pass that
stops early stores no census records.  A building pass checks that no two
of its objects share a key.

The search tree shards by the content of the first column; shards run
and merge in a fixed order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional

from . import biject
from .canon import canon_key, canonical_object
from .classify import balance_of, xy_isolates_universals
from .core import (
    Balance,
    BipartitePoset,
    CanonicalKey,
    DomainError,
    Graph,
    SetCover,
    SizeLimitError,
    UsageError,
    Value,
    XYGraph,
    _set,
)

MAX_N = 8
ORACLE_MAX_N = {"split": 5, "cover": 5, "xy": 6, "poset": 6}


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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.obj, self.key, self.balance) == (other.obj, other.key, other.balance)
        return NotImplemented

    def __hash__(self):
        return hash((self.obj, self.key, self.balance))


def _check_bound(n: int):
    if not 0 <= n <= MAX_N:
        raise SizeLimitError(f"enumeration supports 0 <= n <= {MAX_N}, got n={n}")


# ---------------------------------------------------------------------------
# orderly generation of canonical column sequences


@lru_cache(maxsize=None)
def _row_perm_tables(width: int) -> tuple[tuple[int, ...], ...]:
    """Bit-permutation tables for every permutation of ``width`` rows."""
    tables = []
    for perm in itertools.permutations(range(width)):
        table = [0] * (1 << width)
        for value in range(1, 1 << width):
            low = value & -value  # the image of value without its lowest bit, plus that bit's image
            table[value] = table[value ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def _is_canonical_colseq(nx: int, cols: tuple[int, ...]) -> bool:
    """No row permutation may produce a smaller sorted column sequence."""
    if len(cols) <= 1:
        if not cols:
            return True
        # A single column is canonical iff its bits sit at the low rows.
        return cols[0] == (1 << bin(cols[0]).count("1")) - 1
    ref = list(cols)
    for table in _row_perm_tables(nx):
        if sorted(table[c] for c in cols) < ref:
            return False
    return True


def _gen_colseqs(nx: int, ny: int, min_col: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if len(prefix) == ny:
        yield prefix
        return
    start = prefix[-1] if prefix else min_col
    for col in range(start, 1 << nx):
        cand = prefix + (col,)
        if _is_canonical_colseq(nx, cand):
            yield from _gen_colseqs(nx, ny, min_col, cand)


# A shard of the search: (nx, ny, content of the first column), or
# (nx, 0, None) for the single XY-graph with an empty Y.
Task = tuple[int, int, Optional[int]]


def _shard_tasks(n: int, require_no_y_isolates: bool) -> list[Task]:
    """Shards in a fixed deterministic order.  Without isolates in Y, the
    shards whose first column is empty are left out: the first column is
    the least, so those shards hold exactly the XY-graphs with an isolate."""
    tasks: list[Task] = []
    for nx in range(n, -1, -1):
        ny = n - nx
        if ny == 0:
            tasks.append((nx, 0, None))
            continue
        min_col = 1 if require_no_y_isolates else 0
        for first in range(min_col, 1 << nx):
            tasks.append((nx, ny, first))
    return tasks


def _run_shard(task: Task) -> list[XYGraph]:
    nx, ny, first = task
    if first is None:
        return [XYGraph(nx, 0, frozenset())]
    if not _is_canonical_colseq(nx, (first,)):
        return []
    out = []
    for cols in _gen_colseqs(nx, ny, first, (first,)):
        edges = frozenset(
            (x, j) for j, col in enumerate(cols) for x in range(nx) if col >> x & 1
        )
        out.append(XYGraph(nx, ny, edges))
    return out


# ---------------------------------------------------------------------------
# census records: built on the first full pass, replayed after


_generated: dict[Task, tuple[XYGraph, ...]] = {}
_xy_shard_records: dict[Task, tuple[Record, ...]] = {}
_records: dict[tuple[str, int, bool], tuple[Record, ...]] = {}


def _xy_balance(h: XYGraph) -> Optional[Balance]:
    try:
        return balance_of(h)
    except DomainError:
        return None  # isolates in Y


def _generation(n: int, require_no_y_isolates: bool) -> list[tuple[Task, tuple[XYGraph, ...]]]:
    """(task, output) of every shard at size n in order; each shard task
    runs once per process, whichever census asks for it first."""
    tasks = _shard_tasks(n, require_no_y_isolates)
    for task in tasks:
        if task not in _generated:
            _generated[task] = tuple(_run_shard(task))
    return [(task, _generated[task]) for task in tasks]


def _xy_record(h: XYGraph) -> Record:
    h, key = canonical_object(h)
    return Record(h, key, _xy_balance(h))


def _xy_records(n: int, require_no_y_isolates: bool) -> Iterator[Record]:
    # per shard, so that the two XY censuses at n share their records
    for task, graphs in _generation(n, require_no_y_isolates):
        shard = _xy_shard_records.get(task)
        if shard is None:
            shard = _xy_shard_records[task] = tuple(map(_xy_record, graphs))
        yield from shard


# class -> maps taking a generated XY-graph without isolates in Y to it
_TRANSPORT = {
    "split": (biject.xy_to_split,),
    "cover": (biject.xy_to_split, biject.split_to_cover),
    "poset": (biject.xy_to_split, biject.split_to_poset),
}


def _transported(class_tag: str, n: int) -> Iterator[Record]:
    maps = _TRANSPORT[class_tag]
    for obj in itertools.chain.from_iterable(graphs for _, graphs in _generation(n, True)):
        for to_class in maps:
            obj = to_class(obj)
        obj, key = canonical_object(obj)
        yield Record(obj, key, balance_of(obj))


def _pass(class_tag: str, n: int, no_isolates: bool) -> Iterator[Record]:
    """One pass over a census: replay its stored records, or build them
    and store them once the pass is complete."""
    _check_bound(n)
    cache_key = (class_tag, n, no_isolates)
    stored = _records.get(cache_key)
    if stored is not None:
        yield from stored
        return
    if class_tag == "xy":
        build = _xy_records(n, no_isolates)
    else:
        build = _transported(class_tag, n)
    built = []
    seen: set[CanonicalKey] = set()
    for record in build:
        if record.key in seen:
            raise RuntimeError(f"two objects of the {class_tag} census at n={n} share key {record.key.hex}")
        seen.add(record.key)
        built.append(record)
        yield record
    _records[cache_key] = tuple(built)


def iter_xy(n: int, require_no_y_isolates: bool = False) -> Iterator[XYGraph]:
    """Canonically labeled XY-graphs on n vertices, one per unlabeled object."""
    for record in _pass("xy", n, require_no_y_isolates):
        yield record.obj


def iter_split(n: int) -> Iterator[Graph]:
    """Canonically labeled split graphs on n vertices via XY transport."""
    for record in _pass("split", n, False):
        yield record.obj


def iter_cover(n: int) -> Iterator[SetCover]:
    for record in _pass("cover", n, False):
        yield record.obj


def iter_poset(n: int) -> Iterator[BipartitePoset]:
    for record in _pass("poset", n, False):
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
    """Records of one census in generation order, from a full first pass of
    ``iter_objects`` when none is stored.  ``require_no_y_isolates``
    applies to XY-graphs only."""
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
# naive oracle


def naive_oracle(class_tag: str, n: int) -> Census:
    """Census built without bijection transport: generate all labeled
    objects, canonicalize, deduplicate, classify natively."""
    bound = ORACLE_MAX_N.get(class_tag)
    if bound is None:
        raise UsageError(f"unknown class {class_tag!r}")
    if not 0 <= n <= bound:
        raise SizeLimitError(f"naive oracle supports n <= {bound} for {class_tag}, got n={n}")
    if class_tag == "split":
        return _oracle_split(n)
    if class_tag == "cover":
        return _oracle_cover(n)
    if class_tag == "xy":
        return _oracle_xy(n)
    return _oracle_poset(n)


def _oracle_split(n: int) -> Census:
    pair_bits = [(i, j) for j in range(n) for i in range(j)]
    results: dict[CanonicalKey, bool] = {}
    for code in range(1 << len(pair_bits)):
        edges = [pair_bits[k] for k in range(len(pair_bits)) if code >> k & 1]
        g = Graph.from_edges(n, edges)
        partitions = _split_partitions(g)
        if not partitions:
            continue
        key = canon_key(g)
        if key in results:
            continue
        omega = max(
            (len(ks) for ks in _all_cliques(g)), default=0
        )
        alpha = max(
            (len(ss) for ss in _all_stables(g)), default=0
        )
        balanced = any(len(k) == omega and n - len(k) == alpha for k in partitions)
        results[key] = balanced
    return _oracle_census("split", n, results)


def _all_cliques(g: Graph):
    for code in range(1 << g.n):
        members = [v for v in range(g.n) if code >> v & 1]
        if all(g.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1 :]):
            yield members


def _all_stables(g: Graph):
    for code in range(1 << g.n):
        members = [v for v in range(g.n) if code >> v & 1]
        if not any(g.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1 :]):
            yield members


def _split_partitions(g: Graph) -> list[frozenset[int]]:
    """All K-sides of valid clique/stable bipartitions, by brute force."""
    out = []
    for code in range(1 << g.n):
        k = [v for v in range(g.n) if code >> v & 1]
        s = [v for v in range(g.n) if not code >> v & 1]
        if all(g.has_edge(u, v) for i, u in enumerate(k) for v in k[i + 1 :]) and not any(
            g.has_edge(u, v) for i, u in enumerate(s) for v in s[i + 1 :]
        ):
            out.append(frozenset(k))
    return out


def _oracle_cover(n: int) -> Census:
    # A minimal cover has at most n sets (each owns a distinct loyal
    # element), so families larger than n never pass the filter.
    results: dict[CanonicalKey, bool] = {}
    full = (1 << n) - 1
    masks = list(range(1, 1 << n))
    for k in range(0, n + 1):
        for family in itertools.combinations(masks, k):
            union = 0
            for m in family:
                union |= m
            if union != full:
                continue
            minimal = True
            for i, m in enumerate(family):
                rest = 0
                for j, other in enumerate(family):
                    if j != i:
                        rest |= other
                if not m & ~rest:
                    minimal = False
                    break
            if not minimal:
                continue
            sets = tuple(tuple(v for v in range(n) if m >> v & 1) for m in family)
            cover = SetCover(n, sets)
            key = canon_key(cover)
            if key not in results:
                threshold = n - k + 1
                results[key] = not any(len(s) == threshold for s in cover.sets)
    return _oracle_census("cover", n, results)


def _oracle_xy(n: int) -> Census:
    results: dict[CanonicalKey, Optional[bool]] = {}
    for nx in range(n + 1):
        ny = n - nx
        cells = [(x, y) for x in range(nx) for y in range(ny)]
        for code in range(1 << len(cells)):
            edges = frozenset(cells[k] for k in range(len(cells)) if code >> k & 1)
            h = XYGraph(nx, ny, edges)
            key = canon_key(h)
            if key in results:
                continue
            isolates, universals = xy_isolates_universals(h)
            results[key] = None if isolates else not universals
    balanced = sum(1 for v in results.values() if v is True)
    unbalanced = sum(1 for v in results.values() if v is False)
    ood = sum(1 for v in results.values() if v is None)
    return Census("xy", n, tuple(sorted(results)), balanced, unbalanced, ood)


def _oracle_poset(n: int) -> Census:
    results: dict[CanonicalKey, bool] = {}
    for n0 in range(n + 1):
        n1 = n - n0
        cells = [(a, b) for a in range(n0) for b in range(n1)]
        for code in range(1 << len(cells)):
            below = frozenset(cells[k] for k in range(len(cells)) if code >> k & 1)
            covered = {b for _, b in below}
            if len(covered) != n1:
                continue  # some height-1 point would have an empty down-set
            p = BipartitePoset(n0, n1, below)
            key = canon_key(p)
            if key not in results:
                up_counts = [0] * n0
                for a, _ in below:
                    up_counts[a] += 1
                results[key] = not any(u == n1 for u in up_counts)
    return _oracle_census("poset", n, results)


def _oracle_census(tag: str, n: int, results: dict) -> Census:
    balanced = sum(1 for v in results.values() if v)
    unbalanced = sum(1 for v in results.values() if not v)
    return Census(tag, n, tuple(sorted(results)), balanced, unbalanced)


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
