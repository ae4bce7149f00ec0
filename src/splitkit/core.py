"""Domain types and serialization for four families of combinatorial objects.

The four families are split graphs, minimal set covers, XY-graphs (bipartite
graphs with a distinguished block X), and bipartite posets (height at most
one).  All values are immutable after construction and safe to share between
workers.  Labeled objects live on dense integer ids, so field identity is
meaningful and every serializer emits a sorted normal form whose byte
equality coincides with field identity.

Every value class derives from :class:`Value`, a small immutable base with
``__slots__``.  A subclass names its fields in ``__slots__``, annotates
their types in its body and sets each field once in ``__init__``.  Values
compare equal and hash by type and fields, and assigning or deleting a field
raises AttributeError.  Unlike a dataclass, a subclass generates no code
when its module is imported, which every CLI command, a fresh process,
would pay for at start-up.

Text formats:

* graph6 -- one graph per ASCII line, n <= 62, upper triangle packed
  column-major into 6-bit groups biased by 63.
* JSON lines -- one object per line for covers, XY-graphs and posets, see
  the ``parse_object`` / ``serialize_object`` pair.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import total_ordering
from typing import Iterable, Optional, Sequence


class ParseError(ValueError):
    """Malformed textual input (graph6 or JSON line)."""


class ValidationError(ValueError):
    """Structurally invalid object; carries the list of violated invariants."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class DomainError(ValueError):
    """Operation applied to an object outside its stated domain."""


class UsageError(ValueError):
    """Caller misuse, e.g. mixing object classes."""


class SizeLimitError(ValueError):
    """Requested size exceeds a supported bound."""


# ---------------------------------------------------------------------------
# immutable values

_set = object.__setattr__  # sets one field of a Value in its ``__init__``


class Value:
    """Base of the immutable value classes (see the module docstring).

    A subclass sets each field in ``__init__`` with ``_set``.  Objects of
    two classes never compare equal, whatever their fields; the repr names
    every field; pickling rebuilds through ``__init__``.  The classes whose
    instances are hashed and compared in bulk spell ``__eq__`` and
    ``__hash__`` out over their fields, which is as fast as a dataclass;
    the generic methods here take four to ten times as long.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# graphs


class Graph(Value):
    """Simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbor bitmask of vertex v; symmetry and absence of
    loops are guaranteed when built through :meth:`from_edges`.
    """

    __slots__ = ("n", "adj")
    n: int
    adj: tuple[int, ...]

    def __init__(self, n, adj):
        _set(self, "n", n)
        _set(self, "adj", adj)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.adj) == (other.n, other.adj)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.adj))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValidationError(["vertex count must be non-negative"])
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError([f"edge ({u},{v}) out of range 0..{n - 1}"])
            if u == v:
                raise ValidationError([f"self-loop at {u}"])
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class KSPartition(Value):
    """Clique / stable-set bipartition of a split graph's vertex set."""

    __slots__ = ("graph", "K", "S")
    graph: Graph
    K: frozenset[int]
    S: frozenset[int]

    def __init__(self, graph, K, S):
        _set(self, "graph", graph)
        _set(self, "K", K)
        _set(self, "S", S)


class SplitAnalysis(Value):
    """Clique number, stability number and the partition's trichotomy case.

    ``case`` is one of ``balanced``, ``unbalanced_S_max``,
    ``unbalanced_K_max`` when derived from a partition, else None.  ``swing``
    is the promised swing vertex in the two unbalanced cases.
    """

    __slots__ = ("omega", "alpha", "case", "swing")
    omega: int
    alpha: int
    case: Optional[str]
    swing: Optional[int]

    def __init__(self, omega, alpha, case=None, swing=None):
        _set(self, "omega", omega)
        _set(self, "alpha", alpha)
        _set(self, "case", case)
        _set(self, "swing", swing)


# ---------------------------------------------------------------------------
# set covers, XY-graphs, posets


class SetCover(Value):
    """Family of subsets of 0..n-1.

    Stored in normal form: each set sorted ascending, the family sorted
    lexicographically.  Duplicates and non-covering families are
    representable so that ``validate`` can report them.
    """

    __slots__ = ("n", "sets")
    n: int
    sets: tuple[tuple[int, ...], ...]

    def __init__(self, n, sets: Iterable[Iterable[int]]):
        sets = tuple(sorted(tuple(sorted(set(s))) for s in sets))
        _set(self, "n", n)
        _set(self, "sets", sets)

    @classmethod
    def _from_normal(cls, n, sets: tuple[tuple[int, ...], ...]) -> SetCover:
        """A cover whose ``sets`` are already in normal form, which is not
        checked: for a caller that builds them that way."""
        cover = cls.__new__(cls)
        _set(cover, "n", n)
        _set(cover, "sets", sets)
        return cover

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.sets) == (other.n, other.sets)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.sets))


class XYGraph(Value):
    """Bipartite graph with ordered blocks; X is the distinguished block.

    ``(nx, ny, edges)`` and its transpose are different objects: the blocks
    are never exchanged.
    """

    __slots__ = ("nx", "ny", "edges")
    nx: int
    ny: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, nx, ny, edges: Iterable[tuple[int, int]]):
        edges = frozenset(edges)
        _set(self, "nx", nx)
        _set(self, "ny", ny)
        _set(self, "edges", edges)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.nx, self.ny, self.edges) == (other.nx, other.ny, other.edges)
        return NotImplemented

    def __hash__(self):
        return hash((self.nx, self.ny, self.edges))


class BipartitePoset(Value):
    """Order of height <= 1, stored as its (height-0 x height-1) relation.

    ``below`` holds pairs (a, b) meaning height-0 point a lies below
    height-1 point b.
    """

    __slots__ = ("n0", "n1", "below")
    n0: int
    n1: int
    below: frozenset[tuple[int, int]]

    def __init__(self, n0, n1, below: Iterable[tuple[int, int]]):
        below = frozenset(below)
        _set(self, "n0", n0)
        _set(self, "n1", n1)
        _set(self, "below", below)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n0, self.n1, self.below) == (other.n0, other.n1, other.below)
        return NotImplemented

    def __hash__(self):
        return hash((self.n0, self.n1, self.below))

    def down_set(self, b: int) -> frozenset[int]:
        return frozenset(a for (a, bb) in self.below if bb == b)


class Balance(Value):
    """Balanced/unbalanced verdict plus the witnessing structure id.

    The witness is a swing vertex, extremal set index, universal X-vertex or
    full-support point depending on the class; it is present exactly when
    the object is unbalanced.
    """

    __slots__ = ("value", "witness")
    value: str
    witness: Optional[int]

    def __init__(self, value, witness=None):
        _set(self, "value", value)
        _set(self, "witness", witness)

    @property
    def is_balanced(self) -> bool:
        return self.value == "balanced"


# Every dimension of a key takes KEY_DIM_BYTES bytes, so no object with a
# size or side above MAX_KEY_DIM has a key.
KEY_DIM_BYTES = 2
MAX_KEY_DIM = (1 << 8 * KEY_DIM_BYTES) - 1


@total_ordering
class CanonicalKey(Value):
    """Stable identity of an unlabeled object: tag, dimensions and bits.

    Two objects of the same class are isomorphic iff their keys are
    byte-equal.  ``hex`` is the public rendering.  Keys order by tag, then
    data.
    """

    __slots__ = ("class_tag", "data")
    class_tag: str
    data: bytes

    def __init__(self, class_tag, data):
        _set(self, "class_tag", class_tag)
        _set(self, "data", data)

    @property
    def hex(self) -> str:
        return self.data.hex()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.class_tag, self.data) == (other.class_tag, other.data)
        return NotImplemented

    def __hash__(self):
        return hash((self.class_tag, self.data))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.class_tag, self.data) < (other.class_tag, other.data)
        return NotImplemented


CLASS_TAGS = ("split", "cover", "xy", "poset")


def class_tag_of(obj) -> str:
    if isinstance(obj, Graph):
        return "split"
    if isinstance(obj, SetCover):
        return "cover"
    if isinstance(obj, XYGraph):
        return "xy"
    if isinstance(obj, BipartitePoset):
        return "poset"
    raise UsageError(f"not a domain object: {type(obj).__name__}")


def size_of(obj) -> int:
    """Number of ground points of an object (vertices / elements)."""
    if isinstance(obj, Graph):
        return obj.n
    if isinstance(obj, SetCover):
        return obj.n
    if isinstance(obj, XYGraph):
        return obj.nx + obj.ny
    if isinstance(obj, BipartitePoset):
        return obj.n0 + obj.n1
    raise UsageError(f"not a domain object: {type(obj).__name__}")


# ---------------------------------------------------------------------------
# graph6

GRAPH6_MAX_N = 62  # the short form: one header byte holds n


# The data bytes hold the upper triangle column by column (vertex j against
# 0..j-1) in 6-bit groups, most significant bit first: as an integer with
# bit k for stream bit k, its 6-bit groups are the data bytes' reversed.
_REVERSED = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))
_GROUP_CHARS = tuple(chr(63 + v) for v in _REVERSED)


def serialize_graph6(g: Graph) -> str:
    """Encode a graph as a standard graph6 line (n <= 62)."""
    if g.n > GRAPH6_MAX_N:
        raise SizeLimitError(f"graph6 output supports n <= {GRAPH6_MAX_N}, got n={g.n}")
    stream = size = 0
    for j, row in enumerate(g.adj):
        stream |= (row & (1 << j) - 1) << size
        size += j
    chars = [chr(63 + g.n)]
    for _ in range((size + 5) // 6):
        chars.append(_GROUP_CHARS[stream & 63])
        stream >>= 6
    return "".join(chars)


def parse_graph6(text: str) -> Graph:
    """Decode one standard graph6 line; inverse of :func:`serialize_graph6`."""
    line = text.rstrip("\n")
    if not line:
        raise ParseError("empty graph6 string (offset 0)")
    header = ord(line[0])
    if header == 126:
        raise SizeLimitError(f"graph6 input supports n <= {GRAPH6_MAX_N} (long-form header at offset 0)")
    if not 63 <= header <= 125:
        raise ParseError(f"header byte {line[0]!r} out of range at offset 0")
    n = header - 63
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    data = line[1:]
    if len(data) < need_bytes:
        raise ParseError(
            f"truncated bit field: need {need_bytes} data bytes, got {len(data)} (offset {len(line)})"
        )
    if len(data) > need_bytes:
        raise ParseError(f"trailing data at offset {1 + need_bytes}")
    stream = shift = 0
    for ch in data:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ParseError(f"data byte {ch!r} out of range at offset {shift // 6 + 1}")
        stream |= _REVERSED[val] << shift
        shift += 6
    if stream >> need_bits:
        raise ParseError(f"nonzero padding bit (offset {len(line) - 1})")
    adj = [0] * n
    for j in range(1, n):
        column = stream & (1 << j) - 1  # the neighbors of j below j
        stream >>= j
        adj[j] = column
        while column:
            low = column & -column
            adj[low.bit_length() - 1] |= 1 << j
            column ^= low
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# JSON lines


def serialize_object(obj) -> str:
    """Serialize a cover / XY-graph / poset to its JSON normal form."""
    if isinstance(obj, SetCover):
        doc = {"class": "cover", "n": obj.n, "sets": [list(s) for s in obj.sets]}
    elif isinstance(obj, XYGraph):
        doc = {
            "class": "xy",
            "nx": obj.nx,
            "ny": obj.ny,
            "edges": [list(e) for e in sorted(obj.edges)],
        }
    elif isinstance(obj, BipartitePoset):
        doc = {
            "class": "poset",
            "n0": obj.n0,
            "n1": obj.n1,
            "below": [list(p) for p in sorted(obj.below)],
        }
    else:
        raise UsageError(f"no JSON form for {type(obj).__name__}; use graph6 for graphs")
    return json.dumps(doc, separators=(",", ":"))


def parse_object(text: str):
    """Parse one JSON line into a cover / XY-graph / poset, validating it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "class" not in doc:
        raise ParseError('missing "class" field')
    tag = doc["class"]

    def violation(text: str) -> ParseError:
        return ParseError(f"schema violation for class {tag!r}: {text}")

    def whole(value, name: str) -> int:
        # only a JSON integer: never a bool, a float or a string
        if type(value) is not int:
            raise violation(f"{name} must be an integer, got {_shown(value)}")
        return value

    def size(value, name: str) -> int:
        # no key encodes a larger size: reject it before any work that grows with it
        if whole(value, name) > MAX_KEY_DIM:
            raise SizeLimitError(
                f"class {tag!r}: {name} must be at most {MAX_KEY_DIM}, the largest size a key encodes; got {value}"
            )
        return value

    def field(name: str):
        if name not in doc:
            raise violation(f'missing "{name}" field')
        return doc[name]

    def lists(name: str, width=None) -> list:
        # a JSON list of JSON lists, each of ``width`` entries if given
        value = field(name)
        if type(value) is not list:
            raise violation(f"{name} must be a list, got {_shown(value)}")
        for i, entry in enumerate(value):
            if type(entry) is not list or (width and len(entry) != width):
                shape = "pair" if width else "list"
                raise violation(
                    f"{name}[{i}] must be a {shape}, and each {name} entry must be an integer; got {_shown(entry)}"
                )
        return value

    if tag == "cover":
        size(len(lists("sets")), "the number of sets")
        n = size(field("n"), "n")
        sets = [[whole(e, "each sets entry") for e in s] for s in doc["sets"]]
        repeated = [f"element {e} in input set {i}" for i, s in enumerate(sets) for e in _repeats(s)]
        obj = SetCover(n, tuple(map(tuple, sets)))
    elif tag == "xy":
        nx, ny = size(field("nx"), "nx"), size(field("ny"), "ny")
        edges = [(whole(x, "each edges entry"), whole(y, "each edges entry")) for x, y in lists("edges", 2)]
        repeated = [f"edge ({x},{y})" for x, y in _repeats(edges)]
        obj = XYGraph(nx, ny, frozenset(edges))
    elif tag == "poset":
        n0, n1 = size(field("n0"), "n0"), size(field("n1"), "n1")
        below = [(whole(a, "each below entry"), whole(b, "each below entry")) for a, b in lists("below", 2)]
        repeated = [f"relation ({a},{b})" for a, b in _repeats(below)]
        obj = BipartitePoset(n0, n1, frozenset(below))
    else:
        raise ParseError(f"unknown class {tag!r}")
    # the objects store sets, so an entry listed twice would vanish unseen
    repeated = [f"{entry} listed more than once" for entry in repeated]
    problems = _named_problems(repeated, "entries listed more than once")
    problems += validate(obj)
    if problems:
        raise ValidationError(problems)
    return obj


def _shown(value) -> str:
    """``value`` as JSON, cut to 40 characters."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _repeats(entries: list) -> list:
    """The entries listed more than once, each named once, in listed order."""
    if len(set(entries)) == len(entries):
        return []
    return [entry for entry, count in Counter(entries).items() if count > 1]


# ---------------------------------------------------------------------------
# validation


def validate(obj) -> list[str]:
    """Return the list of violated invariants; empty means the object is valid.

    Violations are data, not errors: any well-typed field combination is
    accepted and described.
    """
    if isinstance(obj, Graph):
        return _validate_graph(obj)
    if isinstance(obj, KSPartition):
        return _validate_partition(obj)
    if isinstance(obj, SetCover):
        return _validate_cover(obj)
    if isinstance(obj, XYGraph):
        return _validate_xy(obj)
    if isinstance(obj, BipartitePoset):
        return _validate_poset(obj)
    raise UsageError(f"cannot validate {type(obj).__name__}")


def _validate_graph(g: Graph) -> list[str]:
    out = []
    if g.n < 0:
        return [f"vertex count {g.n} negative"]
    if len(g.adj) != g.n:
        return [f"adjacency has {len(g.adj)} rows for n={g.n}"]
    full = (1 << g.n) - 1
    for v in range(g.n):
        if g.adj[v] >> v & 1:
            out.append(f"self-loop at {v}")
        if g.adj[v] & ~full:
            out.append(f"row {v} has bits beyond vertex {g.n - 1}")
        for u in _bits(g.adj[v] & full):
            if u < g.n and not (g.adj[u] >> v & 1):
                out.append(f"adjacency not symmetric: ({v},{u})")
    return out


def _validate_partition(p: KSPartition) -> list[str]:
    g = p.graph
    out = []
    inside = range(g.n)
    kmask = _mask(v for v in p.K if v in inside)
    smask = _mask(v for v in p.S if v in inside)
    missing = (1 << len(inside)) - 1 ^ (kmask | smask)
    unknown = len(p.K) + len(p.S) > kmask.bit_count() + smask.bit_count()
    if missing or unknown:  # K ∪ S differs from the vertex set
        out.append(f"K ∪ S misses vertices {_bits(missing)}")
    if unknown:
        out.append(f"partition uses unknown vertices {sorted(v for v in p.K | p.S if v not in inside)}")
    overlap = sorted(p.K & p.S) if unknown else _bits(kmask & smask)
    if overlap:
        out.append(f"K ∩ S nonempty: {overlap}")
    # the pairs (u, v) with u < v, from the bits of adj[u] above u
    for u in _bits(kmask):
        missing = kmask & ~g.adj[u] & -2 << u
        if missing:
            out += [f"K not a clique: ({u},{v})" for v in _bits(missing)]
    for u in _bits(smask):
        present = smask & g.adj[u] & -2 << u
        if present:
            out += [f"S not stable: ({u},{v})" for v in _bits(present)]
    return out


# Entries out of range or listed twice, elements left uncovered and points
# with an empty down-set are named one by one only up to this many; the rest
# are counted, so that an error record grows neither with a line's entries
# nor with its stated size.
_LISTED = 5


def _named_first(items: list) -> tuple[list, int]:
    """The items to name one by one and how many more there are (0, or at
    least 2, so that the count never stands for a single item)."""
    if len(items) <= _LISTED + 1:
        return items, 0
    return items[:_LISTED], len(items) - _LISTED


def _named_problems(problems: list[str], what: str) -> list[str]:
    """The first few ``problems`` one by one, then how many more ``what``."""
    named, more = _named_first(problems)
    return named + [f"and {more} more {what}"] if more else named


def _validate_cover(c: SetCover) -> list[str]:
    out = []
    n = c.n
    if n < 0:
        return [f"ground size {n} negative"]
    covered = 0
    outside = []
    for i, s in enumerate(c.sets):
        if s and (s[0] < 0 or s[-1] >= n):  # each set is sorted
            outside += [f"set {i} contains out-of-range element {e}" for e in s if not 0 <= e < n]
            s = [e for e in s if 0 <= e < n]
        for e in s:
            covered |= 1 << e
    out += _named_problems(outside, "out-of-range elements")
    for i in range(len(c.sets) - 1):
        if c.sets[i] == c.sets[i + 1]:
            out.append(f"duplicate set at indices {i},{i + 1}")
    uncovered = (1 << n) - 1 ^ covered
    if uncovered:  # its binary digits read backwards hold element e at index e
        named, more = _named_first([e for e, bit in enumerate(f"{uncovered:b}"[::-1]) if bit == "1"])
        out += [f"union ≠ ground set: element {e} uncovered" for e in named]
        if more:
            out.append(f"union ≠ ground set: and {more} more elements uncovered")
    return out


def _validate_xy(g: XYGraph) -> list[str]:
    if g.nx < 0 or g.ny < 0:
        return [f"block sizes ({g.nx},{g.ny}) negative"]
    outside = [f"edge ({x},{y}) outside X×Y" for x, y in sorted(g.edges) if not (0 <= x < g.nx and 0 <= y < g.ny)]
    return _named_problems(outside, "edges outside X×Y")


def _validate_poset(p: BipartitePoset) -> list[str]:
    out = []
    if p.n0 < 0 or p.n1 < 0:
        return [f"point counts ({p.n0},{p.n1}) negative"]
    outside = [f"relation ({a},{b}) outside height-0×height-1" for a, b in sorted(p.below)
               if not (0 <= a < p.n0 and 0 <= b < p.n1)]
    out += _named_problems(outside, "relations outside height-0×height-1")
    covered = {b for _, b in p.below}
    named, more = _named_first([b for b in range(p.n1) if b not in covered])
    out += [f"height-1 point {b} has empty down-set" for b in named]
    if more:
        out.append(f"and {more} more height-1 points have empty down-sets")
    return out
