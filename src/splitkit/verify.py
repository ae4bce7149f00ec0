"""Executable suites binding the counting and bijection claims to the code.

Each suite consumes full censuses from :mod:`splitkit.census` as records
(canonical object, key and balance), which the census builds once per
process; a suite never generates, canonicalizes or classifies a census
object itself.  It computes the key and balance of every object a map
produces, and reports the exact failing keys so a failure can be replayed
through the CLI.  ``run_all`` maps each census object once per direction
of each pair, and keys (``_key``) and the structural passes of
:mod:`splitkit.classify` are memoized, so an object met again is not
analysed again.  All suites are deterministic.  The triangle suite is
informational only: commutativity of composed bijections is measured, not
asserted.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

from . import biject, census
from .canon import canon_key
from .classify import balance_of
from .core import CanonicalKey, UsageError, Value, size_of

# Reference counts.  Split-graph totals are OEIS A048194 (prepended with the
# single empty object at n=0); the unbalanced totals are forced from them by
# the compilation identity unbalanced(n) = sum of totals below n.
SPLIT_TOTALS = (1, 1, 2, 4, 9, 21, 56, 164, 557)
UNBALANCED_SPLIT = (0, 1, 2, 4, 8, 17, 38, 94, 258)


class SuiteResult(Value):
    """Outcome of one verification suite; empty failures means it passed.

    Unlike the other values it is mutable, so it is not hashable, and it
    compares by its fields as they are now."""

    __slots__ = ("suite", "params", "checked", "failures")
    suite: str
    params: dict
    checked: int
    failures: list[tuple[str, str, str]]

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, suite, params, checked, failures=None):
        self.suite = suite
        self.params = params
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "checked": self.checked,
            "failures": [
                {"input": k, "expected": e, "observed": o} for k, e, o in self.failures
            ],
        }


def _pairs() -> dict[str, tuple]:
    """name -> (domain, map, codomain, inverse) of each bijection between
    two classes at the same size, under the direction listed first."""
    pairs = {}
    for (dom, cod), name in biject.ROUTES.items():
        spec = biject.MAPS[name]
        if not cod.endswith("-shift") and f"{cod}-{dom}" not in pairs:
            pairs[f"{dom}-{cod}"] = (dom, spec.fn, cod, biject.MAPS[spec.inverse].fn)
    return pairs


_PAIRS = _pairs()
PAIR_NAMES = tuple(_PAIRS) + ("xy-shift",)
BALANCE_PAIR_NAMES = tuple(_PAIRS)
# class -> (compile down, compile up)
_COMPILE = {
    spec.domain: (spec.fn, biject.MAPS[spec.inverse].fn)
    for spec in biject.MAPS.values()
    if spec.domain == spec.codomain and not spec.needs_n
}
CHOICE_MAPS = tuple(name for name, spec in biject.MAPS.items() if spec.choices)


def _iter(tag: str, n: int):
    """Census records of ``tag`` at ``n``; XY-graphs without isolates in Y."""
    return census.records(tag, n, require_no_y_isolates=(tag == "xy"))


@lru_cache(maxsize=1024)
def _key(obj) -> CanonicalKey:
    """``canon_key`` of a map's output, remembered for the last 1,024 objects.

    The suites key the same labeled objects again and again: the memo
    answers 65% of the key calls of ``run_all(6)``.  It is exact:
    objects are immutable, and equal only with the same class and fields.
    Census keys never enter it, so re-keying an object the census keyed
    still checks the map.  The CLI's per-line commands repeat few objects
    and key through ``canon_key`` itself.
    """
    return canon_key(obj)


def _check_key(result: SuiteResult, key, back):
    """Record a failure unless ``back`` has the census key ``key``."""
    back_key = _key(back)
    if back_key != key:
        result.failures.append((key.hex, key.hex, back_key.hex))


def verify_roundtrip(pair: str, max_n: int, images: Optional[list] = None) -> SuiteResult:
    """inverse(forward(o)) and forward(inverse(o)) are identities on keys.

    When ``images`` is a list, the image of each census object under the
    pair's map is appended to it, in the order ``verify_balance`` reads
    them."""
    result = SuiteResult("roundtrip", {"pair": pair, "max_n": max_n}, 0)
    if pair == "xy-shift":
        for n in range(max_n + 1):
            for rec in census.records("xy", n, require_no_y_isolates=False):
                result.checked += 1
                back = biject.unbalanced_split_to_xy(biject.xy_to_unbalanced_split(rec.obj))
                _check_key(result, rec.key, back)
            for rec in _iter("split", n + 1):
                if rec.balance.is_balanced:
                    continue
                result.checked += 1
                back = biject.xy_to_unbalanced_split(biject.unbalanced_split_to_xy(rec.obj))
                _check_key(result, rec.key, back)
        return result
    if pair not in _PAIRS:
        raise UsageError(f"unknown pair {pair!r}; known: {', '.join(PAIR_NAMES)}")
    dom, fwd, cod, inv = _PAIRS[pair]
    for n in range(max_n + 1):
        for tag, there, back in ((dom, fwd, inv), (cod, inv, fwd)):
            for rec in _iter(tag, n):
                result.checked += 1
                image = there(rec.obj)
                if images is not None:
                    images.append(image)
                _check_key(result, rec.key, back(image))
    return result


def verify_balance(pair: str, max_n: int, images: Optional[Iterator] = None) -> SuiteResult:
    """Balance(o) equals Balance(map(o)) in both directions of a pair.

    ``images``, when given, yields the map image of each census object, as
    ``verify_roundtrip`` collects them, in place of mapping it again."""
    if pair not in _PAIRS:
        raise UsageError(f"unknown pair {pair!r}; known: {', '.join(BALANCE_PAIR_NAMES)}")
    dom, fwd, cod, inv = _PAIRS[pair]
    result = SuiteResult("balance", {"pair": pair, "max_n": max_n}, 0)
    for n in range(max_n + 1):
        for tag, fn in ((dom, fwd), (cod, inv)):
            for rec in _iter(tag, n):
                result.checked += 1
                got = balance_of(fn(rec.obj) if images is None else next(images)).value
                if rec.balance.value != got:
                    result.failures.append((rec.key.hex, rec.balance.value, got))
    return result


def verify_compilation(class_tag: str, n: int) -> SuiteResult:
    """compile_down is a key-level bijection from the unbalanced census at n
    onto the union of the censuses at 0..n-1, with compile_up its two-sided
    inverse."""
    if class_tag not in _COMPILE:
        raise UsageError(f"unknown class {class_tag!r}")
    down, up = _COMPILE[class_tag]
    result = SuiteResult("compilation", {"class": class_tag, "n": n}, 0)
    union_keys = set()
    for t in range(n):
        union_keys.update(census.enumerate_class(class_tag, t, True).keys)
    image = {}
    for rec in _iter(class_tag, n):
        if rec.balance.is_balanced:
            continue
        result.checked += 1
        key = rec.key
        small = down(rec.obj)
        small_key = _key(small)
        if small_key in image:
            result.failures.append((key.hex, "injective image", f"collides with {image[small_key].hex}"))
        image[small_key] = key
        if small_key not in union_keys:
            result.failures.append((key.hex, "image inside union of smaller censuses", small_key.hex))
        _check_key(result, key, up(small, n))
    missing = union_keys - set(image)
    for key in sorted(missing):
        result.failures.append((key.hex, "hit by compile_down", "missed"))
    # The other inverse direction: up then down returns every small object.
    for t in range(n):
        for rec in _iter(class_tag, t):
            result.checked += 1
            key = rec.key
            big = up(rec.obj, n)
            if balance_of(big).is_balanced:
                result.failures.append((key.hex, "compile_up output unbalanced", "balanced"))
                continue
            if size_of(big) != n:
                result.failures.append((key.hex, f"size {n}", str(size_of(big))))
                continue
            _check_key(result, key, down(big))
    return result


# ---------------------------------------------------------------------------
# choice independence


def verify_choice_independence(map_name: str, max_n: int) -> SuiteResult:
    """Every admissible choice at every choice point yields the same key."""
    if map_name not in biject.MAPS:
        raise UsageError(f"unknown map {map_name!r}")
    spec = biject.MAPS[map_name]
    result = SuiteResult("choice", {"map": map_name, "max_n": max_n}, 0)
    for n in range(max_n + 1):
        for rec in _iter(spec.domain, n):
            obj = rec.obj
            space = list(spec.choices(obj)) if spec.choices else []
            if not space:
                continue
            targets = [n + 1, n + 2] if spec.needs_n else [None]
            for target in targets:
                reference = None
                for kwargs in space:
                    result.checked += 1
                    out = (
                        spec.fn(obj, target, **kwargs) if target is not None else spec.fn(obj, **kwargs)
                    )
                    key = _key(out)
                    if reference is None:
                        reference = key
                    elif key != reference:
                        result.failures.append((rec.key.hex, reference.hex, key.hex))
    return result


# ---------------------------------------------------------------------------
# counts and the triangle report


def verify_counts(max_n: int) -> SuiteResult:
    """Census counts match the reference sequences and agree across classes."""
    table = census.count_table(max_n)
    result = SuiteResult("counts", {"max_n": max_n, "table": table}, 0)
    for row in table:
        n = row["n"]

        def expect(name, want, got):
            result.checked += 1
            if want != got:
                result.failures.append((f"n={n}:{name}", str(want), str(got)))

        if n < len(SPLIT_TOTALS):
            expect("split_total", SPLIT_TOTALS[n], row["split_total"])
        if n < len(UNBALANCED_SPLIT):
            expect("split_unbalanced", UNBALANCED_SPLIT[n], row["split_unbalanced"])
        for other in ("cover", "poset", "xy"):
            expect(f"{other}_total", row["split_total"], row[f"{other}_total"])
            expect(f"{other}_balanced", row["split_balanced"], row[f"{other}_balanced"])
            expect(f"{other}_unbalanced", row["split_unbalanced"], row[f"{other}_unbalanced"])
        expect("cumulative", row["cumulative_below"], row["split_unbalanced"])
        if n + 1 < len(UNBALANCED_SPLIT):
            expect("xy_all_total", UNBALANCED_SPLIT[n + 1], row["xy_all_total"])
    return result


def verify_triangle(max_n: int) -> SuiteResult:
    """Measure (do not assert) whether split->cover->poset matches split->poset."""
    agree = 0
    total = 0
    for n in range(max_n + 1):
        for rec in _iter("split", n):
            g = rec.obj
            total += 1
            direct = _key(biject.split_to_poset(g))
            composed = _key(biject.cover_to_poset(biject.split_to_cover(g)))
            if direct == composed:
                agree += 1
    params = {
        "max_n": max_n,
        "agree": agree,
        "total": total,
        "agreement": 1.0 if total == 0 else agree / total,
    }
    return SuiteResult("triangle", params, total)


# ---------------------------------------------------------------------------
# whole battery


def _shift_roundtrip(max_n: int) -> SuiteResult:
    # The shift pair compares censuses at n and n+1, so cap it one lower.
    return verify_roundtrip("xy-shift", max(max_n - 1, 0))


def run_suite(name: str, max_n: int) -> list[SuiteResult]:
    census._check_bound(max_n)
    if name == "roundtrip":
        return [verify_roundtrip(p, max_n) for p in _PAIRS] + [_shift_roundtrip(max_n)]
    if name == "balance":
        return [verify_balance(p, max_n) for p in BALANCE_PAIR_NAMES]
    if name == "compilation":
        return [
            verify_compilation(tag, n)
            for tag in _COMPILE
            for n in range(1, max_n + 1)
        ]
    if name == "choice":
        return [verify_choice_independence(m, max_n) for m in CHOICE_MAPS]
    if name == "counts":
        return [verify_counts(max_n)]
    if name == "triangle":
        return [verify_triangle(max_n)]
    raise UsageError(f"unknown suite {name!r}")


ASSERTING_SUITES = ("roundtrip", "balance", "compilation", "choice", "counts")


def run_all(max_n: int) -> list[SuiteResult]:
    """Every asserting suite, then the triangle report, as ``run_suite``
    gives them.  Each pair's roundtrip suite hands the map images it
    computes to the pair's balance suite, and they are dropped after it."""
    census._check_bound(max_n)
    roundtrip, balance = [], []
    for pair in _PAIRS:
        images = []
        roundtrip.append(verify_roundtrip(pair, max_n, images))
        balance.append(verify_balance(pair, max_n, iter(images)))
    roundtrip.append(_shift_roundtrip(max_n))
    rest = [result for name in ASSERTING_SUITES[2:] + ("triangle",) for result in run_suite(name, max_n)]
    return roundtrip + balance + rest
