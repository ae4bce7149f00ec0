"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 2's n=8 term and criterion 8's n=5 sweep run only when the
environment variable SPLITKIT_LONG=1 is set.
"""

import json
import os
import subprocess
import sys

from splitkit import census, verify
from splitkit.canon import canon_graph, canon_key, canon_matrix
from splitkit.cli import main
from splitkit.core import DomainError, Graph, parse_graph6

from oracles import canon_adjacency, naive_oracle

LONG = os.environ.get("SPLITKIT_LONG") == "1"

SPLIT_TOTALS = (1, 1, 2, 4, 9, 21, 56, 164)  # n = 0..7
GRAPH_TOTALS = (1, 1, 2, 4, 11, 34, 156)  # all graphs, n = 0..6
UNBALANCED = (0, 1, 2, 4, 8, 17, 38, 94, 258)  # n = 0..8

P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_split_totals():
    for n in range(8):
        assert census.enumerate_split(n).count == SPLIT_TOTALS[n], f"split total at n={n}"
    for n in range(4):
        oracle = naive_oracle("split", n)
        assert oracle.keys == census.enumerate_split(n).keys, f"oracle mismatch at n={n}"
        assert len(oracle.keys) == SPLIT_TOTALS[n]
    report(1, f"split totals n=0..7 are {SPLIT_TOTALS}, n<=3 oracle-verified")


def test_criterion_02_unbalanced_sequence():
    top = 9 if LONG else 8
    for n in range(1, top):
        assert census.enumerate_split(n).unbalanced == UNBALANCED[n], f"unbalanced at n={n}"
    checked = "n=1..8 incl. 258" if LONG else "n=1..7 (set SPLITKIT_LONG=1 for 258 at n=8)"
    report(2, f"unbalanced split counts match {checked}")


def test_criterion_03_cross_class_equality():
    for n in range(7):
        split = census.enumerate_split(n)
        for other in (
            census.enumerate_cover(n),
            census.enumerate_poset(n),
            census.enumerate_xy(n, True),
        ):
            assert other.count == split.count, f"{other.class_tag} total at n={n}"
            assert other.balanced == split.balanced, f"{other.class_tag} balanced at n={n}"
            assert other.unbalanced == split.unbalanced, f"{other.class_tag} unbalanced at n={n}"
    report(3, "totals and balance counts agree across all four classes for n<=6")


def test_criterion_04_figure_reproduction(capsys):
    assert main(["gallery", "--n", "4"]) == 0
    out = capsys.readouterr().out
    rows = [json.loads(l) for l in out.strip().split("\n")[1:]]
    assert len(rows) == 9
    assert sum(1 for r in rows if r["balance"] == "unbalanced") == 8
    balanced_rows = [r for r in rows if r["balance"] == "balanced"]
    assert len(balanced_rows) == 1
    assert canon_key(parse_graph6(balanced_rows[0]["split"])) == canon_key(P4)
    assert census.enumerate_xy(3, False).count == 8
    report(4, "gallery n=4 shows 8 unbalanced + 1 balanced (P4); 8 XY-graphs on 3 vertices")


def test_criterion_05_roundtrips():
    for pair in verify.PAIR_NAMES:
        max_n = 5 if pair == "xy-shift" else 6
        result = verify.verify_roundtrip(pair, max_n)
        assert result.passed, (pair, result.failures[:5])
        assert result.checked > 0
    report(5, "all seven map pairs round-trip with 0 failures over censuses n<=6")


def test_criterion_06_balance_preservation():
    for pair in verify.BALANCE_PAIR_NAMES:
        result = verify.verify_balance(pair, 6)
        assert result.passed, (pair, result.failures[:5])
    report(6, "all six pairwise bijections preserve balance over censuses n<=6")


def test_criterion_07_compilation():
    for tag in ("split", "cover", "xy", "poset"):
        for n in range(1, 7):
            result = verify.verify_compilation(tag, n)
            assert result.passed, (tag, n, result.failures[:5])
    for n in range(7):
        have = census.enumerate_split(n).unbalanced
        want = sum(census.enumerate_split(t).count for t in range(n))
        assert have == want, f"cumulative identity at n={n}"
    report(7, "compile_down bijective for every class and n<=6; sum identity holds")


def test_criterion_08_choice_independence():
    max_n = 5 if LONG else 4
    for name in verify.CHOICE_MAPS:
        result = verify.verify_choice_independence(name, max_n)
        assert result.passed, (name, result.failures[:5])
    report(8, f"exhaustive choice sweeps at n<={max_n} give identical keys")


def _graph_orbits(n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    pair_index = {p: k for k, p in enumerate(pairs)}
    moves = []
    for t in range(n - 1):
        perm = list(range(n))
        perm[t], perm[t + 1] = perm[t + 1], perm[t]
        mapping = [
            pair_index[tuple(sorted((perm[i], perm[j])))] for (i, j) in pairs
        ]
        moves.append(mapping)
    size = 1 << len(pairs)
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for code in range(size):
        for mapping in moves:
            image = 0
            for k in range(len(pairs)):
                if code >> k & 1:
                    image |= 1 << mapping[k]
            ra, rb = find(code), find(image)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return pairs, [find(code) for code in range(size)]


def test_criterion_09_canonicalization_completeness():
    # split graphs through canon_graph; every other graph is refused by it
    # and keyed by the adjacency oracle
    for n in range(7):
        pairs, roots = _graph_orbits(n)
        key_of_root = {}
        for code in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if code >> k & 1])
            try:
                key = canon_graph(g).key
            except DomainError as exc:
                assert str(exc).startswith("not a split graph"), exc
                key = canon_adjacency(g)[0]
            root = roots[code]
            if root in key_of_root:
                assert key_of_root[root] == key, f"orbit split at n={n}"
            else:
                key_of_root[root] = key
        keys = list(key_of_root.values())
        assert len(set(keys)) == len(keys), f"orbit merge at n={n}"
        assert len(keys) == GRAPH_TOTALS[n], f"orbit count at n={n}"
        split_keys = [key for key in keys if not isinstance(key, tuple)]
        assert len(split_keys) == SPLIT_TOTALS[n], f"split orbits refused at n={n}"

    for r in range(1, 5):
        for c in range(1, 5):
            bits_of_root = {}
            cells = r * c
            parent = list(range(1 << cells))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            moves = []
            for t in range(r - 1):  # swap rows t, t+1
                moves.append(
                    [((t + 1) * c + j if i == t else (t * c + j if i == t + 1 else i * c + j))
                     for i in range(r) for j in range(c)]
                )
            for t in range(c - 1):  # swap cols t, t+1
                moves.append(
                    [(i * c + (t + 1) if j == t else (i * c + t if j == t + 1 else i * c + j))
                     for i in range(r) for j in range(c)]
                )
            for code in range(1 << cells):
                for mapping in moves:
                    image = 0
                    for k in range(cells):
                        if code >> k & 1:
                            image |= 1 << mapping[k]
                    ra, rb = find(code), find(image)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
            for code in range(1 << cells):
                m = [[code >> (i * c + j) & 1 for j in range(c)] for i in range(r)]
                bits = canon_matrix(m).bits
                root = find(code)
                if root in bits_of_root:
                    assert bits_of_root[root] == bits, f"orbit split at {r}x{c}"
                else:
                    bits_of_root[root] = bits
            values = list(bits_of_root.values())
            assert len(set(values)) == len(values), f"orbit merge at {r}x{c}"
    report(9, "key partition equals brute-force orbits: graphs n<=6, matrices to 4x4")


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "splitkit.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_criterion_10_worker_determinism():
    for argv in (
        ["enumerate", "--class", "split", "--n", "6"],
        ["enumerate", "--class", "xy", "--n", "5"],
        ["verify", "--suite", "compilation", "--max-n", "4"],
    ):
        one = _cli(*argv, "--workers", "1")
        eight = _cli(*argv, "--workers", "8")
        assert one.returncode == eight.returncode
        assert one.stdout == eight.stdout, argv
    report(10, "byte-identical output with 1 and 8 workers")
