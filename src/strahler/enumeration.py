"""Exhaustive generators, exact histograms, and the equidistribution check.

Order guarantees (fixed, so streamed output is reproducible byte for byte):

* ``all_dyck_paths(n)`` yields paths in ascending lexicographic order of
  their U/D step strings (plain ASCII order, D before U).
* ``all_full_binary_trees(n)`` yields trees in ascending lexicographic order
  of their canonical text form ('(' before '.').

Both generators stream via a successor computation, using O(n) memory.  For
sharded runs, paths can be restricted to a fixed step prefix, and trees to a
fixed root split (size of the left subtree); disjoint shards merged by
adding counts reproduce the single-stream histograms exactly.

Counts are kept within 64-bit range: ``catalan`` is capped accordingly, and
``verify_equidistribution`` refuses max_n > 30 rather than overflow.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .bijection import path_to_tree
from .dyck import DyckPath
from .tree import LEAF, Tree, classical_hs, internal_count, refined_hs, tree_to_text

_CATALAN_MAX = 33  # catalan(33) still fits in a signed 64-bit count
_VERIFY_MAX = 30


def catalan(n: int) -> int:
    """The n-th Catalan number, by the convolution recurrence."""
    if not 0 <= n <= _CATALAN_MAX:
        raise ValueError(
            f"catalan(n) is 64-bit safe only for 0 <= n <= {_CATALAN_MAX}, got {n}"
        )
    row = [1]
    for _ in range(n):
        row.append(sum(a * b for a, b in zip(row, reversed(row))))
    return row[-1]


# ---------------------------------------------------------------------------
# Streaming generators.

def _dyck_words(n: int, prefix: str = ""):
    """All Dyck step words of half-length n starting with ``prefix``,
    in ascending ASCII (D-before-U) lexicographic order."""
    k = len(prefix)
    if k > 2 * n:
        raise ValueError("prefix longer than the paths requested")
    word = list(prefix)
    ups = downs = 0
    for i, c in enumerate(word):
        if c == "U":
            ups += 1
        elif c == "D":
            downs += 1
        else:
            raise ValueError(f"bad step character {c!r} at index {i}")
        if downs > ups or ups > n:
            raise ValueError(f"prefix {prefix!r} cannot start a valid path")
    # smallest completion: descend whenever possible
    h = ups - downs
    while len(word) < 2 * n:
        if h > 0:
            word.append("D")
            downs += 1
            h -= 1
        else:
            word.append("U")
            ups += 1
            h += 1
    end = 2 * n
    while True:
        yield "".join(word)
        # successor: bump the rightmost D that still has an unused up-step
        i = end
        u, d = ups, downs
        while i > k:
            i -= 1
            if word[i] == "U":
                u -= 1
            else:
                d -= 1
                if u < n:
                    break
        else:
            return
        word[i] = "U"
        u += 1
        h = u - d
        for j in range(i + 1, end):
            if h > 0:
                word[j] = "D"
                d += 1
                h -= 1
            else:
                word[j] = "U"
                u += 1
                h += 1
        ups, downs = u, d


def _tree_words(n: int):
    """Step encodings of all size-n trees, ascending with U before D.

    The encoding is the first-return one: a leaf is the empty word and a node
    is U, the left subtree, D, the right subtree.  This order makes the
    decoded trees ascend in ASCII order of their canonical text.
    """
    if n == 0:
        yield ""
        return
    word = ["U"] * n + ["D"] * n
    end = 2 * n
    while True:
        yield "".join(word)
        # successor: bump the rightmost U sitting strictly above the floor
        i = end
        u = d = n
        while i > 0:
            i -= 1
            if word[i] == "D":
                d -= 1
            else:
                u -= 1
                if d < u:
                    break
        else:
            return
        word[i] = "D"
        d += 1
        for j in range(i + 1, end):
            if u < n:
                word[j] = "U"
                u += 1
            else:
                word[j] = "D"
                d += 1


def _decode_tree(word: str) -> Tree:
    """Decode a first-return word on an explicit stack, so any depth works."""
    # one entry per U whose node is still open: None while its left subtree
    # is being read, then that left subtree while the right one is read
    open_nodes: list = []
    i = 0
    end = len(word)
    while True:
        while i < end and word[i] == "U":
            open_nodes.append(None)
            i += 1
        t = LEAF  # the empty word between here and the next D (or the end)
        while open_nodes:
            if open_nodes[-1] is None:
                open_nodes[-1] = t
                i += 1  # the D separating the subtrees
                break
            t = Tree(open_nodes.pop(), t)
        else:
            return t


def all_dyck_paths(n: int, prefix: str = ""):
    """Every Dyck path of half-length n, exactly once, in step-lex order.

    ``prefix`` restricts the stream to paths starting with those steps (a
    shard); the order within a shard matches the global order.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    for word in _dyck_words(n, prefix):
        yield DyckPath.from_steps(word)


def all_full_binary_trees(n: int, left_size: int | None = None):
    """Every full binary tree with n internal vertices, exactly once.

    ``left_size`` restricts the stream to trees whose root's left subtree has
    that many internal vertices (a shard); shard order matches global order.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if left_size is None:
        for word in _tree_words(n):
            yield _decode_tree(word)
        return
    if n == 0 or not 0 <= left_size <= n - 1:
        raise ValueError(f"left_size must be in 0 .. n - 1, got {left_size}")
    for left in all_full_binary_trees(left_size):
        for right in all_full_binary_trees(n - 1 - left_size):
            yield Tree(left, right)


# ---------------------------------------------------------------------------
# Histograms.

@dataclass
class Histogram:
    """Exact counts of one statistic over all size-n objects of one family.

    ``counts`` maps a statistic value to the number of objects attaining it;
    zero entries are dropped.  For a full (unsharded) histogram the counts
    sum to catalan(n).
    """

    n: int
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        self.counts = {k: v for k, v in self.counts.items() if v != 0}
        if any(v < 0 for v in self.counts.values()):
            raise ValueError("histogram counts must be nonnegative")

    def total(self) -> int:
        return sum(self.counts.values())

    @staticmethod
    def merged(parts) -> "Histogram":
        """Combine disjoint shards by adding counts."""
        parts = list(parts)
        if not parts:
            raise ValueError("nothing to merge")
        if len({p.n for p in parts}) != 1:
            raise ValueError("cannot merge histograms of different n")
        acc: Counter = Counter()
        for p in parts:
            acc.update(p.counts)
        return Histogram(parts[0].n, dict(acc))


def histogram_by_height(n: int, prefix: str = "") -> Histogram:
    """counts[h] = number of paths of half-length n with height h."""
    acc: Counter = Counter()
    for d in all_dyck_paths(n, prefix):
        acc[max(d.heights)] += 1
    return Histogram(n, dict(acc))


def histogram_by_refined_hs(n: int, left_size: int | None = None) -> Histogram:
    """counts[h] = number of size-n trees with refined number h."""
    acc: Counter = Counter()
    for t in all_full_binary_trees(n, left_size):
        acc[refined_hs(t)] += 1
    return Histogram(n, dict(acc))


def histogram_by_classical_hs(n: int, left_size: int | None = None) -> Histogram:
    """counts[s] = number of size-n trees with classical number s."""
    acc: Counter = Counter()
    for t in all_full_binary_trees(n, left_size):
        acc[classical_hs(t)] += 1
    return Histogram(n, dict(acc))


def aggregate_dyadic(hist: Histogram) -> Histogram:
    """Group a by-height (or by-refined-number) histogram into the blocks
    h in [2**s - 1, 2 * (2**s - 1)], i.e. s = floor(log2(1 + h))."""
    acc: Counter = Counter()
    for h, c in hist.counts.items():
        acc[(1 + h).bit_length() - 1] += c
    return Histogram(hist.n, dict(acc))


# ---------------------------------------------------------------------------
# Verification harness.

def _path_shards(n: int, jobs: int) -> list:
    if n < 4 or jobs <= 1:
        return [""]
    depth = 4
    frontier = [("", 0, 0)]  # (word, ups, height)
    for _ in range(min(depth, 2 * n)):
        nxt = []
        for word, ups, h in frontier:
            if ups < n:
                nxt.append((word + "U", ups + 1, h + 1))
            if h > 0:
                nxt.append((word + "D", ups, h - 1))
        frontier = nxt
    out = [w for w, _, _ in frontier]
    return out or [""]


def _histogram_shard(task):
    kind, n, shard = task
    if kind == "paths":
        return histogram_by_height(n, prefix=shard).counts
    if kind == "trees":
        return histogram_by_refined_hs(n, left_size=shard).counts
    return histogram_by_classical_hs(n, left_size=shard).counts


def _sharded_histogram(kind: str, n: int, jobs: int, pool) -> Histogram:
    if kind == "paths":
        shards = _path_shards(n, jobs)
    else:
        shards = list(range(n)) if (jobs > 1 and n > 1) else [None]
    tasks = [(kind, n, s) for s in shards]
    if pool is None:
        counts = map(_histogram_shard, tasks)
    else:
        counts = pool.map(_histogram_shard, tasks)
    return Histogram.merged(Histogram(n, c) for c in counts)


@dataclass
class VerifyRow:
    """Per-n outcome of the equidistribution check."""

    n: int
    by_height: Histogram
    by_refined: Histogram
    by_classical: Histogram
    counts_equal: bool
    dyadic_ok: bool
    totals_ok: bool
    bijection_ok: bool | None
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.counts_equal
            and self.dyadic_ok
            and self.totals_ok
            and self.bijection_ok is not False
        )


@dataclass
class VerifyReport:
    max_n: int
    rows: list

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _check_bijection(n: int, by_height: Histogram) -> tuple[bool, list]:
    """Map every path through path_to_tree and check the (n, h) cell images."""
    seen: dict[int, set] = {}
    problems = []
    for d in all_dyck_paths(n):
        t = path_to_tree(d)
        h = max(d.heights)
        if refined_hs(t) != h:
            problems.append(f"n={n} h={h}: image has wrong refined number")
            continue
        if internal_count(t) != n:
            problems.append(f"n={n} h={h}: image has wrong size")
            continue
        seen.setdefault(h, set()).add(tree_to_text(t))
    for h, count in by_height.counts.items():
        got = len(seen.get(h, ()))
        if got != count:
            problems.append(f"n={n} h={h}: {got} distinct images, expected {count}")
    return not problems, problems


def verify_equidistribution(
    max_n: int, check_bijection: bool = True, jobs: int | None = None
) -> VerifyReport:
    """Exhaustively check, for each n <= max_n, that path heights and tree
    refined numbers are equidistributed, that the dyadic groupings agree with
    the classical-number counts, and (optionally) that path_to_tree hits each
    (n, h) cell bijectively.

    Mismatches land in the report; nothing raises.  max_n is capped at 30 to
    stay within 64-bit counts.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n > _VERIFY_MAX:
        raise ValueError(f"refusing max_n > {_VERIFY_MAX}: counts would overflow 64 bits")
    if jobs is None:
        jobs = int(os.environ.get("STRAHLER_JOBS", "1") or "1")
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    rows = []
    try:
        for n in range(max_n + 1):
            by_height = _sharded_histogram("paths", n, jobs, pool)
            by_refined = _sharded_histogram("trees", n, jobs, pool)
            by_classical = _sharded_histogram("classical", n, jobs, pool)
            mismatches = []
            counts_equal = by_height.counts == by_refined.counts
            if not counts_equal:
                cells = sorted(set(by_height.counts) | set(by_refined.counts))
                for h in cells:
                    a = by_height.counts.get(h, 0)
                    b = by_refined.counts.get(h, 0)
                    if a != b:
                        mismatches.append(f"n={n} h={h}: paths {a} != trees {b}")
            dyadic_ok = (
                aggregate_dyadic(by_height).counts == by_classical.counts
                and aggregate_dyadic(by_refined).counts == by_classical.counts
            )
            if not dyadic_ok:
                mismatches.append(f"n={n}: dyadic grouping disagrees")
            expected = catalan(n)
            totals_ok = by_height.total() == expected and by_refined.total() == expected
            if not totals_ok:
                mismatches.append(f"n={n}: totals differ from catalan(n)={expected}")
            bijection_ok = None
            if check_bijection:
                bijection_ok, problems = _check_bijection(n, by_height)
                mismatches.extend(problems)
            rows.append(
                VerifyRow(
                    n=n,
                    by_height=by_height,
                    by_refined=by_refined,
                    by_classical=by_classical,
                    counts_equal=counts_equal,
                    dyadic_ok=dyadic_ok,
                    totals_ok=totals_ok,
                    bijection_ok=bijection_ok,
                    mismatches=mismatches,
                )
            )
    finally:
        if pool is not None:
            pool.shutdown()
    return VerifyReport(max_n=max_n, rows=rows)
