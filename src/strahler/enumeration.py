"""Exhaustive generators, exact histograms, and the equidistribution check.

Order guarantees (fixed, so streamed output is reproducible byte for byte):

* ``all_dyck_paths(n)`` yields paths in ascending lexicographic order of
  their U/D step strings (plain ASCII order, D before U).
* ``all_full_binary_trees(n)`` yields trees in ascending lexicographic order
  of their canonical text form ('(' before '.').

Both generators stream via a successor computation, using O(n) memory.
``verify_equidistribution`` walks each family once per n, serially: one pass
over the paths builds the height histogram and checks every image of
``path_to_tree``, and one pass over the trees builds the refined and the
classical histograms from the same refined number.

Counts are kept within 64-bit range: ``catalan`` is capped accordingly, and
``verify_equidistribution`` refuses max_n > 30 rather than overflow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from .bijection import path_to_tree
from .dyck import DyckPath
from .tree import LEAF, Tree, classical_hs, internal_count, refined_hs, tree_to_text

_STEP = {"U": 1, "D": -1}.__getitem__
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

def _dyck_words(n: int):
    """All Dyck step words of half-length n, in ascending ASCII (D-before-U)
    lexicographic order."""
    word = ["U", "D"] * n  # the smallest: descend whenever possible
    end = 2 * n
    while True:
        yield "".join(word)
        # successor: bump the rightmost D that still has an unused up-step
        i = end
        u = d = n
        while i > 0:
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
        # then the smallest completion again: descend whenever possible
        h = u + 1 - d
        for j in range(i + 1, end):
            if h > 0:
                word[j] = "D"
                h -= 1
            else:
                word[j] = "U"
                h += 1


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


def all_dyck_paths(n: int):
    """Every Dyck path of half-length n, exactly once, in step-lex order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for word in _dyck_words(n):
        # valid by construction, so DyckPath's own checks are skipped
        yield DyckPath._wrap(accumulate(map(_STEP, word), initial=0))


def all_full_binary_trees(n: int):
    """Every full binary tree with n internal vertices, exactly once."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for word in _tree_words(n):
        yield _decode_tree(word)


# ---------------------------------------------------------------------------
# Histograms.

@dataclass
class Histogram:
    """Exact counts of one statistic over all size-n objects of one family.

    ``counts`` maps a statistic value to the number of objects attaining it;
    zero entries are dropped.  Over a whole family the counts sum to
    catalan(n).
    """

    n: int
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        self.counts = {k: v for k, v in self.counts.items() if v != 0}
        if any(v < 0 for v in self.counts.values()):
            raise ValueError("histogram counts must be nonnegative")

    def total(self) -> int:
        return sum(self.counts.values())


def histogram_by_height(n: int) -> Histogram:
    """counts[h] = number of paths of half-length n with height h."""
    acc: Counter = Counter()
    for d in all_dyck_paths(n):
        acc[max(d.heights)] += 1
    return Histogram(n, dict(acc))


def histogram_by_refined_hs(n: int) -> Histogram:
    """counts[h] = number of size-n trees with refined number h."""
    acc: Counter = Counter()
    for t in all_full_binary_trees(n):
        acc[refined_hs(t)] += 1
    return Histogram(n, dict(acc))


def histogram_by_classical_hs(n: int) -> Histogram:
    """counts[s] = number of size-n trees with classical number s."""
    acc: Counter = Counter()
    for t in all_full_binary_trees(n):
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


def _path_pass(n: int, check_bijection: bool) -> tuple[Histogram, list]:
    """Walk the paths of half-length n once: the height histogram and, when
    asked, the image checks of path_to_tree (refined number, size, and one
    distinct image per path in each (n, h) cell)."""
    acc: Counter = Counter()
    images: dict[int, set] = {}
    problems = []
    for d in all_dyck_paths(n):
        h = max(d.heights)
        acc[h] += 1
        if not check_bijection:
            continue
        t = path_to_tree(d)
        if refined_hs(t) != h:
            problems.append(f"n={n} h={h}: image has wrong refined number")
        elif internal_count(t) != n:
            problems.append(f"n={n} h={h}: image has wrong size")
        else:
            images.setdefault(h, set()).add(tree_to_text(t))
    by_height = Histogram(n, dict(acc))
    if check_bijection:
        for h, count in by_height.counts.items():
            got = len(images.get(h, ()))
            if got != count:
                problems.append(f"n={n} h={h}: {got} distinct images, expected {count}")
    return by_height, problems


def _tree_pass(n: int) -> tuple[Histogram, Histogram]:
    """Walk the trees of size n once: the refined and the classical
    histograms, both from the same refined number."""
    refined: Counter = Counter()
    classical: Counter = Counter()
    for t in all_full_binary_trees(n):
        r = refined_hs(t)
        refined[r] += 1
        classical[(1 + r).bit_length() - 1] += 1
    return Histogram(n, dict(refined)), Histogram(n, dict(classical))


def verify_equidistribution(max_n: int, check_bijection: bool = True) -> VerifyReport:
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
    rows = []
    for n in range(max_n + 1):
        by_height, problems = _path_pass(n, check_bijection)
        by_refined, by_classical = _tree_pass(n)
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
                bijection_ok=not problems if check_bijection else None,
                mismatches=mismatches,
            )
        )
    return VerifyReport(max_n=max_n, rows=rows)
