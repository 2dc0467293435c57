"""Exhaustive generators, exact histograms, and the equidistribution check.

Order guarantees (fixed, so streamed output is reproducible byte for byte):

* ``all_dyck_paths(n)`` yields paths in ascending lexicographic order of
  their U/D step strings (plain ASCII order, D before U).
* ``all_full_binary_trees(n)`` yields trees in ascending lexicographic order
  of their canonical text form ('(' before '.').

Both generators are successors over one height list of length 2n + 1,
rewritten in place, so they stream in O(n) memory.  A tree's word is read
into the ``kid`` array of ``tree._scan``, and ``all_full_binary_trees``
builds from it with ``tree._build``, as ``parse_tree`` does.  The histograms
read the words and build no ``DyckPath`` or ``Tree``: the height is the
word's maximum, the refined number is ``tree._values`` of the ``kid`` array,
and the classical histogram is the dyadic grouping of the refined one until
the classical number is computed on its own.
``verify_equidistribution`` walks each family once per n, serially: one pass
over the paths builds the height histogram and checks every image of
``path_to_tree``, and one pass over the trees builds the refined histogram.

Counts are kept within 64-bit range: ``catalan`` is capped accordingly, and
``verify_equidistribution`` refuses max_n > 30 rather than overflow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb

from .bijection import path_to_tree
from .dyck import DyckPath
from .tree import _build, _flatten, _values

_CATALAN_MAX = 33  # catalan(33) still fits in a signed 64-bit count
_VERIFY_MAX = 30


def catalan(n: int) -> int:
    """The n-th Catalan number, binomial(2n, n) / (n + 1)."""
    if not 0 <= n <= _CATALAN_MAX:
        raise ValueError(
            f"catalan(n) is 64-bit safe only for 0 <= n <= {_CATALAN_MAX}, got {n}"
        )
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Streaming generators.

def _dyck_heights(n: int):
    """Heights of all Dyck paths of half-length n, ascending in ASCII
    (D-before-U) order of their step words; one list, rewritten in place."""
    if n < 0:
        raise ValueError("n must be >= 0")
    hs = [0, 1] * n + [0]  # the smallest: descend whenever possible
    end = 2 * n
    while True:
        yield hs
        # successor: raise the rightmost down-step with an up-step left after
        # it (the steps before i hold (i + hs[i]) / 2 of the n up-steps)
        i = end - 1
        while i >= 0 and (hs[i + 1] > hs[i] or i + hs[i] == end):
            i -= 1
        if i < 0:
            return
        # then the smallest completion again: down to 0, then zigzag
        h = hs[i] + 1
        floor = i + 1 + h
        hs[i + 1 : floor + 1] = range(h, -1, -1)
        hs[floor + 1 :] = [1, 0] * ((end - floor) // 2)


def _tree_heights(n: int):
    """Heights of the step words of all size-n trees, ascending with U before
    D; one list, rewritten in place.

    The encoding is the first-return one: a leaf is the empty word and a node
    is U, the left subtree, D, the right subtree.  This order makes the
    decoded trees ascend in ASCII order of their canonical text.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    hs = [*range(n), *range(n, -1, -1)]  # the smallest: all up, then down
    end = 2 * n
    while True:
        yield hs
        # successor: lower the rightmost up-step that starts above the floor
        i = end - 1
        while i >= 0 and (hs[i + 1] < hs[i] or hs[i] == 0):
            i -= 1
        if i < 0:
            return
        # then the smallest completion again: climb by the n - (i + 1 + h) / 2
        # unused up-steps, then descend to 0
        h = hs[i] - 1
        top = h + n - (i + 1 + h) // 2
        hs[i + 1 :] = [*range(h, top), *range(top, -1, -1)]


def _word_kid(hs) -> list:
    """The ``kid`` array, in ``tree._scan``'s layout, of first-return heights."""
    # read left to right: an up-step opens a node in the current slot and
    # saves its right slot, and a down-step moves on to the last saved one
    kid = [0]
    rights = []
    slot = x = 0
    for y in hs:
        if y > x:
            j = len(kid)
            kid[slot] = j
            kid += (0, 0)
            rights.append(j + 1)
            slot = j
        elif y < x:
            slot = rights.pop()
        x = y
    return kid


def all_dyck_paths(n: int):
    """Every Dyck path of half-length n, exactly once, in step-lex order."""
    for hs in _dyck_heights(n):
        # valid by construction, so DyckPath's own checks are skipped
        yield DyckPath._wrap(hs)


def all_full_binary_trees(n: int):
    """Every full binary tree with n internal vertices, exactly once."""
    for hs in _tree_heights(n):
        yield _build(_word_kid(hs))


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
    return Histogram(n, dict(Counter(map(max, _dyck_heights(n)))))


def histogram_by_refined_hs(n: int) -> Histogram:
    """counts[h] = number of size-n trees with refined number h."""
    refined = (_values(_word_kid(hs))[0] for hs in _tree_heights(n))
    return Histogram(n, dict(Counter(refined)))


def histogram_by_classical_hs(n: int) -> Histogram:
    """counts[s] = number of size-n trees with classical number s: the dyadic
    grouping of the refined histogram, which is how ``classical_hs`` is defined."""
    return aggregate_dyadic(histogram_by_refined_hs(n))


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
    bijection_ok: bool
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.counts_equal
            and self.dyadic_ok
            and self.totals_ok
            and self.bijection_ok
        )


@dataclass
class VerifyReport:
    max_n: int
    rows: list

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _path_pass(n: int) -> tuple[Histogram, list]:
    """Walk the paths of half-length n once: the height histogram and the
    image checks of path_to_tree (refined number, size, and one distinct
    image per path in each (n, h) cell)."""
    acc: Counter = Counter()
    images: dict[int, set] = {}
    problems = []
    for d in all_dyck_paths(n):
        h = max(d.heights)
        acc[h] += 1
        kid, val = _flatten(path_to_tree(d))
        if val[0] != h:
            problems.append(f"n={n} h={h}: image has wrong refined number")
            continue
        if len(kid) != 2 * n + 1:  # one entry per node
            problems.append(f"n={n} h={h}: image has wrong size")
        else:
            # kid determines the tree; its entries are below 2n + 1 <= 61
            # (n <= _VERIFY_MAX = 30), so each fits in a byte
            images.setdefault(h, set()).add(bytes(kid))
    by_height = Histogram(n, dict(acc))
    for h, count in by_height.counts.items():
        got = len(images.get(h, ()))
        if got != count:
            problems.append(f"n={n} h={h}: {got} distinct images, expected {count}")
    return by_height, problems


def verify_equidistribution(max_n: int) -> VerifyReport:
    """Exhaustively check, for each n <= max_n, that path heights and tree
    refined numbers are equidistributed, that the dyadic grouping of the
    heights agrees with the classical-number counts, and that path_to_tree
    hits each (n, h) cell bijectively.

    Each family is walked once per n, on the height-list successors: the
    paths for the height histogram and every image check, the trees for the
    refined histogram.  The classical histogram is the dyadic grouping of
    the refined one, so ``dyadic_ok`` currently follows from
    ``counts_equal``; it checks something of its own only once the
    classical number is computed independently of the refined one.

    Mismatches land in the report; nothing raises.  max_n is capped at 30 to
    stay within 64-bit counts.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n > _VERIFY_MAX:
        raise ValueError(f"refusing max_n > {_VERIFY_MAX}: counts would overflow 64 bits")
    rows = []
    for n in range(max_n + 1):
        by_height, problems = _path_pass(n)
        by_refined = histogram_by_refined_hs(n)
        by_classical = aggregate_dyadic(by_refined)
        mismatches = []
        counts_equal = by_height.counts == by_refined.counts
        if not counts_equal:
            cells = sorted(set(by_height.counts) | set(by_refined.counts))
            for h in cells:
                a = by_height.counts.get(h, 0)
                b = by_refined.counts.get(h, 0)
                if a != b:
                    mismatches.append(f"n={n} h={h}: paths {a} != trees {b}")
        dyadic_ok = aggregate_dyadic(by_height).counts == by_classical.counts
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
                bijection_ok=not problems,
                mismatches=mismatches,
            )
        )
    return VerifyReport(max_n=max_n, rows=rows)
