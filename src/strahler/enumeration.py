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
build no ``DyckPath`` or ``Tree``.  A path's height is its word's maximum.
The tree histograms read no words at all: a tree is a left and a right
subtree, and its refined number (or its register number, the classical one)
depends only on theirs, so ``_tree_values`` values every size-n tree from
the values of the smaller sizes, one byte per tree.
``verify_equidistribution`` walks each family once per n, serially: one pass
over the paths builds the height histogram and checks every image of
``path_to_tree``, and one pass over the tree values builds the refined
histogram.  An image is checked through its text and refined number, read
bottom-up off its shape: the nodes it shares with the table of small images
are described once per process and found by ``id``, and each other node is
joined from its two children.  The text is the distinctness key.

Counts are kept within 64-bit range: ``catalan`` is capped accordingly, and
``verify_equidistribution`` refuses max_n > 30 rather than overflow.

``Histogram``, ``VerifyRow`` and ``VerifyReport`` are named tuples, with
``_asdict()`` and ``_replace()``.
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple
from math import comb
from time import perf_counter

from .bijection import _TREE_UD, _TREE_UDUD, _TREE_UUDD, _table, path_to_tree
from .dyck import DyckPath
from .tree import LEAF, _build, _refined

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

class Histogram(namedtuple("Histogram", "n counts")):
    """Exact counts of one statistic over all size-n objects of one family.

    ``counts`` maps a statistic value to the number of objects attaining it;
    construction, ``_replace`` included, copies it without its zero entries
    and refuses a negative count.  Over a whole family the counts sum to
    catalan(n).
    """

    __slots__ = ()

    def __new__(cls, n, counts=None):
        counts = {k: v for k, v in (counts or {}).items() if v != 0}
        if any(v < 0 for v in counts.values()):
            raise ValueError("histogram counts must be nonnegative")
        return super().__new__(cls, n, counts)

    @classmethod
    def _make(cls, iterable):  # _replace builds through this, past __new__
        return cls(*iterable)

    def total(self) -> int:
        return sum(self.counts.values())


def histogram_by_height(n: int) -> Histogram:
    """counts[h] = number of paths of half-length n with height h."""
    return Histogram(n, dict(Counter(map(max, _dyck_heights(n)))))


def _register(a: int, b: int) -> int:
    """The register (classical) number of a node whose subtrees have
    register numbers a and b: one more when they are equal, else the larger."""
    return a + 1 if a == b else max(a, b)


def _tree_values(n: int, join) -> bytes:
    """One byte per size-n tree: its value under ``join``, a leaf being 0.

    The trees come in pair order: by the left subtree's size k ascending,
    then by the left subtree, then by the right one, each in this same order
    for its own size.  Size m is built from the smaller sizes: for each left
    value a, the right size's bytes go through the 256-byte row
    ``join(a, ·)`` in one ``bytes.translate``.  The values of every size up
    to n are held, sum(catalan(k) for k <= n) bytes.  A size-n tree's
    refined number is at most n, so n is capped at ``_CATALAN_MAX``, as in
    ``catalan``, and every value fits in a byte.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > _CATALAN_MAX:
        raise ValueError(f"n must be <= {_CATALAN_MAX}, as for catalan(n)")
    rows = [bytes(join(a, b) for b in range(n + 1)).ljust(256, b"\0") for a in range(n + 1)]
    sizes = [b"\0"]
    for m in range(1, n + 1):
        out = bytearray()
        for k in range(m):
            right = sizes[m - 1 - k]
            for a in sizes[k]:
                out += right.translate(rows[a])
        sizes.append(bytes(out))
    return sizes[n]


def _value_counts(n: int, join) -> Histogram:
    values = _tree_values(n, join)
    return Histogram(n, {v: values.count(v) for v in range(n + 1)})


def histogram_by_refined_hs(n: int) -> Histogram:
    """counts[h] = number of size-n trees with refined number h."""
    return _value_counts(n, _refined)


def histogram_by_classical_hs(n: int) -> Histogram:
    """counts[s] = number of size-n trees with classical number s, computed
    on its own as the register number, not from the refined one."""
    return _value_counts(n, _register)


def aggregate_dyadic(hist: Histogram) -> Histogram:
    """Group a by-height (or by-refined-number) histogram into the blocks
    h in [2**s - 1, 2 * (2**s - 1)], i.e. s = floor(log2(1 + h))."""
    acc: Counter = Counter()
    for h, c in hist.counts.items():
        acc[(1 + h).bit_length() - 1] += c
    return Histogram(hist.n, dict(acc))


# ---------------------------------------------------------------------------
# Verification harness.

class VerifyRow(
    namedtuple(
        "VerifyRow",
        "n by_height by_refined by_classical counts_equal dyadic_ok totals_ok"
        " bijection_ok mismatches elapsed_s",
        defaults=(None, 0.0),
    )
):
    """Per-n outcome of the equidistribution check.  ``mismatches`` defaults
    to a new empty list for each row, and ``elapsed_s``, the wall time of
    this n's passes and checks, to 0.0."""

    __slots__ = ()

    def __new__(cls, *fields, **named):
        row = super().__new__(cls, *fields, **named)
        return row if row.mismatches is not None else row._replace(mismatches=[])

    @property
    def ok(self) -> bool:
        return (
            self.counts_equal
            and self.dyadic_ok
            and self.totals_ok
            and self.bijection_ok
        )


class VerifyReport(namedtuple("VerifyReport", "max_n rows")):
    """The rows of ``verify_equidistribution``, one per n <= max_n."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


@functools.cache  # built once per process, from nodes _table keeps alive
def _shared() -> dict:
    """The (text, refined number) of every node of ``LEAF``, the ``_TREE_*``
    images and ``bijection._table()``'s images, keyed by ``id``: the small
    pieces every image of ``path_to_tree`` is made of.  The cached table and
    the module constants keep these nodes alive, so no other object takes
    one of their ids."""
    known = {id(LEAF): (".", 0)}
    nodes = [_TREE_UD, _TREE_UDUD, _TREE_UUDD, *_table().values()]
    for t in nodes:  # the loop reaches what it appends: children after parents
        if t.left is not None:
            nodes += t.left, t.right
    for t in reversed(nodes):
        known[id(t)] = _describe(t, known)
    return known


def _describe(t, known) -> tuple:
    """The (text, refined number) of the tree t, read off its shape: a node
    in ``known`` by its ``id``, any other joined from its two children's.
    It recurses as deep as the nodes not in ``known`` go."""
    got = known.get(id(t))
    if got is not None:
        return got
    if t.left is None:
        return ".", 0
    left, a = _describe(t.left, known)
    right, b = _describe(t.right, known)
    # _refined inline, as in tree._values, since the call doubles the time
    # of _describe: the larger number, or one more than twice the smaller
    # (two more when the left is larger), whichever is more
    if a > b:
        s = 2 * b + 2
    else:
        s, a = 2 * a + 1, b
    return f"({left}{right})", s if s > a else a


def _path_pass(n: int) -> tuple[Histogram, list]:
    """Walk the paths of half-length n once: the height histogram and the
    image checks of path_to_tree (refined number, size, and one distinct
    image per path in each (n, h) cell).

    ``_describe`` reads each image's text and refined number off its shape,
    never from the height ``path_to_tree`` built it for, looking up the nodes
    of ``_shared()``.  Canonical text is one-to-one with trees, so it is the
    distinctness key, and n internal nodes spell 3n + 1 characters.
    """
    shared = _shared()
    heights = [0] * (n + 1)
    images = [set() for _ in range(n + 1)]  # images[h]: the texts of cell h
    problems = []
    for d in all_dyck_paths(n):
        h = max(d.heights)
        heights[h] += 1
        text, value = _describe(path_to_tree(d), shared)
        if value != h:
            problems.append(f"n={n} h={h}: image has wrong refined number")
        elif len(text) != 3 * n + 1:
            problems.append(f"n={n} h={h}: image has wrong size")
        else:
            images[h].add(text)
    for h, count in enumerate(heights):
        if count and len(images[h]) != count:
            problems.append(f"n={n} h={h}: {len(images[h])} distinct images, expected {count}")
    return Histogram(n, dict(enumerate(heights))), problems


def verify_equidistribution(max_n: int) -> VerifyReport:
    """Exhaustively check, for each n <= max_n, that path heights and tree
    refined numbers are equidistributed, that the dyadic grouping of the
    heights agrees with the classical-number counts, and that path_to_tree
    hits each (n, h) cell bijectively.

    Each family is walked once per n and statistic: the path words for the
    height histogram and every image check (``_path_pass``), the tree values of
    ``_tree_values`` once for the refined histogram and once for the
    classical one, counted as register numbers by ``histogram_by_classical_hs``
    and not grouped from the refined counts.  So ``dyadic_ok`` can fail while
    ``counts_equal`` holds.  Each row records its n's wall time in
    ``elapsed_s``.

    Mismatches land in the report; nothing raises.  max_n is capped at 30 to
    stay within 64-bit counts.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n > _VERIFY_MAX:
        raise ValueError(f"refusing max_n > {_VERIFY_MAX}: counts would overflow 64 bits")
    rows = []
    for n in range(max_n + 1):
        start = perf_counter()
        by_height, problems = _path_pass(n)
        by_refined = histogram_by_refined_hs(n)
        by_classical = histogram_by_classical_hs(n)
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
                elapsed_s=perf_counter() - start,
            )
        )
    return VerifyReport(max_n=max_n, rows=rows)
