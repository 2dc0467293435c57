"""Dyck paths, their landmark indices, and the mid-level decomposition.

A Dyck path of half-length n is stored as its height sequence d(0), ...,
d(2n): nonnegative integers pinned to 0 at both ends, moving by exactly 1 at
each step.  The empty path (n = 0, heights ``(0,)``) is a first-class value
and the only path of height 0.

Text formats: the canonical form is a step string over U (+1) and D (-1),
e.g. ``UUDUDD`` for 0,1,2,1,2,1,0; a comma-separated height sequence such as
``0,1,2,1,2,1,0`` is accepted as alternate input.  Output is always U/D.

Decomposition.  Write h for the height of the path and m = h // 2 for the
split level.  The landmarks are: ``peak``, the first index at height h;
``mid_before``, the last visit to level m before the peak; ``mid_after``,
the first visit to level m after the peak; ``mid_last``, the final visit to
level m; and ``returns``, every index in [mid_after, mid_last] sitting at
level m.  The visits to m from mid_before to mid_last cut the path into
excursions, the first of which is the fix piece; ``decompose_path`` cuts
the path at these indices:

* ``fix``  - the stretch strictly between mid_before and mid_after, shifted
  down by m + 1; its height is always ceil(h / 2) - 1.
* ``free`` - the prefix up to mid_before glued to the suffix after mid_last;
  its height ranges over m .. h - 1.
* ``spine`` - one path per gap between consecutive returns, reflected onto
  the side of level m it lives on and shifted to start at 0, tagged with the
  sign (+1 above, -1 below).  A +1 piece has height at most ceil(h / 2) - 1,
  a -1 piece at most m - 1.

``compose_path`` inverts this given h (the pieces alone do not always
determine h, so it is passed explicitly and membership is validated).

``Landmarks`` and ``PathDecomposition`` are named tuples: frozen, equal by
fields, with ``_asdict()`` and ``_replace()``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate, repeat
from operator import add, indexOf, lt, sub


class DyckPath:
    """An immutable Dyck path, held as its height sequence.

    Assignment raises ``AttributeError``, so shared paths such as
    ``EMPTY_PATH`` cannot change under other callers.
    """

    __slots__ = ("heights",)

    def __init__(self, heights=(0,)):
        hs = tuple(heights)
        if not hs or hs[0] != 0 or hs[-1] != 0:
            raise ValueError("height sequence must start and end at 0")
        if min(hs) < 0:
            raise ValueError("height sequence must be nonnegative")
        if not set(map(sub, hs[1:], hs)) <= {1, -1}:
            raise ValueError("height sequence must move by exactly 1 per step")
        _store_heights(self, hs)

    @classmethod
    def _wrap(cls, heights) -> "DyckPath":
        # internal: trusted construction without revalidation
        p = object.__new__(cls)
        _store_heights(p, tuple(heights))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("DyckPath is immutable")

    def __delattr__(self, name):
        raise AttributeError("DyckPath is immutable")

    def __reduce__(self):
        return (DyckPath, (self.heights,))

    @classmethod
    def from_steps(cls, steps: str) -> "DyckPath":
        """Build from a U/D step string; '' gives the empty path.

        Once every character is known to be U or D, the heights are summed
        at C level over a signed-byte view of the steps, U mapped to +1 and
        D to -1.  Each step then moves by exactly 1 by construction, so of
        ``DyckPath``'s checks only the end at 0 and the floor at 0 are left,
        with the same messages.
        """
        i = len(steps) - len(steps.lstrip("UD"))  # the first character no step has
        if i < len(steps):
            raise ValueError(f"bad step character {steps[i]!r} at index {i}")
        hs = tuple(accumulate(memoryview(steps.encode().translate(_DELTA)).cast("b"), initial=0))
        if hs[-1]:
            raise ValueError("height sequence must start and end at 0")
        if min(hs) < 0:
            raise ValueError("height sequence must be nonnegative")
        return cls._wrap(hs)

    @property
    def n(self) -> int:
        """Half-length: the number of U steps."""
        return (len(self.heights) - 1) // 2

    def steps(self) -> str:
        """The canonical U/D step string."""
        return _steps(self.heights)

    def __eq__(self, other):
        if not isinstance(other, DyckPath):
            return NotImplemented
        return self.heights == other.heights

    def __hash__(self):
        return hash(self.heights)

    def __repr__(self):
        return f"DyckPath.from_steps({self.steps()!r})"


_store_heights = DyckPath.heights.__set__  # the slot's own store, past __setattr__
EMPTY_PATH = DyckPath()
_UD = bytes.maketrans(b"\0\1", b"DU")  # a step's byte is 1 when it goes up
_DELTA = bytes.maketrans(b"UD", b"\1\377")  # U and D as the signed bytes +1, -1


def _steps(hs) -> str:
    """The U/D step string of a height sequence."""
    return bytes(map(lt, hs, hs[1:])).translate(_UD).decode()


def parse_path(text: str) -> DyckPath:
    """Parse a step string (canonical) or a comma-separated height sequence.

    Text that starts with U or D is a step string.  An error names the first
    bad character or height, never the whole text.
    """
    s = text.strip()
    if not s:
        return EMPTY_PATH
    if s[0] in "UD":
        return DyckPath.from_steps(s)
    i = len(s) - len(s.lstrip("0123456789,- "))  # the first character no height has
    if i < len(s):
        raise ValueError(f"bad character {s[i]!r} at index {i}")
    heights = []
    for j, part in enumerate(s.split(",")):
        try:
            heights.append(int(part))
        except ValueError:
            raise ValueError(f"bad height sequence: part {j} is not an integer") from None
    return DyckPath(heights)


def height(d: DyckPath) -> int:
    """Maximum level the path reaches."""
    return max(d.heights)


def random_path(n: int, rng: random.Random | None = None) -> DyckPath:
    """A uniformly random Dyck path of half-length n (cycle construction).

    Shuffles n up-steps and n + 1 down-steps; exactly one rotation of the
    result stays nonnegative until its final step, and dropping that step
    yields a Dyck path.  Each path arises from the same number of shuffles,
    so the output is exactly uniform.

    The shuffle is ``random.Random.shuffle``'s loop written out: for i from
    2n down to 1 it draws j = ``rng.getrandbits(k)``, k the bit length of
    i + 1, until j <= i, and swaps steps i and j.  These are the calls
    ``shuffle`` makes, so a seeded rng (or the ``random`` module, when rng
    is None) gives the same path and ends in the same state.  A ``Random``
    subclass that overrides only ``random()`` is drawn through
    ``getrandbits`` all the same.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    getrandbits = (rng if rng is not None else random).getrandbits
    steps = [1] * n + [-1] * (n + 1)
    # the i come in blocks that share k, so k is found once per block
    for k in range((2 * n + 1).bit_length(), 1, -1):
        for i in range(min(2 * n, (1 << k) - 2), (1 << (k - 1)) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            steps[i], steps[j] = steps[j], steps[i]
    sums = list(accumulate(steps))
    cut = sums.index(min(sums)) + 1
    # the rotation that starts after the lowest sum, without its final step
    return DyckPath._wrap(accumulate(steps[cut:] + steps[:cut - 1], initial=0))


# ---------------------------------------------------------------------------
# Landmarks.

class Landmarks(
    namedtuple("Landmarks", "height mid peak mid_before mid_after mid_last returns signs")
):
    """The indices that drive decompose_path; see the module docstring."""

    __slots__ = ()

    @property
    def spine_length(self) -> int:
        return len(self.signs)


def landmarks(d: DyckPath) -> Landmarks:
    """Locate the landmark indices of d; requires height >= 1."""
    hs = d.heights
    if len(hs) == 1:
        raise ValueError("path of height 0 has no landmarks")
    h, signs, pieces = _cut((hs, 0, len(hs), 0, 1))
    # the fix piece lies strictly between mid_before and mid_after, and each
    # spine piece ends at the next return
    fix = pieces[0]
    returns = (fix[2], *[p[2] for p in pieces[2:]])
    return Landmarks(
        height=h,
        mid=h // 2,
        peak=hs.index(h),
        mid_before=fix[1] - 1,
        mid_after=fix[2],
        mid_last=returns[-1],
        returns=returns,
        signs=tuple(signs),
    )


# ---------------------------------------------------------------------------
# Decomposition and its inverse.

class PathDecomposition(namedtuple("PathDecomposition", "height fix free spine")):
    """Output of decompose_path; ``height`` is the height of the source path."""

    __slots__ = ()

    @property
    def spine_length(self) -> int:
        return len(self.spine)


# A piece is one of two tuples.  A contiguous piece is ``(hs, start, stop,
# base, sign)``: the heights ``hs[start:stop]``, whose own heights are
# ``sign * (x - base)``.  A free piece with at least _COPY_BELOW heights is
# ``(chain, pe, ss)``: the prefix part ``hs[start:pe]`` followed by the
# suffix part ``hs[ss:stop]`` of the contiguous piece its chain of free
# pieces started from (its root), held in the list ``chain = [hs, start,
# stop, base, sign, rev, budget, tables]``.  A contiguous piece is cut as a
# root whose suffix part is empty (``pe = ss = stop``), and its chain is
# created only when it hands on such a free piece.  Cutting a free piece
# again leaves a prefix and a suffix of the same root, so a whole chain
# shares one root, one reversed copy ``rev`` and, once built, one pair of
# ``tables``.  A shorter free piece is copied into a contiguous one: below
# that size the copy costs less than the bookkeeping of two ranges (250
# random paths at n = 1000, whose pieces are short, ran about 7% slower
# without the copy on CPython 3.11, 2 cores).
_COPY_BELOW = 256


def _cut(piece):
    """One level of the decomposition of a piece, contiguous or free.

    Returns (h, signs, pieces): ``h`` is the piece's height, ``pieces`` is
    [fix, free, spine pieces...] and ``signs`` holds the +1/-1 tag of each
    spine piece.  The free piece continues this piece's chain, or is copied
    when it is short.

    A contiguous piece is reversed once into ``rev``: its height and peak
    come from it, and the two backward searches (the last visit to the split
    level before the peak, and the last visit overall) run forwards on it.

    A free piece is not rescanned, by three facts.  Its suffix part stays
    below the split level that cut it off, so its height and peak lie in its
    prefix part, a prefix of the root.  Its last visit to its own split level
    is the end of the prefix part when that level did not drop, and else the
    root's last visit to it.  Every other search runs over what the cut hands
    to the fix and spine pieces.  When the excursions cross from the prefix
    part into the suffix part, their run is copied once.

    The height, peak and last visit come from direct scans until the chain
    has scanned as many elements as its root holds.  Then ``tables`` are
    built once: the root's first visit to each own level its prefix part
    reaches, and (as ``rev`` indices) its last visit to each level up to the
    split level.  The split level never rises along a chain, so the tables
    answer every later cut with one ``bisect`` and one lookup.  A chain whose
    pieces halve, as on a single mountain, never builds them.
    """
    if len(piece) == 5:
        hs, start, stop, base, sign = piece
        chain = tables = None
        pe = ss = stop
        rev = hs[stop - 1 : start - 1 : -1] if start else hs[stop - 1 :: -1]
        top = max(rev) if sign == 1 else min(rev)
        h = sign * (top - base)
        peak = hs.index(top, start, stop)
    else:
        chain, pe, ss = piece
        hs, start, stop, base, sign, rev, budget, tables = chain
        if tables is None:
            top = max(hs[start:pe]) if sign == 1 else min(hs[start:pe])
            h = sign * (top - base)
            budget -= pe - start + stop - ss
            chain[6] = budget
            if budget < 0:
                tables = chain[7] = (
                    _first_visits(hs, start, pe, base, sign, h),
                    _first_visits(rev, 0, stop - start, base, sign, h // 2),
                )
            else:
                peak = hs.index(top, start, pe)
        if tables is not None:
            h = bisect_left(tables[0], pe) - 1
            peak = tables[0][h]
    m = h // 2
    level = base + sign * m
    # last m before the peak; the climb to the peak guarantees one exists
    before = stop - 1 - rev.index(level, stop - peak)
    if ss < stop and sign * (hs[ss] - base) < m:  # a suffix part stays below level
        last, ss_next = pe - 1, ss
    else:
        last = stop - 1 - (rev.index(level) if tables is None else tables[1][m])
        ss_next = last + 1
    if before + 1 - start + stop - ss_next < _COPY_BELOW:
        part = hs[start : before + 1] + hs[ss_next:stop]
        free = part, 0, len(part), base, sign
    else:
        if chain is None:
            chain = [hs, start, stop, base, sign, rev, stop - start, None]
        free = (chain, before + 1, ss_next)
    signs = []
    pieces = [None, free]
    if last < pe:
        _excursions(hs, before, peak, last, level, sign, signs, pieces)
    else:  # the excursions cross from the prefix part into the suffix part
        run = hs[before:pe] + hs[ss : last + 1]
        _excursions(run, 0, peak - before, len(run) - 1, level, sign, signs, pieces)
    return h, signs, pieces


def _first_visits(seq, start, stop, base, sign, top):
    """The index of the first visit to each own level 0..top in
    ``seq[start:stop]``, which starts at level 0."""
    out = [start]
    i = start
    for x in range(base + sign, base + sign * (top + 1), sign):
        i = seq.index(x, i, stop)
        out.append(i)
    return out


def _excursions(hs, i, peak, last, level, sign, signs, pieces):
    """Cut ``hs`` between its visits to ``level`` at index i and index last
    into excursions.  The first climbs to the peak at index ``peak``, whence
    its end is searched; it is the fix piece, ``pieces[0]``.  Each later one
    is a spine piece, appended with its tag: a +1 piece sits one level above
    the split level, and a -1 piece is reflected about one level below it."""
    up = level + sign
    j = hs.index(level, peak)
    pieces[0] = (hs, i + 1, j, up, sign)
    while j != last:
        i = j
        j = hs.index(level, i + 1)
        if hs[i + 1] == up:
            signs.append(1)
            pieces.append((hs, i + 1, j, up, sign))
        else:
            signs.append(-1)
            pieces.append((hs, i + 1, j, level - sign, -sign))


def _own(piece) -> DyckPath:
    """A piece as a path of its own heights."""
    if len(piece) == 5:
        hs, start, stop, base, sign = piece
        hs = hs[start:stop]
    else:
        (hs, start, stop, base, sign, *_), pe, ss = piece
        hs = hs[start:pe] + hs[ss:stop]
    if sign == 1:
        return DyckPath._wrap(map(sub, hs, repeat(base)))
    return DyckPath._wrap(map(sub, repeat(base), hs))


def _place(heights, base: int, sign: int):
    """The inverse of _own: an iterator over a path's heights placed at
    (base, sign)."""
    if sign == 1:
        return map(add, heights, repeat(base))
    return map(sub, repeat(base), heights)


def decompose_path(d: DyckPath) -> PathDecomposition:
    """Cut d at its landmarks into fix, free, and the spine pieces."""
    if len(d.heights) == 1:  # only the empty path has height 0
        raise ValueError("cannot decompose a path of height 0")
    hs = d.heights
    h, signs, pieces = _cut((hs, 0, len(hs), 0, 1))
    return PathDecomposition(
        height=h,
        fix=_own(pieces[0]),
        free=_own(pieces[1]),
        spine=tuple(zip(signs, map(_own, pieces[2:]))),
    )


def _join(level, fix, free, spine):
    """Concatenate pieces, already in final heights, into one height list.

    No validation; callers guarantee membership.  The free piece is split at
    its last visit to the split level, and the fix piece and each spine piece
    are followed by a return to that level.  ``free`` must be a list; it is
    consumed as the output buffer.  The other pieces, and ``spine`` itself,
    may be any iterables.
    """
    split = len(free) - indexOf(reversed(free), level)
    tail = free[split:]
    del free[split:]
    free += fix
    free.append(level)
    for piece in spine:
        free += piece
        free.append(level)
    free += tail
    return free


def compose_path(h: int, parts: PathDecomposition) -> DyckPath:
    """Inverse of decompose_path for height h.

    The pieces alone do not always determine h, so it is explicit; the piece
    heights are validated against their admissible ranges for h.
    """
    if h < 1:
        raise ValueError("h must be >= 1; only the empty path has height 0")
    if not isinstance(parts, PathDecomposition):
        raise ValueError(f"parts must be a PathDecomposition, got {type(parts).__name__}")
    try:
        spine = tuple(parts.spine)
    except TypeError:
        raise ValueError("spine must be a sequence of (sign, DyckPath) pairs") from None
    for what, piece in (("fix", parts.fix), ("free", parts.free)):
        if not isinstance(piece, DyckPath):
            raise ValueError(f"{what} piece must be a DyckPath, got {type(piece).__name__}")
    if parts.height != h:
        raise ValueError(
            f"membership violation: parts are labelled height {parts.height}, expected {h}"
        )
    m = h // 2
    fix_height = (h - 1) // 2  # == ceil(h / 2) - 1
    got = max(parts.fix.heights)
    if got != fix_height:
        raise ValueError(
            f"membership violation: fix piece has height {got}, need {fix_height}"
        )
    got = max(parts.free.heights)
    if not m <= got <= h - 1:
        raise ValueError(
            f"membership violation: free piece has height {got}, need {m} .. {h - 1}"
        )
    for j, entry in enumerate(spine):
        try:
            e, piece = entry
        except (TypeError, ValueError):
            raise ValueError(f"spine entry {j} is not a (sign, DyckPath) pair") from None
        if e not in (1, -1):
            raise ValueError(f"membership violation: spine sign {e!r} is not +1 or -1")
        if not isinstance(piece, DyckPath):
            raise ValueError(
                f"spine piece {j} must be a DyckPath, got {type(piece).__name__}"
            )
        cap = fix_height if e == 1 else m - 1
        got = max(piece.heights)
        if got > cap:
            raise ValueError(
                f"membership violation: spine piece {j} with sign {e:+d} has "
                f"height {got} > {cap}"
            )
    heights = _join(
        m,
        _place(parts.fix.heights, m + 1, 1),
        list(parts.free.heights),
        (_place(piece.heights, m + e, e) for e, piece in spine),
    )
    return DyckPath._wrap(heights)  # validated parts join to a valid path
