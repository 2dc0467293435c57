"""The height-preserving correspondence between Dyck paths and full binary trees.

``path_to_tree`` sends the empty path to a leaf.  Any other path is cut into
fix, free and spine pieces (see ``dyck.decompose_path``), each piece is
converted in turn, and the resulting trees are reassembled exactly as
``tree.compose_tree`` prescribes: the spine signs become child slots
(+1 -> slot 1, -1 -> slot 2 for the hung subtree), and below the spine the
free tree takes the left child when the height is even and the right child
when it is odd.  The construction preserves both the size parameter n and
the statistic: the image of a path of height h has refined number h.
``tree_to_path`` inverts this, piece by piece.

Neither direction ever shifts or reflects a height.  A path piece is held
as offsets into the real heights it was cut from, with a ``(base, sign)``
pair: its own heights are ``sign * (x - base)``, so reflecting a piece below
the split level flips ``sign`` and moves ``base``, and no element is touched.
A fix or spine piece is one range ``(hs, start, stop, base, sign)``.  A free
piece is two ranges, a prefix and a suffix of the contiguous piece its chain
of free pieces started from.  One function, ``dyck._cut``, cuts both forms.
The chain shares that root's one reversed copy and, once the chain has
scanned as many heights as the root holds, a table of first visits and one
of last visits per level, so a cut costs what it hands to its fix and spine
pieces plus O(log h), not the length of the free piece.  A piece that
crosses from the prefix into the suffix is copied once, and a free piece
shorter than ``dyck._COPY_BELOW`` is copied into one range.  A tree is
first flattened into breadth-first index arrays (``tree._flatten``: children
of node i at ``kid[i]`` and ``kid[i] + 1``, refined numbers in ``val``), the
spine walk reads indices, and every piece's path is emitted straight in
final heights from its ``(base, sign)``, so assembling a level is list
concatenation plus one split of the free piece at its last visit to the
split level, found by a backward scan of only the tail it splits off.
Leaves and other pieces too small to need a cut are built inline and never
enter the work loop.

The same single-level helpers (``dyck._cut`` and ``dyck._join``,
``tree._spine_walk`` and ``tree._assemble_tree``) back ``landmarks``,
``decompose_path``, ``compose_path``, ``decompose_tree`` and
``compose_tree``, which normalise pieces to their own heights only at that
API boundary.  Both directions run on an explicit work stack rather than the
call stack, so paths of half-length around 10**6 (whose recursion can be as
deep as the tree) convert without recursion-limit tuning.
"""

from __future__ import annotations

from .dyck import DyckPath, _cut, _join
from .tree import LEAF, Tree, _assemble_tree, _flatten, _spine_walk


def _small_tree(hs, start, size):
    """The image of the piece of ``size`` heights from ``hs[start]`` on,
    when it has at most two internal nodes, else None.

    Built fresh on every call: Tree slots are assignable, so shared internal
    nodes would let one caller's mutation leak into later images.
    """
    if size == 1:
        return LEAF
    if size == 3:
        return Tree(LEAF, LEAF)
    if size == 5:
        if hs[start + 2] == hs[start]:  # UDUD
            return Tree(LEAF, Tree(LEAF, LEAF))
        return Tree(Tree(LEAF, LEAF), LEAF)  # UUDD
    return None


def path_to_tree(d: DyckPath) -> Tree:
    """The tree image of d; refined number equals the height of d."""
    hs = d.heights
    image = _small_tree(hs, 0, len(hs))
    if image is not None:
        return image
    out = [None]
    # the work stack holds pieces waiting to be cut, (piece, dest, slot), and
    # assembly frames, (h, signs, parts, dest, slot), that run once every
    # slot of ``parts`` is filled; a result lands in dest[slot]
    stack: list = [((hs, 0, len(hs), 0, 1), out, 0)]
    while stack:
        task = stack.pop()
        if len(task) == 3:
            piece, dest, slot = task
            h, signs, pieces = _cut(piece)
            parts = [LEAF] * len(pieces)  # a one-height piece is a leaf
            stack.append((h, signs, parts, dest, slot))
            for j, p in enumerate(pieces):
                if len(p) != 5:  # two ranges hold at least dyck._COPY_BELOW heights
                    stack.append((p, parts, j))
                    continue
                size = p[2] - p[1]
                if size > 5:
                    stack.append((p, parts, j))
                elif size > 1:
                    parts[j] = _small_tree(p[0], p[1], size)
        else:
            h, signs, parts, dest, slot = task
            # sign +1 hangs its subtree in slot 1 (left), -1 in slot 2
            dest[slot] = _assemble_tree(h, signs, parts)
    return out[0]


def _small_path(kid, val, i, base, sign):
    """The final heights for the subtree at index i, placed at (base, sign),
    when it has at most two internal nodes or is a right comb (refined
    number 1), else None."""
    v = val[i]
    if v == 0:
        return [base]
    if v == 1:
        size = 0
        k = kid[i]
        while k:  # a right comb: walk down its right children
            size += 1
            k = kid[k + 1]
        return [base, base + sign] * size + [base]
    if v == 2:
        left = kid[i]  # the right child is at left + 1
        # with refined number 2 and a leaf on the right, the left is internal
        if not kid[left + 1] and not kid[kid[left]] and not kid[kid[left] + 1]:
            return [base, base + sign, base + 2 * sign, base + sign, base]  # ((..).)
    return None


def tree_to_path(t: Tree) -> DyckPath:
    """The unique path mapping to t under path_to_tree."""
    _, kid, val = _flatten(t)
    path = _small_path(kid, val, 0, 0, 1)
    if path is not None:
        return DyckPath._wrap(path)
    out = [None]
    # the work stack holds subtrees waiting to be cut, (i, base, sign, dest,
    # slot), and assembly frames, (level, parts, dest, slot), that run once
    # every slot of ``parts`` is filled; each piece is emitted directly in
    # final heights, so assembly only concatenates
    stack: list = [(0, 0, 1, out, 0)]
    while stack:
        task = stack.pop()
        if len(task) == 5:
            i, base, sign, dest, slot = task
            h, slots, subtrees = _spine_walk(kid, val, i)
            level = base + sign * (h // 2)
            above = (level + sign, sign)
            below = (level - sign, -sign)  # reflected
            places = [above, (base, sign)]  # the fix and free subtrees
            places += [above if side == 1 else below for side in slots]
            parts = [None] * len(subtrees)
            stack.append((level, parts, dest, slot))
            for j, (k, (b, s)) in enumerate(zip(subtrees, places)):
                path = _small_path(kid, val, k, b, s)
                if path is None:
                    stack.append((k, b, s, parts, j))
                else:
                    parts[j] = path
        else:
            level, parts, dest, slot = task
            dest[slot] = _join(level, parts[0], parts[1], parts[2:])
    return DyckPath._wrap(out[0])


def golden_witness() -> tuple[DyckPath, Tree]:
    """A pinned regression pair: the straight up-down path of height 5 and its tree.

    The tree is whatever path_to_tree produces; tests freeze its text form so
    any behavioural drift in the conversion shows up immediately.
    """
    d = DyckPath((0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0))
    return d, path_to_tree(d)
