"""The height-preserving correspondence between Dyck paths and full binary trees.

``path_to_tree`` sends the empty path to a leaf.  Any other path is cut into
fix, free and spine pieces (see ``dyck.decompose_path``), each piece is
converted in turn, and the resulting trees are reassembled exactly as
``tree.compose_tree`` prescribes: a +1 spine piece's tree hangs on the
left and a -1 piece's on the right, and below the spine the free tree takes
the left child when the height is even and the right child when it is odd.
The construction preserves both the size parameter n and the statistic:
the image of a path of height h has refined number h.
``tree_to_path`` inverts this, piece by piece.

Neither direction ever shifts or reflects a height.  A path piece is held
as offsets into the real heights it was cut from, with a ``(base, sign)``
pair, and ``dyck._cut`` cuts it (the piece format is described in
``dyck.py``).  A tree is first flattened into index arrays in one pass
(``tree._flatten``: children of node i at ``kid[i]`` and ``kid[i] + 1``, in
the preorder layout that ``tree._scan`` reads from text, refined numbers in
``val``, read off the nodes, which store them), the spine walk reads
indices, and every piece's path is emitted straight in final heights from
its ``(base, sign)``, so joining a level is list concatenation plus one
split of the free piece at its last visit to the split level.  Subtrees of
refined number at most 2 are not walked: ``_small_path`` writes their paths
in closed form.
``path_to_tree`` cuts no piece of at most ``_TABLE_N`` internal nodes: those
with one or two are told apart inline, and the image of each longer one is
looked up, by its own steps, in one table of every such path's image, built
on first use (``_table``).  Pieces that small make most of the pieces of a
uniform path.  Image nodes are made without ``Tree.__init__``
(``tree._assemble_tree``).

The same single-level helpers (``dyck._cut``, ``dyck._join`` and
``tree._assemble_tree``) back ``landmarks``, ``decompose_path``,
``compose_path`` and ``compose_tree``, which normalise pieces to their own
heights, and the tree side's +1/-1 tags to child slots 1/2, only at that
API boundary.  A level is ``(h, signs, [fix, free, spine...])`` on both
sides.  Of the pieces of a height-h level, only the free one can be almost
as high as h: the fix piece has height ceil(h / 2) - 1 and every spine
piece at most that, and likewise for the fix and hung subtrees of a tree.
So each direction walks its chain of free pieces in a loop and recurses
only into fix and spine pieces, about log2(h) calls deep, and paths of
half-length around 10**6 convert at the default recursion limit.

The CLI's ``d2t`` and ``t2d`` never build a ``Tree``.  ``_image_text`` cuts
a path as ``path_to_tree`` does and writes the image's text instead, and
``_preimage_steps`` walks the ``kid`` array that ``tree._scan`` reads from
text with the same ``_preimage`` as ``tree_to_path``.  The image of a piece
depends only on its own heights, so ``_image_text`` keeps one dict per call
that maps a fix or spine piece's own U/D steps, as bytes, to its text, and
writes the text of a repeated piece once: mountains, rising and falling
mountains and the paths of perfect trees and of ``tau(r)`` repeat their
pieces many times over.  On a uniform path they almost never repeat, so a
piece is keyed only once an earlier piece of its size has been seen (see
``_tree_text``).  Likewise a subtree's preimage depends only on its shape,
so ``_preimage`` keeps one dict per call that maps the shape of a subtree
of refined number ``_MEMO_FROM`` or more to the heights of a copy that was
walked, and places each later copy from them with one ``map`` (see
``_path``); smaller subtrees are cheaper to walk than to key.
``path_to_tree``'s images share each subtree of at most ``_TABLE_N``
internal nodes with every other image, since every ``Tree`` refuses
assignment; bigger repeated pieces are still cut once per copy, as
``_tree`` keeps no per-call memo until one is measured.
"""

from __future__ import annotations

import functools
from itertools import repeat
from operator import add, gt, lt, sub

from .dyck import DyckPath, _cut, _join, _steps
from .tree import LEAF, Tree, _assemble_tree, _flatten, _spine_walk, _values


# the images of the pieces with one or two internal nodes, shared by every image
_TREE_UD = Tree(LEAF, LEAF)
_TREE_UDUD = Tree(LEAF, _TREE_UD)
_TREE_UUDD = Tree(_TREE_UD, LEAF)

# the largest half-length of a piece whose image _small_tree takes from
# _table.  roundtrip-n1000 items_per_s for N = 5 / 6 / 7 / 8 (CPython 3.11.7,
# 2 cores, seed 1): 386 / 365 / 414 / 404, medians of 13 / 13 / 13 / 7
# interleaved perfbench/run.py --seconds 15 runs, quartiles 30 to 100 apart;
# 392 / 411 for 6 / 7 in 8 more such runs each, 7 ahead in 5 of 8; 399 / 421
# / 400 / 406, medians of 24 of its rounds per N interleaved in one process,
# quartiles about 140 apart.  So all four are within noise.  Cuts on its 250
# paths fall with N, 24 986 / 21 696 / 19 168 / 17 177, and the table grows
# to 61 / 193 / 622 / 2 052 images, built in 0.5 / 1.3 / 4.3 / 17 ms on the
# first call: 5 cuts 15 % more often than 6, and 7 and 8 hold 3 and 11 times
# its images for no measured gain
_TABLE_N = 6
_SMALL = 2 * _TABLE_N + 1  # the heights of the longest piece _small_tree takes


def _key(hs, start, stop, sign):
    """The own U/D steps of the piece ``hs[start:stop]`` placed with sign
    ``sign``, as bytes, 1 for U and 0 for D: ``lt`` compares real heights
    when ``sign`` is +1, ``gt`` when it is -1.  A piece's image depends only
    on these steps."""
    s = hs[start:stop]
    return bytes(map(lt if sign == 1 else gt, s, s[1:]))


@functools.cache  # built on the first call, then shared by every image
def _table() -> dict:
    """The image of every Dyck path of half-length 3 to ``_TABLE_N``, keyed
    by ``_key``.

    The paths are built as U a D b from the shorter ones, in order of
    half-length, and each is cut one level; its pieces are shorter, so their
    images are already built.  Nothing is added afterwards, and the entries
    are shared by every image, since every ``Tree`` refuses assignment.
    """
    table = {}
    paths = [[(0,)]]  # paths[k]: the heights of every path of half-length k
    for n in range(1, _TABLE_N + 1):
        ups = [[(0, *[x + 1 for x in a]) for a in paths[k]] for k in range(n)]  # U a D
        paths.append([u + b for k in range(n) for u in ups[k] for b in paths[n - 1 - k]])
        if n < 3:
            continue
        for hs in paths[n]:
            h, signs, parts = _cut((hs, 0, len(hs), 0, 1))
            for j, (ps, a, b, _, sign) in enumerate(parts):
                # a longer piece from table, since _small_tree would call _table
                parts[j] = table[_key(ps, a, b, sign)] if b - a > 5 else _small_tree(ps, a, b, sign)
            table[_key(hs, 0, len(hs), 1)] = _assemble_tree(h, signs, parts)
    return table


def _small_tree(hs, start, stop, sign):
    """The image of the piece ``hs[start:stop]`` placed with sign ``sign``,
    when it has at most ``_TABLE_N`` internal nodes, else None.  Pieces with
    at most two are told apart inline, longer ones are looked up in
    ``_table``."""
    size = stop - start
    if size == 1:
        return LEAF
    if size == 3:
        return _TREE_UD
    if size == 5:
        return _TREE_UDUD if hs[start + 2] == hs[start] else _TREE_UUDD
    if size <= _SMALL:
        return _table()[_key(hs, start, stop, sign)]
    return None


def path_to_tree(d: DyckPath) -> Tree:
    """The tree image of d; refined number equals the height of d."""
    hs = d.heights
    return _small_tree(hs, 0, len(hs), 1) or _tree((hs, 0, len(hs), 0, 1))


def _tree(piece):
    """The image of a piece too big for ``_small_tree``.

    The loop cuts the chain of free pieces down to a small one; then, on the
    way back up, each level's fix and spine pieces are converted and the
    level is assembled.  Only those pieces recurse, and their height is at
    most ceil(h / 2) - 1, so the recursion is about log2(h) deep.
    """
    levels = []
    while len(piece) != 5 or piece[2] - piece[1] > _SMALL:  # two ranges are never small
        h, signs, parts = _cut(piece)
        piece = parts[1]
        parts[1] = None  # drop the free piece, so its chain is freed once cut
        levels.append((h, signs, parts))
    node = _small_tree(piece[0], piece[1], piece[2], piece[4])
    while levels:
        h, signs, parts = levels.pop()
        for j, p in enumerate(parts):
            if j != 1:
                hs, a, b, _, sign = p
                parts[j] = LEAF if b - a == 1 else _small_tree(hs, a, b, sign) or _tree(p)
        parts[1] = node
        # a +1 piece's tree hangs on the left, a -1 piece's on the right
        node = _assemble_tree(h, signs, parts)
    return node


def _small_text(hs, start, size):
    """The text of the image of the ``size`` heights from ``hs[start]`` when
    they make at most two internal nodes (``size`` <= 5), else None."""
    if size == 1:
        return "."
    if size == 3:
        return "(..)"
    if size == 5:
        return "(.(..))" if hs[start + 2] == hs[start] else "((..).)"
    return None


def _image_text(hs) -> str:
    """The text of the image of the path with heights hs, built as text."""
    return _small_text(hs, 0, len(hs)) or _tree_text((hs, 0, len(hs), 0, 1), {})


def _tree_text(piece, memo):
    """The text of ``_tree(piece)``, cut as ``_tree`` cuts but on down to
    pieces of at most two internal nodes.

    Each level of the free chain wraps the free piece's text in text before
    and after it, so both are collected, level by level, and joined once:
    joining per level would copy the inner text once per level, about
    n**1.5 characters on rising mountains.

    ``memo`` is the one dict of an ``_image_text`` call.  A piece's image
    depends only on its own heights, that is on its own U/D steps, never on
    where it sits or on the rest of the path.  So a fix or spine piece with
    the same steps as an earlier one takes that piece's text, keyed by
    ``_key``, and is not cut again: a mountain of half-length 10**5
    takes 160 cuts, and 34 464 without the memo.  On a uniform path big
    pieces almost never repeat, so the key is paid only once two pieces of
    one size have been seen: ``memo[size]`` holds the first such piece and
    its text, then ``True`` once that piece has been keyed.
    """
    levels = []
    while len(piece) != 5 or piece[2] - piece[1] > 5:
        h, signs, parts = _cut(piece)
        piece = parts[1]
        parts[1] = None  # as in _tree, so the chain is freed once cut
        levels.append((h, signs, parts))
    head = []  # the text before the free piece's, back to front
    tail = [_small_text(piece[0], piece[1], piece[2] - piece[1])]
    while levels:
        h, signs, parts = levels.pop()
        for j, p in enumerate(parts):
            if j != 1:
                size = p[2] - p[1]
                text = "." if size == 1 else _small_text(p[0], p[1], size)
                if text is None:
                    first = memo.get(size)
                    if first is None:  # the first piece of its size goes unkeyed
                        text = _tree_text(p, memo)
                        memo[size] = p, text
                    else:
                        if first is not True:  # a second one: key the first
                            (fs, fa, fb, _, fsign), ftext = first
                            memo[_key(fs, fa, fb, fsign)] = ftext
                            memo[size] = True
                        hs, a, b, _, sign = p
                        key = _key(hs, a, b, sign)
                        text = memo.get(key)
                        if text is None:
                            text = memo[key] = _tree_text(p, memo)
                parts[j] = text
        # the level's tree as _assemble_tree builds it, from the spine vertex up
        if h % 2 == 0:
            head.append("(")
            tail += parts[0], ")"
        else:
            head += parts[0], "("
            tail.append(")")
        for j in range(len(signs) - 1, -1, -1):
            if signs[j] == 1:
                head += parts[j + 2], "("
                tail.append(")")
            else:
                head.append("(")
                tail += parts[j + 2], ")"
    head.reverse()
    head += tail
    return "".join(head)


def _small_path(kid, val, i, base, sign):
    """The final heights for the subtree at index i, of refined number at
    most 2, placed at (base, sign), in closed form.

    Such a subtree is a leaf, a right comb (refined number 1), or a
    refined-2 zigzag: a leaf hung on either side of each node down its spine,
    then, at the spine vertex, a right comb on the left (the free subtree)
    and a leaf on the right (the fix one).  Its path is the comb's, split
    before its last step down, with the fix leaf's peak and then each hung
    leaf's step up (+1) or down (-1) from the split level in between.
    """
    up = base + sign  # the split level of a refined-2 subtree
    if val[i] != 2:
        tail = [base]
    else:
        tail = [up + sign, up]  # the fix leaf, then back to the split level
        i = kid[i]  # the left child of each spine node in turn
        while val[i] != 1:
            if kid[i]:  # the spine turns left, a leaf hangs on the right
                tail += (base, up)
                i = kid[i]
            else:  # the spine turns right, a leaf hangs on the left
                tail += (up + sign, up)
                i = kid[i + 1]
        tail.append(base)
    size = 0
    k = kid[i]
    while k:  # a right comb, or a leaf: walk down its right children
        size += 1
        k = kid[k + 1]
    return [base, up] * size + tail


def tree_to_path(t: Tree) -> DyckPath:
    """The unique path mapping to t under path_to_tree."""
    kid, val = _flatten(t)
    return DyckPath._wrap(_preimage(kid, val))


def _preimage_steps(kid) -> str:
    """The U/D steps of the preimage of the tree with ``tree._scan`` array kid."""
    return _steps(_preimage(kid, _values(kid)))


def _preimage(kid, val):
    """The heights of the preimage of the tree with ``tree._scan``-layout
    arrays kid and val, from one ``_path`` walk with one memo."""
    return _path(kid, val, 0, 0, 1, {}, len(kid) // 2)


# the least refined number of a subtree that _preimage looks up in its memo;
# a subtree of refined number v has at least v internal nodes.  Big subtrees
# of a uniform random tree almost never repeat: on the images of two such
# paths of half-length 10**5, keying every subtree of refined number 3 or
# more made t2d 1.24x slower (median of 10 runs, CPython 3.11, 2 cores),
# while 16, 64 and 256 were within 1% of each other.  At 64, keying the
# first subtree of each size too made t2d on those two trees 1.09x and
# 1.11x slower (slower in 19 of 20 alternating runs in one interpreter),
# though 0.81x on the image of mountains of heights 1..400
_MEMO_FROM = 64


def _path(kid, val, i, base, sign, memo, e):
    """The final heights for the subtree at index i, placed at (base, sign).

    The loop walks the chain of free subtrees, all placed at (base, sign),
    down to one of refined number at most 2, which ``_small_path`` writes in
    closed form; then, on the way back up, each level's fix and hung
    subtrees are converted and joined to it: a leaf as its one height, one
    of refined number 1 or 2 by ``_small_path``, and only the bigger ones
    recurse.  Their refined number is at most ceil(h / 2) - 1, so the
    recursion is about log2(h) deep.

    ``memo`` is the one dict of a ``_preimage`` call.  In ``_scan``'s layout
    the internal node of preorder rank q has its children at slots 2q + 1
    and 2q + 2, and a subtree's internal nodes have consecutive ranks.  So
    the subtree at i, whose ranks end just before e (the root's at
    ``len(kid) // 2``), owns exactly the slots ``kid[i]`` to 2e, and which
    of them are internal spells its shape.  A fix or hung subtree of refined
    number ``_MEMO_FROM`` or more is keyed by its shape, and a repeated one
    is placed with one ``map`` over the heights of the copy that was walked.
    As in ``_tree_text``, the key is paid only once two subtrees of one size
    have been seen: ``memo[size]`` is ``True`` once the first was walked,
    unkeyed, and ``memo[shape]`` holds the (base, sign, heights) of the next
    copy walked.
    """
    levels = []
    while val[i] > 2:
        h, signs, parts = _spine_walk(kid, val, i)
        i = parts[1]
        ends = None
        if val[i] >= _MEMO_FROM:  # else no subtree of the level is keyed
            ends = _ends(kid, parts, e)
            e = ends[1]
        levels.append((base + sign * (h // 2), signs, parts, ends))
    path = _small_path(kid, val, i, base, sign)
    while levels:
        level, signs, parts, ends = levels.pop()
        for j, k in enumerate(parts):
            if j == 1:
                continue
            # fix and +1 subtrees sit above the split level, -1 ones below it
            s = sign if j == 0 else sign * signs[j - 2]
            b = level + s
            v = val[k]
            if v < 3:
                parts[j] = _small_path(kid, val, k, b, s) if v else (b,)
                continue
            if v < _MEMO_FROM:  # nor any below it, so no end is read
                parts[j] = _path(kid, val, k, b, s, memo, None)
                continue
            end = ends[j]
            start = kid[k]
            size = 2 * end + 1 - start
            if size not in memo:  # the first subtree of its size goes unkeyed
                memo[size] = True
                parts[j] = _path(kid, val, k, b, s, memo, end)
                continue
            key = bytes(map(bool, kid[start : 2 * end + 1]))
            got = memo.get(key)
            if got is None:
                parts[j] = got = _path(kid, val, k, b, s, memo, end)
                memo[key] = b, s, got
                continue
            fb, fs, got = got
            if s == fs:
                parts[j] = map(add, got, repeat(b - fb))
            else:
                parts[j] = map(sub, repeat(b + fb), got)
        path = _join(level, parts[0], path, parts[2:])
    return path


def _ends(kid, parts, e):
    """The rank just past each of ``parts``, the subtrees of a level from
    ``tree._spine_walk`` whose root's subtree ends just before rank e.

    A left child, at an odd slot, whose right sibling is internal ends where
    that sibling starts; any other subtree ends where its parent ends.
    """
    ends = [0, 0]
    for k in parts[2:]:  # from the root down; a +1 one's sibling is the spine
        ends.append(kid[k + 1] // 2 if k & 1 else e)
        if not k & 1 and kid[k]:  # the spine turns left: it ends where k starts
            e = kid[k] // 2
    for j in 0, 1:
        k = parts[j]
        ends[j] = kid[k + 1] // 2 if k & 1 and kid[k + 1] else e
    return ends


def golden_witness() -> tuple[DyckPath, Tree]:
    """A pinned regression pair: the straight up-down path of height 5 and its tree.

    The tree is whatever path_to_tree produces; tests freeze its text form so
    any behavioural drift in the conversion shows up immediately.
    """
    d = DyckPath((0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0))
    return d, path_to_tree(d)
