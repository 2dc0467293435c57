"""Brute-force reference implementations, independent of the library.

Everything here recomputes results from first principles with the dumbest
viable method (generate-and-filter, nested tuples, exhaustive injections) so
the tests can compare the library against code that shares none of its
machinery.
"""

from itertools import combinations, product


def brute_dyck_heights(n):
    """All Dyck paths of half-length n as height tuples, by filtering
    every step sequence in {+1, -1}^(2n)."""
    if n == 0:
        return [(0,)]
    out = []
    for steps in product((1, -1), repeat=2 * n):
        level = 0
        heights = [0]
        for s in steps:
            level += s
            if level < 0:
                break
            heights.append(level)
        else:
            if level == 0:
                out.append(tuple(heights))
    return out


def brute_landmarks(heights):
    """The landmarks of a path of height >= 1, straight from their
    definitions in the ``strahler.dyck`` module docstring, as a dict keyed
    like the fields of ``Landmarks``."""
    h = max(heights)
    m = h // 2
    at_m = [i for i, x in enumerate(heights) if x == m]
    peak = min(i for i, x in enumerate(heights) if x == h)
    mid_before = max(i for i in at_m if i < peak)
    mid_after = min(i for i in at_m if i > peak)
    mid_last = max(at_m)
    returns = tuple(i for i in at_m if mid_after <= i <= mid_last)
    # a gap between consecutive returns lies wholly above or wholly below m
    gaps = zip(returns, returns[1:])
    signs = tuple(1 if min(heights[a + 1 : b]) > m else -1 for a, b in gaps)
    return {
        "height": h,
        "mid": m,
        "peak": peak,
        "mid_before": mid_before,
        "mid_after": mid_after,
        "mid_last": mid_last,
        "returns": returns,
        "signs": signs,
    }


def brute_image(heights):
    """The tree image of a path under the paper's bijection, as a nested
    tuple (see ``brute_trees``), by naive slicing and recursion on every
    piece, straight from the ``strahler.dyck`` and ``strahler.bijection``
    module docstrings and ``brute_landmarks``."""
    if max(heights) == 0:
        return None
    marks = brute_landmarks(heights)
    h, m = marks["height"], marks["mid"]
    fix = tuple(x - m - 1 for x in heights[marks["mid_before"] + 1 : marks["mid_after"]])
    free = heights[: marks["mid_before"] + 1] + heights[marks["mid_last"] + 1 :]
    returns = marks["returns"]
    spine = [
        (sign, tuple(sign * (x - m) - 1 for x in heights[a + 1 : b]))
        for sign, a, b in zip(marks["signs"], returns, returns[1:])
    ]
    below = (free, fix) if h % 2 == 0 else (fix, free)
    node = (brute_image(below[0]), brute_image(below[1]))
    for sign, piece in reversed(spine):  # from the spine vertex up to the root
        node = (brute_image(piece), node) if sign == 1 else (node, brute_image(piece))
    return node


def brute_trees(n):
    """All full binary trees with n internal vertices as nested tuples;
    a leaf is None and a node is (left, right)."""
    if n == 0:
        return [None]
    out = []
    for i in range(n):
        for left in brute_trees(i):
            for right in brute_trees(n - 1 - i):
                out.append((left, right))
    return out


def tuple_tree_text(t):
    return "." if t is None else "(" + tuple_tree_text(t[0]) + tuple_tree_text(t[1]) + ")"


def tuple_tree_vertices(t, prefix=()):
    """Vertex set of a nested-tuple tree, as tuples over {1, 2}."""
    out = {prefix}
    if t is not None:
        out |= tuple_tree_vertices(t[0], prefix + (1,))
        out |= tuple_tree_vertices(t[1], prefix + (2,))
    return out


def _common_prefix(u, v):
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return u[:k]


def brute_can_embed(small_vertices, big_vertices):
    """Definition-level embedding test by exhausting injections.

    A strictly lex-increasing injection is a sorted choice of image vertices,
    so it suffices to scan combinations of the big vertex set (in sorted
    order) and check meet preservation.
    """
    small = sorted(small_vertices)
    big = sorted(big_vertices)
    k = len(small)
    index = {u: i for i, u in enumerate(small)}
    for image in combinations(big, k):
        ok = True
        for i, j in combinations(range(k), 2):
            expected = image[index[_common_prefix(small[i], small[j])]]
            if _common_prefix(image[i], image[j]) != expected:
                ok = False
                break
        if ok:
            return True
    return False


def path_height_counts(n):
    """{h: number of Dyck paths of half-length n with height exactly h}, by a
    dynamic programme over levels: the paths that stay at or below h, minus
    those that stay at or below h - 1."""

    def bounded(h):
        row = [1] + [0] * h  # row[k]: prefixes so far that end at level k
        for _ in range(2 * n):
            row = [(row[k - 1] if k else 0) + (row[k + 1] if k < h else 0) for k in range(h + 1)]
        return row[0]

    counts = {h: bounded(h) - (bounded(h - 1) if h else 0) for h in range(n + 1)}
    return {h: c for h, c in counts.items() if c}
