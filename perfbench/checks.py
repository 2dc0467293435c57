"""Output checks that share no code with the library under test.

Every function here reads plain strings, plain ints or the two attributes
``left``/``right`` of a tree object; none of them imports ``strahler``.
They are the benchmark's only notion of a correct answer:

* a Dyck word is read step by step, its height is the highest level reached;
* a tree's refined number is evaluated bottom-up with the paper's join rule
  ``join(a, b) = max(a, b, 2 * min(a, b) + [a > b] + 1)``, a leaf being 0;
* the number of paths of half-length n and height h comes from a
  level-bounded dynamic programme, the totals from ``comb(2n, n) // (n + 1)``.
"""

from __future__ import annotations

import json
from math import comb


def join(a: int, b: int) -> int:
    """Refined number of a node whose subtrees have refined numbers a and b."""
    return max(a, b, 2 * min(a, b) + (1 if a > b else 0) + 1)


def path_stats(steps: str):
    """(half-length, height) of a U/D word, or None if it is not a Dyck word."""
    level = top = ups = 0
    for c in steps:
        if c == "U":
            level += 1
            ups += 1
            if level > top:
                top = level
        elif c == "D":
            level -= 1
            if level < 0:
                return None
        else:
            return None
    if level != 0:
        return None
    return ups, top


def steps_from_heights(heights):
    """The U/D word of a height sequence, or None if it does not start at 0
    and move by exactly one per step."""
    if not heights or heights[0] != 0:
        return None
    word = []
    for a, b in zip(heights, heights[1:]):
        if b == a + 1:
            word.append("U")
        elif b == a - 1:
            word.append("D")
        else:
            return None
    return "".join(word)


def tree_text_stats(text: str):
    """(internal nodes, refined number) of a tree in ``.``/``(LR)`` text, or None."""
    stack: list[list[int]] = []  # one list of finished child values per open node
    nodes = 0
    root = None
    for c in text:
        if root is not None:
            return None  # trailing content
        if c == "(":
            stack.append([])
            continue
        if c == ".":
            value = 0
        elif c == ")":
            if not stack or len(stack[-1]) != 2:
                return None
            a, b = stack.pop()
            value = join(a, b)
            nodes += 1
        else:
            return None
        if stack:
            if len(stack[-1]) == 2:
                return None
            stack[-1].append(value)
        else:
            root = value
    if stack or root is None:
        return None
    return nodes, root


def tree_object_stats(t):
    """(internal nodes, refined number) of a tree object, read via left/right."""
    values: dict[int, int] = {}
    nodes = 0
    stack = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if node.left is None:
            values[id(node)] = 0
        elif expanded:
            values[id(node)] = join(values[id(node.left)], values[id(node.right)])
            nodes += 1
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return nodes, values[id(t)]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _bounded(n: int, cap: int) -> int:
    """Number of Dyck paths of half-length n that never rise above level cap."""
    if cap < 0:
        return 0
    row = [1] + [0] * cap
    for _ in range(2 * n):
        row = [
            (row[k - 1] if k > 0 else 0) + (row[k + 1] if k < cap else 0)
            for k in range(cap + 1)
        ]
    return row[0]


def height_counts(n: int) -> dict[int, int]:
    """{h: number of half-length-n Dyck paths of height exactly h}, zeros dropped."""
    out = {}
    for h in range(n + 1):
        count = _bounded(n, h) - _bounded(n, h - 1)
        if count:
            out[h] = count
    return out


def check_roundtrip(steps: str, image, back: str) -> bool:
    """A path's image has its size and height as refined number, and maps back."""
    n, h = path_stats(steps)
    return tree_object_stats(image) == (n, h) and back == steps


def check_path_to_tree_text(steps: str, tree_text: str) -> bool:
    """CLI d2t output: a tree of the path's size whose refined number is its height."""
    return tree_text_stats(tree_text) == path_stats(steps)


def check_tree_to_path_text(tree_text: str, steps: str, refined: int) -> bool:
    """CLI t2d output: a Dyck word of the tree's size whose height is ``refined``."""
    n, _ = tree_text_stats(tree_text)
    return path_stats(steps) == (n, refined)


def check_verify(output: str, exit_code: int, max_n: int) -> bool:
    """``verify --max-n N --format json`` output against the independent counts."""
    if exit_code != 0:
        return False
    try:
        records = [json.loads(line) for line in output.splitlines()]
    except ValueError:
        return False
    cells: dict[int, dict[int, int]] = {}
    rows = {}
    final = None
    for rec in records:
        if set(rec) == {"n", "h", "count"}:
            cells.setdefault(rec["n"], {})[rec["h"]] = rec["count"]
        elif "objects" in rec:
            rows[rec["n"]] = rec
        else:
            final = rec
    if final != {"max_n": max_n, "ok": True}:
        return False
    if set(cells) != set(range(max_n + 1)) or set(rows) != set(cells):
        return False
    for n in range(max_n + 1):
        expected = height_counts(n)
        row = rows[n]
        if cells[n] != expected or sum(cells[n].values()) != catalan(n):
            return False
        if row["objects"] != catalan(n) or row["cells"] != len(expected):
            return False
        if not all(row[flag] is True for flag in ("equal", "dyadic", "totals", "bijection")):
            return False
    return True
