"""Full binary trees, their embedding order, and refined Horton-Strahler numbers.

Conventions
-----------
A tree is either a leaf, ``Tree()``, or an internal node ``Tree(left, right)``
with exactly two subtrees; no other shapes exist.  A tree with n internal
nodes has n + 1 leaves, hence 2n + 1 vertices.  Every ``Tree`` refuses
assignment, so trees share subtrees freely.  Equality, pickling and copying
visit each distinct node (or pair of nodes) once and never recurse, so they
cost what the shared form holds, at any depth.  ``decompose_tree`` returns
a ``SpinalDecomposition``, a frozen named tuple.

Positions in a tree are addressed by vertices: tuples over {1, 2}, read from
the root.  ``()`` is the root, 1 means "left child", 2 means "right child".
Python's tuple ordering coincides with the lexicographic order on vertices
(a prefix sorts before its extensions), which is the order the embedding
notion below refers to.

An embedding of ``small`` into ``big`` is an injective map between their
vertex sets that is strictly increasing for the lexicographic order and
preserves nearest common ancestors.  The classical Horton-Strahler number of
``t`` (the compiler literature's "register function") is the height of the
tallest perfect binary tree embeddable in ``t``.  The refined number
interpolates: ``tau(r)`` is the r-th member of a strictly increasing chain of
trees with ``tau(2**s - 1)`` equal to the perfect tree of height s, and
``refined_hs(t)`` is the largest r such that ``tau(r)`` embeds in ``t``.  The
classical number equals ``floor(log2(1 + refined_hs(t)))``, but
``classical_hs`` computes it on its own, by the register recursion, never
from the refined number.

The refined number of a node depends only on its two subtrees' (``_refined``
is the join), so every ``Tree`` stores its own in the slot ``_val`` when it
is made, joined from its children's, and ``refined_hs`` reads it back.  No
node is ever given a number from anywhere but its two children.

Text format: a leaf prints as ``.`` and an internal node as ``(`` left right
``)``.  So ``(..)`` is the single-internal-node tree, ``((..).)`` hangs that
tree on the left of a new root, and parsing rejects anything that is not a
full binary tree.
"""

from __future__ import annotations

from collections import namedtuple


class Tree:
    """A leaf (no arguments) or an internal node with two subtrees.  Every
    ``Tree`` refuses assignment (``AttributeError``), so trees share subtrees.
    ``_val`` is the node's refined number, joined from its children's."""

    __slots__ = ("left", "right", "_val")

    def __init__(self, left=None, right=None):
        if (left is None) != (right is None):
            raise ValueError("a node has either two subtrees or none")
        if left is None:
            val = 0
        elif isinstance(left, Tree) and isinstance(right, Tree):
            val = _refined(left._val, right._val)
        else:
            raise ValueError("children must be Trees")
        _store_left(self, left)
        _store_right(self, right)
        _store_val(self, val)

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    def __delattr__(self, name):
        raise AttributeError("Tree is immutable")

    def __reduce__(self):
        """Pickle and copy a tree as one flat list, so that no depth
        recurses: two codes per distinct internal node, children before
        parents, each code 0 for a leaf or the 1-based rank of an internal
        child.  ``_unflatten`` rebuilds it, every leaf as ``LEAF``, and a
        node shared in the tree is shared in its copy."""
        rank = {}  # id of each internal node coded so far -> its rank
        codes = []
        stack = [(self, False)]
        while stack:
            node, children_coded = stack.pop()
            if children_coded:
                codes += (rank.get(id(node.left), 0), rank.get(id(node.right), 0))
                rank[id(node)] = len(codes) // 2
            elif node.left is not None and id(node) not in rank:
                stack += ((node, True), (node.right, False), (node.left, False))
        return _unflatten, (codes,)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        # iterative, down each chain of left children, so that very deep
        # trees compare without blowing the stack, and each pair of nodes
        # once, so that shared subtrees compare once.  Unequal refined
        # numbers mean unequal shapes, and only a leaf has refined number 0.
        seen = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            while a is not b:
                v = a._val
                if v != b._val:
                    return False
                if not v:
                    break
                pair = (id(a), id(b))
                if pair in seen:
                    break
                seen.add(pair)
                stack.append((a.right, b.right))
                a = a.left
                b = b.left
        return True

    def __repr__(self):
        return f"parse_tree({tree_to_text(self)!r})"


# the slots' own stores, past __setattr__
_store_left, _store_right, _store_val = Tree.left.__set__, Tree.right.__set__, Tree._val.__set__
_new = object.__new__  # _new(Tree) and the three stores: a node without __init__


def _unflatten(codes) -> Tree:
    """The tree of ``Tree.__reduce__``'s codes."""
    nodes = [LEAF]
    for i in range(0, len(codes), 2):
        nodes.append(Tree(nodes[codes[i]], nodes[codes[i + 1]]))
    return nodes[-1]


def _refined(a: int, b: int) -> int:
    """The refined number of a node whose subtrees have refined numbers a
    and b.  ``_build``, ``_assemble_tree`` and ``_values`` join inline."""
    return max(a, b, 2 * min(a, b) + (1 if a > b else 0) + 1)


#: The unique tree with no internal node, shared by every tree.  Like every
#: ``Tree``, it refuses assignment.
LEAF = Tree()

_CLOSE = object()  # sentinel for the iterative serializer


def parse_tree(text: str) -> Tree:
    """Parse the canonical text format; reject malformed or non-full input."""
    return _build(_scan(text))


def _build(kid: list) -> Tree:
    """The tree of a ``kid`` array in ``_scan``'s layout."""
    nodes = [LEAF] * len(kid)
    for i in range(len(kid) - 1, -1, -1):  # children come after their parent
        k = kid[i]
        if k:
            left = nodes[k]
            right = nodes[k + 1]
            node = nodes[i] = _new(Tree)
            _store_left(node, left)
            _store_right(node, right)
            a = left._val
            b = right._val
            s = 2 * b + 2 if a > b else 2 * a + 1  # _refined inline
            if b > a:
                a = b
            _store_val(node, s if s > a else a)
    return nodes[0]


def _scan(text: str) -> list:
    """The ``kid`` array of the tree that ``text`` spells.

    Node 0 is the root, and the internal node of preorder rank q has its
    children at 2q + 1 and 2q + 2, so ``kid[i]`` and ``kid[i] + 1`` are the
    children of node i, both after it, and ``kid[i]`` is 0 for a leaf: the
    layout ``_flatten`` gives.

    The text is a prefix code, so it is read right to left as a postfix one:
    ``)`` pushes a marker -1 and ``.`` pushes 0, and each ``(`` finds its
    left and right subtrees on top of the stack with its own ``)``'s marker
    under them.  It pops the three, gives the node the next pair of slots
    down from the end of ``kid`` and pushes the node's entry, the slot of its
    left child.  The text is a tree exactly when every ``(`` finds that and
    one entry of 0 or more is left at the end, the root's.  Any other ending
    hands the text to ``_reject``, which reads it left to right and raises
    the ``ValueError`` of the first offending character.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty tree text")
    j = 2 * s.count("(") + 1
    kid = [0] * j
    stack = []
    push, pop = stack.append, stack.pop
    for c in reversed(s):
        if c == ".":
            push(0)
        elif c == ")":
            push(-1)
        elif c == "(":
            try:
                a, b, marker = pop(), pop(), pop()
            except IndexError:  # fewer than three entries under this (
                break
            if marker != -1 or a < 0 or b < 0:
                break
            j -= 2
            kid[j], kid[j + 1] = a, b
            push(j)
        else:
            break
    else:
        if len(stack) == 1 and stack[0] >= 0:
            kid[0] = stack[0]
            return kid
    _reject(s)


def _reject(s: str):
    """Raise the ``ValueError`` of the first character at which the stripped
    text ``s``, read left to right, stops being tree text."""
    need = []  # per open node, the subtrees it still needs: 2, then 1, then 0
    for i, c in enumerate(s):
        if c == "(":
            need.append(2)
            continue
        if c == ")":
            if not need:
                raise ValueError(f"unmatched ')' at index {i}")
            k = need.pop()
            if k:
                raise ValueError(f"node closed at index {i} with {2 - k} subtrees, need 2")
        elif c != ".":
            raise ValueError(f"bad character {c!r} at index {i}")
        # a subtree ended at i
        if not need:
            break
        if not need[-1]:
            raise ValueError(f"more than two subtrees before index {i}")
        need[-1] -= 1
    else:
        raise ValueError("unclosed '('")
    i += 1  # the root's subtree ended before i: nothing may follow it
    if i == len(s):
        raise AssertionError("_scan refused well-formed tree text")
    c = s[i]
    if c == ")":
        raise ValueError(f"unmatched ')' at index {i}")
    if c not in "(.":
        raise ValueError(f"bad character {c!r} at index {i}")
    raise ValueError(f"trailing content at index {i}")


def tree_to_text(t: Tree) -> str:
    """Serialize to the canonical text format."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node is _CLOSE:
            out.append(")")
        elif node.left is None:
            out.append(".")
        else:
            out.append("(")
            stack.append(_CLOSE)
            stack.append(node.right)
            stack.append(node.left)
    return "".join(out)


def internal_count(t: Tree) -> int:
    """Number of internal vertices (the tree's size parameter n)."""
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if node.left is not None:
            count += 1
            stack.append(node.left)
            stack.append(node.right)
    return count


def vertex_count(t: Tree) -> int:
    return 2 * internal_count(t) + 1


# ---------------------------------------------------------------------------
# Vertex-word model.  Vertices are tuples over {1, 2}; () is the root.

def ancestors(u: tuple) -> tuple:
    """All prefixes of u, from the root () up to u itself."""
    return tuple(u[:k] for k in range(len(u) + 1))


def meet(u: tuple, v: tuple) -> tuple:
    """Nearest common ancestor: the longest common prefix."""
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return u[:k]


def tree_vertices(t: Tree) -> set:
    """The set of vertices of t, as tuples over {1, 2}.

    Linear in the output: each vertex tuple is built once from its parent's,
    and the set's total size is the sum of the depths, so Theta(D**2) for a
    comb of depth D.
    """
    out = set()
    stack = [(t, ())]
    while stack:
        node, u = stack.pop()
        out.add(u)
        if node.left is not None:
            stack.append((node.left, u + (1,)))
            stack.append((node.right, u + (2,)))
    return out


def tree_from_vertices(vertices) -> Tree:
    """Build a tree from its vertex set; validates prefix closure and fullness.

    Linear in the input: each vertex is sliced, extended and hashed a bounded
    number of times, at a cost proportional to its length, and the input's
    total size is the sum of the depths, Theta(D**2) for a comb of depth D.
    Sorting V vertices by length costs O(V log V), within that sum.
    """
    vs = {tuple(v) for v in vertices}
    if () not in vs:
        raise ValueError("vertex set must contain the root ()")
    for u in vs:
        if any(letter not in (1, 2) for letter in u):
            raise ValueError(f"vertex {u!r} has letters outside {{1, 2}}")
        if u and u[:-1] not in vs:
            raise ValueError(f"vertex set is not prefix-closed at {u!r}")
        if (u + (1,) in vs) != (u + (2,) in vs):
            raise ValueError(f"vertex {u!r} has exactly one child: tree not full")

    # deepest vertices first, so both children of a node are built before it
    built = {}
    for u in sorted(vs, key=len, reverse=True):
        if u + (1,) in vs:
            built[u] = Tree(built.pop(u + (1,)), built.pop(u + (2,)))
        else:
            built[u] = LEAF
    return built[()]


def subtree(t: Tree, u) -> Tree:
    """The subtree of t rooted at vertex u.

    Raises ValueError if u is not a vertex of t.
    """
    node = t
    for depth, letter in enumerate(u):
        if node.left is None:
            raise ValueError(f"vertex {tuple(u)!r} not in tree (stops at depth {depth})")
        if letter == 1:
            node = node.left
        elif letter == 2:
            node = node.right
        else:
            raise ValueError(f"vertex letter {letter!r} is not 1 or 2")
    return node


# ---------------------------------------------------------------------------
# The interpolating family and the two Horton-Strahler numbers.

def tau(r: int) -> Tree:
    """The r-th tree of the interpolating chain.

    tau(0) is a leaf and tau(1) the one-internal-node tree; for r >= 2 the
    left subtree is tau(r // 2) and the right subtree is tau((r - 1) // 2).
    Each tree strictly contains the previous one, and tau(2**s - 1) is the
    perfect binary tree of height s.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return LEAF
    m, odd = divmod(r, 2)
    left = tau(m)
    return Tree(left, left if odd else tau(m - 1))


def _tau_text(r: int) -> str:
    """The text of ``tau(r)``, built as text, for r >= 0.

    The subtrees at one depth of tau(r) are tau(x) for at most two values of
    x, so a dict per call writes each distinct subtree's text once: the work
    is a few joins per depth, about log2(r) of them, instead of a Python step
    per node.
    """
    memo = {0: "."}

    def text(x):
        got = memo.get(x)
        if got is None:
            got = memo[x] = "(" + text(x // 2) + text((x - 1) // 2) + ")"
        return got

    return text(r)


def complete_binary(s: int) -> Tree:
    """The perfect binary tree of height s; equals tau(2**s - 1)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    node = LEAF
    for _ in range(s):
        node = Tree(node, node)
    return node


def _flatten(t: Tree):
    """Index arrays for t, in ``_scan``'s layout: (kid, val), so
    ``_flatten(_build(kid))[0] == kid``, and ``val[i]`` is the refined
    number of the subtree at index i, read off its node.  Nothing is cached
    across calls.
    """
    kid = [0]
    val = [t._val]
    slots = [0]  # the root, then the internal right children still to visit
    trees = [t]  # and their subtrees
    j = 1  # len(kid): the slot of the next node's left child
    while slots:
        i = slots.pop()
        node = trees.pop()
        left = node.left
        while left is not None:  # in preorder each left child comes next
            kid[i] = j
            kid += (0, 0)
            right = node.right
            val += (left._val, right._val)
            if right.left is not None:
                slots.append(j + 1)
                trees.append(right)
            i = j
            j += 2
            node = left
            left = node.left
    return kid, val


def _values(kid: list) -> list:
    """The refined number of every subtree of a ``kid`` array, as a list
    ``val`` over the same indices: for arrays read from text, whose nodes
    carry no number."""
    # children come after their parent, so sweep backwards
    val = [0] * len(kid)
    for i in range(len(kid) - 1, -1, -1):
        k = kid[i]
        if not k:
            continue
        a = val[k]
        b = val[k + 1]
        # _refined inline
        if a > b:
            s = 2 * b + 2
            if a > s:
                s = a
        elif b > a:
            s = 2 * a + 1
            if b > s:
                s = b
        else:
            s = 2 * a + 1
        val[i] = s
    return val


def refined_hs(t: Tree) -> int:
    """The largest r such that tau(r) embeds in t: the number the root
    was given when it was made, by the bottom-up recursion."""
    return t._val


def classical_hs(t: Tree) -> int:
    """The largest s such that complete_binary(s) embeds in t: its register
    number, computed on its own, not from the refined number."""
    return _register_number(_flatten(t)[0])


def _register_number(kid: list) -> int:
    """The register number of the tree of a ``kid`` array, by one backward
    sweep: a leaf has 0, and a node one more than its subtrees' when they
    are equal, else the larger, as ``enumeration._register`` joins them."""
    reg = [0] * len(kid)
    for i in range(len(kid) - 1, -1, -1):  # children come after their parent
        k = kid[i]
        if k:
            a = reg[k]
            b = reg[k + 1]
            reg[i] = a + 1 if a == b else (a if a > b else b)
    return reg[0]


def can_embed(small: Tree, big: Tree) -> bool:
    """Decide embeddability by exhaustive search over candidate images.

    This is the reference oracle: a depth-first search over all ways to place
    the root of ``small``, memoized on (subtree, subtree) pairs.  It is
    deliberately independent of refined_hs, and meant for desk-scale trees.
    """
    memo: dict[tuple[int, int], bool] = {}

    def walk(s: Tree, b: Tree) -> bool:
        if s.left is None:
            return True
        if b.left is None:
            return False
        key = (id(s), id(b))
        got = memo.get(key)
        if got is None:
            # root of s at root of b, or pushed into either side of b
            got = (
                (walk(s.left, b.left) and walk(s.right, b.right))
                or walk(s, b.left)
                or walk(s, b.right)
            )
            memo[key] = got
        return got

    return walk(small, big)


def refined_hs_oracle(t: Tree) -> int:
    """refined_hs recomputed from the definition, via the embedding oracle.

    The chain tau(0) c tau(1) c ... makes embeddability monotone in r, so the
    search stops at the first failure.
    """
    r = 0
    while can_embed(tau(r + 1), t):
        r += 1
    return r


# ---------------------------------------------------------------------------
# Spinal decomposition.

class SpinalDecomposition(namedtuple("SpinalDecomposition", "hs fix free spine")):
    """Output of decompose_tree.

    ``hs`` is the refined number of the source tree.  ``spine`` lists, from
    the root downward, the subtrees hanging off the ancestral path of the
    spine vertex, each tagged with the child slot (1 = left, 2 = right) it
    occupies; ``fix`` and ``free`` are the two subtrees below the spine
    vertex itself.  ``fix`` always has refined number ceil(hs / 2) - 1, while
    ``free`` ranges over floor(hs / 2) .. hs - 1.
    """

    __slots__ = ()

    @property
    def spine_length(self) -> int:
        return len(self.spine)


def spine_vertex(t: Tree) -> tuple:
    """The lexicographically largest vertex whose subtree has full refined number.

    The vertices attaining refined_hs(t) form exactly the ancestral chain of
    this vertex.  For a single leaf the root () is returned.
    """
    if t.left is None:
        return ()
    kid, val = _flatten(t)
    # a subtree hung on the left (+1) means the chain turned right (letter 2)
    return tuple(2 if s == 1 else 1 for s in _spine_walk(kid, val, 0)[1])


def _spine_walk(kid: list, val: list, i: int):
    """Decompose the subtree at index i of a ``kid`` array and its ``val``.

    Returns (h, signs, parts) as ``dyck._cut`` does: ``parts`` is [fix, free,
    hung subtrees...] as node indices, from the root down, and ``signs`` tags
    a subtree hung on the left +1 and one on the right -1.  Requires an
    internal subtree.
    """
    h = val[i]
    signs = []
    parts = [0, 0]
    k = kid[i]
    while True:
        if val[k + 1] == h:
            signs.append(1)  # spine turns right, sibling hangs left
            parts.append(k)
            k = kid[k + 1]
        elif val[k] == h:
            signs.append(-1)
            parts.append(k + 1)
            k = kid[k]
        else:
            break
    # k now holds the children of the spine vertex; they split by parity
    if h % 2 == 0:
        parts[0], parts[1] = k + 1, k
    else:
        parts[0], parts[1] = k, k + 1
    return h, signs, parts


def decompose_tree(t: Tree) -> SpinalDecomposition:
    """Split t along the ancestral path of its spine vertex.

    The subtrees hanging off the path keep their left/right slots; below the
    spine vertex, the child whose refined number is forced to
    ceil(hs / 2) - 1 becomes ``fix`` (the right child when hs is even, the
    left one when hs is odd) and the other child becomes ``free``.
    Decomposing a single leaf is an error.
    """
    if t.left is None:
        raise ValueError("cannot decompose a single leaf (refined number 0)")
    h, signs, _ = _spine_walk(*_flatten(t), 0)
    # walk down from the root as _assemble_tree builds it: a +1 subtree hangs
    # on the left, a -1 one on the right, and the spine goes on past it
    spine = []
    for s in signs:
        if s == 1:
            spine.append((1, t.left))
            t = t.right
        else:
            spine.append((2, t.right))
            t = t.left
    fix, free = (t.right, t.left) if h % 2 == 0 else (t.left, t.right)
    return SpinalDecomposition(hs=h, fix=fix, free=free, spine=tuple(spine))


def _assemble_tree(h: int, signs, parts) -> Tree:
    """Rebuild a tree from one level in ``_spine_walk``'s format; no validation.

    ``parts`` is [fix, free, hung subtrees...] from the root down; ``signs``
    hangs each hung subtree on the left (+1) or on the right (-1).  Each new
    node is made with ``_new`` and the three slot stores, so it skips
    ``Tree.__init__`` and its check, and its number is joined from its
    children's, never taken from h.
    """
    if h % 2 == 0:
        left, right = parts[1], parts[0]
    else:
        left, right = parts[0], parts[1]
    node = _new(Tree)
    _store_left(node, left)
    _store_right(node, right)
    v = left._val
    x = right._val
    # _refined inline, here and below: the larger of the two numbers and
    # one more than twice the smaller (two more when the left is larger)
    s = 2 * x + 2 if v > x else 2 * v + 1
    if x > v:
        v = x
    if s > v:
        v = s
    _store_val(node, v)
    j = len(signs)
    while j:  # up the spine: v is node's number, x the hung subtree's
        j -= 1
        hung = parts[j + 2]
        x = hung._val
        up = _new(Tree)
        if signs[j] == 1:
            _store_left(up, hung)
            _store_right(up, node)
            s = 2 * v + 2 if x > v else 2 * x + 1
        else:
            _store_left(up, node)
            _store_right(up, hung)
            s = 2 * x + 2 if v > x else 2 * v + 1
        if x > v:
            v = x
        if s > v:
            v = s
        _store_val(up, v)
        node = up
    return node


def compose_tree(hs: int, parts: SpinalDecomposition) -> Tree:
    """Inverse of decompose_tree for refined number hs.

    Validates that the parts lie in the admissible ranges for hs; the ranges
    do not always pin hs down by themselves, which is why it is passed
    explicitly.  Returns the unique tree with refined number hs whose
    decomposition equals ``parts``.
    """
    if hs < 1:
        raise ValueError("hs must be >= 1; no tree with refined number 0 decomposes")
    if not isinstance(parts, SpinalDecomposition):
        raise ValueError(f"parts must be a SpinalDecomposition, got {type(parts).__name__}")
    try:
        spine = tuple(parts.spine)
    except TypeError:
        raise ValueError("spine must be a sequence of (slot, Tree) pairs") from None
    for what, part in (("fix", parts.fix), ("free", parts.free)):
        if not isinstance(part, Tree):
            raise ValueError(f"{what} part must be a Tree, got {type(part).__name__}")
    if parts.hs != hs:
        raise ValueError(
            f"membership violation: parts are labelled hs={parts.hs}, expected {hs}"
        )
    fix_value = (hs - 1) // 2  # == ceil(hs / 2) - 1
    free_floor = hs // 2
    got = refined_hs(parts.fix)
    if got != fix_value:
        raise ValueError(
            f"membership violation: fix part has refined number {got}, need {fix_value}"
        )
    got = refined_hs(parts.free)
    if not free_floor <= got <= hs - 1:
        raise ValueError(
            "membership violation: free part has refined number "
            f"{got}, need {free_floor} .. {hs - 1}"
        )
    signs = []
    subtrees = [parts.fix, parts.free]
    for j, entry in enumerate(spine):
        try:
            side, hung = entry
        except (TypeError, ValueError):
            raise ValueError(f"spine entry {j} is not a (slot, Tree) pair") from None
        if side not in (1, 2):
            raise ValueError(f"membership violation: spine slot {side!r} is not 1 or 2")
        if not isinstance(hung, Tree):
            raise ValueError(
                f"spine subtree {j} must be a Tree, got {type(hung).__name__}"
            )
        cap = fix_value if side == 1 else free_floor - 1
        got = refined_hs(hung)
        if got > cap:
            raise ValueError(
                f"membership violation: spine subtree {j} in slot {side} has "
                f"refined number {got} > {cap}"
            )
        signs.append(1 if side == 1 else -1)
        subtrees.append(hung)
    return _assemble_tree(hs, signs, subtrees)
