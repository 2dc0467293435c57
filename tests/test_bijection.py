import copy
import hashlib
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strahler import (
    EMPTY_PATH,
    LEAF,
    DyckPath,
    Tree,
    complete_binary,
    compose_tree,
    decompose_tree,
    golden_witness,
    height,
    internal_count,
    parse_path,
    parse_tree,
    path_to_tree,
    random_path,
    refined_hs,
    tau,
    tree_to_path,
    tree_to_text,
)
from strahler import bijection, tree
from strahler.bijection import _image_text, _preimage_steps
from strahler.cli import main
from strahler.enumeration import (
    all_dyck_paths,
    all_full_binary_trees,
    catalan,
    histogram_by_height,
)
from strahler.dyck import _cut
from strahler.tree import _flatten, _scan, _spine_walk, _values

from oracles import brute_dyck_heights, brute_image, brute_trees, tuple_tree_text


def dyck_paths(max_n=60):
    def build(n, seed):
        return random_path(n, random.Random(seed))
    return st.builds(build, st.integers(0, max_n), st.integers(0, 2**32))


# --- pinned examples --------------------------------------------------------

def test_empty_path_maps_to_leaf():
    assert path_to_tree(EMPTY_PATH) == LEAF
    assert tree_to_path(LEAF) == EMPTY_PATH


def test_shared_singletons_refuse_mutation():
    leaf = path_to_tree(EMPTY_PATH)
    with pytest.raises(AttributeError):
        leaf.left, leaf.right = tau(1), tau(1)
    with pytest.raises(AttributeError):
        del leaf.left
    with pytest.raises(AttributeError):
        EMPTY_PATH.heights = (0, 1, 0)
    # later callers still see the leaf and the empty path
    assert tree_to_text(path_to_tree(parse_path("UDUD"))) == "(.(..))"
    assert parse_path("").heights == (0,)


def test_every_node_refuses_assignment():
    image = path_to_tree(random_path(50, random.Random(2)))
    parsed = parse_tree("((..)(.(..)))")
    parts = decompose_tree(image)
    composed = compose_tree(parts.hs, parts)
    for node in (
        tau(3).left, complete_binary(2), complete_binary(2).left, image, image.right,
        parsed, parsed.right, parsed.right.right, composed,
    ):
        assert not node.is_leaf
        for name in ("left", "right"):
            with pytest.raises(AttributeError):
                setattr(node, name, LEAF)
            with pytest.raises(AttributeError):
                delattr(node, name)
    assert type(LEAF) is Tree and not hasattr(tree, "_Leaf")
    assert tree_to_text(tau(3)) == "((..)(..))"


def test_images_share_small_subtrees():
    assert path_to_tree(parse_path("UD")) is path_to_tree(parse_path("UD"))
    assert path_to_tree(parse_path("UDUD")) is path_to_tree(parse_path("UDUD"))
    assert path_to_tree(parse_path("UUDD")) is path_to_tree(parse_path("UUDD"))
    # and every path short enough for the table of small images
    for n in range(bijection._TABLE_N + 1):
        for d in all_dyck_paths(n):
            assert path_to_tree(d) is path_to_tree(DyckPath(d.heights))
    internal = set()
    stack = [path_to_tree(random_path(1000, random.Random(3)))]
    while stack:
        node = stack.pop()
        if not node.is_leaf and id(node) not in internal:
            internal.add(id(node))
            stack += node.left, node.right
    assert len(internal) < 1000


def test_pickle_keeps_other_leaves_and_deep_combs():
    leaf = Tree()
    assert leaf is not LEAF and pickle.loads(pickle.dumps(leaf)) == LEAF
    assert copy.deepcopy(Tree(leaf, LEAF)) == tau(1)
    comb = LEAF
    for _ in range(400):
        comb = Tree(comb, LEAF)
    assert pickle.loads(pickle.dumps(comb)) == comb


def test_pickle_and_deepcopy_round_trip():
    t = parse_tree("(.((..).))")
    d = parse_path("UUDUDD")
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        t2, d2 = clone(t), clone(d)
        assert t2 == t and t2 is not t and t2.left is LEAF
        assert d2 == d and d2.heights == d.heights
        assert clone(LEAF) is LEAF


def test_single_hump_maps_to_tau1():
    assert path_to_tree(parse_path("UD")) == tau(1)
    assert tree_to_path(tau(1)) == parse_path("UD")


def test_zigzag_example():
    d = DyckPath((0, 1, 2, 1, 2, 1, 0))
    t = parse_tree("(.((..).))")
    assert path_to_tree(d) == t
    assert tree_to_path(t) == d


def test_staircase_maps_to_right_comb():
    assert tree_to_text(path_to_tree(parse_path("UDUDUD"))) == "(.(.(..)))"


def test_golden_witness_pinned():
    d, t = golden_witness()
    assert d == DyckPath((0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0))
    assert d.n == 5 and height(d) == 5
    # frozen regression value, computed by this library and hand-checked by
    # unrolling the decomposition twice
    assert tree_to_text(t) == "(((..).)((..).))"
    assert refined_hs(t) == 5
    assert internal_count(t) == 5
    assert tree_to_path(t) == d


# --- exhaustive properties ---------------------------------------------------

def test_round_trip_exhaustive_small():
    for n in range(8):
        for d in all_dyck_paths(n):
            t = path_to_tree(d)
            assert internal_count(t) == n
            assert refined_hs(t) == height(d)
            assert tree_to_path(t) == d


def test_bijectivity_per_cell():
    # injectivity cell by cell: distinct images exactly fill each (n, h) count
    for n in range(11):
        images = {}
        for d in all_dyck_paths(n):
            images.setdefault(height(d), set()).add(tree_to_text(path_to_tree(d)))
        hist = histogram_by_height(n)
        assert {h: len(s) for h, s in images.items()} == hist.counts
        assert sum(len(s) for s in images.values()) == catalan(n)


def test_image_matches_oracle_exhaustive():
    # every path with n <= 9 against the definition, on both ends
    count = 0
    for n in range(10):
        for hs in brute_dyck_heights(n):
            want = tuple_tree_text(brute_image(hs))
            assert _image_text(hs) == want
            assert tree_to_text(path_to_tree(DyckPath(hs))) == want
            count += 1
    assert count == 6918


def test_small_image_table_holds_every_short_path():
    # every path of half-length 3 to _TABLE_N, keyed by its own steps, maps
    # to the definition's image, and tree_to_path gives the path back
    table = bijection._table()
    big = bijection._TABLE_N
    assert big >= 3
    for n in range(3, big + 1):
        paths = brute_dyck_heights(n)
        assert sum(len(key) == 2 * n for key in table) == catalan(n) == len(paths)
        for hs in paths:
            t = table[bytes(b > a for a, b in zip(hs, hs[1:]))]
            assert tree_to_text(t) == tuple_tree_text(brute_image(hs))
            assert tree_to_path(t).heights == hs
    assert len(table) == sum(catalan(n) for n in range(3, big + 1))


def test_path_to_tree_takes_small_pieces_from_the_table(monkeypatch):
    bijection._table()  # built first: building it cuts each path it holds once
    for n in range(bijection._TABLE_N + 1):
        for d in all_dyck_paths(n):
            cuts, t = _cuts(monkeypatch, path_to_tree, d)
            assert cuts == 0 and tree_to_path(t) == d
    # cutting on down to pieces of two internal nodes takes 200 cuts here
    d = random_path(1000, random.Random(1))
    cuts, t = _cuts(monkeypatch, path_to_tree, d)
    assert cuts <= 100
    assert tree_to_path(t) == d


def test_conversions_build_nodes_without_init(monkeypatch):
    # images, parsed trees, composed trees and enumerated trees make their
    # nodes without Tree.__init__; the public constructor still runs it
    count = 0
    init = Tree.__init__

    def counting(self, *args):
        nonlocal count
        count += 1
        init(self, *args)

    monkeypatch.setattr(Tree, "__init__", counting)
    assert Tree(LEAF, LEAF).left is LEAF and count == 1
    with pytest.raises(ValueError):
        Tree(LEAF)
    count = 0
    for d in (parse_path("UUDUDD"), random_path(1000, random.Random(4))):
        t = path_to_tree(d)
        assert parse_tree(tree_to_text(t)) == t
        parts = decompose_tree(t)
        assert compose_tree(parts.hs, parts) == t
    assert sum(1 for n in range(6) for t in all_full_binary_trees(n)) == 1 + 1 + 2 + 5 + 14 + 42
    assert count == 0


def _tree_of(t):
    return LEAF if t is None else Tree(_tree_of(t[0]), _tree_of(t[1]))


def test_round_trip_trees_exhaustive():
    # the library's other direction on every tree with n <= 9
    for n in range(10):
        for t in map(_tree_of, brute_trees(n)):
            assert path_to_tree(tree_to_path(t)) == t


def _mountain(n):
    return DyckPath(tuple(range(n + 1)) + tuple(range(n - 1, -1, -1)))


def test_image_matches_oracle_on_repeated_pieces():
    # paths whose fix and spine pieces come back many times over
    for d in (
        _mountain(300),
        _mountains(range(1, 41)),
        _mountains(range(40, 0, -1)),
        tree_to_path(complete_binary(8)),
        tree_to_path(tau(200)),
        # like the falling mountains, cut where the fix piece crosses from a
        # free piece's prefix part into its suffix part, spine pieces after it
        random_path(300, random.Random(5)),
    ):
        want = tuple_tree_text(brute_image(d.heights))
        assert _image_text(d.heights) == want
        assert tree_to_text(path_to_tree(d)) == want


def test_both_conversions_share_one_level_format():
    # a path's top level and its image's spine walk give the same height and
    # the same signs: a +1 piece's tree hangs on the left, a -1 piece's on
    # the right
    for n in range(1, 9):
        for d in all_dyck_paths(n):
            hs = d.heights
            h, signs, _ = _cut((hs, 0, len(hs), 0, 1))
            kid, val = _flatten(path_to_tree(d))
            assert _spine_walk(kid, val, 0)[:2] == (h, signs), d


def _cuts(monkeypatch, convert, arg):
    count = 0
    cut = bijection._cut

    def counting(piece):
        nonlocal count
        count += 1
        return cut(piece)

    monkeypatch.setattr(bijection, "_cut", counting)
    got = convert(arg)
    monkeypatch.setattr(bijection, "_cut", cut)
    return count, got


def test_image_text_cuts_each_repeated_piece_once(monkeypatch):
    # a piece's text depends only on its own steps, so a repeated piece is
    # not cut again; without that, the perfect tree's path takes 2 047 cuts
    for d in (_mountain(2**12), tree_to_path(complete_binary(12))):
        first, text = _cuts(monkeypatch, _image_text, d.heights)
        assert first < 200
        # the memo lives for one call: a second call cuts as much again
        assert _cuts(monkeypatch, _image_text, d.heights) == (first, text)
        assert text == tree_to_text(path_to_tree(d))


def test_image_text_keys_pieces_by_their_own_steps(monkeypatch):
    # a -1 spine piece runs reflected in real heights; keyed by its own
    # steps it shares the text of an equal fix or +1 piece: 256 cuts here,
    # against 408 with keys read off real steps and 1 917 with no memo
    cuts, text = _cuts(monkeypatch, _image_text, _mountains(range(1, 101)).heights)
    assert cuts < 300
    assert text == tree_to_text(path_to_tree(_mountains(range(1, 101))))


def _walks(monkeypatch, convert, arg):
    count = 0
    walk = bijection._spine_walk

    def counting(kid, val, i):
        nonlocal count
        count += 1
        return walk(kid, val, i)

    monkeypatch.setattr(bijection, "_spine_walk", counting)
    got = convert(arg)
    monkeypatch.setattr(bijection, "_spine_walk", walk)
    return count, got


def _t2d(text):
    return _preimage_steps(_scan(text))


def test_preimage_steps_walk_each_repeated_subtree_once(monkeypatch):
    # a subtree's preimage depends only on its shape, so a repeated subtree
    # is not walked again, by t2d or by the library; without that, the
    # perfect tree takes 32 767 spine walks and tau(99 999) 34 463
    for t, most in ((complete_binary(16), 1500), (tau(99_999), 1000)):
        text = tree_to_text(t)
        first, steps = _walks(monkeypatch, _t2d, text)
        assert first < most
        # the memo lives for one call: a second call walks as much again
        assert _walks(monkeypatch, _t2d, text) == (first, steps)
        walks, d = _walks(monkeypatch, tree_to_path, t)
        assert walks < most
        assert _walks(monkeypatch, tree_to_path, t) == (walks, d)
        assert steps == d.steps()


def _rank_past(kid, k):
    # the preorder rank just past the subtree at slot k of a _scan array:
    # its root's rank plus its number of internal nodes
    count, stack = 0, [k]
    while stack:
        c = kid[stack.pop()]
        if c:
            count += 1
            stack += (c, c + 1)
    return kid[k] // 2 + count


def test_text_ends_round_trip_beyond_the_exhaustive_range(monkeypatch):
    # t2d and tree_to_path key only fix and hung subtrees of refined number
    # 64 or more, which need a path of height 130 or more.  Seeded uniform
    # paths, mixes of mountains and mixes of repeated, partly lifted random
    # excursions reach that code with the subtree as the fix one and hung on
    # either side, and every rank _ends gives an internal subtree is checked
    # against a count of internal nodes
    sides = {}
    ends = bijection._ends
    # the conversion running and the refined numbers of its tree
    conversion = val = None

    def checked(kid, parts, e):
        got = ends(kid, parts, e)
        for j, k in enumerate(parts):
            if j != 1 and val[k] >= 64:  # a keyed subtree
                side = conversion, "fix" if j == 0 else "left" if k & 1 else "right"
                sides[side] = sides.get(side, 0) + 1
            if kid[k]:
                assert got[j] == _rank_past(kid, k)
        return got

    monkeypatch.setattr(bijection, "_ends", checked)
    rng = random.Random(2024)
    paths = [random_path(rng.randint(10_000, 30_000), rng) for _ in range(4)]
    for _ in range(20):
        heights = (63, 64, 65, 129, 130, 131, 200)
        paths.append(_mountains(rng.choice(heights) for _ in range(rng.randint(2, 30))))
    for _ in range(3):
        excursions = [random_path(rng.randint(3_000, 12_000), rng).steps() for _ in range(2)]
        excursions.append(_mountain(130).steps())
        steps = []
        for _ in range(rng.randint(4, 10)):
            lift = rng.choice((0, 0, 1, 40))
            steps += ["U" * lift, rng.choice(excursions), "D" * lift]
        paths.append(DyckPath.from_steps("".join(steps)))
    for d in paths:
        kid = _scan(_image_text(d.heights))
        val = _values(kid)  # tree_to_path's _flatten gives the same layout
        conversion = "t2d"
        assert _preimage_steps(kid) == d.steps()
        conversion = "library"
        assert tree_to_path(path_to_tree(d)) == d
    for conversion in ("t2d", "library"):
        for side in ("fix", "left", "right"):
            assert sides.get((conversion, side), 0) >= 10, sides


def _hang(core, sub, sides):
    # hang sub beside core once per side, from the bottom up: 1 on the left
    # (a +1 subtree), 2 on the right (a -1 one)
    t = core
    for side in sides:
        t = Tree(sub, t) if side == 1 else Tree(t, sub)
    return t


def test_preimage_steps_place_repeated_subtrees_on_both_sides():
    # t2d keys subtrees of refined number 64 or more; here shapes of refined
    # number 63 and 64, two of them with one size, repeat on both sides of
    # spines, so a -1 copy is placed from a +1 copy and the other way round,
    # and the spines sit at several depths: the whole tree, a free chain
    # below it, a fix subtree and a hung one
    t64 = tau(64)
    shapes = (tau(63), complete_binary(6), t64, Tree(t64, LEAF), Tree(LEAF, t64))
    for sub in shapes:
        for sides in ((1, 2) * 3, (2, 1) * 3, (1, 1, 2, 2, 2, 1)):
            a = _hang(tau(300), sub, sides)  # refined number 300
            for t in (
                a,
                Tree(a, tau(200)),  # a is the free subtree, on the left
                Tree(tau(150), a),  # and on the right
                Tree(tau(500), a),  # a is the fix subtree, on the right
                Tree(a, tau(500)),  # and on the left
                _hang(tau(700), a, (1, 2, 1)),
                _hang(Tree(a, tau(200)), sub, sides),
            ):
                assert refined_hs(t) >= 300
                want = tree_to_path(t).steps()
                assert _preimage_steps(_scan(tree_to_text(t))) == want


# --- randomized properties -----------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(dyck_paths())
def test_round_trip_random(d):
    t = path_to_tree(d)
    assert internal_count(t) == d.n
    assert refined_hs(t) == height(d)
    assert tree_to_path(t) == d


def test_round_trip_large_path():
    rng = random.Random(424242)
    d = random_path(50_000, rng)
    t = path_to_tree(d)
    assert internal_count(t) == 50_000
    assert refined_hs(t) == height(d)
    assert tree_to_path(t) == d


def _mountains(heights):
    return DyckPath.from_steps("".join("U" * k + "D" * k for k in heights))


def _comb(n, side):
    # side 1: the spine runs down the left children; side 2: down the right
    t = LEAF
    for _ in range(n):
        t = Tree(t, LEAF) if side == 1 else Tree(LEAF, t)
    return t


def _long_tail():
    # rising mountains, then a long low tail that sits in the suffix part of
    # every free piece of the chain
    return DyckPath.from_steps("".join("U" * k + "D" * k for k in range(1, 41)) + "UD" * 2000)


def _reflected_rising(k=41):
    # U^(2k) D^k D (D^j U^j for j = 1..40) U D^k: one -1 spine piece of
    # height 40 holding reflected rising mountains
    valleys = "".join("D" * j + "U" * j for j in range(1, 41))
    return DyckPath.from_steps("U" * (2 * k) + "D" * k + "D" + valleys + "U" + "D" * k)


def test_round_trip_deep_shapes():
    # a tall mountain and a flat sawtooth at the default recursion limit
    n = 30_000
    mountain = DyckPath(tuple(range(n + 1)) + tuple(range(n - 1, -1, -1)))
    t = path_to_tree(mountain)
    assert refined_hs(t) == n
    assert tree_to_path(t) == mountain

    saw = DyckPath((0, 1) * n + (0,))
    t = path_to_tree(saw)
    assert refined_hs(t) == 1
    assert tree_to_path(t) == saw

    # extreme shapes at half-length about 2 000, from both sides
    rising = range(1, 63)  # n = 1953, height 62
    long_chains = (_long_tail(), _reflected_rising())
    for d in (_mountains(rising), _mountains(reversed(rising))) + long_chains:
        t = path_to_tree(d)
        assert refined_hs(t) == height(d)
        assert tree_to_path(t) == d
    for t in (_comb(2000, 1), _comb(2000, 2), complete_binary(10), tau(1999)):
        d = tree_to_path(t)
        assert height(d) == refined_hs(t)
        assert path_to_tree(d) == t


def _nested(t):
    """t as the nested tuples of ``brute_image``; recursive, for small t."""
    return None if t.left is None else (_nested(t.left), _nested(t.right))


def test_preimages_below_refined_number_3_match_the_paper():
    # the closed form of _small_path: a leaf, a right comb and every
    # refined-2 zigzag, against the paper's construction on their preimages
    count = 0
    for n in range(11):
        for t in all_full_binary_trees(n):
            if refined_hs(t) > 2:
                continue
            count += 1
            d = tree_to_path(t)
            assert brute_image(d.heights) == _nested(t), t
            assert _preimage_steps(_scan(tree_to_text(t))) == d.steps()
    # as many as the paths of height at most 2 with n <= 10: 2**(n - 1) each
    assert count == 2**10


def test_deep_refined_2_trees_convert_in_closed_form(capsys):
    # a left comb and a zigzag hanging its leaves on alternate sides, 10**5
    # spine nodes each; the spine vertex's children are (..) and a leaf
    n = 10**5
    zig = "".join("(" if k % 2 else "(." for k in range(n))
    zag = "".join(".)" if k % 2 else ")" for k in reversed(range(n)))
    shapes = {
        "(" * n + "((..).)" + ".)" * n: "DU" * n,
        zig + "((..).)" + zag: "UDDU" * (n // 2),
    }
    for text, hung in shapes.items():
        want = "UUD" + hung + "D"
        t = parse_tree(text)
        assert refined_hs(t) == 2
        assert tree_to_path(t).steps() == want
        assert main(["t2d", text]) == 0
        assert capsys.readouterr().out == want + "\n"
        assert path_to_tree(DyckPath.from_steps(want)) == t


def test_conversion_recursion_is_logarithmic():
    # only fix and spine pieces recurse, and their height is at most
    # ceil(h / 2) - 1; the free chain is a loop, so 40 frames above the
    # caller's own suffice for h = 65 535 and a 400-level free chain
    frames = 0
    frame = sys._getframe()
    while frame is not None:
        frames += 1
        frame = frame.f_back
    n = 30_000
    mountain = DyckPath(tuple(range(n + 1)) + tuple(range(n - 1, -1, -1)))
    rising = _mountains(range(1, 401))
    big = complete_binary(16)
    big_text = tree_to_text(big)
    big_path = tree_to_path(big)
    comb = 10**5
    comb_text = "(" * comb + "." + ".)" * comb  # a left comb
    tau_text = tree_to_text(tau(99_999))
    tau_steps = tree_to_path(tau(99_999)).steps()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 40)
    try:
        for d in (mountain, rising):
            assert tree_to_path(path_to_tree(d)) == d
        d = tree_to_path(big)
        assert height(d) == 2**16 - 1
        assert path_to_tree(d) == big
        # the CLI's text ends cut and walk the same way
        for d in (mountain, rising):
            assert _preimage_steps(_scan(_image_text(d.heights))) == d.steps()
        assert _image_text(big_path.heights) == big_text
        assert _preimage_steps(_scan(big_text)) == big_path.steps()
        assert _preimage_steps(_scan(comb_text)) == "UUDD" + "UD" * (comb - 2)
        # t2d's memo finds where each subtree ends without a frame per level
        assert _preimage_steps(_scan(tau_text)) == tau_steps
    finally:
        sys.setrecursionlimit(limit)


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_outputs_pinned_exhaustive_small():
    # sha256 of every image for n <= 9, in enumeration order, one per line;
    # any change to either conversion's output changes a digest, and the
    # CLI's text ends must give the same bytes
    ns = range(10)
    paths = [d for n in ns for d in all_dyck_paths(n)]
    for images in (
        (tree_to_text(path_to_tree(d)) for d in paths),
        (_image_text(d.heights) for d in paths),
    ):
        assert _digest(images) == (
            "e92c9b6b51cc1c890a0d6dcee69395529013372490d10584264ce2337d58cab6"
        )
    trees = [t for n in ns for t in all_full_binary_trees(n)]
    for preimages in (
        (tree_to_path(t).steps() for t in trees),
        (_preimage_steps(_scan(tree_to_text(t))) for t in trees),
    ):
        assert _digest(preimages) == (
            "aac8c138b13869dda0a1a78a2821bb8952b31a89f7a67743909a9f29fe65bd41"
        )


def test_outputs_pinned_free_chains():
    # sha256 of the images of shapes whose free pieces are cut many levels
    # deep (a long low tail, a reflected spine piece, rising and falling
    # mountains) and of 200 random paths at n = 1000, one line each
    assert _reflected_rising().n == 903 and height(_reflected_rising()) == 82
    rng = random.Random(6)
    rising = range(1, 63)
    paths = [_long_tail(), _reflected_rising(), _mountains(rising), _mountains(reversed(rising))]
    paths += [random_path(1000, rng) for _ in range(200)]
    for images in (
        (tree_to_text(path_to_tree(d)) for d in paths),
        (_image_text(d.heights) for d in paths),
    ):
        assert _digest(images) == (
            "f402e37e138f749505ad147eee9b48ef3b519c3becab32dbd7e3fe7a23691a19"
        )
