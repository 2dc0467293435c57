import copy
import functools
import pickle
import time
from itertools import product

import pytest

from strahler import (
    LEAF,
    SpinalDecomposition,
    Tree,
    ancestors,
    can_embed,
    classical_hs,
    complete_binary,
    compose_tree,
    decompose_tree,
    internal_count,
    meet,
    parse_tree,
    path_to_tree,
    refined_hs,
    refined_hs_oracle,
    spine_vertex,
    subtree,
    tau,
    tree_from_vertices,
    tree_to_text,
    tree_vertices,
    vertex_count,
)
from strahler import bijection, tree
from strahler.cli import main
from strahler.enumeration import _tree_heights, _word_kid, all_dyck_paths, all_full_binary_trees
from strahler.tree import _build, _flatten, _scan, _values

from oracles import brute_can_embed, brute_trees, tuple_tree_text, tuple_tree_vertices

EXAMPLE = "(.((..).))"  # vertices {(), 1, 2, 21, 22, 211, 212}


# --- construction and text format ---------------------------------------

def test_node_shape_enforced():
    with pytest.raises(ValueError):
        Tree(LEAF, None)
    with pytest.raises(ValueError):
        Tree(None, LEAF)
    assert LEAF.is_leaf
    assert not parse_tree("(..)").is_leaf


def test_children_must_be_trees():
    for left, right in ((1, 2), (LEAF, "(..)"), ((), LEAF), (Tree, LEAF)):
        with pytest.raises(ValueError, match="^children must be Trees$"):
            Tree(left, right)
    with pytest.raises(ValueError, match="either two subtrees or none"):
        Tree(1)


def test_parse_round_trip():
    for text in [".", "(..)", "((..).)", "(.(..))", EXAMPLE, "(((..).)((..).))"]:
        assert tree_to_text(parse_tree(text)) == text


# each malformed text and the message of its ValueError
MALFORMED = {
    "": "empty tree text",
    "(": "unclosed '('",
    ")": "unmatched ')' at index 0",
    "(.)": "node closed at index 2 with 1 subtrees, need 2",
    "(...)": "more than two subtrees before index 3",
    "()": "node closed at index 1 with 0 subtrees, need 2",
    "(..": "unclosed '('",
    "..": "trailing content at index 1",
    "(..).": "trailing content at index 4",
    "(..)x": "bad character 'x' at index 4",
    "x": "bad character 'x' at index 0",
    "((..)..)": "more than two subtrees before index 6",
    "(..)(": "trailing content at index 4",
    "(..))": "unmatched ')' at index 4",
    ".)": "unmatched ')' at index 1",
    # texts whose right-to-left scan fails only at the end or mid-way, so
    # that the left-to-right check alone names the offending character
    "(.(.).)": "node closed at index 4 with 1 subtrees, need 2",
    "((...))": "more than two subtrees before index 4",
    "(.(..)).": "trailing content at index 7",
    "((..)(..)": "unclosed '('",
    "(.(..)))": "unmatched ')' at index 7",
    "(.(..)x)": "bad character 'x' at index 6",
}


@pytest.mark.parametrize("bad", MALFORMED)
def test_parse_rejects_malformed(capsys, bad):
    message = MALFORMED[bad]
    with pytest.raises(ValueError) as exc:
        parse_tree(bad)
    assert str(exc.value) == message
    # the CLI reads tree text with its own scan, and must fail the same way
    assert main(["t2d", bad]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_scan_accepts_exactly_the_tree_texts():
    # every text of up to ten characters, against the brute-force trees
    # (a tree with n internal nodes has 3n + 1 characters)
    trees = {tuple_tree_text(t) for n in range(4) for t in brute_trees(n)}
    accepted = set()
    for length in range(11):
        for chars in product("(.)", repeat=length):
            s = "".join(chars)
            try:
                kid = _scan(s)
            except ValueError:
                continue  # any other exception class fails the test
            assert tree_to_text(_build(kid)) == s
            accepted.add(s)
    assert accepted == trees


def test_scan_matches_word_layout():
    # _word_kid builds the same layout left to right from height words, and
    # _flatten gives it back from the tree
    for n in range(10):
        for hs in _tree_heights(n):
            want = _word_kid(hs)
            t = _build(want)
            assert _scan(tree_to_text(t)) == want
            assert _flatten(t)[0] == want


def test_repr_is_a_parse_tree_call():
    assert repr(parse_tree("(.(..))")) == "parse_tree('(.(..))')"


def test_structural_equality():
    assert parse_tree("(..)") == Tree(LEAF, LEAF)
    assert (Tree(LEAF, LEAF) == 1) is False
    assert parse_tree("((..).)") != parse_tree("(.(..))")
    assert parse_tree(EXAMPLE) == parse_tree(EXAMPLE)


def test_equality_compares_each_pair_of_nodes_once():
    # each side built on its own, so no node is shared between the sides,
    # while each side shares its subtrees: walking every path would take
    # 2**40 steps on the perfect trees.  Each check is named before it is
    # asserted, since a failing assert prints its operands, and the text of
    # the perfect tree of height 40 has 3 * 2**40 characters.
    start = time.perf_counter()
    perfect = complete_binary(40) == complete_binary(40)
    chain = tau(10**6) == tau(10**6)
    assert perfect and chain
    assert time.perf_counter() - start < 0.5
    # the perfect tree with its last leaf replaced by (..) or by (.(..)),
    # built on its own: the roots' refined numbers agree, so only the walk
    # down to that leaf tells the trees apart
    for last in (Tree(LEAF, LEAF), parse_tree("(.(..))")):
        node, odd = LEAF, last
        for _ in range(39):
            node, odd = Tree(node, node), Tree(node, odd)
        odd = Tree(node, odd)
        start = time.perf_counter()
        unequal = odd != complete_binary(40) and complete_binary(40) != odd
        assert unequal
        assert time.perf_counter() - start < 0.5
    # a left comb deeper than the recursion limit against copies that
    # differ at its deepest leaf
    deep = 5000
    comb = parse_tree("(" * deep + "." + ".)" * deep)
    assert comb == parse_tree("(" * deep + "." + ".)" * deep)
    assert comb != parse_tree("(" * deep + "(..)" + ".)" * deep)
    assert comb != parse_tree("(" * deep + "." + "(..))" + ".)" * (deep - 1))


def test_pickle_and_deepcopy_of_a_deep_comb():
    deep = 10**5
    comb = parse_tree("(" * deep + "." + ".)" * deep)
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        got = clone(comb)
        assert got == comb and got is not comb
        assert refined_hs(got) == 2 and internal_count(got) == deep


def test_pickle_keeps_shared_subtrees_shared():
    # two codes per distinct internal node: tau(10**6) has 4 043 of them and
    # the perfect tree of height 40 has 40
    assert len(pickle.dumps(tau(10**6))) <= 40_000
    t = complete_binary(40)
    data = pickle.dumps(t)
    assert len(data) <= 400
    for got in (pickle.loads(data), copy.deepcopy(t)):
        # named first, as in the equality test, so that a failure never prints t
        shared = got == t and got is not t and got.left is got.right
        assert shared


def test_counts():
    assert internal_count(LEAF) == 0
    assert vertex_count(LEAF) == 1
    assert internal_count(parse_tree(EXAMPLE)) == 3
    assert vertex_count(parse_tree(EXAMPLE)) == 7


# --- vertex-word model ---------------------------------------------------

def test_vertices_of_example():
    assert tree_vertices(parse_tree(EXAMPLE)) == {
        (), (1,), (2,), (2, 1), (2, 2), (2, 1, 1), (2, 1, 2)
    }


def test_vertex_set_round_trip():
    for n in range(5):
        for t in all_full_binary_trees(n):
            assert tree_from_vertices(tree_vertices(t)) == t


def test_vertex_set_round_trip_deep_comb():
    comb = LEAF
    for _ in range(1500):
        comb = Tree(comb, LEAF)
    assert tree_from_vertices(tree_vertices(comb)) == comb


def test_from_vertices_validation():
    with pytest.raises(ValueError):
        tree_from_vertices([(1,)])  # no root
    with pytest.raises(ValueError):
        tree_from_vertices([(), (1,)])  # not full
    with pytest.raises(ValueError):
        tree_from_vertices([(), (1, 1), (1, 2)])  # not prefix-closed
    with pytest.raises(ValueError, match=r"vertex \(1,\) has exactly one child: tree not full"):
        tree_from_vertices([(), (1,), (2,), (1, 1)])  # not full below the root
    with pytest.raises(ValueError, match=r"vertex \(3,\) has letters outside \{1, 2\}"):
        tree_from_vertices([(), (3,)])


def test_meet_and_ancestors():
    assert meet((1, 2, 1), (1, 2, 2)) == (1, 2)
    assert meet((1,), (2, 1)) == ()
    assert meet((1, 2), (1, 2, 1)) == (1, 2)
    assert ancestors((2, 1)) == ((), (2,), (2, 1))


def test_lex_order_is_tuple_order():
    # prefixes come first, then the leftmost differing letter decides
    assert () < (1,) < (1, 1) < (1, 2) < (2,) < (2, 1)


def test_subtree():
    t = parse_tree(EXAMPLE)
    assert subtree(t, ()) == t
    assert subtree(tau(5), (1,)) == tau(2)
    assert subtree(t, (2,)) == tau(2)
    with pytest.raises(ValueError):
        subtree(t, (1, 1))
    with pytest.raises(ValueError):
        subtree(t, (0,))


# --- the interpolating family --------------------------------------------

def test_tau_small():
    assert tau(0) == LEAF
    assert tree_vertices(tau(1)) == {(), (1,), (2,)}
    assert tau(3) == complete_binary(2)
    assert tree_to_text(tau(2)) == "((..).)"


def test_tau_rejects_negative():
    with pytest.raises(ValueError):
        tau(-1)
    with pytest.raises(ValueError):
        complete_binary(-1)


def test_tau_sizes_and_nesting():
    prev = tree_vertices(tau(0))
    for r in range(1, 201):
        cur = tree_vertices(tau(r))
        assert len(cur) == 2 * r + 1
        assert prev < cur
        prev = cur


def test_tau_matches_complete_binary():
    for s in range(6):
        assert tau(2**s - 1) == complete_binary(s)
    assert vertex_count(complete_binary(4)) == 31


# --- refined and classical numbers ---------------------------------------

def test_refined_hs_examples():
    assert refined_hs(LEAF) == 0
    assert refined_hs(parse_tree(EXAMPLE)) == 2
    for r in range(65):
        assert refined_hs(tau(r)) == r


def test_refined_hs_direct_recursion_check():
    # hand evaluation: node 21 joins two leaves, node 2 joins that with a
    # leaf, the root joins a leaf with node 2
    t = parse_tree(EXAMPLE)
    assert refined_hs(subtree(t, (2, 1))) == 1
    assert refined_hs(subtree(t, (2,))) == 2
    assert refined_hs(t) == 2


def test_oracle_examples():
    assert refined_hs_oracle(LEAF) == 0
    assert refined_hs_oracle(parse_tree(EXAMPLE)) == 2
    for r in range(9):
        assert refined_hs_oracle(tau(r)) == r


def test_refined_matches_oracle_small():
    for n in range(6):
        for t in all_full_binary_trees(n):
            assert refined_hs(t) == refined_hs_oracle(t)


def test_classical_hs():
    assert classical_hs(LEAF) == 0
    assert classical_hs(parse_tree(EXAMPLE)) == 1
    assert classical_hs(tau(5)) == 2
    assert classical_hs(complete_binary(3)) == 3
    assert refined_hs(complete_binary(3)) == 7


def test_monotone_along_ancestors():
    for n in range(1, 7):
        for t in all_full_binary_trees(n):
            for u in tree_vertices(t):
                if u:
                    assert refined_hs(subtree(t, u[:-1])) >= refined_hs(subtree(t, u))


# --- embedding oracle -----------------------------------------------------

def test_can_embed_examples():
    assert can_embed(tau(2), tau(5))
    t = parse_tree(EXAMPLE)
    assert can_embed(t, t)
    assert not can_embed(complete_binary(3), tau(6))
    assert can_embed(LEAF, t)
    assert not can_embed(tau(1), LEAF)


def test_can_embed_matches_definition():
    # exhaustive injections on tiny trees, straight from the definition
    smalls = [t for n in range(4) for t in brute_trees(n)]
    bigs = [t for n in range(5) for t in brute_trees(n)]
    for s_tup in smalls:
        s_vs = tuple_tree_vertices(s_tup)
        s_tree = tree_from_vertices(s_vs)
        for b_tup in bigs:
            b_vs = tuple_tree_vertices(b_tup)
            b_tree = tree_from_vertices(b_vs)
            assert can_embed(s_tree, b_tree) == brute_can_embed(s_vs, b_vs), (
                s_vs,
                b_vs,
            )


def test_classical_matches_embedding_search():
    for n in range(8):
        for t in all_full_binary_trees(n):
            s = 0
            while can_embed(complete_binary(s + 1), t):
                s += 1
            assert classical_hs(t) == s


def test_classical_hs_does_not_read_refined_numbers(monkeypatch):
    # classical_hs sweeps kid for register numbers on its own, so wrong
    # refined numbers show in refined_hs and nowhere in classical_hs; the
    # join that Tree(...) stores in every node is made wrong here
    monkeypatch.setattr(tree, "_refined", lambda a, b: 99)
    assert refined_hs(complete_binary(3)) == 99
    # tau(2**12 - 2) is one node short of the perfect tree of height 12
    trees = [LEAF, parse_tree(EXAMPLE), tau(5), complete_binary(3), tau(2**12 - 2)]
    assert [classical_hs(t) for t in trees] == [0, 1, 2, 3, 11]


@functools.cache
def _oracle(text):
    return refined_hs_oracle(parse_tree(text))


def _check_numbers(t):
    """Assert that every node of t stores the refined number that
    ``_values`` gives its subtree in the array read back from t's text, and
    the root the one of the embedding oracle; return the root's."""
    text = tree_to_text(t)
    kid = _scan(text)
    want = _values(kid)
    stack = [(t, 0)]
    while stack:
        node, i = stack.pop()
        assert node._val == want[i], (text, i)
        if kid[i]:
            stack += (node.left, kid[i]), (node.right, kid[i] + 1)
    assert want[0] == _oracle(text), text
    return want[0]


def _rebuilt(t):
    return Tree() if t.left is None else Tree(_rebuilt(t.left), _rebuilt(t.right))


def test_every_way_of_making_a_node_stores_its_refined_number():
    for n in range(8):
        for t in all_full_binary_trees(n):
            text = tree_to_text(t)
            made = [
                t,
                parse_tree(text),
                _rebuilt(t),
                tree_from_vertices(tree_vertices(t)),
                pickle.loads(pickle.dumps(t)),
                copy.deepcopy(t),
            ]
            made += [subtree(t, u) for u in tree_vertices(t)]
            if n:
                parts = decompose_tree(t)
                made.append(compose_tree(parts.hs, parts))
            for m in made:
                _check_numbers(m)
        for d in all_dyck_paths(n):
            assert _check_numbers(path_to_tree(d)) == max(d.heights)
    for t in (bijection._TREE_UD, bijection._TREE_UDUD, bijection._TREE_UUDD):
        _check_numbers(t)
    for t in bijection._table().values():
        _check_numbers(t)
    for r in range(65):
        assert _check_numbers(tau(r)) == r
    for s in range(7):
        assert _check_numbers(complete_binary(s)) == 2**s - 1


# --- spine and decomposition ----------------------------------------------

def test_spine_vertex_examples():
    assert spine_vertex(LEAF) == ()
    assert spine_vertex(tau(2)) == ()
    assert spine_vertex(parse_tree(EXAMPLE)) == (2,)


def test_spine_vertex_is_lex_max_attaining():
    for n in range(1, 7):
        for t in all_full_binary_trees(n):
            h = refined_hs(t)
            attaining = [
                u for u in tree_vertices(t) if refined_hs(subtree(t, u)) == h
            ]
            u = spine_vertex(t)
            assert u == max(attaining)
            assert sorted(attaining) == list(ancestors(u))


def test_decompose_examples():
    dec = decompose_tree(parse_tree(EXAMPLE))
    assert dec.hs == 2
    assert dec.fix == LEAF
    assert dec.free == tau(1)
    assert dec.spine == ((1, LEAF),)
    assert dec.spine_length == len(dec.spine) == 1

    dec = decompose_tree(tau(1))
    assert (dec.hs, dec.fix, dec.free, dec.spine) == (1, LEAF, LEAF, ())

    dec = decompose_tree(tau(2))
    assert (dec.hs, dec.fix, dec.free, dec.spine) == (2, LEAF, tau(1), ())


def test_decompose_rejects_leaf():
    with pytest.raises(ValueError):
        decompose_tree(LEAF)


def test_decompose_invariants_small():
    for n in range(1, 8):
        for t in all_full_binary_trees(n):
            h = refined_hs(t)
            dec = decompose_tree(t)
            assert dec.hs == h
            assert refined_hs(dec.fix) == (h - 1) // 2
            assert h // 2 <= refined_hs(dec.free) <= h - 1
            total = internal_count(dec.fix) + internal_count(dec.free)
            for side, sub in dec.spine:
                assert 2 * refined_hs(sub) + side <= h
                total += internal_count(sub)
            assert total + len(dec.spine) + 1 == n


def test_compose_examples():
    dec = SpinalDecomposition(hs=2, fix=LEAF, free=tau(1), spine=((1, LEAF),))
    assert compose_tree(2, dec) == parse_tree(EXAMPLE)
    dec = SpinalDecomposition(hs=1, fix=LEAF, free=LEAF, spine=())
    assert compose_tree(1, dec) == tau(1)


def test_compose_rejects_bad_membership():
    bad = SpinalDecomposition(hs=2, fix=tau(1), free=tau(1), spine=())
    with pytest.raises(ValueError, match="membership"):
        compose_tree(2, bad)
    mislabelled = SpinalDecomposition(hs=3, fix=LEAF, free=tau(1), spine=())
    with pytest.raises(ValueError, match="membership"):
        compose_tree(2, mislabelled)
    with pytest.raises(ValueError):
        compose_tree(0, SpinalDecomposition(hs=0, fix=LEAF, free=LEAF, spine=()))
    bad_side = SpinalDecomposition(hs=2, fix=LEAF, free=tau(1), spine=((3, LEAF),))
    with pytest.raises(ValueError, match="membership"):
        compose_tree(2, bad_side)
    # slot-2 subtrees are capped at floor(h/2) - 1
    bad_spine = SpinalDecomposition(hs=2, fix=LEAF, free=tau(1), spine=((2, tau(1)),))
    with pytest.raises(ValueError, match="membership"):
        compose_tree(2, bad_spine)
    bad_spine = SpinalDecomposition(hs=1, fix=LEAF, free=LEAF, spine=((2, LEAF),))
    with pytest.raises(ValueError, match="membership"):
        compose_tree(1, bad_spine)
    parts = decompose_tree(parse_tree("((..)(..))"))  # the image of UUUDDD
    with pytest.raises(ValueError) as exc:
        compose_tree(3, parts._replace(free=LEAF))
    assert str(exc.value) == (
        "membership violation: free part has refined number 0, need 1 .. 2"
    )


@pytest.mark.parametrize(
    "parts",
    [
        "((..).)",
        SpinalDecomposition(hs=2, fix=".", free=tau(1), spine=()),
        SpinalDecomposition(hs=2, fix=LEAF, free="(..)", spine=()),
        SpinalDecomposition(hs=2, fix=LEAF, free=tau(1), spine=((1, "."),)),
        SpinalDecomposition(hs=2, fix=LEAF, free=tau(1), spine=(LEAF,)),
        SpinalDecomposition(hs=2, fix=LEAF, free=tau(1), spine=5),
    ],
)
def test_compose_rejects_wrong_types(parts):
    with pytest.raises(ValueError):
        compose_tree(2, parts)


def test_decompose_compose_round_trip():
    for n in range(1, 8):
        for t in all_full_binary_trees(n):
            dec = decompose_tree(t)
            again = compose_tree(dec.hs, dec)
            assert again == t
            assert decompose_tree(again) == dec


def test_compose_then_decompose_constructed():
    # decompositions assembled directly, not taken from a decomposed tree
    h = 3  # fix must have number 1, free 1..2, spine caps: slot 1 -> 1, slot 2 -> 0
    fixes = [tau(1), parse_tree("(.(..))")]
    frees = [tau(1), tau(2), parse_tree("(.(..))")]
    spines = [
        (),
        ((1, LEAF),),
        ((2, LEAF),),
        ((1, tau(1)), (2, LEAF), (1, LEAF)),
    ]
    for fix in fixes:
        for free in frees:
            for spine in spines:
                dec = SpinalDecomposition(hs=h, fix=fix, free=free, spine=spine)
                t = compose_tree(h, dec)
                assert refined_hs(t) == h
                assert decompose_tree(t) == dec
