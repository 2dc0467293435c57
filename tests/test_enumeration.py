from collections import Counter

import pytest

from strahler import enumeration
from strahler import (
    LEAF,
    Histogram,
    Tree,
    aggregate_dyadic,
    all_dyck_paths,
    all_full_binary_trees,
    can_embed,
    catalan,
    complete_binary,
    histogram_by_classical_hs,
    histogram_by_height,
    histogram_by_refined_hs,
    parse_tree,
    refined_hs_oracle,
    tree_to_text,
    verify_equidistribution,
)
from strahler.cli import main

from oracles import brute_dyck_heights, brute_trees, path_height_counts, tuple_tree_text


# --- catalan ------------------------------------------------------------------

def test_catalan_values():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert catalan(10) == 16796
    assert catalan(12) == 208012
    assert catalan(14) == 2674440
    assert catalan(33) == 212336130412243110


def test_catalan_range_errors():
    with pytest.raises(ValueError):
        catalan(-1)
    with pytest.raises(ValueError):
        catalan(34)


# --- generators -----------------------------------------------------------------

def test_paths_match_brute_force():
    for n in range(7):
        mine = [d.heights for d in all_dyck_paths(n)]
        assert len(mine) == len(set(mine)) == catalan(n)
        assert set(mine) == set(brute_dyck_heights(n))


def test_paths_in_lexicographic_step_order():
    for n in range(7):
        words = [d.steps() for d in all_dyck_paths(n)]
        assert words == sorted(words)


def test_paths_prefix_validation():
    # the prefix shard parameter is gone: passing it is an error, not ignored
    with pytest.raises(TypeError):
        list(all_dyck_paths(2, prefix="U"))
    with pytest.raises(ValueError):
        list(all_dyck_paths(-1))
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        histogram_by_height(-1)


def test_trees_match_brute_force():
    for n in range(7):
        mine = [tree_to_text(t) for t in all_full_binary_trees(n)]
        assert len(mine) == len(set(mine)) == catalan(n)
        assert set(mine) == {tuple_tree_text(t) for t in brute_trees(n)}


def test_tree_shard_validation():
    # the left_size shard parameter is gone: passing it is an error, not ignored
    with pytest.raises(TypeError):
        list(all_full_binary_trees(3, left_size=1))
    with pytest.raises(ValueError):
        list(all_full_binary_trees(-1))
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        histogram_by_refined_hs(-1)
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        histogram_by_classical_hs(-1)


def test_trees_in_text_order():
    for n in range(7):
        texts = [tree_to_text(t) for t in all_full_binary_trees(n)]
        assert texts == sorted(texts)


def test_trees_decode_deep_first_tree():
    # the first tree in order is the left comb, as deep as n
    comb = LEAF
    for _ in range(1200):
        comb = Tree(comb, LEAF)
    assert next(all_full_binary_trees(1200)) == comb


def test_star_import_exposes_verify():
    names = {}
    exec("from strahler import *", names)
    assert names["verify_equidistribution"] is verify_equidistribution


def test_trees_n2_shapes():
    assert [tree_to_text(t) for t in all_full_binary_trees(2)] == [
        "((..).)",
        "(.(..))",
    ]


# --- histograms -------------------------------------------------------------------

def test_histogram_by_height_examples():
    assert histogram_by_height(0).counts == {0: 1}
    assert histogram_by_height(3).counts == {1: 1, 2: 3, 3: 1}
    assert histogram_by_height(4).counts == {1: 1, 2: 7, 3: 5, 4: 1}


def test_histogram_by_refined_hs_examples():
    assert histogram_by_refined_hs(0).counts == {0: 1}
    assert histogram_by_refined_hs(3).counts == {1: 1, 2: 3, 3: 1}
    assert histogram_by_refined_hs(5).counts == histogram_by_height(5).counts


def test_histogram_by_classical_hs_examples():
    assert histogram_by_classical_hs(0).counts == {0: 1}
    assert histogram_by_classical_hs(3).counts == {1: 4, 2: 1}
    assert histogram_by_classical_hs(4).counts == {1: 8, 2: 6}


def test_histograms_against_brute_force():
    def build(t):
        return LEAF if t is None else Tree(build(t[0]), build(t[1]))

    def classical(t):
        # the largest s with complete_binary(s) embeddable, by the embedding search
        s = 0
        while can_embed(complete_binary(s + 1), t):
            s += 1
        return s

    for n in range(9):
        assert histogram_by_height(n).counts == Counter(map(max, brute_dyck_heights(n)))
        assert histogram_by_height(n).total() == catalan(n)
        trees = [build(t) for t in brute_trees(n)]
        assert histogram_by_refined_hs(n).counts == Counter(map(refined_hs_oracle, trees))
        assert histogram_by_classical_hs(n).counts == Counter(map(classical, trees))


def test_tree_values_match_oracles_in_pair_order():
    def classical(t):
        s = 0
        while can_embed(complete_binary(s + 1), t):
            s += 1
        return s

    trees = [[LEAF]]  # trees[m]: every size-m tree, in pair order
    for n in range(1, 8):
        trees.append(
            [
                Tree(left, right)
                for k in range(n)
                for left in trees[k]
                for right in trees[n - 1 - k]
            ]
        )
    for n, family in enumerate(trees):
        refined = enumeration._tree_values(n, enumeration._refined)
        assert refined == bytes(map(refined_hs_oracle, family))
        assert enumeration._tree_values(n, enumeration._register) == bytes(map(classical, family))


def test_tree_values_one_byte_per_tree():
    for n in range(15):
        for join in (enumeration._refined, enumeration._register):
            assert len(enumeration._tree_values(n, join)) == catalan(n)


def test_refined_histogram_beyond_desk_scale():
    # the theorem at n = 13 and 14, against path heights counted level by level
    for n in (13, 14):
        assert histogram_by_refined_hs(n).counts == path_height_counts(n)


def test_classical_histogram_does_not_read_the_refined_one(monkeypatch):
    monkeypatch.setattr(enumeration, "histogram_by_refined_hs", lambda n: Histogram(n, {0: 1}))
    for n in range(10):
        assert histogram_by_classical_hs(n).counts == aggregate_dyadic(histogram_by_height(n)).counts


def test_tree_histogram_range_errors():
    for histogram in (histogram_by_refined_hs, histogram_by_classical_hs):
        with pytest.raises(ValueError):
            histogram(34)


def test_dyadic_aggregation():
    for n in range(8):
        refined = histogram_by_refined_hs(n)
        blocks = {}
        for h, c in refined.counts.items():
            s = 0
            while not (2**s - 1 <= h <= 2 * (2**s - 1)):
                s += 1
            blocks[s] = blocks.get(s, 0) + c
        assert aggregate_dyadic(refined).counts == blocks
        assert histogram_by_classical_hs(n).counts == blocks


def test_histogram_drops_zero_entries():
    assert Histogram(3, {1: 0, 2: 5}).counts == {2: 5}
    with pytest.raises(ValueError):
        Histogram(3, {1: -2})


# --- verification -------------------------------------------------------------------

def test_verify_small_all_ok():
    report = verify_equidistribution(5)
    assert report.ok
    assert [row.n for row in report.rows] == list(range(6))
    for row in report.rows:
        assert row.counts_equal and row.dyadic_ok and row.totals_ok
        assert row.bijection_ok is True
        assert row.by_height.total() == catalan(row.n)
        assert not row.mismatches


def test_verify_skips_bijection_when_asked():
    # the check_bijection keyword is gone: verify always checks the images
    with pytest.raises(TypeError):
        verify_equidistribution(3, check_bijection=False)


def test_verify_reports_wrong_images(monkeypatch):
    monkeypatch.setattr(enumeration, "path_to_tree", lambda d: LEAF)
    report = verify_equidistribution(3)
    assert not report.ok
    bad = report.rows[1]
    assert bad.bijection_ok is False and not bad.ok
    assert "n=1 h=1: image has wrong refined number" in bad.mismatches
    assert "n=1 h=1: 0 distinct images, expected 1" in bad.mismatches
    # only the images are wrong: the histograms still agree
    assert bad.counts_equal and bad.dyadic_ok and bad.totals_ok


def test_verify_reports_wrong_sized_images(monkeypatch):
    monkeypatch.setattr(enumeration, "path_to_tree", lambda d: parse_tree("(.(..))"))
    assert verify_equidistribution(1).rows[1].mismatches == [
        "n=1 h=1: image has wrong size",
        "n=1 h=1: 0 distinct images, expected 1",
    ]


def test_verify_reports_wrong_counts_and_totals(monkeypatch, capsys):
    real = enumeration.histogram_by_refined_hs

    def wrong(n):
        if n == 3:
            return Histogram(3, {1: 1, 2: 4})
        hist = real(n)
        return Histogram(n, {**hist.counts, 4: 2}) if n == 4 else hist

    monkeypatch.setattr(enumeration, "histogram_by_refined_hs", wrong)
    report = verify_equidistribution(4)
    expected = {
        3: [
            "n=3 h=2: paths 3 != trees 4",
            "n=3 h=3: paths 1 != trees 0",
            "n=3: dyadic grouping disagrees",
        ],
        4: [
            "n=4 h=4: paths 1 != trees 2",
            "n=4: dyadic grouping disagrees",
            "n=4: totals differ from catalan(n)=14",
        ],
    }
    assert [row.mismatches for row in report.rows] == [[], [], [], expected[3], expected[4]]
    assert [row.totals_ok for row in report.rows] == [True, True, True, True, False]
    assert main(["verify", "--max-n", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    printed = [line for line in out if line.startswith("    mismatch: ")]
    assert printed == [f"    mismatch: {m}" for m in expected[3] + expected[4]]
    assert out[-1] == "MISMATCH FOUND"


def test_verify_walks_each_family_once_per_n(monkeypatch):
    # count the path words and the tree values, which every pass over a
    # family goes through
    calls = {"paths": 0, "trees": 0}

    def counting(kind, stream):
        def wrapper(*args):
            calls[kind] += 1
            return stream(*args)
        return wrapper

    monkeypatch.setattr(
        enumeration, "_dyck_heights", counting("paths", enumeration._dyck_heights)
    )
    monkeypatch.setattr(
        enumeration, "_tree_values", counting("trees", enumeration._tree_values)
    )
    assert verify_equidistribution(6).ok
    assert calls == {"paths": 7, "trees": 7}


def test_verify_range_errors():
    with pytest.raises(ValueError):
        verify_equidistribution(-1)
    with pytest.raises(ValueError):
        verify_equidistribution(31)
