import pytest

from strahler import (
    LEAF,
    Histogram,
    Tree,
    aggregate_dyadic,
    all_dyck_paths,
    all_full_binary_trees,
    catalan,
    histogram_by_classical_hs,
    histogram_by_height,
    histogram_by_refined_hs,
    tree_to_text,
    verify_equidistribution,
)

from oracles import brute_dyck_heights, brute_trees, tuple_tree_text


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


def test_paths_prefix_shards_partition():
    n = 6
    whole = [d.steps() for d in all_dyck_paths(n)]
    # viable prefixes only: a path cannot dip below zero, so "UDD" is not one
    for prefixes in [["UU", "UD"], ["UUU", "UUD", "UDU"]]:
        sharded = [w for p in sorted(prefixes) for w in
                   (d.steps() for d in all_dyck_paths(n, prefix=p))]
        assert sorted(sharded) == whole


def test_paths_prefix_validation():
    with pytest.raises(ValueError):
        list(all_dyck_paths(2, prefix="D"))
    with pytest.raises(ValueError):
        list(all_dyck_paths(2, prefix="UUU"))
    with pytest.raises(ValueError):
        list(all_dyck_paths(2, prefix="UX"))
    with pytest.raises(ValueError):
        list(all_dyck_paths(-1))


def test_trees_match_brute_force():
    for n in range(7):
        mine = [tree_to_text(t) for t in all_full_binary_trees(n)]
        assert len(mine) == len(set(mine)) == catalan(n)
        assert set(mine) == {tuple_tree_text(t) for t in brute_trees(n)}


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


def test_tree_root_shards_partition():
    n = 6
    whole = sorted(tree_to_text(t) for t in all_full_binary_trees(n))
    sharded = [
        tree_to_text(t)
        for i in range(n)
        for t in all_full_binary_trees(n, left_size=i)
    ]
    assert sorted(sharded) == whole


def test_tree_shard_validation():
    with pytest.raises(ValueError):
        list(all_full_binary_trees(3, left_size=3))
    with pytest.raises(ValueError):
        list(all_full_binary_trees(0, left_size=0))
    with pytest.raises(ValueError):
        list(all_full_binary_trees(-1))


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
    for n in range(7):
        heights = {}
        for hs in brute_dyck_heights(n):
            heights[max(hs)] = heights.get(max(hs), 0) + 1
        assert histogram_by_height(n).counts == heights
        assert histogram_by_height(n).total() == catalan(n)
        assert histogram_by_refined_hs(n).total() == catalan(n)


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


def test_histogram_merge():
    parts = [Histogram(5, {1: 1, 2: 3}), Histogram(5, {2: 4, 3: 2})]
    assert Histogram.merged(parts).counts == {1: 1, 2: 7, 3: 2}
    with pytest.raises(ValueError):
        Histogram.merged([Histogram(1, {1: 1}), Histogram(2, {1: 1})])
    with pytest.raises(ValueError):
        Histogram.merged([])


def test_histogram_drops_zero_entries():
    assert Histogram(3, {1: 0, 2: 5}).counts == {2: 5}
    with pytest.raises(ValueError):
        Histogram(3, {1: -2})


def test_sharded_histograms_merge_to_single_stream():
    n = 7
    whole = histogram_by_height(n)
    parts = [histogram_by_height(n, prefix=p) for p in ["UU", "UD"]]
    assert Histogram.merged(parts).counts == whole.counts

    whole_trees = histogram_by_refined_hs(n)
    parts = [histogram_by_refined_hs(n, left_size=i) for i in range(n)]
    assert Histogram.merged(parts).counts == whole_trees.counts


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
    report = verify_equidistribution(3, check_bijection=False)
    assert report.ok
    assert all(row.bijection_ok is None for row in report.rows)


def test_verify_sharded_matches_serial():
    serial = verify_equidistribution(6, check_bijection=False)
    sharded = verify_equidistribution(6, check_bijection=False, jobs=2)
    for a, b in zip(serial.rows, sharded.rows):
        assert a.by_height.counts == b.by_height.counts
        assert a.by_refined.counts == b.by_refined.counts
        assert a.by_classical.counts == b.by_classical.counts


def test_verify_range_errors():
    with pytest.raises(ValueError):
        verify_equidistribution(-1)
    with pytest.raises(ValueError):
        verify_equidistribution(31)
