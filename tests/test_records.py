import copy
import pickle

import pytest

from strahler import (
    EMPTY_PATH,
    Histogram,
    Landmarks,
    PathDecomposition,
    SpinalDecomposition,
    VerifyReport,
    VerifyRow,
    compose_path,
    compose_tree,
    decompose_path,
    decompose_tree,
    landmarks,
    parse_path,
    parse_tree,
    tau,
)

HUMP = parse_path("UD")


def test_decomposition_records_construct_by_position_and_keyword():
    assert Landmarks._fields == (
        "height", "mid", "peak", "mid_before", "mid_after", "mid_last", "returns", "signs"
    )
    assert PathDecomposition._fields == ("height", "fix", "free", "spine")
    assert SpinalDecomposition._fields == ("hs", "fix", "free", "spine")
    values = (2, 1, 2, 1, 3, 5, (3, 5), (1,))
    got = Landmarks(*values)
    assert got == Landmarks(**dict(zip(Landmarks._fields, values)))
    assert tuple(got) == values and got == values and got[2] == got.peak == 2
    assert landmarks(parse_path("UUDUDD")) == got
    p = PathDecomposition(2, EMPTY_PATH, HUMP, ((1, EMPTY_PATH),))
    assert p == PathDecomposition(height=2, fix=EMPTY_PATH, free=HUMP, spine=((1, EMPTY_PATH),))
    assert p == decompose_path(parse_path("UUDUDD"))
    height, fix, free, spine = p
    assert (height, fix, free, spine) == (2, EMPTY_PATH, HUMP, ((1, EMPTY_PATH),))
    s = SpinalDecomposition(3, tau(1), tau(1), ())
    assert s == SpinalDecomposition(hs=3, fix=tau(1), free=tau(1), spine=())
    assert s == decompose_tree(parse_tree("((..)(..))"))


def test_decomposition_records_repr_and_spine_length():
    assert repr(landmarks(parse_path("UUDUDD"))) == (
        "Landmarks(height=2, mid=1, peak=2, mid_before=1, mid_after=3, "
        "mid_last=5, returns=(3, 5), signs=(1,))"
    )
    assert repr(decompose_path(parse_path("UUDUDD"))) == (
        "PathDecomposition(height=2, fix=DyckPath.from_steps(''), "
        "free=DyckPath.from_steps('UD'), spine=((1, DyckPath.from_steps('')),))"
    )
    assert repr(decompose_tree(parse_tree("((..)(..))"))) == (
        "SpinalDecomposition(hs=3, fix=parse_tree('(..)'), free=parse_tree('(..)'), spine=())"
    )
    assert landmarks(parse_path("UUDUDD")).spine_length == 1
    assert decompose_path(parse_path("UUDUDD")).spine_length == 1
    assert decompose_tree(parse_tree("((..)(..))")).spine_length == 0


def test_decomposition_records_refuse_assignment():
    records = (
        landmarks(parse_path("UUDUDD")),
        decompose_path(parse_path("UUDUDD")),
        decompose_tree(parse_tree("((..)(..))")),
    )
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, 7)
        with pytest.raises(AttributeError):
            record.extra = 7
        assert getattr(record, name) != 7


def test_decomposition_records_asdict_replace_and_copies():
    p = decompose_path(parse_path("UUUDDD"))
    assert p._asdict() == {"height": 3, "fix": HUMP, "free": HUMP, "spine": ()}
    q = p._replace(free=EMPTY_PATH)
    assert type(q) is PathDecomposition and q.free == EMPTY_PATH and p.free == HUMP
    s = decompose_tree(parse_tree("((..)(..))"))
    assert s._asdict() == {"hs": 3, "fix": tau(1), "free": tau(1), "spine": ()}
    assert s._replace(hs=4).hs == 4 and s.hs == 3
    for record in (p, s, landmarks(parse_path("UUDUDD"))):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record


def test_compose_refuses_a_plain_tuple():
    p = decompose_path(parse_path("UUUDDD"))
    assert compose_path(3, p) == parse_path("UUUDDD")
    with pytest.raises(ValueError, match="parts must be a PathDecomposition, got tuple"):
        compose_path(3, tuple(p))
    s = decompose_tree(parse_tree("((..)(..))"))
    assert compose_tree(3, s) == parse_tree("((..)(..))")
    with pytest.raises(ValueError, match="parts must be a SpinalDecomposition, got tuple"):
        compose_tree(3, tuple(s))


def test_histogram_record():
    h = Histogram(3, {1: 0, 2: 5, 3: 1})
    assert h.counts == {2: 5, 3: 1} and h.total() == 6
    assert h == Histogram(n=3, counts={2: 5, 3: 1})
    assert h != Histogram(4, {2: 5, 3: 1})
    assert repr(h) == "Histogram(n=3, counts={2: 5, 3: 1})"
    assert Histogram._fields == ("n", "counts")
    assert Histogram(2).counts == {} and Histogram(2).total() == 0
    assert Histogram(2).counts is not Histogram(2).counts
    source = {1: 2}
    assert Histogram(2, source).counts is not source  # a copy, as before
    with pytest.raises(ValueError, match="nonnegative"):
        Histogram(3, {1: -2})
    with pytest.raises(ValueError, match="nonnegative"):
        Histogram(n=3, counts={1: 0, 2: -1})
    assert h._asdict() == {"n": 3, "counts": {2: 5, 3: 1}}
    assert h._replace(counts={1: 0, 4: 2}) == Histogram(3, {4: 2})
    with pytest.raises(ValueError, match="nonnegative"):
        h._replace(counts={1: -1})
    assert pickle.loads(pickle.dumps(h)) == h


def test_verify_row_and_report_records():
    hist = Histogram(1, {1: 1})
    fields = (1, hist, hist, Histogram(1, {1: 1}), True, True, True, True)
    a = VerifyRow(*fields)
    b = VerifyRow(*fields)
    assert a.mismatches == [] and a.elapsed_s == 0.0
    assert a.mismatches is not b.mismatches
    a.mismatches.append("n=1: something")
    assert b.mismatches == []
    assert VerifyRow._fields == (
        "n", "by_height", "by_refined", "by_classical", "counts_equal",
        "dyadic_ok", "totals_ok", "bijection_ok", "mismatches", "elapsed_s",
    )
    named = VerifyRow(**dict(zip(VerifyRow._fields, fields)), elapsed_s=0.5)
    assert named == b._replace(elapsed_s=0.5) and named.ok
    assert repr(b) == (
        "VerifyRow(n=1, by_height=Histogram(n=1, counts={1: 1}), "
        "by_refined=Histogram(n=1, counts={1: 1}), "
        "by_classical=Histogram(n=1, counts={1: 1}), counts_equal=True, "
        "dyadic_ok=True, totals_ok=True, bijection_ok=True, mismatches=[], elapsed_s=0.0)"
    )
    kept = ["n=1: kept"]
    assert VerifyRow(*fields, kept).mismatches is kept
    bad = b._replace(dyadic_ok=False)
    assert not bad.ok and b.ok
    assert VerifyReport(1, [b]).ok and not VerifyReport(1, [b, bad]).ok
    assert VerifyReport(max_n=0, rows=[]).ok
    report = VerifyReport(1, [a, b])
    assert repr(report).startswith("VerifyReport(max_n=1, rows=[VerifyRow(n=1,")
    assert pickle.loads(pickle.dumps(report)) == report
    assert copy.deepcopy(a) == a and copy.deepcopy(a).mismatches is not a.mismatches

