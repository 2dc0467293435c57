import random
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strahler import (
    EMPTY_PATH,
    DyckPath,
    PathDecomposition,
    compose_path,
    decompose_path,
    height,
    landmarks,
    parse_path,
    random_path,
)
from strahler.enumeration import all_dyck_paths

from oracles import brute_dyck_heights, brute_landmarks, reference_random_path

ZIGZAG = DyckPath((0, 1, 2, 1, 2, 1, 0))
MOUNTAIN = DyckPath((0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0))


def dyck_paths(max_n=40):
    """Hypothesis strategy: a uniform path of a drawn half-length."""
    def build(n, seed):
        return random_path(n, random.Random(seed))
    return st.builds(build, st.integers(0, max_n), st.integers(0, 2**32))


# --- construction and formats ----------------------------------------------

def test_empty_path():
    assert EMPTY_PATH.n == 0
    assert EMPTY_PATH.heights == (0,)
    assert EMPTY_PATH.steps() == ""
    assert height(EMPTY_PATH) == 0


@pytest.mark.parametrize(
    "bad",
    [(), (1,), (0, 1), (0, -1, 0), (0, 1, 1, 0), (0, 2, 0), (0, 1, 0, 1)],
)
def test_rejects_bad_heights(bad):
    with pytest.raises(ValueError):
        DyckPath(bad)


def test_from_steps():
    assert DyckPath.from_steps("UUDUDD") == ZIGZAG
    assert DyckPath.from_steps("") == EMPTY_PATH
    for steps, message in (
        ("UX", "bad step character 'X' at index 1"),
        ("UDxUy", "bad step character 'x' at index 2"),
        ("DU", "height sequence must be nonnegative"),
        ("UUD", "height sequence must start and end at 0"),
        ("Ué", "bad step character 'é' at index 1"),
        ("UD,", "bad step character ',' at index 2"),
        ("U D", "bad step character ' ' at index 1"),
    ):
        with pytest.raises(ValueError) as info:
            DyckPath.from_steps(steps)
        assert str(info.value) == message
    # every U/D word: the heights of the brute-force paths, or the message
    # DyckPath gives for its partial sums
    paths = {hs for n in range(7) for hs in brute_dyck_heights(n)}

    def outcome(build, arg):
        try:
            return build(arg).heights
        except ValueError as e:
            return str(e)

    for length in range(13):
        for word in product("UD", repeat=length):
            hs = tuple(accumulate((1 if c == "U" else -1 for c in word), initial=0))
            got = outcome(DyckPath.from_steps, "".join(word))
            assert got == outcome(DyckPath, hs)
            assert (got == hs) == (hs in paths)


def test_repr_and_hash():
    assert repr(DyckPath.from_steps("UD")) == "DyckPath.from_steps('UD')"
    assert len({DyckPath.from_steps("UD"), DyckPath((0, 1, 0))}) == 1
    assert (DyckPath((0, 1, 0)) == "x") is False


def test_path_refuses_deletion():
    d = DyckPath((0, 1, 0))
    with pytest.raises(AttributeError, match="DyckPath is immutable"):
        del d.heights
    assert d.heights == (0, 1, 0)


def test_parse_path_both_formats():
    assert parse_path("UUDUDD") == ZIGZAG
    assert parse_path("0,1,2,1,2,1,0") == ZIGZAG
    assert parse_path("") == EMPTY_PATH
    assert parse_path("0") == EMPTY_PATH
    with pytest.raises(ValueError):
        parse_path("UDx")
    with pytest.raises(ValueError):
        parse_path("0,1,,0")


def test_parse_path_errors_name_the_first_bad_character():
    for text, message in (
        ("UUxD", "bad step character 'x' at index 2"),
        ("0,1_0,0", "bad character '_' at index 3"),
        ("0,1,,0", "bad height sequence: part 2 is not an integer"),
        ("x", "bad character 'x' at index 0"),
    ):
        with pytest.raises(ValueError) as err:
            parse_path(text)
        assert str(err.value) == message


def test_parse_path_errors_never_echo_the_text():
    for text in ("U" * 10**6 + "x", "0," * 500_000 + "x", "0," * 500_000 + ","):
        with pytest.raises(ValueError) as err:
            parse_path(text)
        assert len(str(err.value)) < 100


def test_steps_round_trip():
    for n in range(6):
        for d in all_dyck_paths(n):
            assert DyckPath.from_steps(d.steps()) == d


def test_height_examples():
    assert height(DyckPath((0, 1, 2, 1, 2, 1, 0))) == 2
    assert height(MOUNTAIN) == 5


# --- landmarks ---------------------------------------------------------------

def test_landmarks_zigzag():
    lm = landmarks(ZIGZAG)
    assert lm.height == 2
    assert lm.mid == 1
    assert lm.peak == 2
    assert lm.mid_before == 1
    assert lm.mid_after == 3
    assert lm.mid_last == 5
    assert lm.returns == (3, 5)
    assert lm.signs == (1,)
    assert lm.spine_length == 1


def test_landmarks_single_hump():
    lm = landmarks(DyckPath((0, 1, 0)))
    assert lm.height == 1
    assert lm.mid == 0
    assert lm.peak == 1
    assert lm.mid_before == 0
    assert lm.mid_after == 2
    assert lm.mid_last == 2
    assert lm.returns == (2,)
    assert lm.signs == ()


def test_landmarks_mountain():
    lm = landmarks(MOUNTAIN)
    assert lm.height == 5
    assert lm.mid == 2


def test_landmarks_rejects_height_zero():
    with pytest.raises(ValueError):
        landmarks(EMPTY_PATH)


def test_landmarks_deterministic():
    d1 = DyckPath(tuple(ZIGZAG.heights))
    d2 = DyckPath(list(ZIGZAG.heights))
    assert landmarks(d1) == landmarks(d2)


def test_landmarks_match_oracle_exhaustive():
    # every path with 1 <= n <= 8, against the definitions recomputed by brute force
    for n in range(1, 9):
        for hs in brute_dyck_heights(n):
            assert landmarks(DyckPath(hs))._asdict() == brute_landmarks(hs), hs


def _check_landmarks(d):
    hs = d.heights
    lm = landmarks(d)
    assert hs[lm.peak] == lm.height
    assert all(x < lm.height for x in hs[: lm.peak])
    assert hs[lm.mid_before] == hs[lm.mid_after] == hs[lm.mid_last] == lm.mid
    assert lm.mid_before <= lm.peak <= lm.mid_after <= lm.mid_last
    # mid_before and mid_last are the last visits before the peak and overall
    assert lm.mid not in hs[lm.mid_before + 1 : lm.peak]
    assert lm.mid not in hs[lm.mid_last + 1 :]
    assert lm.returns[0] == lm.mid_after
    assert lm.returns[-1] == lm.mid_last
    expected = [
        i for i in range(lm.mid_after, lm.mid_last + 1) if hs[i] == lm.mid
    ]
    assert list(lm.returns) == expected
    assert list(lm.signs) == [hs[i + 1] - hs[i] for i in lm.returns[:-1]]


@settings(max_examples=150)
@given(dyck_paths())
def test_landmarks_invariants(d):
    if height(d) == 0:
        return
    _check_landmarks(d)
    # the free piece is cut again by the next level of its chain
    free = decompose_path(d).free
    if height(free) >= 1:
        _check_landmarks(free)


# --- decomposition -------------------------------------------------------------

def test_decompose_zigzag():
    parts = decompose_path(ZIGZAG)
    assert parts.height == 2
    assert parts.fix == EMPTY_PATH
    assert parts.free == DyckPath((0, 1, 0))
    assert parts.spine == ((1, EMPTY_PATH),)
    assert parts.spine_length == len(parts.spine) == 1


def test_decompose_single_hump():
    parts = decompose_path(DyckPath((0, 1, 0)))
    assert parts == PathDecomposition(1, EMPTY_PATH, EMPTY_PATH, ())


def test_decompose_mountain_fix_height():
    parts = decompose_path(MOUNTAIN)
    assert height(parts.fix) == 2  # ceil(5 / 2) - 1


def test_decompose_rejects_empty():
    with pytest.raises(ValueError):
        decompose_path(EMPTY_PATH)


def test_decompose_bounds_small():
    for n in range(1, 9):
        for d in all_dyck_paths(n):
            h = height(d)
            parts = decompose_path(d)
            assert height(parts.fix) == (h - 1) // 2
            assert h // 2 <= height(parts.free) <= h - 1
            total = parts.fix.n + parts.free.n
            for e, piece in parts.spine:
                v = (3 - e) // 2
                assert 2 * height(piece) + v <= h
                total += piece.n
            assert total + len(parts.spine) + 1 == n


def naive_decomposition(hs):
    """decompose_path's parts sliced straight out of the heights at the
    oracle's landmarks."""
    lm = brute_landmarks(hs)
    m = lm["mid"]
    fix = [x - m - 1 for x in hs[lm["mid_before"] + 1 : lm["mid_after"]]]
    free = hs[: lm["mid_before"] + 1] + hs[lm["mid_last"] + 1 :]
    spine = tuple(
        (e, DyckPath(tuple(e * (x - m) - 1 for x in hs[a + 1 : b])))
        for e, (a, b) in zip(lm["signs"], zip(lm["returns"], lm["returns"][1:]))
    )
    return PathDecomposition(lm["height"], DyckPath(tuple(fix)), DyckPath(free), spine)


@pytest.mark.parametrize(
    "d",
    [
        DyckPath.from_steps("".join("U" * k + "D" * k for k in range(1, 41))),
        random_path(1000, random.Random(3)),
        DyckPath.from_steps("U" * 300 + "D" * 300),
    ],
    ids=["rising-mountains", "random-1000", "mountain-300"],
)
def test_decompose_matches_naive_slicing(d):
    # each of these cuts a free piece held as a prefix and a suffix range
    parts = decompose_path(d)
    assert parts == naive_decomposition(d.heights)
    assert compose_path(parts.height, parts) == d


def test_compose_examples():
    parts = PathDecomposition(2, EMPTY_PATH, DyckPath((0, 1, 0)), ((1, EMPTY_PATH),))
    assert compose_path(2, parts) == ZIGZAG
    parts = PathDecomposition(1, EMPTY_PATH, EMPTY_PATH, ())
    assert compose_path(1, parts) == DyckPath((0, 1, 0))


def test_compose_staircases():
    # height-1 paths are exactly the spines of empty up-pieces
    for length in range(4):
        parts = PathDecomposition(1, EMPTY_PATH, EMPTY_PATH, ((1, EMPTY_PATH),) * length)
        assert compose_path(1, parts) == DyckPath.from_steps("UD" * (length + 1))


def test_compose_rejects_bad_membership():
    hump = DyckPath((0, 1, 0))
    with pytest.raises(ValueError, match="membership"):
        compose_path(2, PathDecomposition(2, hump, hump, ()))
    with pytest.raises(ValueError, match="membership"):
        compose_path(2, PathDecomposition(3, EMPTY_PATH, hump, ()))
    with pytest.raises(ValueError):
        compose_path(0, PathDecomposition(0, EMPTY_PATH, EMPTY_PATH, ()))
    with pytest.raises(ValueError, match="membership"):
        compose_path(1, PathDecomposition(1, EMPTY_PATH, EMPTY_PATH, ((-1, EMPTY_PATH),)))
    with pytest.raises(ValueError, match="membership"):
        compose_path(2, PathDecomposition(2, EMPTY_PATH, hump, ((2, EMPTY_PATH),)))
    with pytest.raises(ValueError, match="membership"):
        compose_path(2, PathDecomposition(2, EMPTY_PATH, hump, ((1, hump),)))
    parts = decompose_path(DyckPath.from_steps("UUUDDD"))
    with pytest.raises(ValueError) as exc:
        compose_path(3, parts._replace(free=EMPTY_PATH))
    assert str(exc.value) == "membership violation: free piece has height 0, need 1 .. 2"


@pytest.mark.parametrize(
    "parts",
    [
        "UUDD",
        PathDecomposition(2, "", DyckPath((0, 1, 0)), ()),
        PathDecomposition(2, EMPTY_PATH, "UD", ()),
        PathDecomposition(2, EMPTY_PATH, DyckPath((0, 1, 0)), ((1, ""),)),
        PathDecomposition(2, EMPTY_PATH, DyckPath((0, 1, 0)), (EMPTY_PATH,)),
        PathDecomposition(2, EMPTY_PATH, DyckPath((0, 1, 0)), 5),
    ],
)
def test_compose_rejects_wrong_types(parts):
    with pytest.raises(ValueError):
        compose_path(2, parts)


def test_round_trip_small():
    for n in range(1, 9):
        for d in all_dyck_paths(n):
            parts = decompose_path(d)
            again = compose_path(parts.height, parts)
            assert again == d
            assert decompose_path(again) == parts


def test_compose_then_decompose_constructed():
    # decompositions assembled directly, not taken from a decomposed path
    humps = {0: [EMPTY_PATH], 1: [DyckPath((0, 1, 0)), DyckPath((0, 1, 0, 1, 0))]}
    h = 3  # mid 1, fix height must be 1, free height in 1..2, caps: +1 -> 1, -1 -> 0
    frees = [DyckPath((0, 1, 0)), DyckPath((0, 1, 2, 1, 0)), DyckPath((0, 1, 0, 1, 0))]
    for fix in humps[1]:
        for free in frees:
            for spine in [
                (),
                ((1, EMPTY_PATH),),
                ((-1, EMPTY_PATH),),
                ((1, humps[1][0]), (-1, EMPTY_PATH)),
            ]:
                parts = PathDecomposition(h, fix, free, spine)
                d = compose_path(h, parts)
                assert height(d) == h
                assert decompose_path(d) == parts


@settings(max_examples=150)
@given(dyck_paths())
def test_round_trip_random(d):
    if height(d) == 0:
        return
    parts = decompose_path(d)
    assert compose_path(parts.height, parts) == d


# --- random sampler ------------------------------------------------------------

def test_random_path_valid_and_deterministic():
    rng = random.Random(7)
    seen = []
    for _ in range(50):
        n = rng.randrange(0, 30)
        d = random_path(n, rng)
        assert d.n == n
        seen.append(d.steps())
    rng = random.Random(7)
    again = []
    for _ in range(50):
        n = rng.randrange(0, 30)
        again.append(random_path(n, rng).steps())
    assert seen == again


def test_random_path_draws_as_shuffle_does():
    # random_path makes Random.shuffle's getrandbits calls itself: one shared
    # rng gives the reference's path at every n, and then the same next draw
    sizes = [0, 1, 2, 3, 4, 5, 17, 64, 65, 1000, 10**5]
    mix = random.Random(29)
    sizes += [mix.randrange(40) for _ in range(300)]
    for seed in (1, 2):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in sizes:
            assert random_path(n, rng).heights == reference_random_path(n, ref), n
        assert rng.random() == ref.random()
        assert rng.getstate() == ref.getstate()
    # rng=None draws from the random module's own generator
    saved = random.getstate()
    try:
        random.seed(3)
        got = [random_path(n).heights for n in (0, 5, 64, 1000)]
        after = random.random()
        random.seed(3)
        assert got == [reference_random_path(n) for n in (0, 5, 64, 1000)]
        assert after == random.random()
    finally:
        random.setstate(saved)

    # a subclass that overrides only random() is drawn through getrandbits
    class OwnFloats(random.Random):
        def random(self):
            return 0.0

    assert random_path(300, OwnFloats(4)) == random_path(300, random.Random(4))


def test_random_path_covers_all_small_paths():
    rng = random.Random(11)
    target = {tuple(h) for h in brute_dyck_heights(3)}
    seen = set()
    for _ in range(500):
        seen.add(random_path(3, rng).heights)
    assert seen == target


def test_random_path_rejects_negative():
    with pytest.raises(ValueError):
        random_path(-1)
