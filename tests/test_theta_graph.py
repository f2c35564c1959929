"""Normal forms, refactorization and enumeration on small graphs."""

import enum
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twograph
from twograph import (
    BLUE,
    DEFAULT_PATH_CAP,
    RED,
    BadRangeError,
    Degree,
    GraphError,
    GroupError,
    IdOutOfRangeError,
    NotBijectiveError,
    Path,
    PatternMismatchError,
    SizeLimitError,
    SpecMismatchError,
    TwoGraph,
    candidate_pairing,
    decide_periodicity,
    flip_graph,
    minimal_exponents,
    random_two_graph,
    twin_graph,
    verify_period,
)

from _oracles import randomized_reorder


def test_degree_lattice():
    a, b = Degree(2, 1), Degree(1, 3)
    assert a + b == b + a == Degree(3, 4)
    assert (a + b) - b == a
    assert a.join(b) == Degree(2, 3)
    assert a.meet(b) == Degree(1, 1)
    assert not a.leq(b) and not b.leq(a)
    assert a.leq(a.join(b)) and b.leq(a.join(b))


def test_degree_addition_cancels():
    for a in (Degree(0, 0), Degree(1, 2), Degree(3, 0)):
        for b in (Degree(0, 1), Degree(2, 2)):
            for c in (Degree(1, 1), Degree(0, 3)):
                if a + c == b + c:
                    assert a == b


# -- validation ---------------------------------------------------------------


def test_validate_trivial_graph():
    g = TwoGraph(1, 1, {(0, 0): (0, 0)})
    assert g.commute_blue_red(0, 0) == (0, 0)


def test_validate_flip():
    flip_graph(2, 2)  # construction checks the bijection


def test_validate_rejects_repeated_image():
    rows = [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)]
    with pytest.raises(NotBijectiveError) as exc:
        TwoGraph(2, 2, rows)
    assert exc.value.witness is not None


def test_validate_rejects_missing_pair():
    rows = [(0, 0, 0, 0)]
    with pytest.raises(NotBijectiveError) as exc:
        TwoGraph(2, 2, rows)
    assert exc.value.witness == (0, 1)


def test_validate_rejects_out_of_range_ids():
    with pytest.raises(IdOutOfRangeError):
        TwoGraph(2, 2, {(0, 0): (0, 5), (0, 1): (0, 0), (1, 0): (1, 1), (1, 1): (1, 0)})


_FLIP_ROWS = [[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]]


@pytest.mark.parametrize(
    "n1, n2, message",
    [
        # int() would truncate 2.5 to 2, and a bool would count as one edge
        (2.5, 2, "n1 must be an integer, got 2.5"),
        (True, 2, "n1 must be an integer, got True"),
        (2, 2.0, "n2 must be an integer, got 2.0"),
        (2, "2", "n2 must be an integer, got '2'"),
    ],
)
def test_validate_rejects_edge_counts_that_are_not_ints(n1, n2, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        TwoGraph(n1, n2, _FLIP_ROWS)


def test_json_names_a_bad_edge_count_before_a_bad_table():
    with pytest.raises(GraphError, match="^n1 must be an integer, got 'x'$"):
        TwoGraph.from_json({"n1": "x", "n2": 1, "theta": 5})


@pytest.mark.parametrize(
    "rows, bad",
    [
        # once a bare KeyError: 1
        ([[1.5, 0, 0, 0], [0, 0, 0, 1]], 0),
        # once read as the ids 1 and 0
        ([[0, 0, 0, 0], [1, 0, 0, 1.0]], 1),
        ([[0, 0, 0, 0], [True, 0, 0, 1]], 1),
        ([[0, 0, False, 0], [1, 0, 0, 1]], 0),
        # once a bare TypeError from the range test
        ([[0, 0, 0, 0], [1, "0", 0, 1]], 1),
    ],
)
def test_a_malformed_row_reads_the_same_through_every_builder(rows, bad):
    # the constructor owns the row rule, so JSON, list rows and the
    # Mapping form name the same row in the same words
    message = f"theta row {bad} must be 4 integers [e, f, f2, e2], got {rows[bad]!r}"
    builders = (
        lambda: TwoGraph.from_json({"n1": 2, "n2": 1, "theta": rows}),
        lambda: TwoGraph(2, 1, rows),
        lambda: TwoGraph(2, 1, {(e, f): (ff, ee) for e, f, ff, ee in rows}),
    )
    for build in builders:
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            build()


@pytest.mark.parametrize(
    "theta, message",
    [
        # once bare TypeErrors; an entry that is not a pair of pairs is
        # named as its (key, value) item
        ({0: (0, 0)}, "theta row 0 must be 4 integers [e, f, f2, e2], got (0, (0, 0))"),
        ({(0, 0): None}, "theta row 0 must be 4 integers [e, f, f2, e2], got ((0, 0), None)"),
        # a 3 + 1 split would make four ids
        ({(0, 0, 0): (0,)}, "theta row 0 must be 4 integers [e, f, f2, e2], got ((0, 0, 0), (0,))"),
        (None, "theta must be rows or a mapping, got None"),
        ([5], "theta row 0 must be 4 integers [e, f, f2, e2], got 5"),
    ],
)
def test_a_table_that_is_not_rows_or_pairs_is_rejected(theta, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        TwoGraph(1, 1, theta)


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([[0, 0, 0, 5], [0, 0, 0]], IdOutOfRangeError, "blue id out of range in row (0, 0, 0, 5)"),
        ([[0, 1, 0, 0], [0, 0, 0, True]], IdOutOfRangeError, "red id out of range in row (0, 1, 0, 0)"),
        ([[0, 0, 0, 0], [0, 0, 0, 0], [0.5]], NotBijectiveError, "pair (b0, r0) listed twice"),
    ],
)
def test_the_first_bad_row_in_table_order_is_reported(rows, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        TwoGraph.from_json({"n1": 1, "n2": 1, "theta": rows})


# -- the commutation rule ------------------------------------------------------


def test_commute_flip_swaps_unchanged():
    g = flip_graph(2, 2)
    assert g.commute_blue_red(1, 0) == (0, 1)


def test_commute_twin_carries_indices():
    g = twin_graph(2)
    assert g.commute_blue_red(1, 0) == (1, 0)


def test_commute_trivial():
    g = TwoGraph(1, 1, {(0, 0): (0, 0)})
    assert g.commute_blue_red(0, 0) == (0, 0)


def test_commute_red_blue_inverts_blue_red():
    rng = random.Random(7)
    for _ in range(10):
        g = random_two_graph(rng.randint(1, 3), rng.randint(1, 3), rng)
        for e in range(g.n_blue):
            for f in range(g.n_red):
                ff, ee = g.commute_blue_red(e, f)
                assert g.commute_red_blue(ff, ee) == (e, f)


def test_commute_twin_red_blue():
    g = twin_graph(2)
    assert g.commute_red_blue(1, 0) == (1, 0)


def test_commute_rejects_out_of_range():
    g = flip_graph(2, 2)
    with pytest.raises(IdOutOfRangeError):
        g.commute_blue_red(2, 0)
    # once read as the id 1
    with pytest.raises(IdOutOfRangeError, match="^blue id True is not an integer$"):
        g.commute_blue_red(True, 0)


# -- reorder -------------------------------------------------------------------


def test_reorder_flip_keeps_ids():
    g = flip_graph(2, 2)
    path = g.path("b0 r1")
    assert path.reorder("RB") == [(RED, 1), (BLUE, 0)]


def test_reorder_twin_moves_indices():
    g = twin_graph(2)
    path = g.path("b0 r1")
    assert path.reorder("RB") == [(RED, 0), (BLUE, 1)]


def test_reorder_normal_form_is_identity():
    rng = random.Random(3)
    g = random_two_graph(3, 2, rng)
    for path in g.enumerate_paths((2, 2)):
        assert path.reorder("BBRR") == path.word()


def test_reorder_rejects_wrong_pattern():
    g = flip_graph(2, 2)
    with pytest.raises(PatternMismatchError):
        g.path("b0 r1").reorder("BB")


def test_colors_other_than_blue_and_red_are_rejected():
    # the counts of [0, 1, 5] match degree (1, 1); the 5 must still be named
    g = flip_graph(2, 2)
    with pytest.raises(PatternMismatchError, match="bad color 5 at position 2"):
        g.path("b0 r1").reorder([0, 1, 5])
    with pytest.raises(PatternMismatchError, match="bad color 7 at position 0"):
        g.path([(7, 1), (0, 0)])
    with pytest.raises(PatternMismatchError, match="bad color 0.7 at position 1"):
        g.path([(0, 1), (0.7, 1)])
    # equal to 0 or 1, but a color is an int: once read as blue or red
    with pytest.raises(PatternMismatchError, match="bad color True at position 0"):
        g.path([(True, 0), (0.0, 1)])
    with pytest.raises(PatternMismatchError, match="bad color 0.0 at position 1"):
        g.path([(1, 0), (0.0, 1)])
    with pytest.raises(PatternMismatchError, match="bad color 1.0 at position 0"):
        g.path("b0 r1").reorder([1.0, 0.0])
    with pytest.raises(PatternMismatchError, match="bad color False at position 1"):
        g.path("b0 r1").reorder([1, False])


# -- segment -------------------------------------------------------------------


def test_segment_full_range_is_identity():
    g = twin_graph(2)
    path = g.path("b0 b1 r1 r0")
    assert path.segment((0, 0), path.degree) == path


def test_segment_twin_middle_block():
    g = twin_graph(2)
    path = g.path("b0 r1")
    assert path.segment((0, 1), (1, 1)) == g.blue_path(1)


def test_segment_empty():
    g = twin_graph(2)
    path = g.path("b0 r1")
    empty = path.segment((1, 0), (1, 0))
    assert empty.degree == Degree(0, 0)


def test_segment_rejects_bad_range():
    g = twin_graph(2)
    path = g.path("b0 r1")
    with pytest.raises(BadRangeError):
        path.segment((1, 1), (0, 0))
    with pytest.raises(BadRangeError):
        path.segment((0, 0), (2, 2))


# -- compose -------------------------------------------------------------------


def test_compose_unit():
    g = twin_graph(2)
    path = g.path("b0 r1")
    assert path * g.empty_path() == path
    assert g.empty_path() * path == path


def test_compose_flip():
    g = flip_graph(2, 2)
    assert g.red_path(0) * g.blue_path(1) == g.path("b1 r0")


def test_compose_twin():
    g = twin_graph(2)
    assert g.red_path(0) * g.blue_path(1) == g.path("b0 r1")


def test_compose_degree_adds():
    rng = random.Random(11)
    g = random_two_graph(2, 3, rng)
    x, y = g.path("b0 r2 r1"), g.path("b1 b0 r0")
    assert (x * y).degree == x.degree + y.degree


def test_compose_rejects_other_graph():
    with pytest.raises(SpecMismatchError):
        flip_graph(2, 2).blue_path(0) * twin_graph(2).blue_path(0)


# -- enumeration ---------------------------------------------------------------


def test_enumerate_count_mixed():
    g = flip_graph(2, 3)
    assert len(g.enumerate_paths((2, 1))) == 12


def test_enumerate_empty_degree():
    g = flip_graph(2, 3)
    assert g.enumerate_paths((0, 0)) == [g.empty_path()]


def test_enumerate_square():
    g = flip_graph(2, 2)
    assert len(g.enumerate_paths((1, 1))) == 4


def test_enumerate_is_lexicographic():
    g = flip_graph(2, 2)
    words = [p.pretty() for p in g.enumerate_paths((1, 1))]
    assert words == sorted(words)


def test_enumerate_cap():
    # 3^13 paths are just past DEFAULT_PATH_CAP, and 3^60 could never be
    # listed: both raise before anything is enumerated or memoized
    g = flip_graph(3, 3)
    assert 3**12 <= DEFAULT_PATH_CAP < 3**13
    for degree in [(13, 0), (60, 0)]:
        with pytest.raises(SizeLimitError, match=f"^{3**degree[0]} paths of degree"):
            g.enumerate_paths(degree)
    assert g._paths_cache == {}


def test_cardinality_random():
    rng = random.Random(5)
    for _ in range(5):
        g = random_two_graph(rng.randint(1, 3), rng.randint(1, 3), rng)
        for n1 in range(3):
            for n2 in range(3):
                expected = g.n_blue**n1 * g.n_red**n2
                assert len(g.enumerate_paths((n1, n2))) == expected


# -- factorization properties ---------------------------------------------------


def _random_pattern(degree, rng):
    pattern = [BLUE] * degree.n1 + [RED] * degree.n2
    rng.shuffle(pattern)
    return pattern


def test_reorder_confluence_sampled():
    rng = random.Random(17)
    for _ in range(5):
        g = random_two_graph(rng.randint(2, 3), rng.randint(2, 3), rng)
        for n1 in range(3):
            for n2 in range(3):
                for path in g.enumerate_paths((n1, n2)):
                    for pattern in (
                        [RED] * n2 + [BLUE] * n1,
                        _random_pattern(path.degree, rng),
                    ):
                        expected = path.reorder(pattern)
                        for _ in range(2):
                            got = randomized_reorder(g, path, pattern, rng)
                            assert got == expected


def test_reorder_round_trip():
    rng = random.Random(23)
    for _ in range(5):
        g = random_two_graph(rng.randint(2, 3), rng.randint(2, 3), rng)
        for path in g.enumerate_paths((2, 2)):
            pattern = _random_pattern(path.degree, rng)
            word = path.reorder(pattern)
            assert g.path(word) == path


def test_segment_compose_consistency():
    rng = random.Random(29)
    for _ in range(4):
        g = random_two_graph(rng.randint(2, 3), rng.randint(2, 3), rng)
        for n1 in range(3):
            for n2 in range(3):
                for path in g.enumerate_paths((n1, n2)):
                    for p1 in range(n1 + 1):
                        for p2 in range(n2 + 1):
                            cut = Degree(p1, p2)
                            head = path.segment((0, 0), cut)
                            tail = path.segment(cut, path.degree)
                            assert head * tail == path


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_normal_form_matches_swap_oracle(data):
    # compose and path share one normalizer; check both against swaps
    # made in random order
    seeds = st.integers(0, 2**32 - 1)
    rng = random.Random(data.draw(seeds))
    counts = st.integers(2, 3)
    g = random_two_graph(data.draw(counts), data.draw(counts), rng)
    blue = st.integers(0, g.n_blue - 1)
    red = st.integers(0, g.n_red - 1)

    def draw_path():
        blues = data.draw(st.lists(blue, max_size=2))
        return Path(g, blues, data.draw(st.lists(red, max_size=2)))

    mu, nu = draw_path(), draw_path()
    expected = mu.word() + nu.word()
    pattern = [c for c, _ in expected]
    assert randomized_reorder(g, mu * nu, pattern, rng) == expected

    letter = st.one_of(st.tuples(st.just(BLUE), blue), st.tuples(st.just(RED), red))
    word = data.draw(st.lists(letter, max_size=6))
    assert randomized_reorder(g, g.path(word), [c for c, _ in word], rng) == word


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_split_and_compose_match_swap_oracle(data):
    # split's head and tail are the two halves of the word reordered to
    # B^c1 R^c2 B^(m-c1) R^(n-c2) by swaps made in random order
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    counts = st.integers(2, 3)
    g = random_two_graph(data.draw(counts), data.draw(counts), rng)

    def draw_path():
        blues = data.draw(st.lists(st.integers(0, g.n_blue - 1), max_size=3))
        reds = data.draw(st.lists(st.integers(0, g.n_red - 1), max_size=3))
        return Path(g, blues, reds)

    p, q = draw_path(), draw_path()
    m, n = p.degree
    c1, c2 = data.draw(st.integers(0, m)), data.draw(st.integers(0, n))
    pattern = [BLUE] * c1 + [RED] * c2 + [BLUE] * (m - c1) + [RED] * (n - c2)
    word = randomized_reorder(g, p, pattern, rng)
    head, tail = p.split((c1, c2))
    assert head.word() == word[: c1 + c2]
    assert tail.word() == word[c1 + c2 :]
    assert head * tail == p
    assert (p * q).split(p.degree) == (p, q)


def test_segment_three_way():
    g = twin_graph(3)
    path = g.path("b0 b2 r1 r2")
    p, q = Degree(1, 1), Degree(2, 1)
    parts = (
        path.segment((0, 0), p)
        * path.segment(p, q)
        * path.segment(q, path.degree)
    )
    assert parts == path


# -- serialization ---------------------------------------------------------------


def test_json_round_trip():
    rng = random.Random(31)
    g = random_two_graph(3, 2, rng)
    assert TwoGraph.from_json(g.to_json()) == g


def test_json_rejects_non_bijection():
    with pytest.raises(NotBijectiveError):
        TwoGraph.from_json(
            {"n1": 2, "n2": 2, "theta": [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]}
        )


def test_path_parsing_and_pretty():
    g = twin_graph(2)
    path = g.path("r1, b0")
    assert path == g.path([(RED, 1), (BLUE, 0)])
    assert g.empty_path().pretty() == "e"


def test_path_equality_is_word_equality():
    g = flip_graph(2, 2)
    assert g.path("b0 r1") == g.path("r1 b0")
    assert g.path("b0 r1") != g.path("b1 r1")
    assert hash(g.path("b0 r1")) == hash(g.path("r1 b0"))


@pytest.mark.parametrize(
    "build, err",
    [
        # int() would truncate 1.9 to the id 1
        (lambda g: g.path([(BLUE, 1.9)]), "blue id 1.9 is not an integer"),
        (lambda g: Path(g, [1.5], []), "blue id 1.5 is not an integer"),
        # a bool is an int to Python, not an edge id
        (lambda g: g.path([(BLUE, True)]), "blue id True is not an integer"),
        (lambda g: Path(g, [0], [False]), "red id False is not an integer"),
        (lambda g: g.path([(RED, "1")]), "red id '1' is not an integer"),
        # once read as the id 1, and a bare TypeError
        (lambda g: g.commute_red_blue(True, 0), "red id True is not an integer"),
        (lambda g: g.commute_blue_red(0.5, 0), "blue id 0.5 is not an integer"),
        (lambda g: g.commute_red_blue(0, 1.0), "blue id 1.0 is not an integer"),
        (lambda g: g.commute_red_blue(2, 0), "red id 2 out of range"),
    ],
)
def test_non_integer_edge_ids_are_rejected(build, err):
    with pytest.raises(IdOutOfRangeError) as exc:
        build(flip_graph(2, 2))
    assert str(exc.value) == err


class _Int(enum.IntEnum):
    ONE = 1
    TWO = 2


_INT_INPUTS = {
    # once accepted as an int
    "blue id": lambda g: Path(g, [_Int.ONE], []),
    "red id": lambda g: g.path([(RED, _Int.ONE)]),
    "kmax": lambda g: decide_periodicity(g, kmax=_Int.ONE),
    "periodicity cap": lambda g: decide_periodicity(g, cap=_Int.ONE),
    "path cap": lambda g: g.check_path_cap((1, 0), _Int.ONE),
    "exponent a": lambda g: candidate_pairing(g, _Int.ONE, 1),
    "exponent b": lambda g: verify_period(g, 1, _Int.ONE, {}),
    "table entry": lambda g: TwoGraph(2, 2, [*_FLIP_ROWS[:3], [1, 1, 1, _Int.ONE]]),
    "commute id": lambda g: g.commute_blue_red(_Int.ONE, 0),
    "color": lambda g: g.path([(_Int.ONE, 0)]),
    "pattern color": lambda g: g.path("r0").reorder([_Int.ONE]),
    "blue count": lambda g: minimal_exponents(_Int.TWO, 4),
    "red count": lambda g: minimal_exponents(4, _Int.TWO),
    # always refused
    "edge count": lambda g: TwoGraph(_Int.ONE, 1, [[0, 0, 0, 0]]),
    "degree": lambda g: g.enumerate_paths((_Int.ONE, 0)),
    "group exponent": lambda g: twograph.ker_size(twograph.FiniteAbelian([2]), _Int.ONE),
    "invariant factor": lambda g: twograph.FiniteAbelian([_Int.ONE]),
}


@pytest.mark.parametrize("call", _INT_INPUTS.values(), ids=_INT_INPUTS.keys())
def test_every_integer_input_refuses_an_int_subclass(call):
    # one rule, type(x) is int, as the JSON reader applies it
    with pytest.raises((GraphError, GroupError), match=r"<_Int\.(ONE: 1|TWO: 2)>"):
        call(flip_graph(2, 2))
