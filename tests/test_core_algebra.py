"""Word products, shift/transfer operators and the module structure."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import level_expansion, word_product, word_transfer

from twograph import (
    BadRangeError,
    Degree,
    GradedElement,
    LevelMismatchError,
    ModuleVector,
    SpecMismatchError,
    flip_graph,
    identity_suite,
    random_two_graph,
    shift,
    transfer,
    twin_graph,
)


def words(graph, level):
    paths = graph.enumerate_paths(level)
    return [(mu, nu) for mu in paths for nu in paths]


# -- the word product -------------------------------------------------------------


def test_multiply_matching_inner_words():
    g = flip_graph(2, 2)
    x = GradedElement.word(g.blue_path(0), g.blue_path(0))
    y = GradedElement.word(g.blue_path(0), g.blue_path(1))
    assert x * y == y


def test_multiply_mismatch_is_zero():
    g = flip_graph(2, 2)
    x = GradedElement.word(g.blue_path(0), g.blue_path(0))
    y = GradedElement.word(g.blue_path(1), g.blue_path(1))
    assert (x * y).is_zero()


def test_multiply_prefix_absorption():
    g = twin_graph(2)
    x = GradedElement.word(g.blue_path(0), g.red_path(0))
    y = GradedElement.word(g.path("r0 b1"), g.blue_path(1))
    assert x * y == GradedElement.word(g.path("b0 b1"), g.blue_path(1))


def test_multiply_incomparable_degrees_uses_common_extensions():
    # s_f^* s_e is a genuine sum, not zero: the transfer semigroup law
    # below depends on it
    g = flip_graph(2, 2)
    x = GradedElement.word(g.empty_path(), g.red_path(0))
    y = GradedElement.word(g.blue_path(0), g.empty_path())
    product = x * y
    assert not product.is_zero()
    assert product == GradedElement.word(g.blue_path(0), g.red_path(0))


def test_multiply_rejects_other_graph():
    x = GradedElement.one(flip_graph(2, 2))
    y = GradedElement.one(twin_graph(2))
    with pytest.raises(SpecMismatchError):
        x * y


def test_scalars_and_linearity():
    g = flip_graph(2, 2)
    x = GradedElement.word(g.blue_path(0), g.blue_path(1))
    y = 2 * x + (-1) * x
    assert y == x
    assert (Fraction(1, 2) * x + Fraction(1, 2) * x) == x
    assert not any(c == 0 for c in (x + (-1) * x).terms.values())


def test_scalar_multiples_accept_the_same_scalars_in_either_order():
    g = flip_graph(2, 2)
    one = GradedElement.one(g)
    for scalar in (3, -1, 0, True, Fraction(2, 7)):
        assert (scalar * one).terms == (one * scalar).terms
        assert scalar * one == one * scalar == scalar
    for bad in (0.1, 1.5, complex(1, 0), "2", None):
        with pytest.raises(TypeError):
            bad * one
        with pytest.raises(TypeError):
            one * bad


def test_constructors_accept_only_the_scalars_of_a_multiple():
    # a float would be stored as its binary expansion, so word coefficients
    # and constructor terms take what * takes: an int (a bool too) or a Fraction
    g = flip_graph(2, 2)
    e = g.empty_path()
    for scalar in (3, -1, 0, True, Fraction(2, 7)):
        expected = (scalar * GradedElement.one(g)).terms
        assert GradedElement.word(e, e, scalar).terms == expected
        assert GradedElement(g, {(e, e): scalar}).terms == expected
    for bad in (0.1, 0.5, complex(1, 0), "1/3", Decimal("0.5"), None):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            GradedElement.word(e, e, bad)
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            GradedElement(g, {(e, e): bad})


def test_constructor_rejects_paths_of_another_graph():
    g = flip_graph(2, 2)
    other = flip_graph(3, 3).blue_path(2)  # names blue edge 2 of a 2-edge graph
    for key in ((other, other), (g.empty_path(), other), (other, g.empty_path())):
        with pytest.raises(SpecMismatchError):
            GradedElement(g, {key: 1})
    # a path of an equal graph is accepted, as word() accepts it
    twin = flip_graph(2, 2).blue_path(1)
    assert GradedElement(g, {(twin, twin): 1}) == GradedElement.word(twin, twin)


# -- coefficient arithmetic against a Fraction oracle --------------------------------


def _oracle_sum(*scaled_terms):
    # coefficient by coefficient, in Fractions; zeros dropped at the end
    out = {}
    for scalar, terms in scaled_terms:
        for key, coeff in terms.items():
            out[key] = out.get(key, 0) + Fraction(scalar) * coeff
    return {key: c for key, c in out.items() if c}


def _oracle_shift(graph, degree, terms):
    out = {}
    for lam in graph.enumerate_paths(degree):
        for (mu, nu), coeff in terms.items():
            key = (lam * mu, lam * nu)
            out[key] = out.get(key, 0) + coeff
    return {key: c for key, c in out.items() if c}


def _assert_lowest_terms(x):
    # no zero numerators, and no common factor (the zero element has den 1)
    assert x.den > 0 and 0 not in x.nums.values()
    assert math.gcd(x.den, *x.nums.values()) == 1


_SMALL_DEGREES = [(0, 0), (1, 0), (0, 1), (1, 1)]
_COEFFS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 7]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coefficient_arithmetic_matches_fraction_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    g = random_two_graph(data.draw(st.integers(2, 3)), 2, rng)
    paths = [p for d in _SMALL_DEGREES for p in g.enumerate_paths(d)]
    pairs = st.tuples(st.sampled_from(paths), st.sampled_from(paths))
    # x and y share their keys, so sums and differences can cancel
    keys = data.draw(st.lists(pairs, max_size=5, unique=True))
    x_terms = {key: data.draw(_COEFFS) for key in keys}
    y_terms = {key: data.draw(_COEFFS) for key in keys}
    y_terms.update({key: data.draw(_COEFFS) for key in data.draw(st.lists(pairs, max_size=2))})
    x, y = GradedElement(g, x_terms), GradedElement(g, y_terms)
    scalar = data.draw(st.one_of(_COEFFS, st.integers(-3, 3)))
    degree = data.draw(st.sampled_from(_SMALL_DEGREES))

    cases = [
        (x, _oracle_sum((1, x_terms))),
        (x + y, _oracle_sum((1, x_terms), (1, y_terms))),
        (x + (-1) * y, _oracle_sum((1, x_terms), (-1, y_terms))),
        (x + (-1) * x, {}),
        ((-1) * y, _oracle_sum((-1, y_terms))),
        (scalar * x, _oracle_sum((scalar, x_terms))),
        (x * scalar, _oracle_sum((scalar, x_terms))),
        (x.adjoint(), {(nu, mu): c for (mu, nu), c in _oracle_sum((1, x_terms)).items()}),
        (shift(degree, x), _oracle_shift(g, degree, _oracle_sum((1, x_terms)))),
    ]
    for got, expected in cases:
        assert got.terms == expected
        _assert_lowest_terms(got)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_and_transfer_match_word_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    g = random_two_graph(data.draw(st.integers(2, 3)), 2, rng)
    paths = [p for d in _SMALL_DEGREES for p in g.enumerate_paths(d)]
    pairs = st.tuples(st.sampled_from(paths), st.sampled_from(paths))

    def draw_terms():
        return {key: data.draw(_COEFFS) for key in data.draw(st.lists(pairs, max_size=3))}

    x_terms, y_terms = draw_terms(), draw_terms()
    x, y = GradedElement(g, x_terms), GradedElement(g, y_terms)
    step = data.draw(st.sampled_from(_SMALL_DEGREES))
    assert (x * y).terms == word_product(g, x_terms, y_terms)
    assert transfer(step, x).terms == word_transfer(g, step, x_terms)


def test_transfer_divides_the_denominator_by_the_path_count():
    g = flip_graph(2, 2)
    word = GradedElement.word(g.blue_path(0), g.blue_path(0))
    got = transfer((1, 0), Fraction(3, 7) * word)
    assert got == Fraction(3, 14) * GradedElement.one(g)
    assert got.terms == {(g.empty_path(), g.empty_path()): Fraction(3, 14)}
    empty = g.empty_path().code
    assert (got.nums, got.den) == ({(empty, empty): 3}, 14)


def test_repr_orders_terms_by_degree_then_word():
    # bytes recorded before paths were coded as integers
    g = flip_graph(2, 2)
    x = (
        GradedElement.word(g.blue_path(0), g.path("b1 r0"))
        + GradedElement.word(g.red_path(1), g.red_path(1))
        + Fraction(1, 3) * GradedElement.one(g)
        + GradedElement.word(g.blue_path(0), g.blue_path(1), -2)
        + GradedElement.word(g.path("b0 r1"), g.empty_path())
    )
    assert repr(x) == (
        "1/3*s[e]s[e]* + 1*s[r1]s[r1]* + -2*s[b0]s[b1]* "
        "+ 1*s[b0]s[b1 r0]* + 1*s[b0 r1]s[e]*"
    )


# -- adjoint -----------------------------------------------------------------------


def test_adjoint_swaps_words():
    g = flip_graph(2, 2)
    x = GradedElement.word(g.blue_path(0), g.red_path(1))
    assert x.adjoint() == GradedElement.word(g.red_path(1), g.blue_path(0))


def test_adjoint_involution_and_zero():
    g = flip_graph(2, 2)
    zero = GradedElement.zero(g)
    assert zero.adjoint().is_zero()
    x = GradedElement.word(g.path("b0 r1"), g.blue_path(1), Fraction(3, 7))
    assert x.adjoint().adjoint() == x


def test_adjoint_antimultiplicative():
    rng = random.Random(13)
    g = random_two_graph(2, 2, rng)
    sample = words(g, Degree(1, 0)) + words(g, Degree(0, 1)) + words(g, Degree(1, 1))
    for _ in range(30):
        (m1, n1), (m2, n2) = rng.choice(sample), rng.choice(sample)
        x = GradedElement.word(m1, n1)
        y = GradedElement.word(m2, n2)
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()


# -- shift endomorphisms ------------------------------------------------------------


def test_shift_is_unital_after_expansion():
    g = twin_graph(2)
    one = GradedElement.one(g)
    for n in ((1, 0), (0, 1), (1, 1), (2, 1)):
        assert shift(n, one) == one


def test_shift_zero_degree_is_identity():
    g = flip_graph(2, 2)
    x = GradedElement.word(g.blue_path(0), g.path("b1 r0"), Fraction(2, 3))
    assert shift((0, 0), x) == x


def test_shift_explicit_expansion():
    g = flip_graph(2, 2)
    x = GradedElement.word(g.blue_path(0), g.blue_path(0))
    expected = GradedElement(
        g,
        {
            (g.path("b0 b0"), g.path("b0 b0")): 1,
            (g.path("b1 b0"), g.path("b1 b0")): 1,
        },
    )
    got = shift((1, 0), x)
    assert got.terms == expected.terms


# -- transfer operators ---------------------------------------------------------------


def test_transfer_of_identity():
    g = twin_graph(2)
    one = GradedElement.one(g)
    for n in ((1, 0), (0, 1), (1, 1), (2, 2)):
        assert transfer(n, one) == one


def test_transfer_single_word():
    g = flip_graph(2, 2)
    x = GradedElement.word(g.blue_path(0), g.blue_path(0))
    assert transfer((1, 0), x) == Fraction(1, 2)


def test_transfer_zero_degree_is_identity():
    g = flip_graph(2, 2)
    x = GradedElement.word(g.path("b0 r1"), g.path("b1 r0"))
    assert transfer((0, 0), x) == x


def test_transfer_identity_sampled():
    rng = random.Random(19)
    g = random_two_graph(2, 2, rng)
    sample = words(g, Degree(1, 0)) + words(g, Degree(1, 1))
    for n in ((1, 0), (0, 1), (1, 1)):
        for _ in range(12):
            (m1, n1), (m2, n2) = rng.choice(sample), rng.choice(sample)
            a = GradedElement.word(m1, n1)
            b = GradedElement.word(m2, n2)
            assert transfer(n, shift(n, a) * b) == a * transfer(n, b)


def test_transfer_semigroup_mixed_degrees():
    # the (1,0)/(0,1) mix exercises incomparable-degree products
    g = flip_graph(2, 2)
    a = GradedElement.word(g.blue_path(0), g.blue_path(0))
    assert transfer((1, 0), transfer((0, 1), a)) == transfer((1, 1), a)
    assert transfer((0, 1), transfer((1, 0), a)) == transfer((1, 1), a)


def test_shift_multiplicative_in_degree():
    rng = random.Random(37)
    g = random_two_graph(2, 2, rng)
    for mu, nu in words(g, Degree(1, 0))[:4]:
        a = GradedElement.word(mu, nu)
        for m in ((1, 0), (0, 1)):
            for n in ((0, 1), (1, 1)):
                lhs = shift(m, shift(n, a))
                rhs = shift(Degree(*m) + Degree(*n), a)
                assert lhs == rhs


def test_transfer_commutes_with_adjoint():
    rng = random.Random(39)
    g = random_two_graph(2, 3, rng)
    sample = words(g, Degree(1, 1))
    for _ in range(10):
        mu, nu = rng.choice(sample)
        a = GradedElement.word(mu, nu, Fraction(5, 3))
        for n in ((1, 0), (0, 1)):
            assert transfer(n, a).adjoint() == transfer(n, a.adjoint())


def test_transfer_section_of_shift():
    rng = random.Random(23)
    g = random_two_graph(3, 2, rng)
    for (mu, nu) in words(g, Degree(1, 1))[:9]:
        a = GradedElement.word(mu, nu)
        for n in ((1, 0), (0, 1), (1, 1)):
            assert transfer(n, shift(n, a)) == a


def test_negative_degree_is_rejected():
    g = flip_graph(2, 2)
    one = GradedElement.one(g)
    zero = GradedElement.zero(g)
    calls = (
        g.enumerate_paths,
        # once 0.5, and a passing cap check
        g.path_count,
        lambda n: g.check_path_cap(n, 5),
        lambda n: shift(n, one),
        lambda n: transfer(n, one),
        lambda n: transfer(n, zero),
    )
    for call in calls:
        with pytest.raises(BadRangeError, match=r"negative degree"):
            call((-1, 0))


@pytest.mark.parametrize(
    "degree",
    [(2.9, 0), (1.7, 0), (True, 1), (1, False), (1.5, 1), ("1", 1), (1,), (1, 1, 1), 2,
     # a Degree's fields are not checked when it is built
     Degree(True, 1), Degree(1.5, 0)],
)
def test_a_degree_that_is_not_a_pair_of_ints_is_rejected(degree):
    # int() used to read (2.9, 0) as (2, 0) and (True, 1) as (1, 1)
    g = flip_graph(2, 2)
    one = GradedElement.one(g)
    calls = (
        g.enumerate_paths,
        g.path_count,
        lambda n: ModuleVector(n, one),
        lambda n: identity_suite(g, n),
    )
    message = re.escape(f"a degree must be a pair of integers, got {degree!r}")
    for call in calls:
        with pytest.raises(BadRangeError, match=message):
            call(degree)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize(
    "degree", [(True, 0), (1.0, 0), ("1", 0), Degree(True, 1), Degree(1.5, 0)]
)
def test_shift_and_transfer_reject_a_degree_that_is_not_a_pair_of_ints(degree, warm):
    # (True, 0) and (1.0, 0) equal (1, 0) as keys of the graph's path table,
    # so once it holds (1, 0) they used to read as that degree
    g = flip_graph(2, 2)
    one = GradedElement.one(g)
    if warm:
        g.enumerate_paths((1, 0))
    message = re.escape(f"a degree must be a pair of integers, got {degree!r}")
    for op in (shift, transfer):
        with pytest.raises(BadRangeError, match=message):
            op(degree, one)


def test_a_degree_may_be_a_degree_or_any_pair_of_ints():
    g = flip_graph(2, 2)
    assert ModuleVector(Degree(1, 0), GradedElement.one(g)).level == (1, 0)
    assert ModuleVector([1, 0], GradedElement.one(g)).level == Degree(1, 0)
    assert len(g.enumerate_paths([2, 0])) == 4


# -- equality modulo expansion ----------------------------------------------------------


def test_identity_equals_its_expansion():
    g = flip_graph(2, 2)
    one = GradedElement.one(g)
    expansion = GradedElement(
        g, {(p, p): 1 for p in g.enumerate_paths((1, 1))}
    )
    assert one == expansion
    assert expansion == one


def test_partial_expansion_is_not_the_identity():
    g = flip_graph(2, 2)
    partial = GradedElement(
        g, {(p, p): 1 for p in g.enumerate_paths((1, 1))[:3]}
    )
    assert partial != GradedElement.one(g)


def test_expansion_equality_on_unbalanced_words():
    g = twin_graph(2)
    mu, nu = g.blue_path(0), g.path("b0 r1")
    x = GradedElement.word(mu, nu)
    expanded = GradedElement(
        g,
        {(mu * lam, nu * lam): 1 for lam in g.enumerate_paths((0, 1))},
    )
    assert x == expanded


_LOW_DEGREES = [(0, 0), (1, 0), (0, 1), (1, 1)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.sampled_from([2, 3]),
    degree=st.sampled_from(_LOW_DEGREES[1:]),
)
def test_an_element_minus_its_level_expansion_vanishes(seed, n1, degree):
    # x minus its level-n expansion puts terms at the top degree of their
    # class, which _vanishes adds without expanding them by the empty path;
    # the expansion composes by reordering, not through the algebra's tables
    from twograph import algebra

    rng = random.Random(seed)
    g = random_two_graph(n1, 2, rng)
    x = {}
    for _ in range(rng.randint(1, 4)):
        mu = rng.choice(g.enumerate_paths(rng.choice(_LOW_DEGREES)))
        nu = rng.choice(g.enumerate_paths(rng.choice(_LOW_DEGREES)))
        x[mu, nu] = x.get((mu, nu), 0) + rng.choice([-3, -1, 1, 2])
    mixed = {(mu.code, nu.code): c for (mu, nu), c in x.items()}
    for (mu, nu), c in level_expansion(g, x, degree, rng).items():
        mixed[mu.code, nu.code] = mixed.get((mu.code, nu.code), 0) - c
    assert algebra._vanishes(g, mixed)
    key = rng.choice(sorted(mixed))
    mixed[key] += rng.choice([-2, -1, 1, 3])
    assert not algebra._vanishes(g, mixed)


# -- module vectors -----------------------------------------------------------------------


def test_inner_product_orthonormal():
    g = twin_graph(2)
    for level in ((1, 0), (1, 1)):
        paths = g.enumerate_paths(level)
        for mu in paths:
            for nu in paths:
                left = ModuleVector(level, GradedElement.word(mu, nu))
                for al in paths:
                    for be in paths:
                        right = ModuleVector(level, GradedElement.word(al, be))
                        expected = 1 if (mu, nu) == (al, be) else 0
                        assert left.inner(right) == expected


def test_inner_product_level_zero():
    g = flip_graph(2, 2)
    unit = ModuleVector((0, 0), GradedElement.one(g))
    assert unit.inner(unit) == 1


def test_inner_product_rejects_level_mismatch():
    g = flip_graph(2, 2)
    x = ModuleVector((1, 0), GradedElement.word(g.blue_path(0), g.blue_path(1)))
    with pytest.raises(LevelMismatchError):
        x.inner(ModuleVector((0, 0), GradedElement.one(g)))


@pytest.mark.parametrize("payload", [5, Fraction(1, 2), None])
def test_module_vector_rejects_a_payload_that_is_not_an_element(payload):
    with pytest.raises(TypeError, match=type(payload).__name__):
        ModuleVector((0, 0), payload)


@pytest.mark.parametrize("level", [(-1, 0), (0, -2), (-3, -1)])
def test_module_vector_rejects_negative_level(level):
    one = GradedElement.one(flip_graph(2, 2))
    with pytest.raises(BadRangeError, match=re.escape(f"got {level}")):
        ModuleVector(level, one)


def test_module_product_of_basis_vectors():
    rng = random.Random(29)
    g = random_two_graph(2, 2, rng)
    for m, n in (((1, 0), (0, 1)), ((1, 1), (1, 0)), ((0, 1), (0, 1))):
        for mu, nu in words(g, Degree(*m))[:4]:
            for al, be in words(g, Degree(*n))[:4]:
                left = ModuleVector(m, GradedElement.word(mu, nu))
                right = ModuleVector(n, GradedElement.word(al, be))
                expected = ModuleVector(
                    Degree(*m) + Degree(*n), GradedElement.word(mu * al, nu * be)
                )
                assert left * right == expected


def test_module_product_unit():
    g = twin_graph(2)
    x = ModuleVector((1, 1), GradedElement.word(g.path("b0 r1"), g.path("b1 r0")))
    unit = ModuleVector((0, 0), GradedElement.one(g))
    assert x * unit == x
    assert unit * x == x


# -- covariance of the left action ------------------------------------------------------------


def _covariant(mu, nu) -> bool:
    """The suite's covariance verdict on one pair of paths of one degree."""
    from twograph import algebra

    return algebra._covariant(mu.graph, mu.code, nu.code, {})


def test_covariance_all_pairs_level_one_one():
    g = twin_graph(2)
    for mu in g.enumerate_paths((1, 1)):
        for nu in g.enumerate_paths((1, 1)):
            assert _covariant(mu, nu)


def test_covariance_scalar_level():
    g = flip_graph(2, 2)
    empty = g.empty_path()
    assert _covariant(empty, empty)


@pytest.mark.parametrize("g", [flip_graph(3, 2), twin_graph(2)], ids=["flip-3x2", "twin-2"])
def test_covariance_table_matches_the_word_oracle(g, monkeypatch):
    # each entry shift(n, <(nu, lam), (alpha, beta)>) that covariance fills
    # through the kernels equals shift(n, .) of the inner product the word
    # oracles give: the path count of n times the transfer of
    # s_lam s_nu^* s_alpha s_beta^*, with no kernel reached on that side
    from twograph import algebra, graphs

    table = {}
    for mu, nu in _word_paths(g, (1, 1)):
        assert algebra._covariant(g, mu.code, nu.code, table)
    levels = _degrees_upto((1, 1))
    assert len(table) == sum(len(g.enumerate_paths(n)) ** 4 for n in levels)

    def unreachable(*args):
        raise AssertionError("the oracle side reached a kernel")

    for owner, name in [
        (algebra, "_product"),
        (algebra, "_transfer"),
        (algebra, "_extensions"),
        (graphs, "_extensions"),
    ]:
        monkeypatch.setattr(owner, name, unreachable)
    paths = {p.code: p for n in levels for p in g.enumerate_paths(n)}
    for codes, back in table.items():
        nu, lam, alpha, beta = (paths[code] for code in codes)
        level = nu.degree
        count = len(g.enumerate_paths(level))
        product = word_product(g, {(lam, nu): 1}, {(alpha, beta): 1})
        inner = {key: count * c for key, c in word_transfer(g, level, product).items()}
        assert back.terms == shift(level, GradedElement(g, inner)).terms, codes


_COVARIANCE_LEVELS = [(0, 0), (0, 1), (1, 0), (1, 1)]  # the suite's order


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_suite_covariance_agrees_with_check_covariance(data):
    # under a shift scaled at one degree, the suite's covariance entry stops
    # at the first pair that _covariant rejects (each with a fresh table),
    # in the suite's order; under the true shift every pair at (1, 0),
    # (0, 1) and (1, 1) holds
    from twograph import algebra

    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    g = random_two_graph(data.draw(st.integers(2, 3)), 2, rng)
    scale = data.draw(st.sampled_from([1, 2, Fraction(1, 2)]))
    scaled_degree = data.draw(st.sampled_from(_COVARIANCE_LEVELS[1:]))
    true_shift = algebra.shift

    def scaled_shift(degree, element):
        result = true_shift(degree, element)
        return scale * result if tuple(degree) == scaled_degree else result

    pairs = [
        (mu, nu)
        for level in _COVARIANCE_LEVELS
        for mu in g.enumerate_paths(level)
        for nu in g.enumerate_paths(level)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "shift", scaled_shift)
        verdicts = [_covariant(mu, nu) for mu, nu in pairs]
        checks = identity_suite(g, max_degree=(1, 1), seed=0)
    if scale == 1:
        assert all(verdicts)
    failed = [i for i, ok in enumerate(verdicts) if not ok]
    expected = (failed[0] + 1, False) if failed else (len(pairs), True)
    covariance = next(c for c in checks if c.name == "covariance")
    assert (covariance.cases, covariance.passed) == expected


# -- the shared-work checks against one-case-at-a-time evaluation -----------------


def _degrees_upto(bound):
    return [Degree(i, j) for i in range(bound[0] + 1) for j in range(bound[1] + 1)]


def _word_paths(g, bound):
    return [
        (mu, nu)
        for level in _degrees_upto(bound)
        for mu in g.enumerate_paths(level)
        for nu in g.enumerate_paths(level)
    ]


def _first_failure(name, cases, holds, show):
    for index, case in enumerate(cases, 1):
        if not holds(case):
            return (name, index, False, f"counterexample: {show(case)}")
    return (name, len(cases), True, "")


def _reference_suite(g, bound):
    # (name, cases, passed, detail) of the transfer identities,
    # transfer-action, transfer-section and module-orthonormal, one case at
    # a time through the public operations, reading algebra.shift and
    # algebra.transfer at call time so that a patched shift reaches every case
    from twograph import algebra

    def words_upto(top):
        return [GradedElement.word(mu, nu) for mu, nu in _word_paths(g, top)]

    def identity(case):
        n, a, b = case
        return algebra.transfer(n, algebra.shift(n, a) * b) == a * algebra.transfer(n, b)

    def identity_check(name, groups):
        cases = [(n, a, b) for n, group in groups for a in group for b in group]
        return _first_failure(
            name, cases, identity, lambda c: f"n={tuple(c[0])}, a={c[1]!r}, b={c[2]!r}"
        )

    def action(case):
        m, n, (mu, nu) = case
        a = GradedElement.word(mu, nu)
        return algebra.transfer(m, algebra.transfer(n, a)) == algebra.transfer(m + n, a)

    def section(case):
        n, (mu, nu) = case
        a = GradedElement.word(mu, nu)
        return algebra.transfer(n, algebra.shift(n, a)) == a

    def orthonormal(level):
        paths = g.enumerate_paths(level)
        basis = [
            ModuleVector(level, GradedElement.word(mu, nu)) for mu in paths for nu in paths
        ]
        return all(
            x.inner(y) == (1 if i == j else 0)
            for i, x in enumerate(basis)
            for j, y in enumerate(basis)
        )

    steps = [n for n in (Degree(1, 0), Degree(0, 1)) if n.leq(bound)]
    action_cases = [
        (m, n, w)
        for m in _degrees_upto(bound)
        for n in _degrees_upto(bound - m)
        for w in _word_paths(g, bound)
    ]
    section_cases = [(n, w) for n in _degrees_upto(bound) for w in _word_paths(g, bound)]
    return [
        identity_check(
            "transfer-identity-generators", [(n, words_upto(bound)) for n in steps]
        ),
        identity_check(
            "transfer-identity-all-degrees",
            [(n, words_upto(bound - n)) for n in _degrees_upto(bound)],
        ),
        _first_failure("transfer-action", action_cases, action, str),
        _first_failure("transfer-section", section_cases, section, str),
        _first_failure("module-orthonormal", _degrees_upto(bound), orthonormal, str),
    ]


def _doubled_at_red(true_shift, degree, element):
    result = true_shift(degree, element)
    return 2 * result if tuple(degree) == (0, 1) else result


def _halved_at_red(true_shift, degree, element):
    result = true_shift(degree, element)
    return Fraction(1, 2) * result if tuple(degree) == (0, 1) else result


def _spurious_at_red(true_shift, degree, element):
    # at (0, 1) the shift of a word s_mu s_nu^* gains s_{r mu} s_{r' nu'}^*,
    # r and r' the first and last red edges and nu' the path after nu, a
    # term the true shift does not have
    result = true_shift(degree, element)
    if tuple(degree) != (0, 1) or len(element.nums) != 1:
        return result
    ((mu, nu), c), = element.terms.items()
    g = element.graph
    reds = g.enumerate_paths((0, 1))
    level = g.enumerate_paths(nu.degree)
    other = level[(level.index(nu) + 1) % len(level)]
    return result + c * GradedElement.word(reds[0].compose(mu), reds[-1].compose(other))


def _spurious_by_first_path(true_shift, degree, element):
    # as _spurious_at_red for every mu but the first path of its level,
    # with an extra second path that moves with mu too: words with one
    # second path nu shift to different sets of second paths, and the
    # first of them to the true shift's
    result = true_shift(degree, element)
    if tuple(degree) != (0, 1) or len(element.nums) != 1:
        return result
    ((mu, nu), c), = element.terms.items()
    g = element.graph
    level = g.enumerate_paths(nu.degree)
    if mu == level[0]:
        return result
    reds = g.enumerate_paths((0, 1))
    other = level[(level.index(nu) + level.index(mu)) % len(level)]
    return result + c * GradedElement.word(reds[0].compose(mu), reds[-1].compose(other))


def _zero_at_red(true_shift, degree, element):
    # at (0, 1) every left side is empty while the right sides are not
    result = true_shift(degree, element)
    return GradedElement.zero(element.graph) if tuple(degree) == (0, 1) else result


_SHIFT_VARIANTS = [
    None,
    _doubled_at_red,
    _halved_at_red,
    _spurious_at_red,
    _spurious_by_first_path,
    _zero_at_red,
]


# Counts above 2 at a bound past (1, 1) would take seconds an example.
# The first example separates the skip lists from ones keyed by a's second
# path alone, which pass the other variants and most graphs; the second
# fails lists that leave out the right-side test.
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bound=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
    n1=st.integers(1, 3),
    n2=st.integers(1, 3),
    variant=st.sampled_from(_SHIFT_VARIANTS),
)
@example(seed=0, bound=(1, 1), n1=3, n2=2, variant=_spurious_by_first_path)
@example(seed=0, bound=(1, 1), n1=2, n2=2, variant=_zero_at_red)
def test_shared_work_checks_match_one_case_at_a_time(seed, bound, n1, n2, variant):
    # the suite skips transfer-identity cases whose two sides are both
    # empty and shares transfers across cases; under the true shift and
    # under shifts that break the identity at different cases, its
    # verdicts, case counts and details equal a case-by-case evaluation
    from twograph import algebra

    if bound != (1, 1):
        n1, n2 = min(n1, 2), min(n2, 2)
    g = random_two_graph(n1, n2, random.Random(seed))
    true_shift = algebra.shift
    with pytest.MonkeyPatch.context() as patch:
        if variant is not None:
            patch.setattr(
                algebra, "shift", lambda degree, element: variant(true_shift, degree, element)
            )
        expected = _reference_suite(g, Degree(*bound))
        names = [name for name, *_ in expected]
        got = [
            (c.name, c.cases, c.passed, c.detail)
            for c in identity_suite(g, max_degree=bound, seed=0)
            if c.name in names
        ]
    assert got == expected
    if variant is None or (variant is _spurious_by_first_path and n1 == n2 == 1):
        # on a 1x1 graph each level has one path, so that variant is the true shift
        assert all(passed for _, _, passed, _ in expected)
    else:
        assert not all(passed for _, _, passed, _ in expected[:2])


# -- the full suite ------------------------------------------------------------------------------


def test_identity_suite_random_graph():
    rng = random.Random(31)
    g = random_two_graph(rng.randint(2, 3), rng.randint(2, 3), rng)
    checks = identity_suite(g, max_degree=(1, 1), seed=5)
    failed = [c for c in checks if not c.passed]
    assert not failed, failed
    names = {c.name for c in checks}
    assert "transfer-identity-generators" in names
    assert "cuntz-commutation" in names


def test_identity_suite_non_square_counts():
    checks = identity_suite(flip_graph(2, 3), max_degree=(1, 1), seed=2)
    failed = [c for c in checks if not c.passed]
    assert not failed, failed
    by_name = {c.name: c for c in checks}
    # doubled family has 4 blue and 9 red edges
    assert by_name["cuntz-commutation"].cases == 36


def test_identity_suite_deterministic_case_counts():
    g = flip_graph(2, 2)
    first = identity_suite(g, max_degree=(1, 1), seed=0)
    second = identity_suite(g, max_degree=(1, 1), seed=0)
    assert [(c.name, c.cases, c.passed) for c in first] == [
        (c.name, c.cases, c.passed) for c in second
    ]
    assert all(c.passed for c in first)
    assert [c.cases for c in first] == [4, 4, 1250, 676, 225, 100, 4, 81, 16, 2, 25, 25]


_CHECK_NAMES = [
    "transfer-unit",
    "shift-unit",
    "transfer-identity-generators",
    "transfer-identity-all-degrees",
    "transfer-action",
    "transfer-section",
    "module-orthonormal",
    "module-product",
    "cuntz-commutation",
    "cuntz-family",
    "covariance",
    "star-axioms",
]


@pytest.mark.parametrize(
    "g, bound, cases",
    [
        (flip_graph(2, 2), (2, 1), [6, 6, 22050, 12142, 1890, 630, 6, 513, 16, 2, 25, 25]),
        (twin_graph(2), (1, 2), [6, 6, 22050, 12142, 1890, 630, 6, 513, 16, 2, 25, 25]),
        (flip_graph(3, 2), (1, 1), [4, 4, 5000, 2626, 450, 200, 4, 171, 36, 2, 50, 25]),
    ],
    ids=["flip-2x2", "twin-2", "flip-3x2"],
)
def test_identity_suite_case_lists_at_the_core_verify_bounds(g, bound, cases):
    # the three graphs and bounds of the benchmark's core-verify workload
    checks = identity_suite(g, max_degree=bound, seed=1)
    assert [(c.name, c.cases, c.passed) for c in checks] == [
        (name, n, True) for name, n in zip(_CHECK_NAMES, cases)
    ]


def test_identity_suite_reports_first_failures(monkeypatch):
    # a shift that doubles its result at degree (0, 1) breaks every check using it
    from twograph import algebra

    true_shift = algebra.shift

    def broken_shift(degree, element):
        result = true_shift(degree, element)
        return 2 * result if tuple(degree) == (0, 1) else result

    monkeypatch.setattr(algebra, "shift", broken_shift)
    checks = identity_suite(flip_graph(2, 2), max_degree=(1, 1), seed=0)
    assert [(c.cases, c.passed) for c in checks] == [
        (4, True),
        (2, False),
        (626, False),
        (626, False),
        (225, True),
        (26, False),
        (4, True),
        (26, False),
        (1, False),
        (2, False),
        (2, False),
        (25, True),
    ]
    detail = "counterexample: n=(0, 1), a=1*s[e]s[e]*, b=1*s[e]s[e]*"
    by_name = {c.name: c for c in checks}
    assert by_name["transfer-identity-generators"].detail == detail
    assert by_name["transfer-identity-all-degrees"].detail == detail


def _doubled_at(level, true_transfer):
    # a transfer kernel that doubles its numerators at degree ``level``
    def broken_transfer(graph, degree, word):
        out = true_transfer(graph, degree, word)
        if tuple(degree) != level:
            return out
        return {key: 2 * n for key, n in out.items()}

    return broken_transfer


def test_identity_suite_reports_transfer_failures(monkeypatch):
    # a transfer that doubles its result at degree (1, 0) fails every check
    # that uses it, except the transfer identities, whose two sides both double
    from twograph import algebra

    monkeypatch.setattr(algebra, "_transfer", _doubled_at((1, 0), algebra._transfer))
    checks = identity_suite(flip_graph(2, 2), max_degree=(1, 1), seed=0)
    assert [(c.cases, c.passed) for c in checks] == [
        (3, False),
        (4, True),
        (1250, True),
        (676, True),
        (126, False),
        (51, False),
        (3, False),
        (81, True),
        (16, True),
        (1, False),
        (6, False),
        (25, True),
    ]
    by_name = {c.name: c for c in checks}
    assert by_name["transfer-section"].detail == (
        "counterexample: (Degree(n1=1, n2=0), (Path('e'), Path('e')))"
    )


def test_identity_suite_reports_transfer_failures_at_level_one_one(monkeypatch):
    # a transfer doubled only at (1, 1) fails every check that transfers
    # there, covariance through its table fill at that level alone; the
    # transfer identities, whose two sides both double, hold
    from twograph import algebra

    monkeypatch.setattr(algebra, "_transfer", _doubled_at((1, 1), algebra._transfer))
    checks = identity_suite(flip_graph(2, 2), max_degree=(1, 1), seed=0)
    assert [(c.cases, c.passed) for c in checks] == [
        (4, False),
        (4, True),
        (1250, True),
        (676, True),
        (126, False),
        (76, False),
        (4, False),
        (81, True),
        (16, True),
        (2, True),
        (10, False),
        (25, True),
    ]
    by_name = {c.name: c for c in checks}
    assert by_name["covariance"].detail == "counterexample: (Path('b0 r0'), Path('b0 r0'))"


def test_identity_suite_reports_product_failures(monkeypatch):
    # a word product that drops one term of every result with several fails
    # both transfer identities, which call the product kernel directly
    from twograph import algebra

    true_product = algebra._product

    def broken_product(graph, left, right):
        out = true_product(graph, left, right)
        if len(out) > 1:
            del out[next(iter(out))]
        return out

    monkeypatch.setattr(algebra, "_product", broken_product)
    checks = identity_suite(flip_graph(2, 2), max_degree=(1, 1), seed=0)
    assert [(c.cases, c.passed) for c in checks] == [
        (4, True),
        (4, True),
        (1, False),
        (626, False),
        (225, True),
        (100, True),
        (4, True),
        (81, True),
        (16, True),
        (2, True),
        (25, True),
        (25, True),
    ]
    by_name = {c.name: c for c in checks}
    assert by_name["transfer-identity-generators"].detail == (
        "counterexample: n=(1, 0), a=1*s[e]s[e]*, b=1*s[e]s[e]*"
    )
    assert by_name["transfer-identity-all-degrees"].detail == (
        "counterexample: n=(0, 1), a=1*s[e]s[e]*, b=1*s[e]s[e]*"
    )


def test_identity_suite_transfer_identity_scales_by_the_shift_denominator(monkeypatch):
    # a shift that halves its result at degree (0, 1) has denominator 2 there;
    # the transfer identity must still see that its two sides differ
    from twograph import algebra

    true_shift = algebra.shift

    def halved_shift(degree, element):
        result = true_shift(degree, element)
        return Fraction(1, 2) * result if tuple(degree) == (0, 1) else result

    monkeypatch.setattr(algebra, "shift", halved_shift)
    checks = identity_suite(flip_graph(2, 2), max_degree=(1, 1), seed=0)
    detail = "counterexample: n=(0, 1), a=1*s[e]s[e]*, b=1*s[e]s[e]*"
    for check in checks[2:4]:
        assert (check.cases, check.passed, check.detail) == (626, False, detail)


def test_identity_suite_covariance_detects_a_shift_denominator(monkeypatch):
    # a halved shift at (0, 1) gives the looked-up elements denominator 2;
    # covariance scales both sides by it and fails at the first red word
    from twograph import algebra

    true_shift = algebra.shift

    def halved_shift(degree, element):
        result = true_shift(degree, element)
        return Fraction(1, 2) * result if tuple(degree) == (0, 1) else result

    monkeypatch.setattr(algebra, "shift", halved_shift)
    checks = identity_suite(flip_graph(2, 2), max_degree=(1, 1), seed=0)
    covariance = next(c for c in checks if c.name == "covariance")
    assert (covariance.cases, covariance.passed, covariance.detail) == (
        2,
        False,
        "counterexample: (Path('r0'), Path('r0'))",
    )


def test_identity_suite_covariance_table_does_not_outlive_its_call(monkeypatch):
    # the covariance table is local to one suite call: a run under a broken
    # shift leaves nothing behind for the next run on the same graph
    from twograph import algebra

    g = flip_graph(2, 2)
    true_shift = algebra.shift

    def broken_shift(degree, element):
        result = true_shift(degree, element)
        return 2 * result if tuple(degree) == (0, 1) else result

    monkeypatch.setattr(algebra, "shift", broken_shift)
    broken = identity_suite(g, max_degree=(1, 1), seed=0)
    assert not next(c for c in broken if c.name == "covariance").passed
    monkeypatch.undo()
    checks = identity_suite(g, max_degree=(1, 1), seed=0)
    assert len(checks) == 12
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_identity_suite_transfer_caches_do_not_outlive_their_scope(monkeypatch):
    # the word transfers are cached for one degree, check or level of one
    # suite call: a run under a broken transfer kernel leaves nothing behind
    # for the next run on the same graph
    from twograph import algebra

    g = flip_graph(2, 2)
    monkeypatch.setattr(algebra, "_transfer", _doubled_at((1, 0), algebra._transfer))
    broken = identity_suite(g, max_degree=(1, 1), seed=0)
    cached = ("transfer-action", "transfer-section", "module-orthonormal")
    assert not any(c.passed for c in broken if c.name in cached)
    monkeypatch.undo()
    checks = identity_suite(g, max_degree=(1, 1), seed=0)
    assert len(checks) == 12
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_identity_suite_passes_a_shift_written_over_a_denominator(monkeypatch):
    # adding a multiple of 1 - shift(n, 1), which equals zero, keeps every
    # shift's value but writes it over denominator 2 (zero inner products) or
    # 3 (the others), so covariance scales each side's terms by their share
    # of the lcm 6; every check must still pass
    from twograph import algebra

    g = flip_graph(2, 2)
    true_shift = algebra.shift

    def padded_shift(degree, element):
        one = GradedElement.one(element.graph)
        share = Fraction(1, 2) if not element.nums else Fraction(1, 3)
        return true_shift(degree, element) + share * (one + (-1) * true_shift(degree, one))

    monkeypatch.setattr(algebra, "shift", padded_shift)
    assert padded_shift((1, 0), GradedElement.zero(g)).den == 2
    assert padded_shift((1, 0), GradedElement.one(g)).den == 3
    checks = identity_suite(g, max_degree=(1, 1), seed=0)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
