"""Kernel arithmetic, transfer averages and classification on groups."""

import random
import re
import sys
from fractions import Fraction

import pytest

from twograph import (
    FiniteAbelian,
    GroupError,
    Padic,
    Solenoid,
    TableSizeError,
    Torus,
    check_conditions,
    classify,
    dual_transfer,
    group_from_json,
    group_to_json,
    image_index,
    ker_size,
    power_pullback,
    transfer_eval,
)
from twograph import groups

from _oracles import (
    character_transfer_on_subgroup,
    pullback_by_listing,
    transfer_by_listing,
)


# -- kernel sizes -----------------------------------------------------------------


def test_ker_torus_power_law():
    assert ker_size(Torus(2), 3) == 9
    for rank in (1, 2, 3):
        for a in range(1, 21):
            assert ker_size(Torus(rank), a) == a**rank


def test_ker_solenoid_drops_recurring_primes():
    dyadic = Solenoid(infinite=(2,))
    assert ker_size(dyadic, 6) == 3
    assert ker_size(dyadic, 8) == 1
    assert ker_size(dyadic, 5) == 5


def test_ker_solenoid_ignores_finite_multiplicities():
    s = Solenoid(finite={3: 5}, infinite=(2,))
    assert ker_size(s, 12) == 3
    assert ker_size(s, 9) == 9


def test_ker_finite_counts_solutions():
    z4 = FiniteAbelian([4])
    assert ker_size(z4, 2) == 2
    counted = sum(1 for x in z4.elements() if z4.scale(2, x) == z4.zero())
    assert counted == 2


def test_ker_finite_matches_enumeration():
    group = FiniteAbelian([2, 4])
    for a in range(1, 9):
        counted = sum(
            1 for x in group.elements() if group.scale(a, x) == group.zero()
        )
        assert ker_size(group, a) == counted


def test_ker_padic_injective():
    assert ker_size(Padic(3), 18) == 1


# -- image indices -----------------------------------------------------------------


def test_index_padic_valuation():
    assert image_index(Padic(3), 18) == 9
    assert image_index(Padic(2), 12) == 4
    assert image_index(Padic(5), 6) == 1


def test_index_divisible_groups():
    assert image_index(Torus(3), 7) == 1
    assert image_index(Solenoid(infinite=(2,)), 10) == 1


def test_index_finite_equals_kernel():
    z4 = FiniteAbelian([4])
    assert image_index(z4, 2) == 2
    image = {z4.scale(2, x) for x in z4.elements()}
    assert len(z4.elements()) // len(image) == 2


# -- system conditions ---------------------------------------------------------------


def test_conditions_z2_multiplicativity_fails_at_2_2():
    report = check_conditions(FiniteAbelian([2]))
    assert report.finite_index.status == "holds"
    assert report.finite_kernels.status == "holds"
    assert report.multiplicative_kernels.status == "fails"
    assert report.multiplicative_kernels.witness == (2, 2)


def test_conditions_torus_all_hold():
    report = check_conditions(Torus(2))
    assert report.finite_index.status == "holds"
    assert report.finite_kernels.status == "holds"
    assert report.multiplicative_kernels.status == "holds"


def test_conditions_solenoid_multiplicative():
    s = Solenoid(infinite=(2,))
    report = check_conditions(s)
    assert report.multiplicative_kernels.status == "holds"
    for a in range(1, 51):
        for b in range(1, 51):
            assert ker_size(s, a * b) == ker_size(s, a) * ker_size(s, b)


def test_conditions_torus_kernels_multiplicative_range():
    t = Torus(3)
    for a in range(1, 51):
        for b in range(1, 51):
            assert ker_size(t, a * b) == ker_size(t, a) * ker_size(t, b)


def test_conditions_trivial_group_passes_range():
    report = check_conditions(FiniteAbelian([1]))
    assert report.multiplicative_kernels.status == "holds-on-tested-range"


@pytest.mark.parametrize("report", [check_conditions, classify])
@pytest.mark.parametrize("group", [FiniteAbelian([4]), Torus(1)])
def test_empty_test_range_raises(report, group):
    with pytest.raises(GroupError, match=r"test range range\(1, 1\) has no exponents"):
        report(group, range(1, 1))


# -- transfer averages ------------------------------------------------------------------


def test_transfer_indicator_on_z4():
    z4 = FiniteAbelian([4])
    f = [0, 1, 0, 0]
    values = transfer_eval(z4, 2, f)
    assert values == [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(0)]


def test_transfer_constants_give_image_indicator():
    z6 = FiniteAbelian([6])
    values = transfer_eval(z6, 2, [1] * 6)
    image = {z6.index_of(z6.scale(2, x)) for x in z6.elements()}
    assert values == [Fraction(1) if i in image else Fraction(0) for i in range(6)]


def test_transfer_exponent_one_is_identity():
    z5 = FiniteAbelian([5])
    f = [Fraction(k, 3) for k in range(5)]
    assert transfer_eval(z5, 1, f) == f


def test_transfer_rejects_short_table():
    with pytest.raises(TableSizeError):
        transfer_eval(FiniteAbelian([4]), 2, [1, 2])


def _indicators(order):
    return [[1 if i == j else 0 for i in range(order)] for j in range(order)]


def test_transfer_checks_size_before_listing_elements(monkeypatch):
    def listed(self):
        raise AssertionError("elements listed before the size check")

    monkeypatch.setattr(FiniteAbelian, "elements", listed)
    huge = FiniteAbelian([10**12])
    for evaluate in (transfer_eval, power_pullback):
        with pytest.raises(TableSizeError, match="table has 1 entries, group has 10{12}$"):
            evaluate(huge, 2, [0])


def test_transfer_law_on_cyclic_groups():
    # transfer(a, pullback(a, f) * h) == f * transfer(a, h), pointwise
    for order in range(1, 9):
        group = FiniteAbelian([order])
        tables = _indicators(order)
        for a in range(1, 7):
            for f in tables:
                af = power_pullback(group, a, f)
                for h in tables:
                    product = [x * y for x, y in zip(af, h)]
                    lhs = transfer_eval(group, a, product)
                    rhs = [
                        x * y
                        for x, y in zip(f, transfer_eval(group, a, h))
                    ]
                    assert lhs == [Fraction(v) for v in rhs]


def test_transfer_semigroup_matches_kernel_multiplicativity():
    # composing transfers agrees with the combined transfer exactly on
    # the exponent pairs where kernel sizes multiply
    for order in range(1, 9):
        group = FiniteAbelian([order])
        tables = _indicators(order)
        for a in range(1, 7):
            for b in range(1, 7):
                multiplicative = ker_size(group, a * b) == ker_size(
                    group, a
                ) * ker_size(group, b)
                agree = all(
                    transfer_eval(group, a, transfer_eval(group, b, f))
                    == transfer_eval(group, a * b, f)
                    for f in tables
                )
                if multiplicative:
                    assert agree, (order, a, b)
                else:
                    assert not agree, (order, a, b)


_ENTRIES = (
    0, 1, -2, 7, "1/2", "-3/4", "5", "1/2", Fraction(2, 3), Fraction(-5, 6), Fraction(4)
)


@pytest.mark.parametrize("factors", [[], [1], [2, 4], [3, 3], [2, 2, 4]])
def test_transfer_and_pullback_match_the_listing_oracle(factors):
    # ints, repeated strings and Fractions mixed in one table
    group = FiniteAbelian(factors)
    rng = random.Random(str(factors))
    for a in (1, 2, 3, 4, 5, 6, 8, 12):
        for _ in range(4):
            table = [rng.choice(_ENTRIES) for _ in range(group.order)]
            values = transfer_eval(group, a, table)
            assert values == transfer_by_listing(factors, a, table), (a, table)
            assert all(type(v) is Fraction for v in values)
            pulled = power_pullback(group, a, table)
            assert pulled == pullback_by_listing(factors, a, table), (a, table)
            assert all(type(v) is Fraction for v in pulled)


@pytest.mark.parametrize("evaluate", [transfer_eval, power_pullback])
def test_true_after_equal_entries_is_rejected_at_its_position(evaluate):
    # the parsed-entry memo must not serve True the entry of 1
    table = [1, Fraction(1), "1", True]
    with pytest.raises(GroupError, match=r"^table entry 3 is not a rational: True$"):
        evaluate(FiniteAbelian([4]), 1, table)


@pytest.mark.parametrize("evaluate", [transfer_eval, power_pullback])
def test_zero_denominator_is_not_a_rational(evaluate):
    with pytest.raises(GroupError, match=r"^table entry 0 is not a rational: '1/0'$"):
        evaluate(FiniteAbelian([2]), 2, ["1/0", 1])


@pytest.mark.parametrize("evaluate", [transfer_eval, power_pullback])
def test_first_bad_entry_in_table_order_is_named(evaluate):
    # entry 1 lies off the image of the doubling map on Z2, and is checked anyway
    with pytest.raises(GroupError, match=r"^table entry 1 is not a rational: 0.5$"):
        evaluate(FiniteAbelian([2]), 2, [1, 0.5])


def test_transfer_reads_equal_values_alike_whatever_their_spelling():
    # Z2 x Z4 under a = 2 has kernel 4: every image point averages four entries
    group = FiniteAbelian([2, 4])
    table = ["1/2", "2/4", "0.5", 1, "1", Fraction(1, 2), "5e-1", "1"]
    values = transfer_eval(group, 2, table)
    assert values == transfer_by_listing([2, 4], 2, table)
    assert values == [Fraction(5, 8), 0, Fraction(3, 4), 0, 0, 0, 0, 0]


@pytest.mark.parametrize("factors, a", [([6, 12], 2), ([6, 12], 3), ([6, 12], 6), ([8], 4)])
def test_transfer_with_many_repeated_sums_matches_the_listing_oracle(factors, a):
    group = FiniteAbelian(factors)
    assert ker_size(group, a) > 1
    rng = random.Random(a)
    table = [rng.choice([0, 1, "1", "1/3", "2/6", -1]) for _ in range(group.order)]
    values = transfer_eval(group, a, table)
    assert values == transfer_by_listing(factors, a, table)
    assert all(type(v) is Fraction for v in values)
    # equal outputs are one shared Fraction
    assert len(set(values)) < len(values)
    assert len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize("evaluate", [transfer_eval, power_pullback])
@pytest.mark.parametrize(
    "table, position",
    [
        (["1/2", "1/2", "1/2", "x"], 3),
        (["1/2", True, "1/2", "x"], 1),
        ([1, "1", "1", 0.5], 3),
        (["1", "1", Fraction(1), "1/0"], 3),
        (["1", "1e5000", "1", "1"], 1),
    ],
)
def test_every_entry_is_checked_in_table_order(evaluate, table, position):
    # on Z4 under a = 2, entries 1 and 3 lie off the image and are never read
    with pytest.raises(GroupError, match=rf"^table entry {position} is not a rational: "):
        evaluate(FiniteAbelian([4]), 2, table)


@pytest.mark.parametrize("text", ["1e5000", "1E+5000", "-2.5e-5000", "1e3000000", "1e" + "9" * 5000])
def test_huge_decimal_exponent_is_refused_before_it_is_expanded(monkeypatch, text):
    def expanded(value, *args):
        raise AssertionError(f"Fraction({value!r}) was called")

    monkeypatch.setattr(groups, "Fraction", expanded)
    with pytest.raises(GroupError, match=rf"^table entry 0 is not a rational: '{re.escape(text)}'$"):
        transfer_eval(FiniteAbelian([1]), 1, [text])


def test_exponent_limit_is_the_interpreters_digit_limit():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert transfer_eval(FiniteAbelian([1]), 1, ["1e640"]) == [10**640]
        with pytest.raises(GroupError, match="table entry 0 is not a rational"):
            transfer_eval(FiniteAbelian([1]), 1, ["1e641"])
        sys.set_int_max_str_digits(0)  # no limit
        assert transfer_eval(FiniteAbelian([1]), 1, ["1e5000"]) == [10**5000]
    finally:
        sys.set_int_max_str_digits(limit)


# -- dual transfer against the root-of-unity oracle --------------------------------------


def test_dual_transfer_examples():
    assert dual_transfer(2, 4) == 2
    assert dual_transfer(2, 3) is None
    assert dual_transfer(2, 0) == 0
    assert dual_transfer(3, (6, -9)) == (2, -3)
    assert dual_transfer(3, (6, 5)) is None


def test_dual_transfer_matches_character_sums():
    for a in range(1, 7):
        for x in range(-12, 13):
            claimed = dual_transfer(a, x)
            assert character_transfer_on_subgroup(a, x, claimed), (a, x)


def test_character_oracle_rejects_wrong_claims():
    assert not character_transfer_on_subgroup(2, 4, None)
    assert not character_transfer_on_subgroup(2, 4, 1)
    assert not character_transfer_on_subgroup(2, 3, 1)


# -- classification ---------------------------------------------------------------------------


def test_classify_torus():
    report = classify(Torus(3))
    assert report.connected and report.torsion_interior_empty
    assert report.verdict == "purely infinite and simple"
    assert report.verdict_computed


def test_classify_solenoid():
    report = classify(Solenoid(finite={3: 2}, infinite=(2, 5)))
    assert report.connected
    assert report.verdict == "purely infinite and simple"


def test_classify_finite_group():
    report = classify(FiniteAbelian([4]))
    assert not report.connected
    assert not report.torsion_interior_empty
    assert "no simplicity claim" in report.verdict


def test_classify_padic_reports_literature_structure():
    report = classify(Padic(3))
    assert not report.connected
    assert report.torsion_interior_empty
    assert not report.verdict_computed
    assert "not simple" in report.verdict


# -- serialization ------------------------------------------------------------------------------


def test_group_json_round_trip():
    specs = [
        FiniteAbelian([2, 4]),
        Torus(2),
        Solenoid(finite={3: 1}, infinite=(2,)),
        Padic(7),
    ]
    for spec in specs:
        assert group_from_json(group_to_json(spec)) == spec


def test_group_validation():
    with pytest.raises(GroupError):
        FiniteAbelian([3, 4])
    with pytest.raises(GroupError):
        Solenoid(finite={4: 1})
    with pytest.raises(GroupError):
        Padic(6)
    with pytest.raises(GroupError):
        Solenoid(finite={2: 1}, infinite=(2,))
