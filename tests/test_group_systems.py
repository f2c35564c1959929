"""Kernel arithmetic, transfer averages and classification on groups."""

import contextlib
import io
import json
import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twograph import (
    FiniteAbelian,
    GroupError,
    Padic,
    Solenoid,
    TableSizeError,
    Torus,
    check_conditions,
    classify,
    group_from_json,
    group_to_json,
    ker_size,
    transfer_eval,
)
from twograph import groups
from twograph.cli import main

from _oracles import (
    kernel_by_listing,
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
    assert kernel_by_listing([4], 2) == 2


def test_ker_finite_matches_enumeration():
    group = FiniteAbelian([2, 4])
    for a in range(1, 9):
        assert ker_size(group, a) == kernel_by_listing([2, 4], a)


def test_ker_padic_injective():
    assert ker_size(Padic(3), 18) == 1


@pytest.mark.parametrize(
    "evaluate",
    [lambda a: ker_size(Torus(2), a), lambda a: ker_size(FiniteAbelian([4]), a),
     lambda a: transfer_eval(FiniteAbelian([4]), a, [1, 2, 3, 4])],
    ids=["ker_size-torus", "ker_size-finite", "transfer_eval"],
)
@pytest.mark.parametrize("a", [2.5, 2.0, True, "3", None])
def test_exponent_that_is_not_an_int_is_named(evaluate, a):
    # a float is not read as an exponent (2.5 gave a kernel of 6.25), nor
    # True as 1, and a str or None is a GroupError, not a TypeError
    with pytest.raises(GroupError, match=f"^a must be an integer, got {re.escape(repr(a))}$"):
        evaluate(a)


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


def _finite_groups(max_order):
    """Invariant factors d1 | d2 | ... (each at least 2) of every finite
    abelian group of order at most ``max_order``, the trivial group first."""
    found = [[]]
    for factors in found:
        last = factors[-1] if factors else 1
        room = max_order // math.prod(factors)
        found.extend(factors + [d] for d in range(max(last, 2), room + 1, last))
    return found


def _first_non_composing_pair(factors, exponents):
    """The first (a, b), in lexicographic order, at which L_a(L_b f) and
    L_ab f differ on some indicator table f, by listing the elements."""
    tables = _indicators(math.prod(factors))
    for a in exponents:
        for b in exponents:
            for f in tables:
                twice = transfer_by_listing(factors, a, transfer_by_listing(factors, b, f))
                if twice != transfer_by_listing(factors, a * b, f):
                    return (a, b)
    return None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_finite_groups(16)))
def test_g3_verdict_matches_transfer_composition(factors):
    # Larsen's transfer operators compose, L_a L_b = L_ab, exactly when
    # |ker ab| = |ker a| |ker b|; the oracle finds G3's first failing pair
    # from the transfers alone, without kernel arithmetic
    g3 = check_conditions(FiniteAbelian(factors)).multiplicative_kernels
    witness = _first_non_composing_pair(factors, range(1, 13))
    if witness is None:
        assert g3.status == "holds-on-tested-range"
    else:
        assert (g3.status, g3.witness) == ("fails", witness)


def _g3_by_listing(factors, bound, kernels):
    """G3's verdict from a scan of every pair a, b in 1..``bound`` in
    lexicographic order, with kernel sizes counted by listing the elements
    (``kernels`` memoizes them across calls)."""

    def size(n):
        if n not in kernels:
            kernels[n] = kernel_by_listing(factors, n)
        return kernels[n]

    exponents = range(1, bound + 1)
    for a in exponents:
        for b in exponents:
            if size(a * b) != size(a) * size(b):
                return groups.ConditionVerdict("fails", witness=(a, b))
    span = f"all pairs with a, b in 1..{bound}"
    return groups.ConditionVerdict("holds-on-tested-range", detail=span)


@pytest.mark.parametrize("factors", _finite_groups(32), ids=str)
def test_g3_verdict_matches_a_scan_of_listed_kernels(factors):
    # every bound 1..40, below and above the largest invariant factor, so
    # that neither the kernel sizes check_conditions keeps for one call nor
    # its scan bounded by the group can change the first witness
    group = FiniteAbelian(factors)
    kernels = {}
    for bound in range(1, 41):
        g3 = check_conditions(group, bound).multiplicative_kernels
        assert g3 == _g3_by_listing(factors, bound, kernels), bound


def test_g3_scan_of_a_range_is_bounded_by_the_group():
    # a kernel size depends only on the exponent mod the largest invariant
    # factor, so a bound of 10^9 exponents is decided from the first few
    g3 = check_conditions(FiniteAbelian([4]), 10**9).multiplicative_kernels
    assert (g3.status, g3.witness) == ("fails", (2, 4))
    g3 = check_conditions(FiniteAbelian([1]), 10**9).multiplicative_kernels
    assert (g3.status, g3.detail) == (
        "holds-on-tested-range",
        "all pairs with a, b in 1..1000000000",
    )


@pytest.mark.parametrize("report", [check_conditions, classify])
@pytest.mark.parametrize("group", [FiniteAbelian([4]), Torus(1)])
def test_empty_test_range_raises(report, group):
    with pytest.raises(GroupError, match=r"test range range\(1, 1\) has no exponents"):
        report(group, 0)


@pytest.mark.parametrize("report", [check_conditions, classify])
@pytest.mark.parametrize("group", [FiniteAbelian([4]), Torus(1)])
@pytest.mark.parametrize("bound", [[2, 4, 0], [3, 0], True, 2.5, range(1, 5)])
def test_bound_that_is_not_an_int_is_named(report, group, bound):
    # the bound is one int, 1..bound; a list, a range, a bool or a float
    # is refused alike, whatever exponents it holds
    with pytest.raises(GroupError, match=f"^bound must be an integer, got {re.escape(repr(bound))}$"):
        report(group, bound)


# -- transfer averages ------------------------------------------------------------------


def test_transfer_indicator_on_z4():
    z4 = FiniteAbelian([4])
    f = [0, 1, 0, 0]
    values = transfer_eval(z4, 2, f)
    assert values == [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(0)]


def test_transfer_constants_give_image_indicator():
    z6 = FiniteAbelian([6])
    values = transfer_eval(z6, 2, [1] * 6)
    image = {2 * x % 6 for x in range(6)}
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
    # any loop over a factor's residues in groups.py would meet this range
    def listed(*args):
        raise AssertionError("elements listed before the size check")

    monkeypatch.setattr(groups, "range", listed, raising=False)
    huge = FiniteAbelian([10**12])
    with pytest.raises(TableSizeError, match="table has 1 entries, group has 10{12}$"):
        transfer_eval(huge, 2, [0])


_ENTRIES = (
    0, 1, -2, 7, "1/2", "-3/4", "5", "1/2", Fraction(2, 3), Fraction(-5, 6), Fraction(4)
)


@pytest.mark.parametrize("factors", [[], [1], [2, 4], [3, 3], [2, 2, 4]])
def test_transfer_and_pullback_match_the_listing_oracle(factors):
    # ints, repeated strings and Fractions mixed in one table; the transfer
    # law L(pullback(f) * h) == f * L(h) holds with the listed pullback
    group = FiniteAbelian(factors)
    rng = random.Random(str(factors))
    # d_k makes the kernel the whole group; 2*d_k + 1 lies past d_k; the
    # huge exponent checks the inverse and slice arithmetic mod each factor
    top = max(factors, default=1)
    for a in (1, 2, 3, 4, 5, 6, 8, 12, top, 2 * top + 1, 10**30 + 1):
        for _ in range(4):
            table = [rng.choice(_ENTRIES) for _ in range(group.order)]
            values = transfer_eval(group, a, table)
            assert values == transfer_by_listing(factors, a, table), (a, table)
            assert all(type(v) is Fraction for v in values)
            pulled = pullback_by_listing(factors, a, table)
            h = [rng.choice(_ENTRIES) for _ in range(group.order)]
            product = [x * Fraction(y) for x, y in zip(pulled, h)]
            rhs = [Fraction(x) * y for x, y in zip(table, transfer_eval(group, a, h))]
            assert transfer_eval(group, a, product) == rhs, (a, table, h)


@pytest.mark.parametrize("evaluate", [transfer_eval])
def test_true_after_equal_entries_is_rejected_at_its_position(evaluate):
    # the parsed-entry memo must not serve True the entry of 1
    table = [1, Fraction(1), "1", True]
    with pytest.raises(GroupError, match=r"^table entry 3 is not a rational: True$"):
        evaluate(FiniteAbelian([4]), 1, table)


@pytest.mark.parametrize("evaluate", [transfer_eval])
def test_zero_denominator_is_not_a_rational(evaluate):
    with pytest.raises(GroupError, match=r"^table entry 0 is not a rational: '1/0'$"):
        evaluate(FiniteAbelian([2]), 2, ["1/0", 1])


@pytest.mark.parametrize("evaluate", [transfer_eval])
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


def _digits(text: str) -> bool:
    return text != "" and all(c in "0123456789" for c in text)


def _grammar_reads(entry) -> bool:
    """Whether a table entry is read, by the grammar written out by hand:
    an int, a Fraction, or ``-?D(/D | (.D)?([eE][-+]?D)?)`` with D one or
    more ASCII digits, a denominator that is not zero and an exponent no
    larger in magnitude than the interpreter's digit limit."""
    if type(entry) is int or isinstance(entry, Fraction):
        return True
    if type(entry) is not str:
        return False
    body = entry[1:] if entry.startswith("-") else entry
    if "/" in body:
        num, _, den = body.partition("/")
        return _digits(num) and _digits(den) and int(den) != 0
    mantissa, e, exponent = body.replace("E", "e").partition("e")
    whole, dot, decimals = mantissa.partition(".")
    if not _digits(whole) or (dot and not _digits(decimals)):
        return False
    if not e:
        return True
    exponent = exponent[1:] if exponent[:1] in ("-", "+") else exponent
    limit = sys.get_int_max_str_digits()
    return _digits(exponent) and not (limit and int(exponent) > limit)


# Spellings inside and outside the grammar: the plain ASCII forms, the
# decimals and exponents, and the signs, underscores, non-ASCII digits,
# whitespace and bare points that Fraction reads on some interpreters
# and the grammar refuses.
_SPELLED_ENTRIES = st.one_of(
    st.integers(-30, 30),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 12)),
    st.builds("+{}".format, st.integers(0, 30)),
    st.sampled_from([
        "-0", "007", "+0/3", "-6/4", "2.5", "-0.125", ".5", "5.", "1e2", "2.5E-3", "-3e+1",
        "1_000", "1_0/2_0", "\u0663/4", "\u0661\u0662", " 3/4 ", "\t-2\n", " +5", "3 / 4",
    ]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_finite_groups(64)),
    st.integers(1, 12),
    st.data(),
)
def test_transfer_matches_the_listing_oracle_on_every_spelling(factors, a, data):
    order = math.prod(factors)
    table = data.draw(st.lists(_SPELLED_ENTRIES, min_size=order, max_size=order))
    group = FiniteAbelian(factors)
    bad = [position for position, entry in enumerate(table) if not _grammar_reads(entry)]
    if bad:
        with pytest.raises(GroupError, match=rf"^table entry {bad[0]} is not a rational: "):
            transfer_eval(group, a, table)
        return
    assert transfer_eval(group, a, table) == transfer_by_listing(factors, a, table)


@pytest.mark.parametrize("evaluate", [transfer_eval])
@pytest.mark.parametrize(
    "text",
    ["3/-4", "3/ 4", "1/0", "", "9" * 5000, "9" * 5000 + "/7", "1/" + "9" * 5000],
    ids=["negative-denominator", "inner-space", "zero-denominator", "empty",
         "long-integer", "long-numerator", "long-denominator"],
)
def test_texts_fraction_refuses_are_refused_at_their_position(evaluate, text):
    # outside the grammar, or with a zero denominator or more digits than
    # the interpreter converts; Fraction reads "3/ 4" from Python 3.12 on
    message = rf"^table entry 0 is not a rational: {re.escape(repr(text))}$"
    with pytest.raises(GroupError, match=message):
        evaluate(FiniteAbelian([]), 1, [text])


@pytest.mark.parametrize(
    "text",
    ["+5", "+0/3", "\u0661", "\u0663/4", "\uff11", "1_000", "1_0/2_0", " 3/4 ", "\t-2\n",
     "3 / 4", "3 /4", ".5", "5.", "-.5", "5.e1", "1e2/3", "1.5/2", "1e", "e2", "1e+", "1e_2",
     "--1", "0x10", "nan", "inf", "1/-2"],
)
def test_spellings_outside_the_grammar_are_refused_at_their_position(text):
    # Fraction reads the first fifteen on some interpreter; each is refused
    # on every one, at its own position, whatever comes before it
    group = FiniteAbelian([4])
    message = rf"^table entry 2 is not a rational: {re.escape(repr(text))}$"
    for table in (["1/2", 1, text, "1"], ["1/2", Fraction(1), text, "1"]):
        with pytest.raises(GroupError, match=message):
            transfer_eval(group, 2, table)


def test_decimal_strings_are_never_handed_to_fraction(monkeypatch):
    texts = ["2.5", "-0.125", "1e2", "2.5E-3", "-3e+1", "1.50e-1", "007", "-0", "-6/4"]
    expected = [str(Fraction(text)) for text in texts]

    def refused(value, *args):
        raise AssertionError(f"Fraction({value!r}) was called")

    monkeypatch.setattr(groups, "Fraction", refused)
    assert transfer_eval(FiniteAbelian([9]), 1, texts, _text=True) == expected


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-/ _.eE\u0663\u00b2", max_size=8))
def test_short_texts_are_read_by_the_grammar(text):
    if _grammar_reads(text):
        assert transfer_eval(FiniteAbelian([]), 1, [text]) == [Fraction(text)]
    else:
        with pytest.raises(GroupError, match=r"^table entry 0 is not a rational: "):
            transfer_eval(FiniteAbelian([]), 1, [text])


@pytest.mark.parametrize("evaluate", [transfer_eval])
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


# -- transfer values as text --------------------------------------------------------------

_TABLE_ENTRIES = st.one_of(
    st.integers(-30, 30),
    st.just(0),
    st.integers(-(10**60), 10**60),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(1, 12)),
    st.builds("{}/{}".format, st.integers(-(10**40), 10**40), st.integers(1, 10**6)),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_finite_groups(64)), st.integers(1, 14), st.data())
def test_cli_values_are_the_text_of_the_transfer_fractions(factors, a, data):
    # a small palette makes repeated entries, and so repeated sums, common
    order = math.prod(factors)
    palette = data.draw(st.lists(_TABLE_ENTRIES, min_size=1, max_size=6))
    entry = st.one_of(st.sampled_from(palette), _TABLE_ENTRIES)
    table = data.draw(st.lists(entry, min_size=order, max_size=order))
    argv = ["group", "transfer", "--group", json.dumps({"kind": "finite", "factors": factors}),
            "--a", str(a), "--table", json.dumps(table)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    texts = [str(v) for v in transfer_eval(FiniteAbelian(factors), a, table)]
    assert json.loads(out.getvalue()) == {"a": a, "values": texts}
    assert texts == [str(v) for v in transfer_by_listing(factors, a, table)]
    assert transfer_eval(FiniteAbelian(factors), a, table, _text=True) == texts


# Each entry stands at positions 3 and 5 of a table on Z8, after a 1: the
# first bad position must not depend on whether the table holds only ints
# and strings (each its own key) or also a Fraction.
_AFTER_ONE = [True, 1.0, None, [1], {"x": 1}, "1/0", "١", "1e5000", "+1"]


@pytest.mark.parametrize("text", [False, True], ids=["fractions", "text"])
@pytest.mark.parametrize(
    "entry", _AFTER_ONE,
    ids=["true", "float", "null", "list", "dict", "zero-denominator", "arabic-indic-one",
         "huge-exponent", "plus-one"],
)
def test_first_bad_position_is_the_same_on_both_paths(entry, text):
    group = FiniteAbelian([8])
    outcomes = []
    for filler in (1, Fraction(1)):
        table = ["1/2", filler, 1, entry, "1/2", entry, 1, "1"]
        try:
            outcomes.append(transfer_eval(group, 1, table, _text=text))
        except GroupError as exc:
            outcomes.append(str(exc))
    assert outcomes == [f"table entry 3 is not a rational: {entry!r}"] * 2


def test_text_values_are_shared_and_fractions_are_built_only_without_the_flag(monkeypatch):
    group = FiniteAbelian([6, 12])
    table = [["1/3", 2, "-5/6", 0][i % 4] for i in range(group.order)]
    values = transfer_eval(group, 2, table)
    texts = transfer_eval(group, 2, table, _text=True)
    assert texts == [str(v) for v in values]
    assert len({id(t) for t in texts}) == len(set(texts)) < len(texts)

    def refused(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(groups, "Fraction", refused)
    assert transfer_eval(group, 2, table, _text=True) == texts


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


@pytest.mark.parametrize(
    "build, message",
    [
        # a float or a string is not read as an int, nor a bool as 0 or 1
        (lambda: FiniteAbelian([2.9]), "factors must be a list of integers, got [2.9]"),
        (lambda: FiniteAbelian(["4"]), "factors must be a list of integers, got ['4']"),
        (lambda: FiniteAbelian([True]), "factors must be a list of integers, got [True]"),
        (lambda: FiniteAbelian(4), "factors must be a list of integers, got 4"),
        (lambda: Torus(2.5), "rank must be an integer, got 2.5"),
        (lambda: Torus(True), "rank must be an integer, got True"),
        (lambda: Padic(2.0), "p must be an integer, got 2.0"),
        (lambda: Padic(True), "p must be an integer, got True"),
        (lambda: Solenoid(finite={3: 1.0}),
         "finite must map primes to integer multiplicities, got {3: 1.0}"),
        (lambda: Solenoid(finite={True: 1}),
         "finite must map primes to integer multiplicities, got {True: 1}"),
        (lambda: Solenoid(finite=5), "finite must map primes to integer multiplicities, got 5"),
        (lambda: Solenoid(infinite=(2.0,)), "infinite must be a list of integers, got (2.0,)"),
        (lambda: Solenoid(infinite=[False]), "infinite must be a list of integers, got [False]"),
    ],
)
def test_group_fields_are_not_coerced(build, message):
    with pytest.raises(GroupError, match=f"^{re.escape(message)}$"):
        build()


def test_group_fields_take_lists_or_tuples_of_ints():
    assert FiniteAbelian((2, 4)) == FiniteAbelian([2, 4])
    assert FiniteAbelian((2, 4)).factors == (2, 4)
    assert Solenoid([(3, 1)], [5, 2]) == Solenoid({3: 1}, (2, 5))


def test_group_validation():
    with pytest.raises(GroupError):
        FiniteAbelian([3, 4])
    with pytest.raises(GroupError):
        Solenoid(finite={4: 1})
    with pytest.raises(GroupError):
        Padic(6)
    with pytest.raises(GroupError):
        Solenoid(finite={2: 1}, infinite=(2,))


# -- primality of solenoid and p-adic primes ----------------------------------------------------


def test_primality_agrees_with_a_sieve():
    limit = 200_000
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(-3, limit) if groups._is_prime(n) != (n >= 0 and sieve[n])] == []


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # 151 * 751 * 28351, strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 31
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
    ],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not groups._is_prime(n)


def test_large_prime_is_decided_quickly():
    start = time.perf_counter()
    assert groups._is_prime(10**18 + 3)
    assert Padic(10**18 + 3).prime == 10**18 + 3
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [groups._PRIME_LIMIT, 10**40 + 1])
def test_primality_refuses_values_from_the_limit_up(n):
    # the limit is itself a strong pseudoprime to every base the test uses
    message = rf"^cannot decide whether {n} is prime: .* below {groups._PRIME_LIMIT}$"
    with pytest.raises(GroupError, match=message):
        groups._is_prime(n)
    with pytest.raises(GroupError, match=f"cannot decide whether {n} is prime"):
        Solenoid(infinite=(n,))
