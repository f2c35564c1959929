"""Periodicity decision against the brute-force segment oracle."""

import collections
import contextlib
import itertools
import json
import pathlib
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twograph import (
    APERIODIC,
    DEFAULT_PATH_CAP,
    NO_CANDIDATE_PAIRS,
    PERIODIC,
    UNKNOWN,
    BadRangeError,
    Degree,
    DegenerateCountsError,
    GraphError,
    Path,
    PeriodicityVerdict,
    PeriodWitness,
    SizeLimitError,
    TwoGraph,
    candidate_pairing,
    crossed_product_report,
    decide_periodicity,
    double,
    flip_graph,
    minimal_exponents,
    random_two_graph,
    twin_graph,
    verify_period,
)

from twograph import graphs, periodicity
from twograph.periodicity import _aperiodic, _candidate_codes, _pairing_codes

from _oracles import (
    candidate_heads,
    easier_periodic_holds,
    moved_prefixes,
    one_step_holds,
    period_heads,
    randomized_reorder,
    red_first,
    row_or_column_splits,
    tails_classes,
)


# -- minimal exponents -----------------------------------------------------------


def test_minimal_exponents_equal_counts():
    assert minimal_exponents(2, 2) == (1, 1)


def test_minimal_exponents_power_pair():
    assert minimal_exponents(4, 2) == (1, 2)
    assert 4**1 == 2**2


def test_minimal_exponents_coprime():
    assert minimal_exponents(2, 3) is None


def test_minimal_exponents_shared_root():
    assert minimal_exponents(8, 4) == (2, 3)
    assert 8**2 == 4**3


def test_minimal_exponents_same_support_not_proportional():
    assert minimal_exponents(12, 18) is None


def test_minimal_exponents_rejects_degenerate():
    with pytest.raises(DegenerateCountsError):
        minimal_exponents(1, 2)


@pytest.mark.parametrize(
    "n_blue, n_red, message",
    [
        # once an AttributeError from int.bit_length, and True read as 1
        (2.0, 4, "n1 must be an integer, got 2.0"),
        (True, 2, "n1 must be an integer, got True"),
        (4, "2", "n2 must be an integer, got '2'"),
    ],
)
def test_minimal_exponents_refuses_counts_that_are_not_ints(n_blue, n_red, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        minimal_exponents(n_blue, n_red)


def _least_exponents(n_blue, n_red):
    """The least (a, b) with a, b <= 9 and n_blue**a == n_red**b, by trying
    every power; for counts up to 300 every related pair has one."""
    powers = {n_red**b: b for b in range(1, 10)}
    return next(
        ((a, powers[n_blue**a]) for a in range(1, 10) if n_blue**a in powers), None
    )


def test_minimal_exponents_match_the_least_powers_up_to_300():
    related = 0
    for n_blue in range(2, 301):
        for n_red in range(2, 301):
            expected = _least_exponents(n_blue, n_red)
            assert minimal_exponents(n_blue, n_red) == expected, (n_blue, n_red)
            related += expected is not None
    # 299 equal pairs and 104 others, such as (8, 32) and (216, 36)
    assert related == 403


def test_minimal_exponents_on_huge_counts():
    # a prime near 2^61 and its cube: no factoring by trial division
    p = 2**61 - 1
    assert minimal_exponents(p, p**3) == (3, 1)
    assert minimal_exponents(p**3, p) == (1, 3)
    assert minimal_exponents(10**12 + 39, 2) is None
    assert minimal_exponents(2**40, 2**64) == (8, 5)
    assert minimal_exponents(3**20 * 5**20, 15**7) == (7, 20)
    assert minimal_exponents(6**9, 36**4) == (8, 9)


def test_minimal_exponents_all_solutions_are_multiples():
    a0, b0 = minimal_exponents(4, 8)
    for a in range(1, 7):
        for b in range(1, 7):
            if 4**a == 8**b:
                assert a % a0 == 0 and b % b0 == 0 and a // a0 == b // b0


# -- candidate pairing -----------------------------------------------------------


def test_candidate_twin_pairs_indices():
    g = twin_graph(2)
    pairing = candidate_pairing(g, 1, 1)
    assert pairing == {g.blue_path(i): g.red_path(i) for i in range(2)}


def test_candidate_flip_has_none():
    assert candidate_pairing(flip_graph(2, 2), 1, 1) is None


def test_candidate_trivial_graph():
    g = TwoGraph(1, 1, {(0, 0): (0, 0)})
    pairing = candidate_pairing(g, 1, 1)
    assert pairing == {g.blue_path(0): g.red_path(0)}


@pytest.mark.parametrize("a, b", [(-1, -1), (0, 0), (0, 1), (1, 0), (1.5, 1.5)])
def test_candidate_rejects_exponents_that_are_not_positive_integers(a, b):
    with pytest.raises(BadRangeError, match=re.escape(f"(a, b) = {(a, b)}")):
        candidate_pairing(twin_graph(3), a, b)


# -- verification ----------------------------------------------------------------


def test_verify_twin_true():
    g = twin_graph(2)
    pairing = {g.blue_path(i): g.red_path(i) for i in range(2)}
    assert verify_period(g, 1, 1, pairing)


def test_verify_flip_all_bijections_false():
    g = flip_graph(2, 2)
    blues = [g.blue_path(i) for i in range(2)]
    reds = [g.red_path(i) for i in range(2)]
    for perm in itertools.permutations(reds):
        assert not verify_period(g, 1, 1, dict(zip(blues, perm)))


def test_verify_trivial_graph():
    g = TwoGraph(1, 1, {(0, 0): (0, 0)})
    assert verify_period(g, 1, 1, {g.blue_path(0): g.red_path(0)})


def test_verify_rejects_exponents_below_one():
    g = twin_graph(3)
    empty = g.empty_path()
    # the vacuous pairing of the empty paths is not a period
    with pytest.raises(BadRangeError, match=re.escape("(a, b) = (0, 0)")):
        verify_period(g, 0, 0, {empty: empty})
    with pytest.raises(BadRangeError, match=re.escape("(a, b) = (-1, -1)")):
        verify_period(g, -1, -1, {empty: empty})


def _twin_two_pairing(graph) -> dict:
    return {graph.blue_path(i): graph.red_path(i) for i in range(2)}


@pytest.mark.parametrize(
    "change",
    [
        # a blue path missing
        lambda g, pairing: pairing.pop(g.blue_path(1)),
        # a key that is not a Path, standing in for blue path 1
        lambda g, pairing: pairing.update({(1, 0, 1, 0): pairing.pop(g.blue_path(1))}),
        # a key, then a value, of the wrong degree
        lambda g, pairing: pairing.update({g.path("b1 r0"): pairing.pop(g.blue_path(1))}),
        lambda g, pairing: pairing.update({g.blue_path(1): g.path("b1 r1")}),
        # a key on a graph that is not equal to this one
        lambda g, pairing: pairing.update(
            {flip_graph(2, 2).blue_path(1): pairing.pop(g.blue_path(1))}
        ),
        # not injective: both blue paths go to red path 0
        lambda g, pairing: pairing.update({g.blue_path(1): g.red_path(0)}),
        # every blue path paired, and one extra key that is not a Path
        lambda g, pairing: pairing.update({"b1": g.red_path(1)}),
        # not a mapping at all, in place of the pairing: once AttributeErrors
        None,
        [],
    ],
    ids=["missing-blue", "key-not-a-path", "wrong-degree-key", "wrong-degree-value",
         "unequal-graph",
         "not-injective", "extra-key", "none", "list"],
)
def test_verify_rejects_a_pairing_that_is_not_a_bijection(change):
    g = twin_graph(2)
    pairing = _twin_two_pairing(g)
    if callable(change):
        change(g, pairing)
    else:
        pairing = change
    with pytest.raises(GraphError, match="not a bijection"):
        verify_period(g, 1, 1, pairing)


def test_verify_accepts_paths_of_an_equal_but_distinct_graph():
    g, other = twin_graph(2), twin_graph(2)
    assert g is not other and g == other
    pairing = _twin_two_pairing(g)
    # an equal key would keep the old key object, so remove it first
    del pairing[g.blue_path(1)]
    pairing[other.blue_path(1)] = other.red_path(1)
    assert any(mu.graph is other for mu in pairing)
    assert verify_period(g, 1, 1, pairing)


def test_verify_caps_the_paths_it_checks():
    g = twin_graph(2)
    k = DEFAULT_PATH_CAP.bit_length()
    assert 2**k > DEFAULT_PATH_CAP
    with pytest.raises(SizeLimitError, match=re.escape(f"degree {(k, 0)}")):
        verify_period(g, k, k, {})


def test_verify_rejects_unequal_path_counts():
    # 4 blue paths at (2, 0) but 3 red ones at (0, 1): this pairing covers
    # every red path, so only the counts show it is not a bijection
    g = random_two_graph(2, 3, random.Random(1))
    blues = g.enumerate_paths(Degree(2, 0))
    pairing = {mu: g.red_path(min(i, 2)) for i, mu in enumerate(blues)}
    with pytest.raises(GraphError, match=re.escape("path counts differ at (a, b) = (2, 1)")):
        candidate_pairing(g, 2, 1)
    with pytest.raises(GraphError, match=re.escape("path counts differ at (a, b) = (2, 1)")):
        verify_period(g, 2, 1, pairing)


# -- the decision ----------------------------------------------------------------


def test_decide_twin_periodic():
    verdict = decide_periodicity(twin_graph(2))
    assert verdict.kind == PERIODIC
    witness = verdict.witness
    assert (witness.a, witness.b) == (1, 1)
    g = twin_graph(2)
    assert witness.pairing == {g.blue_path(i): g.red_path(i) for i in range(2)}


def test_decide_flip_aperiodic():
    verdict = decide_periodicity(flip_graph(2, 2), kmax=3)
    assert verdict.kind == APERIODIC
    assert verdict.checked == ((1, 1), (2, 2), (3, 3))


def test_decide_no_candidates():
    verdict = decide_periodicity(flip_graph(2, 3))
    assert verdict.kind == NO_CANDIDATE_PAIRS


def test_decide_unknown_on_tiny_cap():
    verdict = decide_periodicity(flip_graph(2, 2), kmax=3, cap=1)
    assert verdict.kind == UNKNOWN
    assert verdict.is_unknown


@pytest.mark.parametrize("kmax", [0, -1])
def test_decide_rejects_kmax_below_one(kmax):
    with pytest.raises(GraphError, match="kmax must be at least 1"):
        decide_periodicity(twin_graph(2), kmax=kmax)


@pytest.mark.parametrize("kmax", [True, False, 2.5, 2.0, "3", None])
def test_decide_rejects_a_kmax_that_is_not_an_int(kmax):
    # True would run as kmax 1 and print "kmax": true
    with pytest.raises(BadRangeError, match=re.escape(f"kmax must be an integer, got {kmax!r}")):
        decide_periodicity(twin_graph(2), kmax=kmax)
    with pytest.raises(BadRangeError, match="kmax must be an integer"):
        crossed_product_report(twin_graph(2), kmax=kmax)


@pytest.mark.parametrize("cap", [True, 2.5, 10.0, "10"])
def test_a_path_cap_that_is_not_an_int_is_rejected(cap):
    graph = twin_graph(2)
    message = re.escape(f"path cap must be an integer, got {cap!r}")
    with pytest.raises(BadRangeError, match=message):
        graph.check_path_cap(Degree(1, 0), cap)
    with pytest.raises(BadRangeError, match=message):
        decide_periodicity(graph, cap=cap)
    # also when there is no exponent pair, so no cap is ever consulted
    with pytest.raises(BadRangeError, match=message):
        decide_periodicity(flip_graph(2, 3), cap=cap)


@pytest.mark.parametrize("a, b", [(True, True), (1, True), (1.0, 1), (1, 2.0)])
def test_exponents_that_are_not_ints_are_rejected(a, b):
    g = twin_graph(2)
    message = re.escape(f"(a, b) = {(a, b)}")
    with pytest.raises(BadRangeError, match=message):
        candidate_pairing(g, a, b)
    pairing = candidate_pairing(g, 1, 1)
    with pytest.raises(BadRangeError, match=message):
        verify_period(g, a, b, pairing)


@pytest.mark.parametrize("cap", [0, -1])
def test_decide_rejects_path_cap_below_one(cap):
    # an input error, not a cap hit that would read as "unknown"
    graph = twin_graph(2)
    with pytest.raises(BadRangeError, match=f"path cap must be at least 1, got {cap}"):
        graph.check_path_cap(Degree(0, 0), cap)
    with pytest.raises(BadRangeError):
        decide_periodicity(graph, cap=cap)
    # also when there is no exponent pair, so no cap is ever consulted
    with pytest.raises(BadRangeError):
        decide_periodicity(flip_graph(2, 3), cap=cap)


def test_decide_rejects_degenerate():
    with pytest.raises(DegenerateCountsError):
        decide_periodicity(TwoGraph(1, 1, {(0, 0): (0, 0)}))


def test_verdict_json_shapes():
    periodic = decide_periodicity(twin_graph(2)).to_json()
    assert periodic["kind"] == PERIODIC
    assert periodic["witness"]["gamma"] == [["b0", "r0"], ["b1", "r1"]]
    aperiodic = decide_periodicity(flip_graph(2, 2), kmax=2).to_json()
    assert aperiodic["checked"] == [[1, 1], [2, 2]]


def shift_register_graph(m: int) -> TwoGraph:
    """Blue edges are m-letter words over {0,1}, red edges the letters.

    The rule (b_w)(r_z) = (r_w[0])(b_w[1:]z) shifts one letter across,
    which makes the graph periodic at (1, m) with the digit-reading
    pairing.
    """
    top = 2 ** (m - 1)
    return TwoGraph(
        2**m, 2, [(w, z, w // top, w % top * 2 + z) for w in range(2**m) for z in range(2)]
    )


def shift_register_graph_4x2() -> TwoGraph:
    """The 2-letter register: (b_xy)(r_z) = (r_x)(b_yz), periodic at (1, 2)."""
    return shift_register_graph(2)


def shift_register_graph_2x4() -> TwoGraph:
    """Mirror image: red edges are the 2-letter words, period (2, 1)."""
    rows = []
    for a in range(2):
        for x in range(2):
            for y in range(2):
                rows.append((a, 2 * x + y, 2 * a + x, y))
    return TwoGraph(2, 4, rows)


@pytest.mark.parametrize(
    "graph, a, b",
    [(twin_graph(11), 1, 1), (twin_graph(3), 3, 3), (shift_register_graph_4x2(), 1, 2)],
    ids=["twin11", "twin3-3-3", "shift-4x2"],
)
def test_witness_text_is_each_path_pretty_sorted_by_text(graph, a, b):
    # the text is written from the codes: it must read as Path.pretty does,
    # in the same order, where b10 sorts before b2
    pairing = candidate_pairing(graph, a, b)
    gamma = PeriodWitness(a, b, pairing).to_json()["gamma"]
    assert gamma == sorted([mu.pretty(), nu.pretty()] for mu, nu in pairing.items())
    if graph.n_blue > 10:
        assert gamma[2:4] == [["b10", "r10"], ["b2", "r2"]]


def test_verdict_and_witness_are_immutable_hashable_records():
    verdict = decide_periodicity(flip_graph(2, 2), kmax=1)
    assert repr(verdict) == (
        "PeriodicityVerdict(kind='aperiodic', witness=None, checked=((1, 1),), "
        "kmax=1, detail='')"
    )
    assert hash(verdict) == hash(decide_periodicity(flip_graph(2, 2), kmax=1))
    assert PeriodicityVerdict(kind=UNKNOWN) == PeriodicityVerdict(UNKNOWN, None, (), 0, "")
    with pytest.raises(AttributeError):
        verdict.kind = PERIODIC
    witness = decide_periodicity(twin_graph(2)).witness
    assert PeriodWitness._fields == ("a", "b", "pairing")
    with pytest.raises(AttributeError):
        witness.a = 2


def test_decide_shift_register_period_one_two():
    graph = shift_register_graph_4x2()
    verdict = decide_periodicity(graph)
    assert verdict.kind == PERIODIC
    assert (verdict.witness.a, verdict.witness.b) == (1, 2)
    expected = {
        graph.blue_path(2 * x + y): graph.red_path(x, y)
        for x in range(2)
        for y in range(2)
    }
    assert verdict.witness.pairing == expected


def test_decide_shift_register_period_two_one():
    graph = shift_register_graph_2x4()
    verdict = decide_periodicity(graph)
    assert verdict.kind == PERIODIC
    assert (verdict.witness.a, verdict.witness.b) == (2, 1)
    expected = {
        graph.blue_path(z, w): graph.red_path(2 * z + w)
        for z in range(2)
        for w in range(2)
    }
    assert verdict.witness.pairing == expected


def test_shift_register_oracle_agreement():
    g42 = shift_register_graph_4x2()
    assert easier_periodic_holds(g42, 1, 2, (2, 4))
    assert easier_periodic_holds(g42, 1, 2, (3, 5))
    g24 = shift_register_graph_2x4()
    assert easier_periodic_holds(g24, 2, 1, (4, 2))
    assert easier_periodic_holds(g24, 2, 1, (5, 3))


# -- oracle agreement -------------------------------------------------------------


def _decided_periodic(graph, a, b) -> bool:
    pairing = candidate_pairing(graph, a, b)
    return pairing is not None and verify_period(graph, a, b, pairing)


def _oracle_periodic(graph, a, b) -> bool:
    return easier_periodic_holds(graph, a, b, (2 * a, 2 * b)) and easier_periodic_holds(
        graph, a, b, (2 * a + 1, 2 * b + 1)
    )


def test_oracle_agreement_named_graphs():
    for graph in (twin_graph(2), flip_graph(2, 2), twin_graph(3), flip_graph(3, 3)):
        assert _decided_periodic(graph, 1, 1) == _oracle_periodic(graph, 1, 1)


def test_oracle_agreement_sampled():
    rng = random.Random(41)
    for n in (2, 3):
        for _ in range(4):
            graph = random_two_graph(n, n, rng)
            assert _decided_periodic(graph, 1, 1) == _oracle_periodic(graph, 1, 1)
    # second multiple still fits (2a, 2b) <= (4, 4)
    for n in (2, 3):
        for _ in range(2):
            graph = random_two_graph(n, n, rng)
            assert _decided_periodic(graph, 2, 2) == _oracle_periodic(graph, 2, 2)


def test_oracle_agreement_second_multiple_periodic_case():
    # a graph periodic at (1,1) stays periodic at (2,2); the oracle
    # scans every path of degrees (4,4) and (5,5) here
    graph = twin_graph(3)
    assert _decided_periodic(graph, 2, 2)
    assert _oracle_periodic(graph, 2, 2)


def all_2x2_graphs() -> list:
    domain = [(e, f) for e in range(2) for f in range(2)]
    images = [(f, e) for f in range(2) for e in range(2)]
    return [TwoGraph(2, 2, dict(zip(domain, perm))) for perm in itertools.permutations(images)]


def test_decide_matches_oracle_on_all_2x2_graphs():
    graphs = all_2x2_graphs()
    assert len(graphs) == 24
    first_periods = []
    for graph in graphs:
        oracle = [_oracle_periodic(graph, k, k) for k in (1, 2)]
        for kmax in (1, 2):
            verdict = decide_periodicity(graph, kmax=kmax)
            assert (verdict.kind == PERIODIC) == any(oracle[:kmax])
        if verdict.kind == PERIODIC:
            first = oracle.index(True) + 1
            assert (verdict.witness.a, verdict.witness.b) == (first, first)
            first_periods.append(first)
    # both branches of the decision are exercised, including a first period at k=2
    assert 1 in first_periods and 2 in first_periods
    assert len(first_periods) < len(graphs)


DEEP_GRAPH = TwoGraph(2, 2, [[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 0], [1, 1, 0, 1]])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_deep_graph_candidate_is_a_bijection_that_fails_verification(k):
    pairing = candidate_pairing(DEEP_GRAPH, k, k)
    assert pairing is not None
    assert set(pairing) == set(DEEP_GRAPH.enumerate_paths(Degree(k, 0)))
    assert set(pairing.values()) == set(DEEP_GRAPH.enumerate_paths(Degree(0, k)))
    assert not verify_period(DEEP_GRAPH, k, k, pairing)
    assert not _oracle_periodic(DEEP_GRAPH, k, k)
    verdict = decide_periodicity(DEEP_GRAPH, kmax=k)
    assert verdict.kind == APERIODIC
    assert verdict.checked == tuple((j, j) for j in range(1, k + 1))


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_deep_graph_candidates_up_to_the_benchmark_depth_fail_verification(k):
    # the shapes the deep-period benchmark times, without the oracle
    pairing = candidate_pairing(DEEP_GRAPH, k, k)
    assert pairing is not None
    assert set(pairing) == set(DEEP_GRAPH.enumerate_paths(Degree(k, 0)))
    assert set(pairing.values()) == set(DEEP_GRAPH.enumerate_paths(Degree(0, k)))
    assert not verify_period(DEEP_GRAPH, k, k, pairing)


def test_deep_graph_aperiodic_at_the_benchmark_kmax():
    verdict = decide_periodicity(DEEP_GRAPH, kmax=8)
    assert verdict.kind == APERIODIC
    assert verdict.checked == tuple((j, j) for j in range(1, 9))


def test_twin_three_reverifies_at_five_five():
    g = twin_graph(3)
    pairing = candidate_pairing(g, 5, 5)
    assert pairing == {mu: g.red_path(*mu.blues) for mu in g.enumerate_paths(Degree(5, 0))}
    assert verify_period(g, 5, 5, pairing)


@pytest.mark.parametrize("candidate", [False, True])
def test_twin_three_full_pass_at_seven_seven(candidate):
    # the twin rule pairs each blue word with the red word of the same ids,
    # so blue code i goes to red code i: one pass over 3^14 products
    codes = (_candidate_codes if candidate else _pairing_codes)(twin_graph(3), 7, 7)
    assert codes == list(range(3**7))


def test_twin_three_verifies_at_seven_seven_and_rejects_a_swap():
    g = twin_graph(3)
    blues = g.enumerate_paths(Degree(7, 0))
    pairing = {mu: g.red_path(*mu.blues) for mu in blues}
    assert verify_period(g, 7, 7, pairing)
    first, last = blues[0], blues[-1]
    pairing[first], pairing[last] = pairing[last], pairing[first]
    assert not verify_period(g, 7, 7, pairing)


def test_verify_rejects_a_non_bijective_pairing():
    g = twin_graph(2)
    with pytest.raises(GraphError, match="not a bijection"):
        verify_period(g, 1, 1, {g.blue_path(0): g.red_path(0)})


# -- relabeling invariance ----------------------------------------------------------


def relabel(graph: TwoGraph, blue, red) -> TwoGraph:
    """The graph with blue id e renamed blue[e] and red id f renamed red[f]."""
    rows = [(blue[e], red[f], red[ff], blue[ee]) for e, f, ff, ee in graph.theta_rows()]
    return TwoGraph(graph.n_blue, graph.n_red, rows)


@st.composite
def relabeled_graphs(draw):
    n_blue, n_red = draw(st.sampled_from([(2, 2), (3, 3), (4, 2), (2, 4)]))
    domain = [(e, f) for e in range(n_blue) for f in range(n_red)]
    images = draw(st.permutations([(f, e) for f in range(n_red) for e in range(n_blue)]))
    graph = TwoGraph(n_blue, n_red, dict(zip(domain, images)))
    blue = draw(st.permutations(range(n_blue)))
    red = draw(st.permutations(range(n_red)))
    return graph, relabel(graph, blue, red), blue, red


@settings(max_examples=60, deadline=None)
@given(relabeled_graphs())
@example((twin_graph(3), relabel(twin_graph(3), [1, 2, 0], [2, 0, 1]), [1, 2, 0], [2, 0, 1]))
def test_relabeling_conjugates_the_verdict(case):
    graph, relabeled, blue, red = case
    verdict = decide_periodicity(graph, kmax=2)
    other = decide_periodicity(relabeled, kmax=2)
    assert other.kind == verdict.kind
    assert other.checked == verdict.checked
    if verdict.kind == PERIODIC:
        w, v = verdict.witness, other.witness
        assert (v.a, v.b) == (w.a, w.b)
        assert v.pairing == {
            relabeled.blue_path(*(blue[e] for e in mu.blues)): relabeled.red_path(
                *(red[f] for f in nu.reds)
            )
            for mu, nu in w.pairing.items()
        }


# -- color swap --------------------------------------------------------------------------


def transpose(graph: TwoGraph) -> TwoGraph:
    """The same paths with the colors swapped: red ids become blue ids.

    The blue-red pair (f, e) of the new graph is the red-blue word
    (r_f)(b_e) of the old one, rewritten by ``commute_red_blue``.
    """
    rows = []
    for f in range(graph.n_red):
        for e in range(graph.n_blue):
            ee, ff = graph.commute_red_blue(f, e)
            rows.append((f, e, ee, ff))
    return TwoGraph(graph.n_red, graph.n_blue, rows)


@settings(max_examples=80, deadline=None)
@given(relabeled_graphs().map(lambda case: case[0]))
@example(twin_graph(2))
@example(TwoGraph(2, 2, [[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 0], [1, 1, 0, 1]]))
def test_swapping_colors_swaps_the_period(graph):
    # a period (a, b) with pairing gamma is a period (b, a) of the
    # transposed graph with pairing gamma^-1
    swapped = transpose(graph)
    assert transpose(swapped) == graph
    verdict = decide_periodicity(graph, kmax=3)
    other = decide_periodicity(swapped, kmax=3)
    assert other.kind == verdict.kind
    assert other.checked == tuple((b, a) for a, b in verdict.checked)
    if verdict.kind == PERIODIC:
        w, v = verdict.witness, other.witness
        assert (v.a, v.b) == (w.b, w.a)
        assert v.pairing == {
            swapped.blue_path(*nu.reds): swapped.red_path(*mu.blues)
            for mu, nu in w.pairing.items()
        }


# -- witness self-consistency ------------------------------------------------------


def test_witness_reverifies_and_satisfies_inverse_pairing():
    rng = random.Random(43)
    graphs = [twin_graph(2), twin_graph(3)]
    graphs += [random_two_graph(2, 2, rng) for _ in range(6)]
    seen_periodic = 0
    for graph in graphs:
        verdict = decide_periodicity(graph, kmax=2)
        if verdict.kind != PERIODIC:
            continue
        seen_periodic += 1
        w = verdict.witness
        assert verify_period(graph, w.a, w.b, w.pairing)
        inverse = {nu: mu for mu, nu in w.pairing.items()}
        # the flipped factorization alpha*beta == inv(alpha)*pairing(beta)
        for alpha in graph.enumerate_paths(Degree(0, w.b)):
            for beta in graph.enumerate_paths(Degree(w.a, 0)):
                assert alpha * beta == inverse[alpha] * w.pairing[beta]
    assert seen_periodic >= 2


def test_a_periodic_decision_leaves_no_path_lists_on_the_graph():
    # the witness is built from the pass's codes, not from enumerate_paths
    graph = twin_graph(3)
    verdict = decide_periodicity(graph, kmax=2)
    assert verdict.kind == PERIODIC
    assert candidate_pairing(graph, 2, 2) is not None
    assert graph._paths_cache == {}
    assert verdict.witness.pairing == {
        mu: graph.red_path(*mu.blues) for mu in graph.enumerate_paths(Degree(1, 0))
    }


# -- prefix moves, tails classes and the lemmas, on reordered products ---------


@contextlib.contextmanager
def _refusing_moves():
    """The move routine of ``graphs.py`` and the move stream of the pass
    raise inside, so the reordering oracles are seen to factor their
    products without them."""

    def refuse(*args):
        raise AssertionError("the oracle reached a move routine")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_move", refuse)
        patch.setattr(periodicity, "_moves", refuse)
        yield


def _all_words(n, length):
    return list(itertools.product(range(n), repeat=length))


def test_moving_a_red_prefix_leaves_every_blue_word():
    # moving j red letters through mu is a bijection (mu, p) -> (q, w):
    # both pairs factor the one path mu*p, blue-first and red-first, so
    # every blue word w is left behind at every depth
    rng = random.Random(5)
    shapes = [((2, 2), 3), ((3, 3), 2), ((4, 2), 2), ((2, 4), 2), ((3, 2), 2)]
    with _refusing_moves():
        for (n_blue, n_red), a in shapes:
            for _ in range(3):
                graph = random_two_graph(n_blue, n_red, rng)
                for j in range(4):
                    moved = moved_prefixes(graph, a, j, rng)
                    assert sorted(moved.values()) == [
                        (q, w) for q in _all_words(n_red, j) for w in _all_words(n_blue, a)
                    ]


@st.composite
def graphs_and_lengths(draw):
    shape = draw(st.tuples(st.integers(2, 4), st.integers(2, 4)))
    graph = random_two_graph(*shape, draw(st.randoms(use_true_random=False)))
    return graph, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(graphs_and_lengths(), st.randoms(use_true_random=False))
@example((DEEP_GRAPH, 4), random.Random(0))
@example((twin_graph(3), 3), random.Random(0))
@example((flip_graph(4, 2), 4), random.Random(0))
def test_the_move_stream_matches_the_move_routine_and_reordering(case, rng):
    # each word's moves, read off its prefix's, are the moves of _move, which
    # passes the whole word, and of a red-first factorization by reordering
    graph, d = case
    fwd, n_blue, n_red = graph._fwd, graph.n_blue, graph.n_red
    words = _all_words(n_blue, d)
    stream = list(periodicity._moves(fwd, n_blue, n_red, d))
    assert len(stream) == len(words)
    for word, moves in enumerate(stream):
        assert list(moves) == [graphs._move(fwd, n_blue, n_red, d, word, f) for f in range(n_red)]
        for f, (letter, left) in enumerate(moves):
            assert red_first(graph, words[word], (f,), rng) == ((letter,), words[left])


def test_a_period_leaves_n2_to_the_b_minus_d_tails_classes_at_depth_d():
    # under a period gamma, once the red word p of length b - d has moved
    # through mu and left w, the tails of w*s are gamma^-1(p s) over the
    # suffixes s, so the words at depth d fall into exactly N2^(b-d)
    # classes of equal tails
    rng = random.Random(6)
    cases = [(twin_graph(3), 2, 2)]
    with _refusing_moves():
        tables = itertools.permutations([(f, e) for f in range(2) for e in range(2)])
        for images in tables:
            graph = TwoGraph(2, 2, dict(zip([(e, f) for e in range(2) for f in range(2)], images)))
            for k in (1, 2, 3):
                if reference_pairing_codes(graph, k, k, False, rng) is not None:
                    cases.append((graph, k, k))
        assert len({graph for graph, _, _ in cases}) == 1 + 4
        for graph, a, b in cases:
            counts = [tails_classes(graph, a, d, rng) for d in range(b + 1)]
            assert counts == [graph.n_red ** (b - d) for d in range(b + 1)]


def test_the_deep_graph_breaks_the_class_count_at_depth_one():
    # so the deep graph, which has another count, has no period at (3, 3)
    with _refusing_moves():
        assert tails_classes(DEEP_GRAPH, 3, 1, random.Random(0)) != 2 ** (3 - 1)
    assert _pairing_codes(DEEP_GRAPH, 3, 3) is None


# a move through blue e puts out sigma(e) = (0, 2, 1)[e] and leaves the red
# letter moved in: every row has one head and every tail is nu, but the
# heads are not inverted by row 0's tails.  Only the letter of a move fails
# the one-step check, so a check of the words left behind alone accepts it.
LETTER_ONLY_FAILS = TwoGraph(
    3, 3, [[0, 0, 0, 0], [0, 1, 0, 1], [0, 2, 0, 2], [1, 0, 2, 0], [1, 1, 2, 1],
           [1, 2, 2, 2], [2, 0, 1, 0], [2, 1, 1, 1], [2, 2, 1, 2]]
)
# at (1, 1) the 2 words of row 0 pass the one-step check, but 4 blue rows
# cannot pair with 2 red heads: only the count N1^a == N2^b rejects it
CHECK_HOLDS_ON_TWO_ROWS = TwoGraph(
    4, 2, [[0, 0, 0, 0], [0, 1, 0, 2], [1, 0, 0, 1], [1, 1, 1, 3], [2, 0, 1, 0],
           [2, 1, 1, 2], [3, 0, 1, 1], [3, 1, 0, 3]]
)


def _lemma_cases():
    """(graph, a, b) cases for the lemma: all 24 2x2 tables at k <= 3, the
    (2, 2) pass of twin_graph(3), and the two tables above at (1, 1)."""
    cases = [(twin_graph(3), 2, 2), (LETTER_ONLY_FAILS, 1, 1), (CHECK_HOLDS_ON_TWO_ROWS, 1, 1)]
    for images in itertools.permutations([(f, e) for f in range(2) for e in range(2)]):
        graph = TwoGraph(2, 2, dict(zip([(e, f) for e in range(2) for f in range(2)], images)))
        cases += [(graph, k, k) for k in (1, 2, 3)]
    return cases


def test_the_one_step_check_holds_exactly_when_a_period_exists():
    # the period lemma's induction run on row 0's tails, words[nu] the
    # word nu leaves in blue word 0, with every move made by reordering
    rng = random.Random(8)
    with _refusing_moves():
        verdicts = []
        for graph, a, b in _lemma_cases():
            expected = reference_pairing_codes(graph, a, b, False, rng)
            verdicts.append(expected is not None)
            assert one_step_holds(graph, a, b, rng) == (expected is not None)
    # twin_graph(3) and 8 of the 2x2 passes are periodic
    assert verdicts.count(True) == 1 + 8 and len(verdicts) == 3 + 72


def test_the_period_criterion_holds_exactly_when_a_period_exists():
    # the period lemma of the module docstring, with every move made by
    # reordering; its heads Z are then the period
    rng = random.Random(11)
    with _refusing_moves():
        periods = 0
        for graph, a, b in _lemma_cases():
            expected = reference_pairing_codes(graph, a, b, False, rng)
            heads = period_heads(graph, a, b, rng)
            assert (heads is None) == (expected is None), (graph, a, b)
            if heads is not None:
                periods += 1
                codes = [graph.red_path(*heads[w]).code[3] for w in sorted(heads)]
                assert codes == expected
    assert periods == 1 + 8


def _candidate_cases():
    """(graph, a, b) cases for the candidate lemma: all 24 2x2 tables at
    k <= 3, the (2, 2) pass of twin_graph(3), the deep graph at k <= 3 and
    CHILD_HEADS_DIFFER at (1, 2)."""
    cases = [(twin_graph(3), 2, 2), (CHILD_HEADS_DIFFER, 1, 2)]
    cases += [(DEEP_GRAPH, k, k) for k in (1, 2, 3)]
    cases += [(graph, k, k) for graph in all_2x2_graphs() for k in (1, 2, 3)]
    return cases


def test_the_candidate_check_holds_exactly_when_every_row_has_one_head():
    # the candidate lemma of the module docstring, with every move made
    # by reordering; its heads Z are then the candidate's
    rng = random.Random(9)
    with _refusing_moves():
        found = 0
        for graph, a, b in _candidate_cases():
            expected = reference_pairing_codes(graph, a, b, True, rng)
            heads = candidate_heads(graph, a, b, rng)
            assert (heads is None) == (expected is None), (graph, a, b)
            if heads is not None:
                found += 1
                codes = [graph.red_path(*heads[w]).code[3] for w in sorted(heads)]
                assert codes == expected
    # 28 of the 77 passes have a candidate, among them twin_graph(3)'s and
    # the deep graph's; CHILD_HEADS_DIFFER's has none
    assert found == 28


def test_rows_with_one_head_have_distinct_heads():
    # the corollary: with N1^a == N2^b, condition 1 implies condition 4
    rng = random.Random(10)
    with _refusing_moves():
        one_head = 0
        for graph, a, b in _candidate_cases():
            rows = [
                {red_first(graph, mu, nu, rng)[0] for nu in _all_words(graph.n_red, b)}
                for mu in _all_words(graph.n_blue, a)
            ]
            if all(len(row) == 1 for row in rows):
                one_head += 1
                assert len({row.pop() for row in rows}) == len(rows)
    assert one_head == 28


@contextlib.contextmanager
def _counting_words():
    """Counts the words that the pass's move stream yields inside the
    block, by word length: each level of the stream calls ``_moves`` for
    the level below, so every level is counted."""
    counts = collections.Counter()
    moves = periodicity._moves

    def counted(fwd, n_blue, n_red, d):
        for word in moves(fwd, n_blue, n_red, d):
            counts[d] += 1
            yield word

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(periodicity, "_moves", counted)
        yield counts


def test_a_candidate_pass_stops_at_the_first_word_with_two_letters():
    # blue word 0 of the flip graph puts out every red letter moved in; the
    # stream yields that one word and, below it, one prefix of each length
    with _counting_words() as counts:
        assert candidate_pairing(flip_graph(2, 2), 19, 19) is None
    assert counts == {d: 1 for d in range(1, 20)}


def test_a_certified_decision_runs_no_pass():
    # every blue letter of the flip graph puts out the red letter moved in,
    # so the certificate holds and the decision moves no letter; a pass
    # still stops at its first word
    with _counting_words() as counts:
        verdict = decide_periodicity(flip_graph(2, 2), kmax=19)
    assert verdict.kind == APERIODIC
    assert verdict.checked == tuple((k, k) for k in range(1, 20))
    assert counts == {}
    with _counting_words() as counts:
        assert _pairing_codes(flip_graph(2, 2), 19, 19) is None
    assert counts == {d: 1 for d in range(1, 20)}


# -- the pair certificate -------------------------------------------------------------


def test_the_certificate_holds_on_exactly_the_aperiodic_2x2_tables():
    # 12 tables are certified on both sides, 4 on heads only and 4 on
    # tails only; the 4 left are periodic at k = 1 or 2
    rng = random.Random(12)
    with _refusing_moves():
        for graph in all_2x2_graphs():
            periodic = any(
                reference_pairing_codes(graph, k, k, False, rng) is not None for k in (1, 2, 3)
            )
            assert _aperiodic(graph) != periodic, graph.theta_rows()
    assert sum(map(_aperiodic, all_2x2_graphs())) == 20


def test_a_certified_2x2_table_has_a_split_row_or_column_at_every_k():
    # the brute-force witness of the module docstring's certificate, with
    # every product factored by reordering
    rng = random.Random(13)
    certified = [graph for graph in all_2x2_graphs() if _aperiodic(graph)]
    with _refusing_moves():
        for graph in certified:
            for k in (1, 2, 3):
                assert row_or_column_splits(graph, k, k, rng), (graph.theta_rows(), k)


# The 48 periodic 4x2 and 48 periodic 2x4 tables, with the multiple k at which
# each has its period; tools/periodic_fixtures.py regenerates them from the
# census of all 40,320 tables of each shape.
UNCERTIFIED_PERIODIC = json.loads(
    (pathlib.Path(__file__).resolve().parent / "fixtures" / "uncertified_periodic.json").read_text()
)


def test_the_uncertified_periodic_fixture_has_48_tables_of_each_shape():
    shapes = collections.Counter((t["spec"]["n1"], t["spec"]["n2"]) for t in UNCERTIFIED_PERIODIC)
    assert shapes == {(4, 2): 48, (2, 4): 48}
    assert len({json.dumps(t["spec"]) for t in UNCERTIFIED_PERIODIC}) == 96


@pytest.mark.parametrize(
    "table", UNCERTIFIED_PERIODIC,
    ids=[f"{t['spec']['n1']}x{t['spec']['n2']}-{i}" for i, t in enumerate(UNCERTIFIED_PERIODIC)],
)
def test_the_certificate_leaves_a_periodic_table_alone(table):
    graph = TwoGraph.from_json(table["spec"])
    assert _aperiodic(graph) is False
    k = table["k"]
    a0, b0 = minimal_exponents(graph.n_blue, graph.n_red)
    verdict = decide_periodicity(graph, kmax=k)
    assert verdict.kind == PERIODIC
    # the search stops at the first period, so none lies below k
    assert (verdict.witness.a, verdict.witness.b) == (k * a0, k * b0)


# -- candidate uniqueness -----------------------------------------------------------


def test_any_verifying_bijection_equals_candidate():
    rng = random.Random(47)
    graphs = [twin_graph(2), flip_graph(2, 2)]
    graphs += [random_two_graph(2, 2, rng) for _ in range(4)]
    graphs += [random_two_graph(4, 2, rng) for _ in range(2)]
    for graph in graphs:
        a, b = minimal_exponents(graph.n_blue, graph.n_red)
        blues = graph.enumerate_paths(Degree(a, 0))
        reds = graph.enumerate_paths(Degree(0, b))
        candidate = candidate_pairing(graph, a, b)
        for perm in itertools.permutations(reds):
            pairing = dict(zip(blues, perm))
            if verify_period(graph, a, b, pairing):
                assert candidate is not None
                assert pairing == candidate


# -- the passes against a product-by-product reference ---------------------------


def reference_pairing_codes(graph, a, b, candidate, rng):
    """``_pairing_codes``, or ``_candidate_codes`` if ``candidate``, from
    every product mu*nu, factored red-first by random admissible swaps,
    then the four conditions of the module docstring, checked one after
    another."""
    blues = graph.enumerate_paths(Degree(a, 0))
    reds = graph.enumerate_paths(Degree(0, b))
    blue_code = {mu.blues: i for i, mu in enumerate(blues)}
    red_code = {nu.reds: j for j, nu in enumerate(reds)}
    red_first = [1] * b + [0] * a
    heads, tails = [], []
    for mu in blues:
        row_heads, row_tails = [], []
        for nu in reds:
            word = randomized_reorder(graph, Path(graph, mu.blues, nu.reds), red_first, rng)
            row_heads.append(red_code[tuple(x for _, x in word[:b])])
            row_tails.append(blue_code[tuple(x for _, x in word[b:])])
        heads.append(row_heads)
        tails.append(row_tails)
    # 1. the head of mu*nu does not depend on nu
    if any(len(set(row)) != 1 for row in heads):
        return None
    head_of = [row[0] for row in heads]
    # 4. no two blue paths share a head
    if len(set(head_of)) != len(head_of):
        return None
    if candidate:
        return head_of
    # 2. the tail of mu*nu does not depend on mu
    if any(row != tails[0] for row in tails):
        return None
    # 3. the tail map inverts the head map
    if any(tails[0][head] != mu for mu, head in enumerate(head_of)):
        return None
    return head_of


# the twin graph with its blue tails swapped: every head is constant and
# every tail independent of mu, but the tail map does not invert the heads
TWISTED_TWIN = TwoGraph(2, 2, [[e, f, e, 1 - f] for e in range(2) for f in range(2)])
# here a move's red letter depends on the red letter moved in
HEAD_SPLITTING = TwoGraph(2, 2, [[0, 0, 1, 1], [0, 1, 0, 0], [1, 0, 0, 1], [1, 1, 1, 0]])

# 3 blue rows at (1,1) but 2 red heads: the head map is not a bijection.
# Each head is the head of N1^a products, so rows with one head each come
# N1^a / N2^b to a head; here that is no integer and row 2's heads differ.
MORE_ROWS_THAN_HEADS = TwoGraph(
    3, 2, [[0, 0, 0, 2], [0, 1, 0, 0], [1, 0, 1, 1], [1, 1, 1, 0], [2, 0, 0, 1], [2, 1, 1, 2]]
)
# row 0 passes at (1, 2), but the children of rows 1 and 2 differ in their
# heads; their first children's heads alone would give four distinct heads
CHILD_HEADS_DIFFER = TwoGraph(
    4, 2, [[0, 0, 0, 2], [0, 1, 0, 1], [1, 0, 1, 1], [1, 1, 1, 3], [2, 0, 1, 0],
           [2, 1, 1, 2], [3, 0, 0, 3], [3, 1, 0, 0]]
)
# at (1, 2) all moves of each blue word put out one letter, but the head
# of a child of blue word 2 does not continue that word's head: a check of
# the letters alone accepts it
LETTERS_AGREE_HEADS_DIFFER = TwoGraph(
    4, 2, [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 0, 2], [1, 1, 0, 3], [2, 0, 1, 0],
           [2, 1, 1, 2], [3, 0, 1, 3], [3, 1, 1, 1]]
)
# a 3x3 graph periodic at (2, 2), hence at (4, 4), but not at (1, 1) or (3, 3)
PERIODIC_AT_TWO = TwoGraph(
    3, 3, [[0, 0, 2, 2], [0, 1, 1, 0], [0, 2, 1, 1], [1, 0, 1, 2], [1, 1, 2, 0], [1, 2, 2, 1],
           [2, 0, 0, 2], [2, 1, 0, 0], [2, 2, 0, 1]]
)

NAMED_GRAPHS = [
    TWISTED_TWIN,
    HEAD_SPLITTING,
    twin_graph(2),
    twin_graph(3),
    flip_graph(2, 2),
    flip_graph(3, 3),
    DEEP_GRAPH,
    shift_register_graph_4x2(),
    shift_register_graph_2x4(),
    double(twin_graph(2)),
    double(flip_graph(2, 2)),
    double(DEEP_GRAPH),
]

# products mu*nu per call, so that one example stays within a few ms
MAX_PRODUCTS = 256


@st.composite
def graphs_and_exponents(draw):
    if draw(st.booleans()):
        graph = draw(st.sampled_from(NAMED_GRAPHS))
    else:
        shape = draw(st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 2), (2, 4), (4, 4)]))
        graph = random_two_graph(*shape, draw(st.randoms(use_true_random=False)))
    pairs = [
        (a, b)
        for a in range(1, 9)
        for b in range(1, 9)
        if graph.n_blue**a * graph.n_red**b <= MAX_PRODUCTS
    ]
    a, b = draw(st.sampled_from(pairs))
    return graph, a, b


@settings(max_examples=80, deadline=None)
@given(graphs_and_exponents(), st.booleans(), st.randoms(use_true_random=False))
@example((twin_graph(3), 2, 2), False, random.Random(0))
@example((TWISTED_TWIN, 1, 1), False, random.Random(0))
@example((HEAD_SPLITTING, 1, 1), False, random.Random(0))
@example((DEEP_GRAPH, 4, 4), True, random.Random(0))
@example((DEEP_GRAPH, 4, 4), False, random.Random(0))
@example((shift_register_graph_4x2(), 1, 2), False, random.Random(0))
@example((double(twin_graph(2)), 1, 1), False, random.Random(0))
# full passes whose rows share subtrees: a pass that keys a subtree by its
# word alone across depths, or compares words by head digits instead of
# tails, gets these wrong
@example((TWISTED_TWIN, 4, 4), False, random.Random(0))
@example((shift_register_graph_2x4(), 4, 2), False, random.Random(0))
@example((double(twin_graph(2)), 2, 2), False, random.Random(0))
# every row's heads agree, and words recur at several depths of one row
@example((DEEP_GRAPH, 5, 3), False, random.Random(0))
# heads bijective and inverted by row 0's tails; only a tail of row 1 differs
@example((DEEP_GRAPH, 1, 1), False, random.Random(0))
@example((MORE_ROWS_THAN_HEADS, 1, 1), True, random.Random(0))
# a candidate pass must read every child's head, not the first one's
@example((CHILD_HEADS_DIFFER, 1, 2), True, random.Random(0))
# every row has one head, 2 rows to each of the 2 heads (b == 1): only the
# count N1^a == N2^b rejects it
@example((TWISTED_TWIN, 2, 1), True, random.Random(0))
# 9 rows and 2 heads: 2 does not divide 9, so some row's heads differ
@example((MORE_ROWS_THAN_HEADS, 2, 1), True, random.Random(0))
# a candidate pass must check the children's heads as well as the letters
@example((LETTERS_AGREE_HEADS_DIFFER, 1, 2), True, random.Random(0))
# a periodic pass, and a pass whose later rows' tails differ
@example((TWISTED_TWIN, 2, 2), False, random.Random(0))
@example((DEEP_GRAPH, 3, 3), False, random.Random(0))
# periodic full passes at several depths and shapes
@example((twin_graph(3), 3, 3), False, random.Random(0))
@example((PERIODIC_AT_TWO, 4, 4), False, random.Random(0))
@example((shift_register_graph_4x2(), 2, 4), False, random.Random(0))
# a period check must compare each move's letter as well as the words it
# leaves, and must not pass on row 0's tails alone
@example((LETTER_ONLY_FAILS, 1, 1), False, random.Random(0))
@example((CHECK_HOLDS_ON_TWO_ROWS, 1, 1), False, random.Random(0))
def test_level_walk_matches_the_product_reference(case, candidate, rng):
    graph, a, b = case
    expected = reference_pairing_codes(graph, a, b, candidate, rng)
    assert (_candidate_codes if candidate else _pairing_codes)(graph, a, b) == expected


# -- the pair certificate on random graphs -------------------------------------------


@st.composite
def small_graphs(draw):
    shape = draw(st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 2), (2, 4), (4, 3), (4, 4)]))
    return random_two_graph(*shape, draw(st.randoms(use_true_random=False)))


@settings(max_examples=80, deadline=None)
@given(small_graphs())
# periodic graphs, each with a period at some k <= 3: a certificate on any
# of them fails the test
@example(twin_graph(4))
@example(PERIODIC_AT_TWO)
@example(TWISTED_TWIN)
@example(shift_register_graph_4x2())
@example(shift_register_graph_2x4())
@example(double(twin_graph(2)))
# blue words that differ only in their last letter still differ after
# m - 1 red letters have moved through them, so the pruning needs m rounds
@example(shift_register_graph(4))
def test_a_certified_graph_has_no_period_up_to_kmax_three(graph):
    minimal = minimal_exponents(graph.n_blue, graph.n_red)
    if minimal is None or not _aperiodic(graph):
        return
    a0, b0 = minimal
    for k in (1, 2, 3):
        assert _pairing_codes(graph, k * a0, k * b0) is None
