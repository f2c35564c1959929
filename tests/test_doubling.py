"""The doubled graph and the crossed-product verdict."""

import contextlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twograph import (
    DEFAULT_PATH_CAP,
    DegenerateCountsError,
    GradedElement,
    ModuleVector,
    PERIODIC,
    TwoGraph,
    crossed_product_report,
    decide_periodicity,
    double,
    flip_graph,
    minimal_exponents,
    random_two_graph,
    twin_graph,
)
from twograph import doubling, periodicity
from twograph.graphs import GraphError


def test_double_counts_and_encoding():
    g = random_two_graph(3, 2, random.Random(1))
    d = double(g)
    assert (d.n_blue, d.n_red) == (9, 4)
    for i in range(d.n_blue):
        e, f = d.blue_pair(i)
        assert i == e * g.n_blue + f
    for j in range(d.n_red):
        gg, h = d.red_pair(j)
        assert j == gg * g.n_red + h


def test_double_flip_is_flip():
    d = double(flip_graph(2, 2))
    for i in range(d.n_blue):
        for j in range(d.n_red):
            assert d.commute_blue_red(i, j) == (j, i)


def test_double_trivial():
    d = double(TwoGraph(1, 1, {(0, 0): (0, 0)}))
    assert (d.n_blue, d.n_red) == (1, 1)
    assert d.commute_blue_red(0, 0) == (0, 0)


def test_double_twin_carries_pairs():
    g = twin_graph(2)
    d = double(g)
    for e in range(2):
        for f in range(2):
            for k in range(2):
                for l in range(2):
                    j2, i2 = d.commute_blue_red(e * 2 + f, k * 2 + l)
                    assert d.red_pair(j2) == (e, f)
                    assert d.blue_pair(i2) == (k, l)


def test_double_always_bijective():
    rng = random.Random(2)
    for _ in range(30):
        g = random_two_graph(rng.randint(1, 4), rng.randint(1, 4), rng)
        double(g)  # construction checks the bijection


def test_double_json_has_provenance():
    g = twin_graph(2)
    out = double(g).to_json()
    assert out["n1"] == 4 and out["n2"] == 4
    assert out["provenance"]["source"] == g.to_json()
    assert out["provenance"]["blue_pairs"][1] == [0, 1]


def _basis_vector(level, mu, nu):
    return ModuleVector(level, GradedElement.word(mu, nu))


def test_commutation_holds_in_the_word_algebra():
    # cross-module: the doubled rule matches products of basis vectors
    rng = random.Random(3)
    graphs = [twin_graph(2), flip_graph(2, 3)]
    graphs += [random_two_graph(rng.randint(2, 3), rng.randint(2, 3), rng) for _ in range(3)]
    for g in graphs:
        d = double(g)
        for i in range(d.n_blue):
            e, f = d.blue_pair(i)
            blue_vec = _basis_vector((1, 0), g.blue_path(e), g.blue_path(f))
            for j in range(d.n_red):
                gg, h = d.red_pair(j)
                red_vec = _basis_vector((0, 1), g.red_path(gg), g.red_path(h))
                j2, i2 = d.commute_blue_red(i, j)
                g2, h2 = d.red_pair(j2)
                e2, f2 = d.blue_pair(i2)
                lhs = blue_vec * red_vec
                rhs = _basis_vector((0, 1), g.red_path(g2), g.red_path(h2)) * _basis_vector(
                    (1, 0), g.blue_path(e2), g.blue_path(f2)
                )
                assert lhs == rhs


# -- the double factorizes ---------------------------------------------------------
#
# A doubled path of degree (a, b) is a pair of source paths of that degree,
# and its red-first factorization is the pair of their factorizations.  So
# the double is periodic at (a, b) exactly when the source is, with the
# pairing gamma x gamma.


def _graph(n_blue, n_red, images):
    domain = [(e, f) for e in range(n_blue) for f in range(n_red)]
    return TwoGraph(n_blue, n_red, dict(zip(domain, images)))


def _red_blue_pairs(n_blue, n_red):
    return [(f, e) for f in range(n_red) for e in range(n_blue)]


def _pairing_squared(graph, doubled, gamma):
    """gamma x gamma on the doubled paths: the blue path with letters
    e_i*N1 + f_i goes to the red path with letters g_i*N2 + h_i."""
    n1, n2 = graph.n_blue, graph.n_red
    return {
        doubled.blue_path(*(e * n1 + f for e, f in zip(mu.blues, mu2.blues))):
        doubled.red_path(*(g * n2 + h for g, h in zip(gamma[mu].reds, gamma[mu2].reds)))
        for mu in gamma
        for mu2 in gamma
    }


def _check_the_double_factorizes(graph) -> str:
    verdict = decide_periodicity(graph, kmax=2)
    doubled = double(graph)
    other = decide_periodicity(doubled, kmax=2)
    assert (other.kind, other.checked) == (verdict.kind, verdict.checked)
    if verdict.kind == PERIODIC:
        w, v = verdict.witness, other.witness
        assert (v.a, v.b) == (w.a, w.b)
        assert v.pairing == _pairing_squared(graph, doubled, w.pairing)
    return verdict.kind


def test_the_double_factorizes_on_every_2x2_table():
    tables = itertools.permutations(_red_blue_pairs(2, 2))
    kinds = [_check_the_double_factorizes(_graph(2, 2, images)) for images in tables]
    assert len(kinds) == 24
    assert kinds.count(PERIODIC) == 4


@st.composite
def _random_graphs(draw):
    n_blue, n_red = draw(st.sampled_from([(3, 3), (4, 2), (2, 4)]))
    return _graph(n_blue, n_red, draw(st.permutations(_red_blue_pairs(n_blue, n_red))))


@settings(max_examples=40, deadline=None)
@given(_random_graphs())
@example(twin_graph(3))
def test_the_double_factorizes_on_random_graphs(graph):
    _check_the_double_factorizes(graph)


# -- the crossed product against the direct doubled decision ----------------------
#
# The report decides the source graph.  Its oracle is the direct decision on
# double(graph), with the witness pairs decoded from the doubled ids.


def _direct_report(graph, kmax, cap):
    try:
        verdict = decide_periodicity(double(graph), kmax=kmax, cap=cap)
    except DegenerateCountsError:
        minimal_exponents(graph.n_blue, graph.n_red)  # named by the source's counts
        raise
    simple, pi = {
        "aperiodic": (True, True),
        "no_candidate_pairs": (True, True),
        PERIODIC: (False, None),
        "unknown": (None, None),
    }[verdict.kind]
    out = {
        "n1": graph.n_blue,
        "n2": graph.n_red,
        "simple": simple,
        "purely_infinite": pi,
        "doubled_periodicity": verdict.to_json(),
    }
    if verdict.witness is not None:

        def decoded(color, n, ids):
            return " ".join(f"{color}{x}{color}{y}" for x, y in (divmod(i, n) for i in ids))

        rows = sorted(
            (decoded("b", graph.n_blue, mu.blues), decoded("r", graph.n_red, nu.reds))
            for mu, nu in verdict.witness.pairing.items()
        )
        out["witness_pairs"] = [list(row) for row in rows]
    return out


def _outcome(compute):
    try:
        return compute()
    except GraphError as exc:
        return f"{type(exc).__name__}: {exc}"


def _check_against_the_direct_decision(graph, kmax, cap):
    expected = _outcome(lambda: _direct_report(graph, kmax, cap))
    passes = []
    real = periodicity._pairing_codes

    def spy(searched, a, b):
        passes.append(searched)
        return real(searched, a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(periodicity, "_pairing_codes", spy)
        got = _outcome(lambda: crossed_product_report(graph, kmax, cap).to_json())
    assert got == expected
    # every pass searches the source graph, never its double
    assert all(searched is graph for searched in passes)
    return got


@pytest.mark.parametrize("cap", [1, 15, 16, 255, DEFAULT_PATH_CAP])
@pytest.mark.parametrize("kmax", [1, 2, 3])
def test_report_matches_the_direct_decision_on_every_2x2_table(kmax, cap):
    tables = itertools.permutations(_red_blue_pairs(2, 2))
    for images in tables:
        _check_against_the_direct_decision(_graph(2, 2, images), kmax, cap)


@settings(max_examples=25, deadline=None)
@given(_random_graphs())
@example(twin_graph(3))
def test_report_matches_the_direct_decision_on_random_graphs(graph):
    _check_against_the_direct_decision(graph, 2, DEFAULT_PATH_CAP)


@pytest.mark.parametrize(
    "graph",
    [TwoGraph(1, 2, {(0, 0): (0, 0), (0, 1): (1, 0)}), twin_graph(2), flip_graph(2, 3)],
)
@pytest.mark.parametrize("kmax, cap", [(0, 0), (0, 5), (2, 0), (2, -1)])
def test_report_errors_come_in_the_direct_order(graph, kmax, cap):
    # a bad kmax is named before a bad cap, and both before a degenerate
    # count, as the direct decision checks them
    got = _check_against_the_direct_decision(graph, kmax, cap)
    assert isinstance(got, str)


@contextlib.contextmanager
def _refusing_double():
    def refuse(graph):
        raise AssertionError("the report built the doubled graph")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(doubling, "double", refuse)
        yield


@pytest.mark.parametrize(
    "graph, kmax, cap, kind",
    [
        (flip_graph(3, 3), 2, DEFAULT_PATH_CAP, "aperiodic"),
        (flip_graph(2, 2), 4, 10, "unknown"),
        (flip_graph(2, 3), 4, DEFAULT_PATH_CAP, "no_candidate_pairs"),
    ],
)
def test_a_report_without_a_witness_builds_no_double(graph, kmax, cap, kind):
    # the cap counts doubled paths from the source's blue edge count, so only
    # a periodic witness needs the doubled graph
    expected = json.dumps(_direct_report(graph, kmax, cap))
    with _refusing_double():
        report = crossed_product_report(graph, kmax, cap)
    assert report.verdict.kind == kind
    assert json.dumps(report.to_json()) == expected


def test_a_large_aperiodic_source_is_decided_without_its_double():
    # the 1,600 x 1,600 double of this graph would hold 2,560,000 rows
    with _refusing_double():
        report = crossed_product_report(flip_graph(40, 40), kmax=1)
    assert report.to_json() == {
        "n1": 40,
        "n2": 40,
        "simple": True,
        "purely_infinite": True,
        "doubled_periodicity": {"kind": "aperiodic", "checked": [[1, 1]], "kmax": 1},
    }


# -- the crossed-product verdict -------------------------------------------------


def test_report_mixed_counts_simple():
    rng = random.Random(4)
    for _ in range(3):
        report = crossed_product_report(random_two_graph(2, 3, rng))
        assert report.simple is True
        assert report.purely_infinite is True
        assert report.verdict.kind == "no_candidate_pairs"


def test_report_flip_simple():
    report = crossed_product_report(flip_graph(2, 2), kmax=2)
    assert report.simple is True and report.purely_infinite is True
    assert report.verdict.kind == "aperiodic"


def test_report_twin_not_simple():
    report = crossed_product_report(twin_graph(2))
    assert report.simple is False
    assert report.purely_infinite is None
    assert report.verdict.kind == PERIODIC
    assert (report.verdict.witness.a, report.verdict.witness.b) == (1, 1)
    # pair notation decodes doubled ids back to source edges
    assert ("b0b1", "r0r1") in report.witness_pairs


def test_report_rejects_degenerate():
    with pytest.raises(DegenerateCountsError):
        crossed_product_report(TwoGraph(1, 2, {(0, 0): (0, 0), (0, 1): (1, 0)}))


def test_report_json_shape():
    out = crossed_product_report(twin_graph(2)).to_json()
    assert out["simple"] is False
    assert out["doubled_periodicity"]["kind"] == PERIODIC
    assert out["witness_pairs"]
