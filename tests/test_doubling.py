"""The doubled graph and the crossed-product verdict."""

import random

import pytest

from twograph import (
    Degree,
    DegenerateCountsError,
    ModuleVector,
    PERIODIC,
    TwoGraph,
    crossed_product_report,
    double,
    flip_graph,
    random_two_graph,
    twin_graph,
)


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


def test_commutation_holds_in_the_word_algebra():
    # cross-module: the doubled rule matches products of basis vectors
    rng = random.Random(3)
    graphs = [twin_graph(2), flip_graph(2, 3)]
    graphs += [random_two_graph(rng.randint(2, 3), rng.randint(2, 3), rng) for _ in range(3)]
    for g in graphs:
        d = double(g)
        for i in range(d.n_blue):
            e, f = d.blue_pair(i)
            blue_vec = ModuleVector.basis(
                g, Degree(1, 0), g.blue_path(e), g.blue_path(f)
            )
            for j in range(d.n_red):
                gg, h = d.red_pair(j)
                red_vec = ModuleVector.basis(
                    g, Degree(0, 1), g.red_path(gg), g.red_path(h)
                )
                j2, i2 = d.commute_blue_red(i, j)
                g2, h2 = d.red_pair(j2)
                e2, f2 = d.blue_pair(i2)
                lhs = blue_vec * red_vec
                rhs = ModuleVector.basis(
                    g, Degree(0, 1), g.red_path(g2), g.red_path(h2)
                ) * ModuleVector.basis(
                    g, Degree(1, 0), g.blue_path(e2), g.blue_path(f2)
                )
                assert lhs == rhs


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
