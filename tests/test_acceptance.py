"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every check is exact (integer or rational arithmetic); the runtime
budgets are part of the criteria and are asserted.
"""

import random
import time
from fractions import Fraction

from twograph import (
    BLUE,
    RED,
    Degree,
    FiniteAbelian,
    Solenoid,
    Torus,
    check_conditions,
    crossed_product_report,
    decide_periodicity,
    double,
    flip_graph,
    identity_suite,
    ker_size,
    random_two_graph,
    transfer_eval,
    twin_graph,
    verify_period,
)

from _oracles import (
    easier_periodic_holds,
    pullback_by_listing,
    randomized_reorder,
)


def _criterion(num, description, budget, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    line = (
        f"{'PASS' if ok else 'FAIL'} criterion {num}: {description} "
        f"({elapsed:.2f}s, budget {budget}s)"
    )
    print(line)
    assert ok, line


def test_criterion_1_twin_periodic():
    def check():
        graph = twin_graph(2)
        verdict = decide_periodicity(graph)
        assert verdict.kind == "periodic"
        witness = verdict.witness
        assert (witness.a, witness.b) == (1, 1)
        assert witness.pairing == {
            graph.blue_path(i): graph.red_path(i) for i in range(2)
        }
        # exhaustive re-verification over all 4 (mu, nu) pairs
        assert verify_period(graph, 1, 1, witness.pairing)

    _criterion(1, "twin graph periodic at (1,1) with matched indices", 1.0, check)


def test_criterion_2_flip_aperiodic_with_oracle():
    def check():
        graph = flip_graph(2, 2)
        verdict = decide_periodicity(graph, kmax=3)
        assert verdict.kind == "aperiodic"
        assert verdict.checked == ((1, 1), (2, 2), (3, 3))
        # brute-force segment oracle at (1,1): not periodic on any of
        # the covering degrees, including the 256 paths of degree (4,4)
        for degree in ((2, 2), (3, 3), (4, 4)):
            assert not easier_periodic_holds(graph, 1, 1, degree)
        assert len(graph.enumerate_paths((4, 4))) == 256
        # and the twin graph passes the same oracle, so it separates
        assert easier_periodic_holds(twin_graph(2), 1, 1, (2, 2))

    _criterion(2, "flip graph aperiodic for k <= 3, agrees with oracle", 10.0, check)


def test_criterion_3_crossed_product_verdicts():
    def check():
        rng = random.Random(99)
        for _ in range(2):
            report = crossed_product_report(random_two_graph(2, 3, rng))
            assert report.simple is True and report.purely_infinite is True
            assert report.verdict.kind == "no_candidate_pairs"
        twin_report = crossed_product_report(twin_graph(2))
        assert twin_report.verdict.kind == "periodic"
        assert (twin_report.verdict.witness.a, twin_report.verdict.witness.b) == (1, 1)
        assert twin_report.simple is False

    _criterion(3, "mixed counts simple+purely infinite; twin not simple", 5.0, check)


def test_criterion_4_identity_suite():
    def check():
        for graph in (flip_graph(2, 2), twin_graph(2)):
            checks = {c.name: c for c in identity_suite(graph, max_degree=(2, 2))}
            failed = [c for c in checks.values() if not c.passed]
            assert not failed, failed
            # the suite must include every listed identity
            for name in (
                "transfer-unit",
                "transfer-identity-generators",
                "transfer-identity-all-degrees",
                "transfer-action",
                "module-orthonormal",
                "module-product",
                "cuntz-commutation",
                "covariance",
            ):
                assert name in checks, name
            # all 16 doubled-edge pairs and all 16 degree-(1,1) word
            # pairs are exercised
            assert checks["cuntz-commutation"].cases == 16
            assert checks["covariance"].cases == 25

    _criterion(4, "identity suite exact at degrees <= (2,2), N1=N2=2", 60.0, check)


def test_criterion_5_doubling_bijectivity():
    def check():
        rng = random.Random(7)
        for _ in range(100):
            graph = random_two_graph(rng.choice((2, 3, 4)), rng.choice((2, 3, 4)), rng)
            double(graph)  # construction checks the bijection

    _criterion(5, "doubling of 100 random graphs stays bijective", 5.0, check)


def test_criterion_6_group_arithmetic():
    def check():
        for rank in (1, 2, 3):
            for a in range(1, 21):
                assert ker_size(Torus(rank), a) == a**rank
        dyadic = Solenoid(infinite=(2,))
        assert ker_size(dyadic, 6) == 3
        assert ker_size(dyadic, 8) == 1
        report = check_conditions(FiniteAbelian([2]))
        assert report.multiplicative_kernels.status == "fails"
        assert report.multiplicative_kernels.witness == (2, 2)

    _criterion(6, "kernel arithmetic on tori and solenoids, G3 witness on Z/2", 1.0, check)


def test_criterion_7_transfer_oracle():
    def check():
        for order in range(1, 9):
            group = FiniteAbelian([order])
            tables = [
                [1 if i == j else 0 for i in range(order)] for j in range(order)
            ]
            for a in range(1, 7):
                for f in tables:
                    pulled = pullback_by_listing([order], a, f)
                    for h in tables:
                        product = [x * y for x, y in zip(pulled, h)]
                        lhs = transfer_eval(group, a, product)
                        rhs = [
                            Fraction(x) * y
                            for x, y in zip(f, transfer_eval(group, a, h))
                        ]
                        assert lhs == rhs
            # composition agrees with the combined transfer exactly on
            # multiplicative kernel pairs
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
                    assert agree == multiplicative, (order, a, b)

    _criterion(7, "transfer law and composition on cyclic groups hold exactly", 10.0, check)


def test_criterion_8_factorization_round_trips():
    def check():
        rng = random.Random(11)
        for _ in range(50):
            graph = random_two_graph(rng.randint(1, 3), rng.randint(1, 3), rng)
            for n1 in range(4):
                for n2 in range(4):
                    degree = Degree(n1, n2)
                    red_first = [RED] * n2 + [BLUE] * n1
                    for path in graph.enumerate_paths(degree):
                        shuffled = [BLUE] * n1 + [RED] * n2
                        rng.shuffle(shuffled)
                        for pattern in (red_first, shuffled):
                            expected = path.reorder(pattern)
                            assert (
                                randomized_reorder(graph, path, pattern, rng)
                                == expected
                            )
                            assert graph.path(expected) == path
                        for p1 in range(n1 + 1):
                            for p2 in range(n2 + 1):
                                cut = Degree(p1, p2)
                                head, tail = path.split(cut)
                                assert head * tail == path

    _criterion(8, "reorder confluence and segment/compose round-trips", 30.0, check)
