"""Acceptance gate: the binding end-to-end checks, one test per criterion.

Everything here is exact integer/polynomial equality; the only tolerances
are the runtime budgets, which are asserted where the contract states one.
Each criterion reports a single PASS/FAIL line (see conftest).
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from qpositivity import (
    IntPoly,
    NotPolynomial,
    TupleSpec,
    b_poly_direct,
    b_poly_recurrence,
    borwein_sum,
    chu_vandermonde_check,
    classical_ratio,
    d_polynomial,
    d_polynomial_naive,
    e_main_check,
    enumerate_tuples,
    landau_check,
    positivity_report,
    q_binomial,
    q_binomial_theorem_check,
    r_poly,
    ratio_exponents,
    scaled_ratios,
    super_catalan_q_direct,
    super_catalan_q_recurrence,
    von_szily_q,
)


def _descending_tuples(size, max_entry):
    if size == 0:
        yield ()
        return
    for first in range(max_entry, 0, -1):
        for rest in _descending_tuples(size - 1, first):
            yield (first, *rest)


def _canonical_pairs(max_entry, a_sizes, b_sizes):
    a_sides = [t for size in a_sizes for t in _descending_tuples(size, max_entry)]
    b_sides = [t for size in b_sizes for t in _descending_tuples(size, max_entry)]
    for a in a_sides:
        for b in b_sides:
            if not set(a) & set(b):
                yield TupleSpec(a, b)


@functools.lru_cache(maxsize=1)
def _equivalence_corpus():
    """Criterion 2 workload: both routes on every tuple, collecting results.

    Returns (number checked, tuple of (spec, polynomial) pairs for the
    polynomial cases).  Cached so criterion 3 reuses the polynomials.
    """
    produced = []
    checked = 0
    for t in _canonical_pairs(12, a_sizes=(1, 2), b_sizes=(1, 2, 3)):
        checked += 1
        try:
            fast = d_polynomial(t)
        except NotPolynomial:
            with pytest.raises(NotPolynomial):
                d_polynomial_naive(t)
            continue
        assert fast == d_polynomial_naive(t), t
        produced.append((t, fast))

    rng = random.Random(0x5EED)
    found = 0
    draws = 0
    while found < 200:
        draws += 1
        assert draws < 100_000, "rejection sampling stalled"
        a = tuple(
            sorted((rng.randint(13, 24) for _ in range(rng.randint(1, 2))), reverse=True)
        )
        b = tuple(
            sorted((rng.randint(13, 24) for _ in range(rng.randint(1, 3))), reverse=True)
        )
        if set(a) & set(b):
            continue
        t = TupleSpec(a, b)
        if not landau_check(t).holds:
            continue
        fast = d_polynomial(t)
        assert fast == d_polynomial_naive(t), t
        produced.append((t, fast))
        found += 1
    return checked, tuple(produced)


def test_criterion_01_gaussian_ground_truth(criterion):
    with criterion(1, "Gaussian polynomial ground truth", budget=1.0):
        assert q_binomial(4, 2) == IntPoly([1, 1, 2, 1, 1])
        for n in range(31):
            for m in range(n + 1):
                assert q_binomial(n, m).evaluate(1) == math.comb(n, m), (n, m)


def test_criterion_02_route_equivalence(criterion):
    with criterion(2, "factorial-ratio route equivalence", budget=60.0):
        checked, produced = _equivalence_corpus()
        # 90 descending a-sides times 454 b-sides, minus overlapping pairs
        assert checked == 27_522
        assert len(produced) >= 200


def test_criterion_03_q1_degeneration(criterion):
    with criterion(3, "q=1 degeneration to classical ratios"):
        _, produced = _equivalence_corpus()
        for t, poly in produced:
            assert Fraction(poly.evaluate(1)) == classical_ratio(t), t


def test_criterion_04_super_catalan_three_way(criterion):
    with criterion(4, "super Catalan three-way equivalence", budget=120.0):
        for n in range(13):
            for m in range(13):
                direct = super_catalan_q_direct(n, m)
                assert direct == super_catalan_q_recurrence(n, m), (n, m)
                assert direct == von_szily_q(n, m), (n, m)
                assert positivity_report(direct).is_positive, (n, m)


def test_criterion_05_b_family(criterion):
    with criterion(5, "B-family recurrence equivalence", budget=120.0):
        for n in range(16):
            for m in range(n + 1):
                direct = b_poly_direct(n, m)
                assert direct == b_poly_recurrence(n, m), (n, m)
                assert positivity_report(direct).is_positive, (n, m)
            assert b_poly_direct(n, n) == IntPoly.one()


def test_criterion_06_identity_sweeps(criterion):
    with criterion(6, "summation identity sweeps", budget=60.0):
        for a in range(9):
            for b in range(9):
                for c in range(9):
                    assert chu_vandermonde_check(a, b, c), (a, b, c)
        for n in range(7):
            for p in range(7):
                assert e_main_check(n, p), (n, p)
        for n in range(13):
            assert q_binomial_theorem_check(n), n


def test_criterion_07_r_factorization(criterion):
    with criterion(7, "R-factorization"):
        for n in range(11):
            for m in range(11):
                assert r_poly(n, m, 1, 1) == IntPoly.monomial(n * m), (n, m)
        for n in range(7):
            for m in range(7):
                for r in range(1, 4):
                    for s in range(1, 4):
                        # exact division succeeding is part of the claim
                        rep = positivity_report(r_poly(n, m, r, s))
                        assert rep.is_positive, (n, m, r, s)


def test_criterion_08_borwein_positivity(criterion):
    with criterion(8, "Borwein-type sums positive", budget=30.0):
        for n in range(16):
            assert positivity_report(borwein_sum(n)).is_positive, n


def test_criterion_09_positivity_experiment(criterion):
    with criterion(9, "positivity experiment to n=20", budget=600.0):
        tuples = list(enumerate_tuples(1, 2, 16, balanced_only=True))
        tuples += enumerate_tuples(2, 3, 16, balanced_only=True)
        assert len(tuples) > 20  # a real family, not a degenerate handful
        for t in tuples:
            for n, poly in enumerate(scaled_ratios(t, 20), start=1):
                negatives = [c for c in poly.coeffs if c < 0]
                assert not negatives, (t, n)


def test_criterion_10_landau_correctness(criterion):
    with criterion(10, "floor-sum criterion vs scaled exponents"):
        v = landau_check(TupleSpec((1, 1), (2,)))
        assert not v.holds
        assert v.witness == Fraction(1, 2)
        assert v.min_value == -1
        for t in _all_pairs_with_entries_up_to_8():
            exponents_clean = all(
                min(ratio_exponents(t.scaled(n)).values(), default=0) >= 0
                for n in range(1, 11)
            )
            assert landau_check(t).holds == exponents_clean, t


def _all_pairs_with_entries_up_to_8():
    for a_size in (1, 2):
        for b_size in (1, 2, 3):
            for a in _descending_tuples(a_size, 8):
                for b in _descending_tuples(b_size, 8):
                    yield TupleSpec(a, b)
