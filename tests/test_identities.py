import json
import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpositivity import cli, identities, identity_commands, qfactor
from qpositivity.errors import IdentityViolation
from qpositivity.identities import (
    b_poly_check,
    b_poly_direct,
    b_poly_recurrence,
    borwein_sum,
    chu_vandermonde_check,
    e_main_check,
    positivity_report,
    q_binomial_theorem_check,
    r_poly,
    super_catalan_check,
    super_catalan_q_direct,
    super_catalan_q_recurrence,
    von_szily_classical,
    von_szily_q,
)
from qpositivity.landau import TupleSpec
from qpositivity.polyring import IntPoly, to_image
from qpositivity.qfactor import d_polynomial_naive, q_binomial


def reference_szily_sum(n, m, r, s, binom, shift):
    """The von Szily sum term by term, k over [-min(n, m), min(n, m)].

    Kept as an oracle for `identities._szily_sum`, which sums the k and -k
    terms as one.
    """
    total = 0
    for k in range(-min(n, m), min(n, m) + 1):
        term = shift(binom(2 * n, n + k) ** r * binom(2 * m, m + k) ** s, k * (k - 1) // 2)
        total = total - term if k % 2 else total + term
    return total


def reference_borwein(n):
    """The Borwein sum term by term, k over [-n/3, n/3]: the oracle for `borwein_sum`."""
    total = IntPoly.zero()
    for k in range(-(n // 3), n // 3 + 1):
        term = q_binomial(2 * n, n + 3 * k).shifted(k * (k - 1) // 2 + 4 * k * k)
        total = total + (-term if k % 2 else term)
    return total


class TestSuperCatalanDirect:
    def test_small_values(self):
        assert super_catalan_q_direct(1, 1) == IntPoly([1, 1])
        assert super_catalan_q_direct(1, 0) == IntPoly([1, 1])
        assert super_catalan_q_direct(2, 1) == IntPoly([1, 1, 1, 1])
        assert super_catalan_q_direct(0, 0) == IntPoly.one()

    def test_diagonal_and_axis_are_central_gaussians(self):
        for n in range(8):
            central = q_binomial(2 * n, n)
            assert super_catalan_q_direct(n, n) == central
            assert super_catalan_q_direct(n, 0) == central

    def test_symmetry(self):
        for n in range(7):
            for m in range(7):
                assert super_catalan_q_direct(n, m) == super_catalan_q_direct(m, n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            super_catalan_q_direct(-1, 2)


class TestSuperCatalanRoutes:
    def test_recurrence_matches_direct(self):
        for n in range(8):
            for m in range(8):
                assert super_catalan_q_recurrence(n, m) == super_catalan_q_direct(n, m), (n, m)

    def test_von_szily_matches_direct(self):
        for n in range(7):
            for m in range(7):
                assert von_szily_q(n, m) == super_catalan_q_direct(n, m), (n, m)

    def test_von_szily_hand_case(self):
        assert von_szily_q(1, 1) == IntPoly([1, 1])

    def test_von_szily_axis_needs_no_shift(self):
        for m in range(6):
            assert von_szily_q(0, m) == q_binomial(2 * m, m)

    def test_classical_values(self):
        assert von_szily_classical(0, 0) == 1
        assert von_szily_classical(1, 1) == 2
        assert von_szily_classical(2, 1) == 4

    def test_classical_is_the_q1_specialization(self):
        for n in range(7):
            for m in range(7):
                assert super_catalan_q_direct(n, m).evaluate(1) == von_szily_classical(n, m)


class TestBPoly:
    def test_diagonal_is_one(self):
        for n in range(8):
            assert b_poly_direct(n, n) == IntPoly.one()
            assert b_poly_recurrence(n, n) == IntPoly.one()

    def test_2_1_is_central_gaussian(self):
        assert b_poly_direct(2, 1) == IntPoly([1, 1, 2, 1, 1])

    def test_1_0(self):
        assert b_poly_direct(1, 0) == IntPoly([1, 1])

    def test_recurrence_matches_direct(self):
        for n in range(9):
            for m in range(n + 1):
                assert b_poly_recurrence(n, m) == b_poly_direct(n, m), (n, m)

    def test_rejects_m_above_n(self):
        with pytest.raises(ValueError):
            b_poly_direct(1, 2)
        with pytest.raises(ValueError):
            b_poly_recurrence(1, 2)


class TestSummationChecks:
    def test_chu_vandermonde_exhaustive_small(self):
        assert all(
            chu_vandermonde_check(a, b, c)
            for a in range(7)
            for b in range(7)
            for c in range(7)
        )

    def test_chu_vandermonde_degenerate_a(self):
        assert chu_vandermonde_check(0, 5, 3)

    def test_chu_vandermonde_out_of_range_c(self):
        assert chu_vandermonde_check(2, 2, 5)  # both sides vanish

    def test_folded_chu_vandermonde(self):
        # a = b is summed in pairs k, c - k: odd and even c, c > a, and c > 2a
        for a in range(27):
            for c in range(2 * a + 2):
                assert chu_vandermonde_check(a, a, c), (a, c)

    def test_widths_from_the_closed_form_equal_the_summed_ones(self, monkeypatch):
        # the summed bounds the checks once used, against the one C(., .) they use now
        span = range(17)
        for a in span:
            for b in span:
                for c in span:
                    ks = range(max(0, c - b), min(a, c) + 1)
                    summed = sum(comb(a, k) * comb(b, c - k) for k in ks)
                    old = identities._width(comb(a + b, c), summed)
                    assert old == identities._width(comb(a + b, c)), (a, b, c)
        # every Chu-Vandermonde sum e_main_check checks is at W = 32 or 64, one memo each
        width, widths = identities._width, []
        monkeypatch.setattr(identities, "_width", lambda *bs: widths.append(width(*bs)) or widths[-1])
        monkeypatch.setattr(identities, "_IMAGES", {})
        assert all(e_main_check(n, p) for n in span for p in span)
        assert len(widths) == len(span) * sum(p + 2 for p in span)  # the single sum, p + 1 inner
        assert set(widths) == {32, 64}
        assert set(identities._IMAGES) == {32, 64}

    def test_e_main_small(self):
        assert all(e_main_check(n, p) for n in range(6) for p in range(6))

    def test_e_main_hand_case(self):
        assert e_main_check(1, 1)
        assert q_binomial(4, 1) == IntPoly([1, 1, 1, 1])

    def test_q_binomial_theorem(self):
        assert all(q_binomial_theorem_check(n) for n in range(11))


class TestRPoly:
    def test_unit_powers_give_pure_shift(self):
        for n in range(6):
            for m in range(6):
                assert r_poly(n, m, 1, 1) == IntPoly.monomial(n * m), (n, m)

    def test_axis_division_is_exact(self):
        assert r_poly(0, 3, 1, 2) == q_binomial(6, 3)

    def test_positive_for_higher_powers(self):
        assert positivity_report(r_poly(2, 1, 2, 1)).is_positive
        assert positivity_report(r_poly(2, 2, 2, 2)).is_positive
        assert positivity_report(r_poly(3, 2, 2, 3)).is_positive

    def test_rejects_non_positive_powers(self):
        with pytest.raises(ValueError):
            r_poly(1, 1, 0, 1)


class TestRRoute:
    """`r_poly` sums in the image; the term-by-term IntPoly sum is its oracle."""

    def test_times_a_is_the_term_by_term_sum(self):
        for n in range(10):
            for m in range(10):
                a = super_catalan_q_direct(n, m)
                for r in (1, 2, 3):
                    for s in (1, 2, 3):
                        expected = reference_szily_sum(n, m, r, s, q_binomial, IntPoly.shifted)
                        assert r_poly(n, m, r, s) * a == expected, (n, m, r, s)

    def test_byte_widths_keep_the_bound_below_half_a_digit(self):
        for bound in (0, 1, 127, 128, 255, 256, 2**15 - 1, 2**15, 2**16 - 1, 2**16):
            w = identities._width(bound, unit=8)
            assert w % 8 == 0 and bound < 2 ** (w - 1), bound
            assert w == 8 or 2 ** (w - 9) <= bound, bound  # the least such width

    @pytest.mark.parametrize("case", [(2, 3, 1, 1), (3, 4, 3, 3)])
    def test_bound_of_whole_bytes_gets_one_more_byte(self, case):
        # bounds 252 and 3,938,892,288: 8 and 32 bits, the edge of the width rule
        bound = identities._szily_bound(*case)
        assert bound.bit_length() % 8 == 0
        assert identities._width(bound, unit=8) == bound.bit_length() + 8
        expected = reference_szily_sum(*case, q_binomial, IntPoly.shifted)
        assert r_poly(*case) * super_catalan_q_direct(*case[:2]) == expected

    @given(st.lists(st.integers(0, 127), max_size=20), st.sampled_from([8, 16, 24, 72]))
    def test_respaced_is_the_image_at_the_wider_width(self, cs, wide):
        x = to_image(tuple(cs), 8)
        assert identities._respaced(x, 8, wide, len(cs)) == to_image(tuple(cs), wide)


class TestSymmetry:
    """`qpos identities` checks each unordered pair {n, m} of these rows once."""

    def test_super_catalan_check(self):
        for n in range(7):
            for m in range(7):
                assert super_catalan_check(n, m) == super_catalan_check(m, n), (n, m)

    def test_r_poly_swaps_its_powers(self):
        for n in range(7):
            for m in range(7):
                for r in (1, 2):
                    for s in (1, 2):
                        assert r_poly(n, m, r, s) == r_poly(m, n, s, r), (n, m, r, s)


class TestBorwein:
    def test_trivial_cases(self):
        assert borwein_sum(0) == IntPoly.one()
        assert borwein_sum(1) == IntPoly([1, 1])

    def test_n_3(self):
        assert borwein_sum(3) == IntPoly([1, 1, 2, 3, 2, 2, 3, 2, 1, 1])

    def test_positive_up_to_10(self):
        for n in range(11):
            assert positivity_report(borwein_sum(n)).is_positive, n

    def test_leaves_the_gaussian_cache_empty(self, monkeypatch):
        # each row-2n Gaussian is read once, so caching it would only hold it
        monkeypatch.setattr(qfactor, "_QBINOM", {})
        borwein_sum(12)
        assert len(qfactor._QBINOM) == 0


class TestFoldedSums:
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_szily_sum_matches_the_term_by_term_sum(self, r, s, monkeypatch):
        monkeypatch.setattr(identities, "_IMAGES", {})
        for n in range(10):
            for m in range(10):
                w = identities._width(identities._szily_bound(n, m, r, s))
                for binom in (
                    lambda a, b: identities._binomial_image(a, b, w),
                    lambda a, b: to_image(q_binomial(a, b).coeffs, w),
                ):
                    expected = reference_szily_sum(n, m, r, s, binom, lambda x, e: x << w * e)
                    got = identities._szily_sum(
                        n, m, w, lambda k: binom(2 * n, n + k) ** r * binom(2 * m, m + k) ** s
                    )
                    assert got == expected, (n, m, w)

    def test_borwein_matches_the_term_by_term_sum(self):
        for n in range(31):
            assert borwein_sum(n) == reference_borwein(n), n


class TestPositivityReport:
    def test_gap_is_positive_but_not_unimodal(self):
        rep = positivity_report(IntPoly([1, 0, 1]))
        assert rep.is_positive
        assert rep.is_symmetric
        assert not rep.is_unimodal

    def test_negative_positions(self):
        rep = positivity_report(IntPoly([1, -1]))
        assert rep.negative_positions == (1,)
        assert not rep.is_positive

    def test_gaussian_is_symmetric_unimodal(self):
        rep = positivity_report(q_binomial(4, 2))
        assert rep.degree == 4
        assert rep.is_positive and rep.is_symmetric and rep.is_unimodal

    def test_zero_polynomial(self):
        rep = positivity_report(IntPoly())
        assert rep.degree is None
        assert rep.is_positive

    def test_asymmetric(self):
        rep = positivity_report(IntPoly([1, 2, 2]))
        assert not rep.is_symmetric
        assert rep.is_unimodal

    def test_descend_then_ascend_is_not_unimodal(self):
        assert not positivity_report(IntPoly([2, 1, 3])).is_unimodal

    @pytest.mark.parametrize(
        "cs",
        [
            [1, 3, 2, 3, 1],
            [1, 3, 2, 2, 3, 1],
            [1, 2, 2, 1],
            [2, 1, 1, 2],
            [1, 2, 2, 2, 1],
            [2, 1, 1, 1, 2],
            [1, 2, 1, 1, 2, 1],
            [1, 2, 3, 2, 1],
            [1, 2, 3, 3, 2, 1],
            [2, 1, 2],
            [3, 3],
            [5],
            [-1, 2, -1],
            [1, -2, -2, 1],
        ],
    )
    def test_symmetric_rows_match_the_brute_force_oracle(self, cs):
        rep = positivity_report(IntPoly(cs))
        assert rep.is_symmetric
        assert rep.is_unimodal == _unimodal(cs)


def _unimodal(cs) -> bool:
    """Some peak p has cs rising weakly up to it and falling weakly after it."""
    rises = lambda xs: all(x <= y for x, y in zip(xs, xs[1:]))
    return any(rises(cs[: p + 1]) and rises(cs[p:][::-1]) for p in range(max(len(cs), 1)))


@given(st.lists(st.integers(-3, 3), max_size=8), st.integers(1, 3), st.booleans())
def test_unimodal_flag_of_palindromes(middle, end, odd):
    low = [end, *middle]
    cs = low + low[: len(low) - odd][::-1]
    rep = positivity_report(IntPoly(cs))
    assert rep.is_symmetric
    assert rep.is_unimodal == _unimodal(cs)


@given(st.lists(st.integers(-5, 5), max_size=15))
def test_unimodal_flag_of_any_row(cs):
    assert positivity_report(IntPoly(cs)).is_unimodal == _unimodal(IntPoly(cs).coeffs)


@given(st.lists(st.integers(-5, 5), max_size=15))
def test_report_flags_follow_from_coefficients(cs):
    p = IntPoly(cs)
    rep = positivity_report(p)
    assert rep.is_positive == all(c >= 0 for c in p.coeffs)
    assert rep.is_positive == (len(rep.negative_positions) == 0)
    assert rep.is_symmetric == (p.coeffs == p.coeffs[::-1])
    assert rep.degree == p.degree
    assert rep.min_coeff == min(p.coeffs, default=0)


@given(st.integers(0, 5), st.integers(0, 5))
def test_von_szily_never_violates(n, m):
    try:
        von_szily_q(n, m)
    except IdentityViolation:  # pragma: no cover - would falsify the identity
        pytest.fail(f"unexpected violation at ({n}, {m})")


class TestKroneckerImage:
    def test_image_memo_matches_q_binomial(self, monkeypatch):
        monkeypatch.setattr(identities, "_IMAGES", {})
        for n in range(65):
            for m in range(n + 1):
                image = identities._binomial_image(n, m, 64)
                assert image == to_image(q_binomial(n, m).coeffs, 64), (n, m)

    @pytest.mark.parametrize("w", [64, 128])
    def test_round_trip_at_the_coefficient_limit(self, w):
        top = 2 ** (w - 1) - 1
        for cs in ([top], [-top], [top, -top, 0, top], [-top, top, -top], [0, 0, -1], [1, -top]):
            p = IntPoly(cs)
            assert identities._decode(to_image(p.coeffs, w), w) == p, cs
        assert identities._decode(0, w) == IntPoly.zero()

    @given(st.lists(st.integers(-(2**63) + 1, 2**63 - 1), max_size=12))
    def test_round_trip(self, cs):
        p = IntPoly(cs)
        assert to_image(p.coeffs, 64) == p.evaluate(2**64)
        assert identities._decode(to_image(p.coeffs, 64), 64) == p

    def test_width_keeps_bounds_below_half_a_digit(self):
        assert identities._width(0) == identities._width(2**31 - 1) == 32
        assert identities._width(2**31) == identities._width(2**63 - 1) == 64
        assert identities._width(2**63) == 96
        # the largest bound `identities --max-n 16` meets
        assert identities._szily_bound(16, 16, 1, 1) == comb(64, 32)
        assert identities._width(comb(64, 32)) == 64

    def test_one_bit_below_the_width_images_collide(self):
        # P - Q = 2**63 - q: coefficients within the bound 2**62, distinct,
        # yet equal at q = 2**63
        p, q = IntPoly([2**62]), IntPoly([-(2**62), 1])
        w = identities._width(2**62)
        assert w == 64
        assert p.evaluate(2 ** (w - 1)) == q.evaluate(2 ** (w - 1))
        assert to_image(p.coeffs, w) != to_image(q.coeffs, w)
        assert to_image(p.coeffs, w) == p.evaluate(2**w)

    def test_undivisible_von_szily_sum_is_a_violation(self, monkeypatch):
        szily_sum = identities._szily_sum
        monkeypatch.setattr(identities, "_szily_sum", lambda *args: szily_sum(*args) + 1)
        with pytest.raises(IdentityViolation):
            von_szily_q(2, 1)
        assert von_szily_q(0, 3) == q_binomial(6, 3) + 1  # q^0 divides anything


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty factorial-ratio memos; the d_polynomial calls that got a start are listed."""
    for owner, name in ((qfactor, "_QBINOM"), (identities, "_A_MEMO"), (identities, "_B_LAST")):
        monkeypatch.setattr(owner, name, {})
    grown = []
    build = qfactor.d_polynomial

    def counted(t, start=None):
        if start is not None:
            grown.append((start[0], t))
        return build(t, start)

    monkeypatch.setattr(qfactor, "d_polynomial", counted)
    monkeypatch.setattr(identities, "d_polynomial", counted)
    return grown


# each direct route and the factorial ratio it builds, its zero entries dropped
DIRECT_ROUTES = {
    "q_binomial": (q_binomial, lambda n, m: ((n,), (m, n - m))),
    "super_catalan_q_direct": (super_catalan_q_direct, lambda n, m: ((2 * n, 2 * m), (n, n + m, m))),
    "b_poly_direct": (b_poly_direct, lambda n, m: ((2 * n, m), (n, 2 * m, n - m))),
}


def _from_scratch(num, den):
    """The ratio by multiplying and dividing q-factorials: no memo, no neighbour."""
    drop = lambda xs: tuple(x for x in xs if x) or (1,)
    return d_polynomial_naive(TupleSpec(drop(num), drop(den)))


class TestDirectMemos:
    @pytest.mark.parametrize("seed", range(3))
    def test_any_request_order_gives_the_from_scratch_ratios(self, fresh_memos, seed):
        cases = [
            (name, n, m)
            for name in DIRECT_ROUTES
            for n in range(9)
            for m in range(9 if name == "super_catalan_q_direct" else n + 1)
        ]
        random.Random(seed).shuffle(cases)
        for name, n, m in cases:
            route, ratio = DIRECT_ROUTES[name]
            assert route(n, m) == _from_scratch(*ratio(n, m)), (name, n, m)
        # a shuffled order still finds memoized neighbours for some misses
        assert fresh_memos

    def test_misses_grow_from_memoized_neighbours_only(self, fresh_memos):
        q_binomial(9, 4)
        q_binomial(9, 5)
        super_catalan_q_direct(3, 2)
        super_catalan_q_direct(4, 2)
        super_catalan_q_direct(2, 3)  # its mirror A_(3,2) is memoized, but never a start
        for m in range(4):
            b_poly_direct(5, m)
        b_poly_direct(6, 0)  # another row: from scratch
        assert [(s.a, s.b, t.a, t.b) for s, t in fresh_memos] == [
            ((9,), (4, 5), (9,), (5, 4)),
            ((6, 4), (3, 5, 2), (8, 4), (4, 6, 2)),
            ((10,), (5, 5), (10, 1), (5, 2, 4)),
            ((10, 1), (5, 2, 4), (10, 2), (5, 4, 3)),
            ((10, 2), (5, 4, 3), (10, 3), (5, 6, 2)),
        ]
        assert list(identities._B_LAST) == [(6, 0)]

    def test_a_wrong_memo_entry_fails_the_super_catalan_check(self, fresh_memos):
        assert super_catalan_check(3, 2)
        identities._A_MEMO[3, 2] += IntPoly.monomial(3)
        assert not super_catalan_check(3, 2)
        # a mirror that agrees does not hide it: the recurrence and von Szily legs differ
        identities._A_MEMO[2, 3] = identities._A_MEMO[3, 2]
        assert not super_catalan_check(3, 2)

    def test_a_rebound_gaussian_is_encoded_afresh(self, monkeypatch):
        assert r_poly(2, 1, 1, 1) == IntPoly.monomial(2)
        wrong = lambda n, m: q_binomial(n, m) + (1 if (n, m) == (4, 2) else 0)
        monkeypatch.setattr(identities, "q_binomial", wrong)
        assert not identity_commands._verdict(lambda: r_poly(2, 1, 1, 1) == IntPoly.monomial(2))


@pytest.fixture
def broken_image(monkeypatch, request):
    """Image memos with one Gaussian off by 1: [2 over 1] = 2 + q instead of
    1 + q, or the entry given as the fixture's parameter.

    Every memo is made broken, at any W and each time a row refills one: it
    holds [n over n//2] for n <= 16, and then the wrong entry.
    """
    entry = getattr(request, "param", (2, 1))

    class Broken(dict):
        def setdefault(self, w, default=None):
            if w not in self:
                self[w] = {}
                for n in range(17):
                    identities._binomial_image(n, n // 2, w)
                self[w][entry] += 1
            return self[w]

    monkeypatch.setattr(identities, "_IMAGES", Broken())
    identities._a_recur.cache_clear()
    identities._b_recur.cache_clear()
    yield
    identities._a_recur.cache_clear()
    identities._b_recur.cache_clear()


class TestChecksCanFail:
    def test_checks_see_a_wrong_gaussian(self, broken_image):
        assert not chu_vandermonde_check(1, 1, 1)
        assert not e_main_check(0, 1)
        assert not q_binomial_theorem_check(2)
        assert not super_catalan_check(0, 1)
        assert not b_poly_check(2, 0)

    @pytest.mark.parametrize("broken_image", [(3, 1)], ids=["3-over-1"], indirect=True)
    def test_e_main_checks_each_inner_sum(self, broken_image):
        # the single sum for (2, 2) never reads [3 over 1]; the inner sum for j = 1 does
        assert chu_vandermonde_check(4, 4, 2)
        assert not chu_vandermonde_check(1, 3, 1)
        assert not e_main_check(2, 2)

    @pytest.mark.parametrize("broken_image", [(4, 2)], ids=["4-over-2"], indirect=True)
    def test_folded_chu_vandermonde_reads_the_middle_term(self, broken_image):
        # of the a = b = 4, c = 4 sum, only the middle term k = 2 reads [4 over 2]
        assert not chu_vandermonde_check(4, 4, 4)

    def test_cli_reports_the_failing_cases(self, broken_image, capsys):
        code = cli.main(["identities", "--max-n", "4", "--no-timing"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 3
        failures = {rec["payload"]["identity"]: rec["payload"]["failures"] for rec in records}
        assert {"a": 1, "b": 1, "c": 1} in failures["chu-vandermonde"]
        assert {"n": 0, "p": 1} in failures["double-chu-vandermonde"]
        assert {"n": 2} in failures["q-binomial-theorem"]
        assert {"n": 0, "m": 1} in failures["super-catalan-three-way"]
        assert {"n": 2, "m": 0} in failures["b-recurrence"]
        # the R row sums over IntPoly, so a wrong image cannot reach it
        assert failures.pop("r-unit-shift") == []
        assert all(failures.values())

    @pytest.mark.parametrize("broken_image", [(4, 1)], ids=["4-over-1"], indirect=True)
    def test_cli_sees_a_wrong_lower_half_gaussian(self, broken_image, capsys):
        code = cli.main(["identities", "--max-n", "4", "--no-timing"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 3
        failures = {rec["payload"]["identity"]: rec["payload"]["failures"] for rec in records}
        assert {"a": 1, "b": 3, "c": 1} in failures["chu-vandermonde"]
        # the folded von Szily sum reads [2n over n+k] for k >= 0 only, and
        # the recurrence at --max-n 4 never reaches [4 over 1]
        assert failures["super-catalan-three-way"] == []

    def test_cli_reports_what_each_order_computes(self, broken_image, capsys):
        cli.main(["identities", "--max-n", "4", "--no-timing"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        failures = {rec["payload"]["identity"]: rec["payload"]["failures"] for rec in records}
        super_catalan = [
            {"n": n, "m": m}
            for n in range(5)
            for m in range(5)
            if not identity_commands._verdict(super_catalan_check, n, m)
        ]
        assert super_catalan and failures["super-catalan-three-way"] == super_catalan

    def test_r_route_sees_a_wrong_gaussian(self, monkeypatch, capsys):
        def wrong(n, m):
            return IntPoly([2, 1]) if (n, m) == (2, 1) else q_binomial(n, m)

        monkeypatch.setattr(identities, "q_binomial", wrong)
        with pytest.raises(IdentityViolation):
            r_poly(1, 1, 1, 1)
        code = cli.main(["identities", "--max-n", "4", "--no-timing"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 3
        failures = {rec["payload"]["identity"]: rec["payload"]["failures"] for rec in records}
        assert {"n": 1, "m": 1} in failures.pop("r-unit-shift")
        assert not any(failures.values())

    def test_r_row_reports_what_each_order_computes(self, monkeypatch, capsys):
        def wrong(n, m):
            return IntPoly([2, 1]) if (n, m) == (4, 3) else q_binomial(n, m)

        monkeypatch.setattr(identities, "q_binomial", wrong)
        cli.main(["identities", "--max-n", "4", "--no-timing"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        failures = {rec["payload"]["identity"]: rec["payload"]["failures"] for rec in records}
        unit_shift = [
            {"n": n, "m": m}
            for n in range(5)
            for m in range(5)
            if not identity_commands._verdict(lambda: r_poly(n, m, 1, 1) == IntPoly.monomial(n * m))
        ]
        assert unit_shift and failures["r-unit-shift"] == unit_shift
