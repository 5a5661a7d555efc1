import random
from fractions import Fraction

import pytest

from framedvertex.errors import DivisionByZero, InsufficientTruncation
from framedvertex.ratfunc import FR_ONE, FR_ZERO, FRational
from framedvertex.vseries import VSeries, compose_polynomial

from conftest import (agrees, exp_of, fold, is_even, is_odd, localised,
                      log_unit, revert, sqrt_unit)


def fr(x):
    return FRational.from_fraction(Fraction(x))


def series(entries, trunc):
    return VSeries.from_map({e: fr(c) for e, c in entries.items()}, trunc)


def test_mul_basic():
    one_plus = series({0: 1, 1: 1}, 10)
    one_minus = series({0: 1, 1: -1}, 10)
    assert agrees(one_plus * one_minus, series({0: 1, 2: -1}, 10))


def test_geometric_series():
    g = VSeries.one(8) / series({0: 1, 1: -1}, 8)
    assert g == series({e: 1 for e in range(9)}, 8)


def test_derivative_of_laurent():
    s = VSeries.monomial(-1, FR_ONE, 6)
    assert s.derivative() == VSeries.monomial(-2, fr(-1), 5)


def test_sqrt_binomial():
    s = sqrt_unit(series({0: 1, 1: 1}, 5))
    want = series({0: 1, 1: Fraction(1, 2), 2: Fraction(-1, 8),
                   3: Fraction(1, 16), 4: Fraction(-5, 128),
                   5: Fraction(7, 256)}, 5)
    assert s == want
    assert agrees(s * s, series({0: 1, 1: 1}, 5))


def test_sqrt_of_one():
    assert sqrt_unit(VSeries.one(6)) == VSeries.one(6)


def test_sqrt_requires_unit():
    with pytest.raises(ValueError):
        sqrt_unit(series({0: 2}, 4))
    with pytest.raises(ValueError):
        sqrt_unit(VSeries.monomial(1, 1, 4))


def test_log_mercator():
    s = log_unit(series({0: 1, 1: 1}, 5))
    want = series({1: 1, 2: Fraction(-1, 2), 3: Fraction(1, 3),
                   4: Fraction(-1, 4), 5: Fraction(1, 5)}, 5)
    assert s == want
    assert log_unit(VSeries.one(5)).is_zero


def test_log_is_homomorphism():
    a = series({0: 1, 1: 1}, 8)
    b = series({0: 1, 2: 3, 3: -2}, 8)
    assert agrees(log_unit(a * b), log_unit(a) + log_unit(b))


def test_exp_inverts_log():
    a = series({0: 1, 1: 2, 2: -1, 4: 5}, 9)
    assert agrees(exp_of(log_unit(a)), a)


def test_compose_polynomial_at_negative_lead():
    # q(t) = t^2 + 1 at t = v^-1 (1 + v)
    inner = series({-1: 1, 0: 1}, 6)
    got = compose_polynomial([fr(1), fr(0), fr(1)], inner)
    assert agrees(got, series({-2: 1, -1: 2, 0: 2}, 4))


def test_revert_identity():
    v = VSeries.monomial(1, 1, 7)
    assert agrees(revert(v), v)


def test_revert_catalan():
    # v = z - z^2 inverts to z = v + v^2 + 2 v^3 + 5 v^4 + 14 v^5
    a = series({1: 1, 2: -1}, 6)
    z = revert(a)
    assert z == series({1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42}, 6)


def test_revert_round_trip():
    a = series({1: 1, 2: 3, 3: -2, 5: 1}, 10)
    z = revert(a)
    # each inner series has lead 1, so the cut composition is exact
    for outer, inner in ((a, z), (z, a)):
        coeffs = [outer.coeff(k) for k in range(outer.trunc + 1)]
        got = compose_polynomial(coeffs, inner).truncate(outer.trunc)
        assert got == VSeries.monomial(1, 1, 10)


def test_reciprocal_of_laurent():
    s = series({-1: 1, 0: 1}, 5)  # v^-1 (1 + v)
    r = s.reciprocal()
    assert agrees(r * s, VSeries.one(5))
    assert r.lead == 1


def test_zero_divisor():
    with pytest.raises(DivisionByZero):
        VSeries.one(5) / VSeries.zero(5)


def test_truncation_tracking_through_multiplication():
    a = series({1: 1}, 4)     # known through v^4
    b = series({-2: 1}, 10)   # known through v^10
    p = a * b
    assert p.trunc == 2       # min(4 + -2, 10 + 1)
    assert p.coeff(-1) == FR_ONE
    with pytest.raises(InsufficientTruncation):
        p.coeff(3)


def test_minimal_guarantee_product():
    # a product of barely-known series keeps exactly one guaranteed term
    a = series({5: 1}, 5)
    b = series({-10: 1}, -10)
    p = a * b
    assert p.trunc == -5 and p.lead == -5
    with pytest.raises(InsufficientTruncation):
        p.coeff(-4)


def test_parity_helpers():
    s = series({-1: 2, 0: 3, 1: 4, 2: 5}, 6)
    flipped = s.negate_variable()
    assert flipped == series({-1: -2, 0: 3, 1: -4, 2: 5}, 6)
    assert is_even(series({0: 3, 2: 5}, 6))
    assert is_odd(series({-1: 2, 1: 4}, 6))
    assert not is_even(s) and not is_odd(s)


def test_power():
    s = series({1: 1, 2: 1}, 6)
    assert agrees(s ** 3, s * s * s)
    assert (s ** 0) == VSeries.one(6)
    inv2 = s ** -2
    assert agrees(inv2 * s * s, VSeries.one(inv2.trunc))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_power_is_the_repeated_product(k):
    # x ** k against the left fold of k products of x, x ** -k against
    # that of the reciprocal; a unit and a Laurent series
    f = FRational.variable()
    for x in (VSeries(0, [f + 1, 2 * f, -3, f / (f + 1)], 7),
              VSeries(-1, [f, 1, f - 2], 6)):
        for base, e in ((x, k), (x.reciprocal(), -k)):
            want = VSeries.one(x.trunc)
            if k:
                want = base
                for _ in range(k - 1):
                    want = want * base
            assert x ** e == want, (x, e)


def test_power_costs_the_square_and_multiply_products(monkeypatch):
    # the loop starts from the first factor, not from one: x ** 2 is one
    # product, x ** 3 two and x ** 5 three
    calls = []
    mul = VSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(VSeries, "__mul__", counted)
    s = series({0: 1, 1: 2, 3: -1}, 8)
    for k, products in ((2, 1), (3, 2), (5, 3)):
        del calls[:]
        got = s ** k
        assert len(calls) == products, k
    assert got == mul(mul(mul(s, s), mul(s, s)), s)


def test_truncate_below_the_lead_is_zero():
    s = series({2: 1, 3: 3}, 10)
    for trunc in (1, 0, -3):
        cut = s.truncate(trunc)
        assert cut == VSeries.zero(trunc), trunc
    assert VSeries.zero(0) + s == VSeries.zero(0)


def test_truncate_equals_the_constructor_cut():
    # internal and trailing zeros, a negative lead and the zero series;
    # cuts below the lead, at it, on a zero and inside; a cut at or past
    # the guarantee changes nothing
    cases = [series({-2: 1, 0: 5, 1: 0, 3: 2}, 6),
             series({1: 3, 2: 0, 3: 0, 4: -1}, 9),
             series({0: 7}, 4),
             VSeries.zero(5)]
    for s in cases:
        assert s.truncate(s.trunc) is s and s.truncate(s.trunc + 1) is s
        for trunc in range(-4, s.trunc):
            want = VSeries(s.lead or 0, list(s._coeffs), trunc)
            got = s.truncate(trunc)
            assert got == want, (s, trunc)
            assert (got.lead, got._coeffs, got.trunc) == \
                (want.lead, want._coeffs, want.trunc), (s, trunc)
            assert not got._coeffs or not got._coeffs[-1].is_zero


def test_wide_series_take_the_packed_path(packed_sums):
    # 14 coefficients with 100- to 200-bit numerator coefficients over
    # c f^j (f+1)^k: the convolution sums reach 14 products and are packed;
    # each result is checked coefficient by coefficient against folds of
    # + and * of its defining identity
    rng = random.Random(14)
    n = 14

    def wide():
        return localised(rng, (1, 3, 7, 10, 1009), 4, bits=200)

    a = VSeries(0, [wide() for _ in range(n)], n - 1)
    b = VSeries(-2, [wide() for _ in range(n)], n - 3)
    p = a * b
    assert p.lead == -2 and p.trunc == n - 3
    for m in range(-2, n - 2):
        want = fold((a.coeff(i), b.coeff(m - i)) for i in range(m + 3))
        assert p.coeff(m) == want, m
    assert max(packed_sums) == n

    # u r = 1 with a unit u_0 = 3 f / (f+1)^2
    f = FRational.variable()
    del packed_sums[:]
    u = VSeries(0, [3 * f / (f + 1) ** 2] + [wide() for _ in range(n - 1)],
                n - 1)
    r = u.reciprocal()
    for m in range(n):
        got = fold((u.coeff(i), r.coeff(m - i)) for i in range(m + 1))
        assert got == (FR_ONE if m == 0 else FR_ZERO), m
    assert max(packed_sums) == n - 1

    # e = exp(a) solves v e' = (v a') e: m e_m = sum_k k a_k e_(m-k)
    del packed_sums[:]
    a = VSeries(1, [wide() for _ in range(n)], n)
    e = exp_of(a)
    assert e.coeff(0) == FR_ONE
    for m in range(1, n + 1):
        want = fold((a.coeff(k) * k, e.coeff(m - k)) for k in range(1, m + 1))
        assert e.coeff(m) * m == want, m
    assert max(packed_sums) == n
