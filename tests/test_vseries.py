from fractions import Fraction

import pytest

from framedvertex.errors import (InsufficientTruncation, InvalidComposition,
                                 NotAUnit, NotInvertible, ZeroDivisor)
from framedvertex.ratfunc import FR_ONE, FRational
from framedvertex.vseries import (VSeries, compose_polynomial, exp_of,
                                  log_unit, revert, sqrt_unit)


def fr(x):
    return FRational.from_fraction(Fraction(x))


def series(entries, trunc):
    return VSeries.from_map({e: fr(c) for e, c in entries.items()}, trunc)


def test_mul_basic():
    one_plus = series({0: 1, 1: 1}, 10)
    one_minus = series({0: 1, 1: -1}, 10)
    assert (one_plus * one_minus).agrees_with(series({0: 1, 2: -1}, 10))


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
    assert (s * s).agrees_with(series({0: 1, 1: 1}, 5))


def test_sqrt_of_one():
    assert sqrt_unit(VSeries.one(6)) == VSeries.one(6)


def test_sqrt_requires_unit():
    with pytest.raises(NotAUnit):
        sqrt_unit(series({0: 2}, 4))
    with pytest.raises(NotAUnit):
        sqrt_unit(VSeries.v(4))


def test_log_mercator():
    s = log_unit(series({0: 1, 1: 1}, 5))
    want = series({1: 1, 2: Fraction(-1, 2), 3: Fraction(1, 3),
                   4: Fraction(-1, 4), 5: Fraction(1, 5)}, 5)
    assert s == want
    assert log_unit(VSeries.one(5)).is_zero


def test_log_is_homomorphism():
    a = series({0: 1, 1: 1}, 8)
    b = series({0: 1, 2: 3, 3: -2}, 8)
    assert log_unit(a * b).agrees_with(log_unit(a) + log_unit(b))


def test_exp_inverts_log():
    a = series({0: 1, 1: 2, 2: -1, 4: 5}, 9)
    assert exp_of(log_unit(a)).agrees_with(a)


def test_compose_basic():
    outer = VSeries.monomial(2, FR_ONE, 8)
    inner = series({1: 1, 2: 1}, 8)
    got = outer.compose(inner)
    assert got.agrees_with(series({2: 1, 3: 2, 4: 1}, 8))


def test_compose_identity():
    outer = series({-1: 3, 0: 2, 2: 7}, 6)
    assert outer.compose(VSeries.v(6)).agrees_with(outer)


def test_compose_requires_positive_inner_lead():
    outer = series({0: 1, 1: 1}, 5)
    with pytest.raises(InvalidComposition):
        outer.compose(series({0: 1, 1: 1}, 5))


def test_compose_polynomial_at_negative_lead():
    # q(t) = t^2 + 1 at t = v^-1 (1 + v)
    inner = series({-1: 1, 0: 1}, 6)
    got = compose_polynomial([fr(1), fr(0), fr(1)], inner)
    assert got.agrees_with(series({-2: 1, -1: 2, 0: 2}, 4))


def test_revert_identity():
    assert revert(VSeries.v(7)).agrees_with(VSeries.v(7))


def test_revert_catalan():
    # v = z - z^2 inverts to z = v + v^2 + 2 v^3 + 5 v^4 + 14 v^5
    a = series({1: 1, 2: -1}, 6)
    z = revert(a)
    assert z == series({1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42}, 6)


def test_revert_round_trip():
    a = series({1: 1, 2: 3, 3: -2, 5: 1}, 10)
    z = revert(a)
    assert a.compose(z).agrees_with(VSeries.v(10))
    assert z.compose(a).agrees_with(VSeries.v(10))


def test_revert_requires_lead_one():
    with pytest.raises(NotInvertible):
        revert(series({2: 1}, 5))


def test_reciprocal_of_laurent():
    s = series({-1: 1, 0: 1}, 5)  # v^-1 (1 + v)
    r = s.reciprocal()
    assert (r * s).agrees_with(VSeries.one(5))
    assert r.lead == 1


def test_zero_divisor():
    with pytest.raises(ZeroDivisor):
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
    assert series({0: 3, 2: 5}, 6).is_even()
    assert series({-1: 2, 1: 4}, 6).is_odd()
    assert not s.is_even() and not s.is_odd()


def test_power():
    s = series({1: 1, 2: 1}, 6)
    assert (s ** 3).agrees_with(s * s * s)
    assert (s ** 0) == VSeries.one(6)
    inv2 = s ** -2
    assert (inv2 * s * s).agrees_with(VSeries.one(inv2.trunc))


def test_dump_lines():
    s = series({-1: 2, 1: Fraction(1, 3)}, 4)
    assert s.dump_lines() == ["v^-1 : 2", "v^1 : 1/3"]


def test_truncate_below_the_lead_is_zero():
    s = series({2: 1, 3: 3}, 10)
    for trunc in (1, 0, -3):
        cut = s.truncate(trunc)
        assert cut == VSeries.zero(trunc), trunc
    assert VSeries.zero(0) + s == VSeries.zero(0)
