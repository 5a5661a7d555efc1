import pytest

from conftest import (F_of_z, agrees, is_even, log_unit, revert,
                      square_ratio_coefficient)
from framedvertex.curve import build_curve_series
from framedvertex.errors import InsufficientTruncation
from framedvertex.ratfunc import FR_ONE, FRational
from framedvertex.vseries import VSeries, compose_polynomial

F = FRational.variable()


def test_square_ratio_first_coefficient():
    # c_1 = 2 (f-1) / (3 f); the bare quotient-of-double-factorial form
    # (1/3)(1 - (-1/f)^2)/(1 + 1/f) counts the Jacobian of w = v^2/2 once,
    # not twice, and fails the deck-transformation identities downstream.
    assert square_ratio_coefficient(1) == 2 * (F - 1) / (3 * F)


def test_square_ratio_against_log_expansion():
    # independent oracle: expand -2 (f/(f+1)) [f log(1+z/f) + log(1-z)]
    N = 12
    z = VSeries.monomial(1, 1, N)
    log1 = log_unit(VSeries.one(N) + z * (FR_ONE / F))
    log2 = log_unit(VSeries.one(N) - z)
    vsq = (F * log1 + log2) * (-2 * F / (F + 1))
    want = VSeries(2, [square_ratio_coefficient(k) for k in range(N - 1)], N)
    assert agrees(vsq, want)


def test_sqrt_coefficient_recursion():
    # sum_{i=0}^k a_i a_{k-i} must reproduce c_k
    F_z = F_of_z(10)
    a = [F_z.coeff(k) for k in range(11)]
    for k in range(1, 9):
        s = sum((a[i] * a[k - i] for i in range(k + 1)),
                start=FRational.from_int(0))
        assert s == square_ratio_coefficient(k), k


def test_t_of_v_leading():
    curve = build_curve_series(10)
    assert curve.t_of_v.lead == -1
    assert curve.t_of_v.coeff(-1) == FR_ONE
    # first subleading coefficient h_1 = (f-1)/(3f)
    assert curve.t_of_v.coeff(0) == (F - 1) / (3 * F)


def test_reversion_round_trip():
    # z(v) comes from the curve's ODE; v(z) = z F(z) from the square root
    curve = build_curve_series(12)
    v_of_z = F_of_z(12).shift(1)
    coeffs = [v_of_z.coeff(k) for k in range(v_of_z.trunc + 1)]
    # z(v) has lead 1, so the cut composition is exact
    got = compose_polynomial(coeffs, curve.z_of_v).truncate(v_of_z.trunc)
    assert agrees(got, VSeries.monomial(1, 1, 12))


@pytest.mark.parametrize("trunc", [12, 22, 30])
def test_z_of_v_equals_reversion(trunc):
    # the ODE route and Lagrange inversion of v = z F(z), truncation
    # included; 22 is the chi <= 5 curve
    assert build_curve_series(trunc).z_of_v == revert(F_of_z(trunc).shift(1))


@pytest.mark.parametrize("trunc", [12, 22, 30])
def test_eta_minus_one_equals_its_logarithms(trunc):
    # the ODE route against -(1/2)(log(1 + z/f) - log(1 + zbar/f)),
    # truncation included; 22 is the chi <= 5 curve
    curve = build_curve_series(trunc)
    one = VSeries.one(trunc)
    log_plus = log_unit(one + curve.z_of_v * (FR_ONE / F))
    log_minus = log_unit(one + curve.zbar_of_v * (FR_ONE / F))
    want = (log_plus - log_minus) * FRational.from_fraction("-1/2")
    assert curve.eta_minus_one == want


def test_involution_fixes_x():
    # f log(1 + z(v)/f) + log(1 - z(v)) must be even in v: the deck
    # transformation v -> -v preserves the base coordinate x
    curve = build_curve_series(12)
    z = curve.z_of_v
    one = VSeries.one(z.trunc)
    w = F * log_unit(one + z * (FR_ONE / F)) + log_unit(one - z)
    assert is_even(w)


def test_t_plus_st_is_even():
    curve = build_curve_series(10)
    assert is_even(curve.t_of_v + curve.s_t_of_v)


def test_truncation_monotonicity():
    small = build_curve_series(8)
    big = build_curve_series(14)
    assert agrees(F_of_z(14), F_of_z(8))
    for name in ("z_of_v", "t_of_v", "s_t_of_v", "eta_minus_one"):
        assert agrees(getattr(big, name), getattr(small, name))


def test_t_power_is_the_power_through_v0():
    # Miller's recurrence against repeated products, through v^0; the
    # curve at trunc 12 knows t^12 through v^0 and no higher power
    curve = build_curve_series(12)
    power = VSeries.one(12)
    for k in range(13):
        assert curve.t_power(k) == power.truncate(0), k
        power = power * curve.t_of_v
    with pytest.raises(InsufficientTruncation):
        curve.t_power(13)


@pytest.mark.parametrize("inner", ["t_of_v", "s_t_of_v"])
def test_power_table_rows_are_the_repeated_products(inner):
    # each row read at several tops, out of order, so rows grow on demand
    # in k and in m; u^k = v^(-k lead) x^k against repeated products,
    # through w_12, as far as x = v^-1 u is known on the curve at 12
    curve = build_curve_series(12)
    x = getattr(curve, inner)
    table = curve.powers(inner)
    assert table is curve.powers(inner) and table.lead == x.lead == -1
    known = x.trunc - x.lead
    power = VSeries.one(known)
    for k in range(11):
        for m in (3, 0, known, 7):
            want = power.truncate(k * x.lead + m)
            got = VSeries(k * x.lead, table.row(k, m), k * x.lead + m)
            assert got == want, (k, m)
        power = power * x


@pytest.mark.parametrize("inner", ["t_of_v", "s_t_of_v"])
def test_power_table_past_the_series_raises(inner):
    curve = build_curve_series(12)
    table = curve.powers(inner)
    for k in (0, 1, 5):
        table.row(k, 12)
        with pytest.raises(InsufficientTruncation):
            table.row(k, 13)


def test_cache_returns_same_object():
    assert build_curve_series(9) is build_curve_series(9)


def test_sprime_leading():
    curve = build_curve_series(10)
    assert curve.sprime.lead == 0
    assert curve.sprime.coeff(0) == FRational.from_int(-1)
