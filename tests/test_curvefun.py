from fractions import Fraction

import pytest

from framedvertex.curve import build_curve_series
from framedvertex.curvefun import (EtaFamily, PhiTower, euler_field,
                                   phi_prime_decompose,
                                   phi_prime_decompose_pair, plus_part)
from framedvertex.errors import InsufficientTruncation, NotInSpan
from framedvertex.ratfunc import FR_ONE, FRational
from framedvertex.tpoly import TPolynomial
from framedvertex.vseries import VSeries, compose_polynomial

from conftest import agrees, is_even, is_odd

F = FRational.variable()
T = TPolynomial.variable(1, 0)


@pytest.fixture(scope="module")
def tower():
    return PhiTower()


@pytest.fixture(scope="module")
def curve():
    return build_curve_series(16)


@pytest.fixture(scope="module")
def eta(curve):
    return EtaFamily(curve)


def test_phi_zero_and_one(tower):
    inv = FR_ONE / (F + 1)
    assert tower.phi(0) == (T - 1) * inv
    want = (F * T ** 3 + (1 - F) * T ** 2 - T) * inv * inv
    assert tower.phi(1) == want


def test_phi_degrees(tower):
    for b in range(9):
        assert tower.phi(b).degree_in(0) == 2 * b + 1
        assert tower.phi_prime(b).degree_in(0) == 2 * b


def test_phi_leading_coefficients(tower):
    # lc(phi_b) = (2b-1)!! f^b / (f+1)^{b+1}
    dfact = 1
    for b in range(9):
        if b >= 1:
            dfact *= 2 * b - 1
        want = dfact * F ** b / (F + 1) ** (b + 1)
        assert tower.phi(b).coefficient((2 * b + 1,)) == want


def test_euler_field_raises_tower(tower):
    for b in range(7):
        assert euler_field(tower.phi(b), 0) == tower.phi(b + 1)


def test_tower_read_out_of_order_equals_read_in_order():
    in_order = PhiTower()
    want = [(in_order.phi(b), in_order.phi_prime(b)) for b in range(6)]
    jumped = PhiTower()
    assert jumped.phi(5) == want[5][0]
    assert jumped.phi(2) == want[2][0]
    assert [(jumped.phi(b), jumped.phi_prime(b)) for b in range(6)] == want


def test_tower_and_eta_family_refuse_indices_below_their_start(eta):
    with pytest.raises(IndexError):
        PhiTower().phi(-1)
    with pytest.raises(IndexError):
        eta.eta(-2)


def test_eta_minus_one_leading(curve, eta):
    e = eta.eta(-1)
    assert e.lead == 1
    assert e.coeff(1) == -1 / F


def test_eta_leading_terms(curve, eta):
    dfact = 1
    for n in range(4):
        if n >= 1:
            dfact *= 2 * n - 1
        e = eta.eta(n)
        assert e.lead == -(2 * n + 1)
        want = dfact * F ** n / (F + 1) ** (n + 1)
        assert e.coeff(-(2 * n + 1)) == want


def test_eta_oddness(eta):
    for n in range(-1, 4):
        assert is_odd(eta.eta(n))


def test_eta_equals_half_odd_part_of_phi(curve, tower, eta):
    for n in range(4):
        phi_t = compose_polynomial(tower.phi_coeffs(n), curve.t_of_v)
        phi_st = compose_polynomial(tower.phi_coeffs(n), curve.s_t_of_v)
        half = FRational.from_fraction(Fraction(1, 2))
        assert agrees(eta.eta(n), (phi_t - phi_st) * half)


def test_phi_on_second_sheet_is_deck_image(curve, tower):
    # phi_b(s(t)) = [phi_b(t)](-v), truncation included; kernel_II uses
    # this in place of a second composition
    for b in range(7):
        at_s = compose_polynomial(tower.phi_coeffs(b), curve.s_t_of_v)
        at_t = compose_polynomial(tower.phi_coeffs(b), curve.t_of_v)
        assert at_s == at_t.negate_variable(), b


def test_eta_remainder_even_and_regular(curve, tower, eta):
    for n in range(4):
        rem = eta.eta(n) - compose_polynomial(tower.phi_coeffs(n), curve.t_of_v)
        assert is_even(rem)
        assert rem.is_zero or rem.lead >= 0


def assert_plus_part(series, poly, curve):
    # composed back along the curve, the polynomial leaves no exponent <= 0
    coeffs = [poly.coefficient((k,)) for k in range(poly.degree_in(0) + 1)]
    rest = series - compose_polynomial(coeffs, curve.t_of_v)
    assert rest.is_zero or rest.lead > 0


def test_plus_part_tautological(curve):
    poly = plus_part(curve.t_of_v, curve)
    assert poly == T
    assert_plus_part(curve.t_of_v, poly, curve)


def test_plus_part_discards_positive_powers(curve):
    series = VSeries.monomial(2, FR_ONE, curve.trunc)
    poly = plus_part(series, curve)
    assert poly.is_zero
    assert_plus_part(series, poly, curve)


def test_plus_part_of_inverse_v(curve):
    # 1/v = t - h_1 + (positive exponents); h_1 = (f-1)/(3f)
    poly = plus_part(VSeries.monomial(-1, FR_ONE, curve.trunc), curve)
    h1 = (F - 1) / (3 * F)
    assert poly == T - TPolynomial.constant(1, h1)


def test_plus_part_is_projection(curve, rng):
    # plus_part(Q(t(v))) = Q for polynomial Q
    from conftest import localised
    coeffs = [localised(rng, max_deg=2) for _ in range(6)]
    series = compose_polynomial(coeffs, curve.t_of_v)
    poly = plus_part(series, curve)
    want = TPolynomial(1, [((k,), c) for k, c in enumerate(coeffs)])
    assert poly == want
    assert_plus_part(series, poly, curve)


def test_plus_part_zero(curve):
    poly = plus_part(VSeries.zero(10), curve)
    assert poly.is_zero
    assert_plus_part(VSeries.zero(10), poly, curve)


def test_plus_part_equals_peeling_on_random_laurent_series(curve, rng):
    # leads -12 .. 1, guarantees v^0 .. v^3, coefficients in the localised
    # ring, some of them zero
    from conftest import localised, peeled_plus_part
    for _ in range(40):
        lead = rng.randint(-12, 1)
        trunc = rng.randint(max(lead, 0), 3)
        coeffs = [localised(rng) if rng.random() < 0.8 else 0
                  for _ in range(trunc - lead + 1)]
        series = VSeries(lead, coeffs, trunc)
        poly = plus_part(series, curve)
        assert poly == peeled_plus_part(series, curve)
        assert_plus_part(series, poly, curve)


def test_plus_part_needs_v0(curve):
    # an input known only below v^0, and a power of t(v) the curve does
    # not know through v^0 (t^k is known through v^{16-k} here)
    with pytest.raises(InsufficientTruncation):
        plus_part(VSeries.monomial(-3, FR_ONE, -1), curve)
    with pytest.raises(InsufficientTruncation):
        plus_part(VSeries.monomial(-17, FR_ONE, 0), curve)


def test_decompose_phi_prime_itself(tower):
    assert phi_prime_decompose(tower.phi_prime(1), tower) == {1: FR_ONE}


def test_decompose_constant(tower):
    one = TPolynomial.constant(1, FR_ONE)
    assert phi_prime_decompose(one, tower) == {0: F + 1}


def test_decompose_outside_span(tower):
    with pytest.raises(NotInSpan) as exc:
        phi_prime_decompose(T ** 2, tower)
    residual = exc.value.residual
    # residual is what is left of t^2 after removing the phi'_1 and phi'_0 pieces
    want = T ** 2 - tower.phi_prime(1) * ((F + 1) ** 2 / (3 * F))
    want = want - tower.phi_prime(0) * (want.coefficient((0,)) * (F + 1))
    assert residual == want
    assert residual == 2 * (F - 1) / (3 * F) * T
    reassembled = residual
    for b, c in exc.value.coefficients.items():
        reassembled = reassembled + tower.phi_prime(b) * c
    assert reassembled == T ** 2


def test_decompose_reassembles(tower, rng):
    from conftest import localised
    target = TPolynomial.zero(1)
    picks = {0: localised(rng), 2: localised(rng),
             3: localised(rng)}
    for b, c in picks.items():
        target = target + tower.phi_prime(b) * c
    got = {b: c for b, c in phi_prime_decompose(target, tower).items()
           if not c.is_zero}
    want = {b: c for b, c in picks.items() if not c.is_zero}
    assert got == want


def test_decompose_pair(tower):
    p = (tower.phi_prime(1).embed(2, [0]) * tower.phi_prime(2).embed(2, [1])
         + tower.phi_prime(0).embed(2, [0]) * tower.phi_prime(0).embed(2, [1]) * F)
    out = phi_prime_decompose_pair(p, tower)
    assert out == {(1, 2): FR_ONE, (0, 0): F}


def _outcome(decompose, poly, tower):
    """The decomposition, or the message and payload of its NotInSpan."""
    try:
        return "in span", list(decompose(poly, tower).items())
    except NotInSpan as exc:
        coefficients = exc.coefficients
        return (str(exc),
                None if coefficients is None else list(coefficients.items()),
                exc.residual)


def test_decompositions_out_of_span_equal_subtraction(tower, rng):
    # out-of-span inputs raise as the subtracting references do, with the
    # same coefficients and residual
    from conftest import (localised, subtracting_phi_prime_decompose,
                          subtracting_phi_prime_decompose_pair)
    t0, t1 = TPolynomial.variable(2, 0), TPolynomial.variable(2, 1)
    p1 = tower.phi_prime(1)
    singles = [T ** 2, T ** 5, T ** 3 + p1 * F, tower.phi(2) * F]
    for _ in range(20):
        singles.append(TPolynomial(1, [((k,), localised(rng))
                                       for k in range(rng.randint(2, 10))]))
    for poly in singles:
        got = _outcome(phi_prime_decompose, poly, tower)
        assert got[0] != "in span", poly
        assert got == _outcome(subtracting_phi_prime_decompose, poly,
                               tower), poly
    in_span = (p1.embed(2, [0]) * tower.phi_prime(2).embed(2, [1])
               + tower.phi_prime(0).embed(2, [0]) * F)
    pairs = [
        t0,                                 # a t_0 residual only
        p1.embed(2, [0]) * t1 ** 2,         # an A_c out of span in t_1
        in_span + t0 ** 3 * t1,             # both, the A_c raising first
        in_span + t0 ** 4 * t1 ** 3,        # an A_c residual below the top
    ]
    for _ in range(20):
        pairs.append(in_span + TPolynomial(2, [
            ((rng.randint(0, 6), rng.randint(0, 6)), localised(rng))
            for _ in range(rng.randint(1, 4))]))
    for poly in pairs:
        got = _outcome(phi_prime_decompose_pair, poly, tower)
        assert got[0] != "in span", poly
        assert got == _outcome(subtracting_phi_prime_decompose_pair, poly,
                               tower), poly
