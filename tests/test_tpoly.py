import pytest

from framedvertex.errors import ArityMismatch, IndexOutOfRange, NotDivisible
from framedvertex.ratfunc import FR_ONE, FRational
from framedvertex.tpoly import TPolynomial

from conftest import localised, substitute

F = FRational.variable()


def var(arity, i):
    return TPolynomial.variable(arity, i)


def rand_tpoly(rng, arity, max_deg=3, n_terms=4):
    terms = []
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(arity))
        terms.append((exps, localised(rng, max_deg=2)))
    return TPolynomial(arity, terms)


def test_product_difference_of_squares():
    t1, t2 = var(2, 0), var(2, 1)
    assert (t1 + t2) * (t1 - t2) == t1 * t1 - t2 * t2


def test_additive_identity():
    t1 = var(2, 0)
    p = t1 * t1 + t1
    assert p + TPolynomial.zero(2) == p


def test_scalar_coefficient_cancellation():
    # ((t-1)/(f+1)) * (f+1) = t - 1
    t = var(1, 0)
    one_over = FRational.from_int(1) / (F + 1)
    p = (t - 1) * one_over
    assert p * (F + 1) == t - 1


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        var(2, 0) + var(3, 0)
    with pytest.raises(ArityMismatch):
        var(2, 0) * var(1, 0)


def test_partial_derivative_basic():
    t1, t2 = var(2, 0), var(2, 1)
    p = t1 * t1 * t2
    assert p.partial_derivative(0) == 2 * t1 * t2
    assert t1.partial_derivative(1).is_zero
    with pytest.raises(IndexOutOfRange):
        t1.partial_derivative(5)


def test_partial_derivative_of_cubic_fraction():
    # d/dt (f t^3 + (1-f) t^2 - t)/(f+1)^2 = (3f t^2 + 2(1-f) t - 1)/(f+1)^2
    t = var(1, 0)
    s = (F + 1) ** -2
    p = (F * t ** 3 + (1 - F) * t ** 2 - t) * s
    want = (3 * F * t ** 2 + 2 * (1 - F) * t - 1) * s
    assert p.partial_derivative(0) == want


def test_leibniz_rule(rng):
    for _ in range(10):
        p = rand_tpoly(rng, 2)
        q = rand_tpoly(rng, 2)
        for i in range(2):
            lhs = (p * q).partial_derivative(i)
            rhs = p.partial_derivative(i) * q + p * q.partial_derivative(i)
            assert lhs == rhs


# ``substitute`` is a test helper: the reference cut-and-join genus-reduction
# term of test_cutjoin.py identifies two variables with it

def test_substitute():
    t1, t2 = var(2, 0), var(2, 1)
    p = t1 * t2
    assert substitute(p, 1, 0) == var(1, 0) ** 2
    assert substitute(t1 + t2, 1, 0) == 2 * var(1, 0)
    c = TPolynomial.constant(2, FRational.from_int(5))
    assert substitute(c, 1, 0) == TPolynomial.constant(1, FRational.from_int(5))


def test_substitute_reindexes_higher_slots():
    # p(t0,t1,t2) = t1 * t2^2 ; identify t1 with t0 -> t0 * t2'^2 with t2' at slot 1
    p = var(3, 1) * var(3, 2) ** 2
    q = substitute(p, 1, 0)
    assert q == var(2, 0) * var(2, 1) ** 2


def test_substitute_then_derivative_commutes_on_disjoint_slots(rng):
    for _ in range(8):
        p = rand_tpoly(rng, 3)
        a = substitute(p.partial_derivative(2), 1, 0)
        b = substitute(p, 1, 0).partial_derivative(1)
        assert a == b


def test_exact_divide_difference_basic():
    t1, t2 = var(2, 0), var(2, 1)
    assert (t1 * t1 - t2 * t2).exact_divide_difference(0, 1) == t1 + t2
    assert (t1 - t2).exact_divide_difference(0, 1) == TPolynomial.constant(2, FR_ONE)
    with pytest.raises(NotDivisible):
        t1.exact_divide_difference(0, 1)


def test_exact_divide_difference_round_trip(rng):
    t1, t2 = var(3, 0), var(3, 1)
    for _ in range(8):
        p = rand_tpoly(rng, 3)
        numer = p * (t1 - t2)
        assert numer.exact_divide_difference(0, 1) == p


def test_mul_commutative_associative(rng):
    for _ in range(6):
        p = rand_tpoly(rng, 2)
        q = rand_tpoly(rng, 2)
        r = rand_tpoly(rng, 2)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_embed():
    p = var(2, 0) * var(2, 1) ** 2
    q = p.embed(4, [3, 1])
    assert q == var(4, 3) * var(4, 1) ** 2
    with pytest.raises(ValueError):
        p.embed(4, [2, 2])
    with pytest.raises(IndexOutOfRange):
        p.embed(2, [0, 5])


def test_render_lines_sorted():
    p = var(2, 0) ** 2 + var(2, 1) + TPolynomial.constant(2, FR_ONE)
    assert p.render_lines() == ["0,0 : 1", "0,1 : 1", "2,0 : 1"]
