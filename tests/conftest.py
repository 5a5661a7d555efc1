import random
from fractions import Fraction
from itertools import permutations

import pytest

from framedvertex import ratfunc
from framedvertex.engine import run_to_budget
from framedvertex.errors import NotInSpan
from framedvertex.ratfunc import FR_ONE, FR_ZERO, FRational, sum_of_products
from framedvertex.tpoly import TPolynomial, sum_gathered
from framedvertex.vseries import VSeries


def localised(rng, scalars=(1, 2, 3, 6, 35), max_deg=5, bits=None):
    """A random N / (c f^j (f+1)^k): the form of every value in Q(f) here.

    The coefficients of N lie in -9..9, or with ``bits`` they have 100 to
    ``bits`` bits and either sign.
    """
    num = [rng.randint(-9, 9) if bits is None
           else rng.choice((-1, 1)) * rng.getrandbits(rng.randint(100, bits))
           for _ in range(rng.randint(1, max_deg + 1))]
    f = FRational.variable()
    den = (rng.choice(scalars) * f ** rng.randint(0, 4)
           * (f + 1) ** rng.randint(0, 4))
    return FRational.poly(num) / den


def fold(pairs):
    """The sum of a * b over ``pairs`` by the left fold of + and *."""
    total = FR_ZERO
    for a, b in pairs:
        total = total + a * b
    return total


@pytest.fixture
def packed_sums(monkeypatch):
    """The numbers of live products of the sums that take the packed path."""
    calls = []
    packed = ratfunc._packed_sum

    def spy(live, L):
        calls.append(len(live))
        return packed(live, L)

    monkeypatch.setattr(ratfunc, "_packed_sum", spy)
    return calls


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture(scope="session")
def table6():
    """The chi <= 6 table, built once for the session.  A test that
    continues it works on a copy, so every user sees the same table."""
    return run_to_budget(6)


def substitute(p, slot, target):
    """``p`` with variable ``slot`` replaced by variable ``target``.

    The arity drops by one and the variables above ``slot`` shift down.
    """
    t_new = target if target < slot else target - 1
    terms = []
    for exps, c in p.terms():
        rest = list(exps[:slot] + exps[slot + 1:])
        rest[t_new] += exps[slot]
        terms.append((rest, c))
    return TPolynomial(p.arity - 1, terms)


def non_increasing(e):
    return all(a >= b for a, b in zip(e, e[1:]))


def restricted(p):
    """The terms of ``p`` at non-increasing exponent vectors, one per S_n
    orbit of monomials: what an orbit-held polynomial holds."""
    return TPolynomial(p.arity, [(e, c) for e, c in p.terms()
                                 if non_increasing(e)])


def per_ordering_H(table, tower, g, n):
    """-(f(f+1))^{n-1} sum over every ordering beta of each stored key of
    bracket * prod_s phi_{beta_s}(t_s), one full product per ordering: H
    at every exponent vector, built without ``engine.assemble_H``."""
    f = FRational.variable()
    want = TPolynomial.zero(n)
    for key, value in table.cell_entries(g, n).items():
        for beta in set(permutations(key)):
            term = TPolynomial.constant(n, value)
            for slot, b in enumerate(beta):
                term = term * tower.phi(b).embed(n, [slot])
            want = want + term
    return want * (-(f * (f + 1)) ** (n - 1))


def map_coefficients(p, fn):
    """``p`` with ``fn`` applied to every coefficient, zeros dropped."""
    return TPolynomial(p.arity, [(e, fn(c)) for e, c in p.terms()])


def term(method, g, n):
    """One cut-and-join term of cell (g, n) on its own: the reads the
    verifier's term ``method`` gathers, reduced, at the representatives."""
    reads = {}
    method(g, n, reads)
    return TPolynomial._raw(n, sum_gathered(reads))


# ---------------------------------------------------------------------------
# series references: what the package computes another way, or not at all
# ---------------------------------------------------------------------------

def is_even(s):
    return all(e % 2 == 0 for e, _ in s.known_items())


def is_odd(s):
    return all(e % 2 == 1 for e, _ in s.known_items())


def agrees(a, b):
    """Coefficientwise equality through the common guarantee."""
    hi = min(a.trunc, b.trunc)
    return a.truncate(hi) == b.truncate(hi)


def log_unit(a):
    """Logarithm of a series with constant term 1: the integral of a'/a,
    with zero constant term."""
    if a.is_zero or a.lead != 0 or a.leading_coefficient() != FR_ONE:
        raise ValueError("log_unit needs lead 0 and constant term 1")
    return (a.derivative() / a).integrate()


def sqrt_unit(a):
    """Square root of a series with constant term 1.

    b_0 = 1 and b_k = (a_k - sum_{i=1}^{k-1} b_i b_{k-i}) / 2.
    """
    if a.is_zero or a.lead != 0 or a.leading_coefficient() != FR_ONE:
        raise ValueError("sqrt_unit needs lead 0 and constant term 1")
    out = [FR_ONE]
    for k in range(1, a.trunc + 1):
        s = sum_of_products([a.coeff(k), *out[1:k]],
                            [FR_ONE, *(-x for x in out[k - 1:0:-1])])
        out.append(s * Fraction(1, 2))
    return VSeries(0, out, a.trunc)


def exp_of(a):
    """Exponential of a series with lead >= 1: e_0 = 1 and
    m e_m = sum_k k a_k e_(m-k), the weights k of v a'(v)."""
    if not a.is_zero and a.lead < 1:
        raise ValueError("exp_of needs a series with positive lead")
    n = a.trunc + 1
    coeffs = [a.coeff(k) for k in range(n)]
    out = [FR_ONE]
    for m in range(1, n):
        s = sum_of_products(coeffs[1:m + 1], out[::-1], range(1, m + 1))
        out.append(s * Fraction(1, m))
    return VSeries(0, out, a.trunc)


def revert(a):
    """Compositional inverse of a series with lead exactly 1.

    Lagrange inversion: with a = v u(v), the inverse z(w) has
    [w^m] z = (1/m) [v^(m-1)] u(v)^(-m).
    """
    assert a.lead == 1
    h = a.shift(-1).reciprocal()  # 1/u, known through v^(trunc - 1)
    out = {}
    p = VSeries.one(h.trunc)
    for m in range(1, a.trunc + 1):
        p = p * h
        out[m] = p.coeff(m - 1) * Fraction(1, m)
    return VSeries.from_map(out, a.trunc)


def square_ratio_coefficient(k):
    """Coefficient c_k of z^k in (v/z)^2 = 1 + sum_k c_k z^k:
    c_k = 2 (f^(k+1) - (-1)^(k+1)) / ((k+2) f^k (f+1)), c_0 = 1."""
    if k == 0:
        return FR_ONE
    num = [0] * (k + 2)
    num[k + 1] = 2
    num[0] = 2 if k % 2 == 0 else -2
    den = [0] * (k + 2)
    den[k] = k + 2
    den[k + 1] = k + 2
    return FRational.poly(num) / FRational.poly(den)


def F_of_z(trunc):
    """F(z) = sqrt(1 + sum_k c_k z^k) through z^trunc, so v = z F(z): the
    square root that z(v) inverts, built without the curve's own route."""
    return sqrt_unit(VSeries(0, [square_ratio_coefficient(k)
                                 for k in range(trunc + 1)], trunc))


def peeled_plus_part(series, curve):
    """The polynomial part by peeling: subtract t(v)^j times the lowest
    coefficient, at exponent -j, until nothing at or below v^0 is left.
    Each power is cut to the remainder's guarantee before it is scaled."""
    coeffs = {}
    rest = series
    while not rest.is_zero and rest.lead <= 0:
        j = -rest.lead
        c = rest.leading_coefficient()
        coeffs[j] = c
        rest = rest - curve.t_power(j).truncate(rest.trunc) * c
    return TPolynomial(1, [((j,), c) for j, c in coeffs.items()])


# ---------------------------------------------------------------------------
# phi' decompositions by whole-polynomial subtraction: the references for
# the package's solves on coefficient maps
# ---------------------------------------------------------------------------

def subtracting_phi_prime_decompose(poly, tower):
    """{b: c_b} with poly = sum_b c_b phi'_b, found by subtracting
    c_b phi'_b from the rest, top b first; ``NotInSpan`` carries the
    coefficients and the rest when a residual is left."""
    coefficients = {}
    rest = poly
    for b in range(rest.degree_in(0) // 2, -1, -1):
        c = rest.coefficient((2 * b,))
        if c.is_zero:
            continue
        c = c / tower.phi_prime(b).coefficient((2 * b,))
        coefficients[b] = c
        rest = rest - tower.phi_prime(b) * c
    if not rest.is_zero:
        raise NotInSpan("polynomial not in the phi' span",
                        coefficients=coefficients, residual=rest)
    return coefficients


def subtracting_phi_prime_decompose_pair(poly, tower):
    """{(c, d): coefficient} of poly in phi'_c(t_0) phi'_d(t_1): each
    t_0^2c slice over its lead is decomposed in t_1, then
    phi'_c(t_0) times it is subtracted from every slice."""
    slices = {}
    for exps, c in poly.terms():
        slices.setdefault(exps[0], {})[(exps[1],)] = c
    slices = {k: TPolynomial(1, v.items()) for k, v in slices.items()}
    out = {}
    if not slices:
        return out
    for b in range(max(slices) // 2, -1, -1):
        sl = slices.get(2 * b)
        if sl is None or sl.is_zero:
            continue
        lead = tower.phi_prime(b).coefficient((2 * b,))
        top = map_coefficients(sl, lambda c: c / lead)
        for d, c in subtracting_phi_prime_decompose(top, tower).items():
            out[(b, d)] = c
        for (k,), cb in tower.phi_prime(b).terms():
            upd = slices.get(k, TPolynomial.zero(1)) - top * cb
            if upd.is_zero:
                slices.pop(k, None)
            else:
                slices[k] = upd
    if slices:
        raise NotInSpan("two-variable polynomial not in the phi' x phi' span")
    return out
