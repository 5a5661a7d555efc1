import random
from itertools import permutations

import pytest

from framedvertex import ratfunc
from framedvertex.curve import square_ratio_coefficient
from framedvertex.engine import run_to_budget
from framedvertex.ratfunc import FR_ZERO, FRational
from framedvertex.tpoly import TPolynomial
from framedvertex.vseries import VSeries, sqrt_unit


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
