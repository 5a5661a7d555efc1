import random

import pytest

from framedvertex.ratfunc import FRational
from framedvertex.tpoly import TPolynomial


def localised(rng, scalars=(1, 2, 3, 6, 35), max_deg=5):
    """A random N / (c f^j (f+1)^k): the form of every value in Q(f) here."""
    num = [rng.randint(-9, 9) for _ in range(rng.randint(1, max_deg + 1))]
    f = FRational.variable()
    den = (rng.choice(scalars) * f ** rng.randint(0, 4)
           * (f + 1) ** rng.randint(0, 4))
    return FRational.poly(num) / den


@pytest.fixture
def rng():
    return random.Random(20240811)


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
