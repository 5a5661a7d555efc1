import random

import pytest

from framedvertex.ratfunc import FRational


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
