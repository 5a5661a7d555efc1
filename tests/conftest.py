import random

import pytest

from framedvertex.ratfunc import FRational


def random_poly(rng, max_deg=4, allow_zero=True):
    deg = rng.randint(0, max_deg)
    p = FRational.poly([rng.randint(-9, 9) for _ in range(deg + 1)])
    if p.is_zero and not allow_zero:
        return FRational.poly([rng.randint(1, 9)])
    return p


def random_frational(rng, max_deg=4):
    num = random_poly(rng, max_deg)
    den = random_poly(rng, max_deg, allow_zero=False)
    return num / den


@pytest.fixture
def rng():
    return random.Random(20240811)
