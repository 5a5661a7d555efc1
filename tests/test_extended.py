"""Deeper cross-validation over the complexity-5 and -6 budgets.

Every cell is generated, the cut-and-join identity is verified on every
complexity-5 and complexity-6 cell, and the top-dimension shell of every
complexity-5 budget cell is compared against the bare-integral oracle at
all genera.
"""

import pytest

from framedvertex.curvefun import PhiTower
from framedvertex.cutjoin import CutJoinVerifier, psi_oracle
from framedvertex.engine import run_to_budget, support_bound
from framedvertex.ratfunc import FRational

F = FRational.variable()


@pytest.fixture(scope="module")
def table5():
    return run_to_budget(5)


@pytest.fixture(scope="module")
def tower():
    return PhiTower()


def test_identity_on_remaining_cells(table5, tower):
    v = CutJoinVerifier(table5, tower)
    for g, n in [(0, 6), (2, 3), (1, 5), (0, 7), (3, 1)]:
        report = v.verify(g, n)
        assert report.passed, (g, n, report.residual_terms)


def test_top_shell_all_genera(table5):
    for g, n in table5.cells():
        bound = support_bound(g, n)
        for key, value in table5.cell_entries(g, n).items():
            if sum(key) == bound:
                want = (-F * (F + 1)) ** g * \
                    FRational.from_fraction(psi_oracle(g, key))
                assert value == want, (g, key)


def test_identity_on_chi6_cells(table6):
    cells = [(3, 2), (2, 4), (1, 6), (0, 8)]
    v = CutJoinVerifier(table6, PhiTower())
    for g, n in cells:
        report = v.verify(g, n)
        assert report.passed, (g, n, report.residual_terms)
