"""Acceptance suite.

Each test covers one acceptance criterion and prints a PASS line with the
criterion number on success (pytest assertions handle failure).  All
comparisons are exact; there are no tolerances anywhere.
"""

import json
import time
from fractions import Fraction

import pytest

from framedvertex import kernels
from framedvertex.cli import main as cli_main
from framedvertex.curve import build_curve_series
from framedvertex.curvefun import (EtaFamily, PhiTower, phi_prime_decompose,
                                   phi_prime_decompose_pair)
from framedvertex.cutjoin import CutJoinVerifier, psi_oracle
from framedvertex.engine import (assemble_H, budget_cells, make_workspace,
                                 run_to_budget, seed_initial_data,
                                 support_bound, recursion_step)
from framedvertex.kernels import (kernel_I_via_involution,
                                  kernel_II_symmetrized)
from framedvertex.ratfunc import FRational
from framedvertex.vseries import compose_polynomial

from conftest import (agrees, is_even, is_odd, non_increasing,
                      per_ordering_H, restricted, term)

F = FRational.variable()

CHI_MAX = 4
EXTRA_CELLS = [(3, 1)]
VERIFY_CELLS = [(0, 4), (1, 2), (2, 1), (0, 5), (1, 3), (2, 2), (1, 4), (3, 1)]


def all_cells():
    return budget_cells(CHI_MAX) + EXTRA_CELLS


@pytest.fixture(scope="module")
def workspace():
    return make_workspace(all_cells())


@pytest.fixture(scope="module")
def table(workspace):
    return run_to_budget(CHI_MAX, extra_cells=EXTRA_CELLS, workspace=workspace)


@pytest.fixture(scope="module")
def workspace_long():
    """The workspace with the curve and eta series four orders longer."""
    real = kernels.default_trunc
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "default_trunc", lambda pair: real(pair) + 4)
        return make_workspace(all_cells())


@pytest.fixture(scope="module")
def table_long(workspace_long):
    return run_to_budget(CHI_MAX, extra_cells=EXTRA_CELLS,
                         workspace=workspace_long)


@pytest.fixture(scope="module")
def tower():
    return PhiTower()


def test_criterion_1_initial_data():
    t0 = time.time()
    table = seed_initial_data()
    elapsed = time.time() - t0
    assert table.value(0, (0, 0, 0)) == FRational.from_int(1)
    assert table.value(1, (0,)) == FRational.poly([1, 1, 1]) / 24
    assert table.value(1, (1,)) == -F * (F + 1) / 24
    assert table.cell_entries(0, 3) == {(0, 0, 0): FRational.from_int(1)}
    assert len(table.cell_entries(1, 1)) == 2
    assert elapsed < 1.0
    print("PASS criterion 1: initial data reproduced exactly (%.3f s)" % elapsed)


def test_criterion_2_genus0_oracle(table):
    assert table.cell_entries(0, 4) == {(0, 0, 0, 1): FRational.from_int(1)}
    assert table.cell_entries(0, 5) == {
        (0, 0, 0, 1, 1): FRational.from_int(2),
        (0, 0, 0, 0, 2): FRational.from_int(1),
    }
    for n in (4, 5):
        for key, value in table.cell_entries(0, n).items():
            assert value == FRational.from_fraction(psi_oracle(0, key))
    print("PASS criterion 2: genus-0 cells equal the closed form")


def test_criterion_3_cutjoin_identity(table, tower):
    verifier = CutJoinVerifier(table, tower)
    for g, n in VERIFY_CELLS:
        report = verifier.verify(g, n)
        assert report.passed, ("cut-join residual nonzero", g, n,
                               report.residual_terms)
        assert not term(verifier.lhs, g, n).is_zero or (g, n) == (0, 4)
    print("PASS criterion 3: cut-join residual exactly zero on %s"
          % (VERIFY_CELLS,))


def test_criterion_4_kernel_well_formedness(workspace, table):
    pairs = set()
    points = set()
    for g, n in all_cells():
        if 2 * g - 2 + n < 2:
            continue
        if g >= 1 or (g == 0 and n >= 5):
            s = 3 * g + n - 5
            pairs.update((a, s - a) for a in range(s + 1))
        if n >= 2:
            points.add(3 * g + n - 4)
    for a, b in sorted(pairs):
        # a nonzero residual raises NotInSpan
        phi_prime_decompose(workspace.kernel_I(a, b), workspace.tower)
    for b in sorted(points):
        # the degree-cap guard raising would abort this call
        out = phi_prime_decompose_pair(workspace.kernel_II(b), workspace.tower)
        assert max(d for _, d in out) <= b + 1
    print("PASS criterion 4: %d pair kernels and %d point kernels decompose "
          "with zero residual; degree caps silent"
          % (len(pairs), len(points)))


def test_criterion_5_cross_forms(workspace):
    for a in range(4):
        for b in range(4):
            direct = workspace.kernel_I(a, b)
            assert direct == workspace.kernel_I(b, a)
            assert direct == kernel_I_via_involution(
                a, b, workspace.curve, workspace.tower), (a, b)
    for b in range(3):
        assert workspace.kernel_II(b) == kernel_II_symmetrized(
            b, workspace.curve, workspace.tower), b
    print("PASS criterion 5: pair kernels match the involution form "
          "(a,b <= 3); point kernels match the symmetrized form (b <= 2)")


def test_criterion_6_eta_invariants():
    trunc = 25
    n_max = 6
    curve = build_curve_series(trunc)
    tower = PhiTower()
    eta = EtaFamily(curve)
    half = FRational.from_fraction(Fraction(1, 2))
    dfact = 1
    for n in range(n_max + 1):
        e = eta.eta(n)
        assert is_odd(e), n
        phi_t = compose_polynomial(tower.phi_coeffs(n), curve.t_of_v)
        phi_s = compose_polynomial(tower.phi_coeffs(n), curve.s_t_of_v)
        rem = e - phi_t
        assert is_even(rem), n
        assert rem.is_zero or rem.lead >= 0, n
        assert agrees(e, (phi_t - phi_s) * half), n
        if n >= 1:
            dfact *= 2 * n - 1
        assert e.lead == -(2 * n + 1)
        assert e.coeff(e.lead) == dfact * F ** n / (F + 1) ** (n + 1), n
    assert is_odd(eta.eta(-1))
    print("PASS criterion 6: eta family invariants hold for n <= %d at "
          "truncation %d" % (n_max, trunc))


def test_criterion_7_truncation_stability(workspace, table, workspace_long,
                                          table_long):
    assert workspace_long.trunc == workspace.trunc + 4
    for (a, b), poly in sorted(workspace._pair.items()):
        assert workspace_long.kernel_I(a, b) == poly, (a, b)
    for b, poly in sorted(workspace._point.items()):
        assert workspace_long.kernel_II(b) == poly, b
    assert table_long == table
    assert table_long.to_json() == table.to_json()
    print("PASS criterion 7: %d pair kernels, %d point kernels and all %d "
          "cells identical with the curve four orders longer"
          % (len(workspace._pair), len(workspace._point), len(table.cells())))


def test_criterion_8_symmetry_and_support(table, workspace):
    for g, n in all_cells():
        if 2 * g - 2 + n >= 2:
            # re-extraction exercises the slot-0 comparison and the
            # support check built into the step (they raise on failure)
            fresh = recursion_step(g, n, table, workspace)
            assert fresh == table.cell_entries(g, n), (g, n)
        for key in table.cell_entries(g, n):
            assert sum(key) <= support_bound(g, n)
    print("PASS criterion 8: extraction equal at every first entry of each "
          "key and support bound exact on all cells")


def test_criterion_9_specialization_commutes(table, tower):
    for g, n in [(1, 2), (0, 5)]:
        # assemble_H holds H at its orbit representatives
        h = assemble_H(g, n, table, tower)
        assert h == restricted(per_ordering_H(table, tower, g, n)), (g, n)
        for f0 in (Fraction(2), Fraction(3)):
            values = {e: c.evaluate(f0) for e, c in h.terms()}
            direct = {e: v for e, v in values.items() if v}
            rebuilt = _assemble_specialized(g, n, table, tower, f0)
            assert direct == {e: c for e, c in rebuilt.items()
                              if non_increasing(e)}, (g, n, f0)
    print("PASS criterion 9: specialization commutes with assembly at "
          "f = 2, 3 on (1,2) and (0,5)")


def _assemble_specialized(g, n, table, tower, f0):
    """Assemble the cell polynomial with every ingredient specialized first."""
    from itertools import permutations
    phi_vals = {}
    for b in {b for key in table.cell_entries(g, n) for b in key}:
        phi_vals[b] = {e[0]: c.evaluate(f0) for e, c in tower.phi(b).terms()}
    pref = (-(F * (F + 1)) ** (n - 1)).evaluate(f0)
    out = {}
    for key, value in table.cell_entries(g, n).items():
        v0 = value.evaluate(f0)
        for beta in set(permutations(key)):
            partial = {(): v0}
            for slot, b in enumerate(beta):
                nxt = {}
                for exps, c in partial.items():
                    for e, pc in phi_vals[b].items():
                        ee = exps + (e,)
                        nxt[ee] = nxt.get(ee, Fraction(0)) + c * pc
                partial = nxt
            for exps, c in partial.items():
                out[exps] = out.get(exps, Fraction(0)) + c
    return {e: c * pref for e, c in out.items() if c * pref != 0}


def test_criterion_10_determinism(tmp_path, capsys):
    outs = []
    for name in ("one", "two"):
        cache = tmp_path / name
        assert cli_main(["compute", "--chi-max", "2",
                         "--cache", str(cache)]) == 0
        assert cli_main(["verify", "--suite", "cutjoin", "--chi-max", "2",
                         "--cache", str(cache)]) == 0
        outs.append((
            (cache / "brackets.json").read_bytes(),
            (cache / "report_cutjoin.json").read_bytes(),
        ))
    capsys.readouterr()
    assert outs[0] == outs[1]
    print("PASS criterion 10: cache and report files byte-identical "
          "across runs")
