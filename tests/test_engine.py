import hashlib
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

import framedvertex.engine as engine
import framedvertex.tpoly as tpoly
from framedvertex.engine import (BracketTable, assemble_H, budget_cells,
                                 is_stable, kernel_requirements,
                                 make_workspace, recursion_step,
                                 run_to_budget, seed_initial_data,
                                 support_bound)
from framedvertex.errors import MissingDependency, SymmetryViolation
from framedvertex.curvefun import PhiTower
from framedvertex.ratfunc import FR_ZERO, FRational
from framedvertex.tpoly import TPolynomial, add_term

from conftest import per_ordering_H, restricted

F = FRational.variable()


@pytest.fixture(scope="module")
def table3():
    return run_to_budget(3)


def test_seed_values():
    table = seed_initial_data()
    assert table.value(0, (0, 0, 0)) == FRational.from_int(1)
    assert table.value(1, (0,)) == FRational.poly([1, 1, 1]) / 24
    assert table.value(1, (1,)) == -F * (F + 1) / 24
    assert table.cells() == [(0, 3), (1, 1)]


def test_missing_cell_raises():
    table = seed_initial_data()
    with pytest.raises(MissingDependency):
        table.value(0, (0, 0, 0, 0))


def test_budget_cells():
    assert budget_cells(1) == [(0, 3), (1, 1)]
    assert budget_cells(2) == [(0, 3), (1, 1), (0, 4), (1, 2)]
    assert budget_cells(3)[-3:] == [(0, 5), (1, 3), (2, 1)]


def test_genus0_four_point(table3):
    assert table3.value(0, (0, 0, 0, 1)) == FRational.from_int(1)
    # everything else at (0,4) vanishes
    assert table3.cell_entries(0, 4) == {(0, 0, 0, 1): FRational.from_int(1)}


def test_genus0_five_point(table3):
    assert table3.value(0, (0, 0, 0, 1, 1)) == FRational.from_int(2)
    assert table3.value(0, (0, 0, 0, 0, 2)) == FRational.from_int(1)
    assert len(table3.cell_entries(0, 5)) == 2


def test_one_point_genus1_anchor(table3):
    # the one-point seed equals -f(f+1) times the bare one-point number 1/24
    assert table3.value(1, (1,)) == -F * (F + 1) * FRational.from_fraction(Fraction(1, 24))


def test_two_point_genus1_values(table3):
    # forced by the one-point data and the dimension filter:
    # <tau_0 tau_1 L>_1 = (f^2+f+1)/24, <tau_0 tau_2 L> = <tau_1 tau_1 L> = -f(f+1)/24
    want = {
        (0, 1): FRational.poly([1, 1, 1]) / 24,
        (0, 2): -F * (F + 1) / 24,
        (1, 1): -F * (F + 1) / 24,
    }
    assert table3.cell_entries(1, 2) == want


def test_top_shell_matches_bare_integrals(table3):
    # entries saturating the dimension bound pair only with the degree-zero
    # part of the class, which is (-f(f+1))^g, so they must equal that
    # multiple of the bare integral
    from framedvertex.cutjoin import psi_oracle
    checked = 0
    for g, n in table3.cells():
        bound = support_bound(g, n)
        for key, value in table3.cell_entries(g, n).items():
            if sum(key) == bound:
                want = (-F * (F + 1)) ** g * \
                    FRational.from_fraction(psi_oracle(g, key))
                assert value == want, (g, key)
                checked += 1
    assert checked >= 8


def test_support_bound_holds(table3):
    for g, n in table3.cells():
        for key, value in table3.cell_entries(g, n).items():
            assert sum(key) <= support_bound(g, n)
            assert not value.is_zero


def test_run_is_idempotent(table3):
    before = {c: table3.cell_entries(*c) for c in table3.cells()}
    again = run_to_budget(3, table=table3)
    assert again is table3
    assert {c: again.cell_entries(*c) for c in again.cells()} == before


@pytest.mark.parametrize("cell", [(0, 3), (1, 1)])
def test_recursion_step_refuses_a_seed(cell):
    # a seed has no lower cells: its step would return an empty cell
    with pytest.raises(ValueError, match="seed"):
        recursion_step(*cell, BracketTable(), None)


def test_run_fills_missing_seed_cells(table3):
    assert run_to_budget(3, table=BracketTable()) == table3


def test_run_adds_the_cells_below_an_extra_cell():
    table = run_to_budget(1, extra_cells=[(3, 1)])
    assert table.cells() == budget_cells(4) + [(3, 1)]
    assert table == run_to_budget(4, extra_cells=[(3, 1)])


def requirements_by_cell_kind(cells):
    # the pair and point budgets counted cell by cell, seeds skipped and a
    # pair index sum counted only where the step has a genus reduction or
    # a stable splitting
    pair = point = 0
    for g, n in cells:
        if 2 * g - 2 + n < 2:
            continue
        has_reduction = g >= 1
        has_split = g >= 2 or (g == 1 and n >= 3) or (g == 0 and n >= 5)
        if has_reduction or has_split:
            pair = max(pair, 3 * g + n - 5)
        if n >= 2:
            point = max(point, 3 * g + n - 4)
    return pair, point


@pytest.mark.parametrize("chi", range(1, 10))
def test_kernel_requirements_equal_the_count_by_cell_kind(chi):
    for cells in (budget_cells(chi), budget_cells(chi) + [(3, 1)]):
        assert (kernel_requirements(cells)
                == requirements_by_cell_kind(cells)), cells


def test_run_builds_exactly_the_kernels_and_members_it_reads():
    cells = budget_cells(5)
    workspace = make_workspace(cells)
    run_to_budget(5, workspace=workspace)
    pair, point = kernel_requirements(cells)
    assert max(a + b for a, b in workspace._pair) == pair
    assert max(workspace._point) == point
    # phi_0 .. phi_7: the point kernel P_5 decomposes on phi'_c up to 7
    assert len(workspace.tower._phis) == 8
    # eta_{-1} .. eta_6: the pair kernel P_{0,5} reads eta_1 and eta_6
    assert len(workspace.eta._rungs) == 8


def test_chi6_table_is_pinned(table6):
    text = table6.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "12d661edf3284f0bb2078029a762431197f02dda2af7334600e54a1e27d0fb3b"
    # the same table continued to chi <= 7 and 8, on a copy read back from
    # its text: the session's table6 stays at chi <= 6
    table = BracketTable.from_json(text)
    workspace = make_workspace(budget_cells(8))
    for chi, digest in [
            (7, "2d62cc3f02b4810d119a7a1efb32bd335c77e39eb9f643be6564be805f5533ff"),
            (8, "74c6105a0c228633923c0cd7f88e0e8c9c3e12167f00fa97beaf6c41df2a1841")]:
        text = run_to_budget(chi, table=table, workspace=workspace).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, chi


def parent_recursion_step(g, n, table, workspace):
    # the recursion at every ordered beta, with a reduced product and a
    # reduced sum per contribution, the orderings found among all n!
    # permutations and the companion-slot subsets listed by size
    def all_orderings(entries):
        for key, value in entries.items():
            for beta in set(permutations(key)):
                yield beta, value

    ff1 = F * (F + 1)
    coeff = {}
    spect = n - 1
    if is_stable(g - 1, n + 1):
        for beta, br in all_orderings(table.cell_entries(g - 1, n + 1)):
            w = ff1 * br
            for c, dc in workspace.decompose_pair_kernel(*beta[:2]).items():
                add_term(coeff, (c,) + beta[2:], w * dc)
    for g1 in range(g + 1):
        for idx in [idx for s in range(n)
                    for idx in combinations(range(spect), s)]:
            rest = tuple(k for k in range(spect) if k not in idx)
            if not (is_stable(g1, 1 + len(idx))
                    and is_stable(g - g1, 1 + len(rest))):
                continue
            place = [(idx + rest).index(k) for k in range(spect)]
            second = list(all_orderings(table.cell_entries(g - g1,
                                                           1 + len(rest))))
            for (a1, *b_i), br1 in all_orderings(
                    table.cell_entries(g1, 1 + len(idx))):
                for (a2, *b_j), br2 in second:
                    b = b_i + b_j
                    bs = tuple(b[p] for p in place)
                    w = -(br1 * br2)
                    for c, dc in workspace.decompose_pair_kernel(a1, a2).items():
                        add_term(coeff, (c,) + bs, w * dc)
    if is_stable(g, n - 1):
        for (b, *bs), br in all_orderings(table.cell_entries(g, n - 1)):
            w = -br / ff1
            for (c, d), dc in workspace.decompose_point_kernel(b).items():
                wdc = w * dc
                for j in range(1, n):
                    add_term(coeff, (c, *bs[:j - 1], d, *bs[j - 1:]), wdc)
    bound_new = support_bound(g, n)
    entries = {}
    seen = set()
    for beta, v in coeff.items():
        assert sum(beta) <= bound_new or v.is_zero
        key = tuple(sorted(beta))
        if key in seen:
            continue
        seen.add(key)
        vals = {coeff.get(p, FR_ZERO) for p in set(permutations(key))}
        assert len(vals) == 1
        value = vals.pop()
        if not value.is_zero:
            entries[key] = value
    return entries


_STEPPED = [(g, n) for g, n in budget_cells(6) if 2 * g - 2 + n >= 2]


@pytest.fixture(scope="module")
def parent_cells(table6):
    # every non-seed chi <= 6 cell by the parent body, from the stored lower
    # cells; this also builds every kernel the cells read
    workspace = make_workspace(budget_cells(6))
    return {(g, n): parent_recursion_step(g, n, table6, workspace)
            for g, n in _STEPPED}, workspace


def test_recursion_step_equals_its_parent_body(table6, parent_cells,
                                               monkeypatch):
    # each gathered key is summed once, when the step closes its lists:
    # no sum is taken while a list grows
    want, workspace = parent_cells
    calls, closed = [], []
    real_sum, real_close = tpoly.sum_of_products, engine.sum_gathered

    def counting(*args):
        calls.append(len(args[0]))
        return real_sum(*args)

    def closing(groups):
        before = len(calls)
        out = real_close(groups)
        assert len(calls) - before <= len(groups)
        closed.append(len(calls) - before)
        return out

    monkeypatch.setattr(tpoly, "sum_of_products", counting)
    monkeypatch.setattr(engine, "sum_gathered", closing)
    for g, n in _STEPPED:
        assert recursion_step(g, n, table6, workspace) == want[g, n], (g, n)
    assert len(closed) == len(_STEPPED)
    assert sum(closed) == len(calls) > 0


def test_tampered_lower_cell_fails_the_extraction():
    # the splitting sum puts slot 0 apart, so a wrong (1,2) value feeds
    # (1,4) coefficients that differ across the first entries of a key,
    # which the extraction's slot-0 comparison refuses
    table = run_to_budget(4)
    entries = table.cell_entries(1, 2)
    entries[(0, 1)] = entries[(0, 1)] + 1
    table.mark_cell(1, 2, entries)
    workspace = make_workspace(budget_cells(4))
    with pytest.raises(SymmetryViolation):
        recursion_step(1, 4, table, workspace)


def test_assemble_three_point():
    table = seed_initial_data()
    tower = PhiTower()
    h = assemble_H(0, 3, table, tower)
    t = [TPolynomial.variable(3, i) for i in range(3)]
    want = (t[0] - 1) * (t[1] - 1) * (t[2] - 1) * (-F * F / (F + 1))
    assert per_ordering_H(table, tower, 0, 3) == want
    # H is held by orbit, at its non-increasing exponent vectors
    assert h == restricted(want)


def test_assemble_one_point():
    table = seed_initial_data()
    tower = PhiTower()
    h = assemble_H(1, 1, table, tower)
    want = -(tower.phi(0) * (FRational.poly([1, 1, 1]) / 24)
             - tower.phi(1) * (F * (F + 1) / 24))
    assert h == want


def test_assemble_is_symmetric(table3):
    tower = PhiTower()
    full = per_ordering_H(table3, tower, 1, 2)
    swapped = TPolynomial(2, {(e[1], e[0]): c
                              for e, c in full.terms()}.items())
    assert full == swapped
    # so the representatives, all that assemble_H holds, determine H
    h = assemble_H(1, 2, table3, tower)
    assert h == restricted(full)
    assert len(h) < len(full)


def test_serialization_round_trip(table3):
    text = table3.to_json()
    loaded = BracketTable.from_json(text)
    assert loaded == table3
    assert loaded.to_json() == text


REFERENCE_CHI4 = (Path(__file__).resolve().parents[1]
                  / "perfbench" / "reference" / "brackets_chi4.json")


def test_loaded_file_is_the_written_file():
    # keys and values each have one spelling, so a table file loads and
    # writes back byte for byte
    for text in (REFERENCE_CHI4.read_text(), run_to_budget(5).to_json()):
        assert BracketTable.from_json(text).to_json() == text


def test_serialization_deterministic():
    a = run_to_budget(2).to_json()
    b = run_to_budget(2).to_json()
    assert a == b


def test_seed_serialization_golden():
    text = seed_initial_data().to_json()
    assert '"0|0,0,0": "1"' in text
    assert '"1|0": "(f^2+f+1)/24"' in text
    assert '"1|1": "(-f^2-f)/24"' in text
