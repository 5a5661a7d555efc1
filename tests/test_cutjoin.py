import functools
import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import pytest

from framedvertex.curvefun import PhiTower, euler_field
from framedvertex.cutjoin import CutJoinVerifier, _slice, psi_oracle
from framedvertex.engine import (BracketTable, assemble_H, is_stable,
                                 run_to_budget, seed_initial_data,
                                 support_bound)
from framedvertex.errors import OutsideVerifiableSet
from framedvertex.ratfunc import FRational
from framedvertex.tpoly import TPolynomial

from conftest import (localised, map_coefficients, non_increasing,
                      per_ordering_H, restricted, substitute, term)

F = FRational.variable()


@pytest.fixture(scope="module")
def table3():
    return run_to_budget(3)


@pytest.fixture(scope="module")
def tower():
    return PhiTower()


def test_psi_genus0():
    assert psi_oracle(0, (0, 0, 0)) == 1
    assert psi_oracle(0, (1, 0, 0, 0)) == 1
    assert psi_oracle(0, (1, 1, 0, 0, 0)) == 2
    assert psi_oracle(0, (2, 0, 0, 0, 0)) == 1
    assert psi_oracle(0, (2, 1, 0, 0, 0, 0)) == Fraction(6, 2)
    assert psi_oracle(0, (1, 1, 1, 0, 0, 0)) == 6


def test_psi_dimension_filter():
    assert psi_oracle(0, (1, 0, 0)) == 0
    assert psi_oracle(1, (0,)) == 0
    assert psi_oracle(2, (3,)) == 0
    assert psi_oracle(0, (0, 0)) == 0  # unstable


def test_psi_genus1():
    assert psi_oracle(1, (1,)) == Fraction(1, 24)
    assert psi_oracle(1, (2, 0)) == Fraction(1, 24)
    assert psi_oracle(1, (1, 1)) == Fraction(1, 24)
    assert psi_oracle(1, (3, 0, 0)) == Fraction(1, 24)
    assert psi_oracle(1, (2, 1, 0)) == Fraction(1, 12)
    assert psi_oracle(1, (1, 1, 1)) == Fraction(1, 12)


def test_psi_genus2_and_3():
    assert psi_oracle(2, (4,)) == Fraction(1, 1152)
    assert psi_oracle(2, (5, 0)) == Fraction(1, 1152)
    assert psi_oracle(2, (4, 1)) == Fraction(1, 384)
    assert psi_oracle(2, (3, 2)) == Fraction(29, 5760)
    assert psi_oracle(3, (7,)) == Fraction(1, 82944)
    assert psi_oracle(3, (7, 1)) == Fraction(5, 82944)
    assert psi_oracle(3, (6, 2)) == Fraction(77, 414720)
    assert psi_oracle(3, (5, 3)) == Fraction(503, 1451520)
    assert psi_oracle(3, (4, 4)) == Fraction(607, 1451520)


def test_seed_anchors_psi(table3):
    assert table3.value(1, (1,)) == -F * (F + 1) * \
        FRational.from_fraction(psi_oracle(1, (1,)))


def test_genus0_cells_match_psi(table3):
    for n in (4, 5):
        for key, value in table3.cell_entries(0, n).items():
            assert value == FRational.from_fraction(psi_oracle(0, key))


def test_lhs_hand_value_three_point(tower):
    # operator applied to the three-point polynomial, differentiated by hand:
    # -[(f^2+2f) + f^2 (t_0+t_1+t_2)] prod(t_i - 1) / (f+1)^2
    table = seed_initial_data()
    v = CutJoinVerifier(table, tower)
    got = term(v.lhs, 0, 3)
    t = [TPolynomial.variable(3, i) for i in range(3)]
    prod = (t[0] - 1) * (t[1] - 1) * (t[2] - 1)
    tsum = t[0] + t[1] + t[2]
    scale = (F + 1) ** -2
    want = -(prod * (F ** 2 + 2 * F) + prod * tsum * F ** 2) * scale
    for perm in permutations(range(3)):
        assert want.embed(3, perm) == want
    # one coefficient per orbit; the hand value is symmetric, so its
    # restriction determines it
    assert got == restricted(want)
    assert got == restricted(full_lhs(full_H(table, tower), None, 0, 3))


def test_t1_vanishes_at_genus0(table3, tower):
    v = CutJoinVerifier(table3, tower)
    assert term(v.t1, 0, 4).is_zero


def test_t2_t3_vanish_small(table3, tower):
    v = CutJoinVerifier(table3, tower)
    # no stable splitting of 4 points at genus 0
    assert term(v.t2_t3, 0, 4).is_zero
    # neither mixed-genus nor genus-0 splits
    assert term(v.t2_t3, 1, 2).is_zero


def test_t4_empty_for_one_point(table3, tower):
    v = CutJoinVerifier(table3, tower)
    assert term(v.t4, 2, 1).is_zero


def test_outside_verifiable_set(table3, tower):
    v = CutJoinVerifier(table3, tower)
    with pytest.raises(OutsideVerifiableSet):
        v.verify(0, 3)
    with pytest.raises(OutsideVerifiableSet):
        v.verify(1, 1)


def test_unstable_dependency_raises(table3, tower):
    from framedvertex.errors import UnstableDependency
    v = CutJoinVerifier(table3, tower)
    with pytest.raises(UnstableDependency):
        term(v.t1, 1, 1)  # would need the unstable two-point genus-0 cell
    with pytest.raises(UnstableDependency):
        term(v.t4, 0, 3)  # same cell through the divided-difference term


def test_identity_holds_at_chi2(table3, tower):
    v = CutJoinVerifier(table3, tower)
    for g, n in [(0, 4), (1, 2)]:
        report = v.verify(g, n)
        assert report.passed, (g, n, report.residual_terms)
        assert not term(v.lhs, g, n).is_zero


def test_identity_holds_at_chi3(table3, tower):
    v = CutJoinVerifier(table3, tower)
    for g, n in [(0, 5), (1, 3), (2, 1)]:
        report = v.verify(g, n)
        assert report.passed, (g, n, report.residual_terms)


def term_by_term(v, g, n):
    """lhs - (t1 + t2_t3 + t4), each a TPolynomial of its own."""
    right = term(v.t1, g, n) + term(v.t2_t3, g, n) + term(v.t4, g, n)
    return term(v.lhs, g, n) - right


def test_one_gather_residual_is_the_term_by_term_residual(table6):
    # verify gathers the four terms, with their scalars, counts and signs
    # folded into the reads, and reduces once; that must be the residual
    # of the terms built and summed one by one, on the true table and on
    # one with a single well-formed, in-bound value put in the wrong key
    obj = json.loads(table6.to_json())
    entries = obj["entries"]
    assert entries["1|0,0,3"] != entries["1|0,1,2"]
    entries["1|0,0,3"] = entries["1|0,1,2"]
    tampered = BracketTable.from_json(json.dumps(obj))
    cells = [(g, n) for g, n in table6.cells() if 2 * g - 2 + n >= 2]
    tower = PhiTower()
    # the tampered cell and every cell whose terms read H(1, 3)
    reads_13 = {(1, 3), (1, 4), (2, 2), (1, 5), (2, 3), (1, 6), (2, 4)}
    for table, failing in ((table6, set()), (tampered, reads_13)):
        v = CutJoinVerifier(table, tower)
        failed = set()
        for g, n in cells:
            report = v.verify(g, n)
            want = term_by_term(v, g, n)
            assert report.residual == want, (g, n)
            assert report.residual_terms == len(want), (g, n)
            if not report.passed:
                failed.add((g, n))
        assert failed == failing


def test_report_json(table3, tower):
    report = CutJoinVerifier(table3, tower).verify(0, 4)
    assert report.to_json_obj() == {"g": 0, "n": 4, "passed": True,
                                    "residual_terms": 0}


# ---------------------------------------------------------------------------
# orbit terms against full per-slot, per-subset and per-pair forms
# ---------------------------------------------------------------------------

REFERENCE_CHI4 = (Path(__file__).resolve().parents[1]
                  / "perfbench" / "reference" / "brackets_chi4.json")
HALF = FRational.from_fraction("1/2")


def sliced(p):
    """The terms of ``p`` that are non-increasing on every slot but slot 0:
    what ``CutJoinVerifier.EH`` holds."""
    return TPolynomial(p.arity, [(e, c) for e, c in p.terms()
                                 if non_increasing(e[1:])])


def full_H(table, tower):
    """H at every exponent vector, once per cell: the operand of the full
    forms, built by ``per_ordering_H``, not by ``assemble_H``."""
    return functools.lru_cache(maxsize=None)(
        lambda g, n: per_ordering_H(table, tower, g, n))


def unsliced_EH(H):
    """E in slot 0 on the full H, once per cell: the operand of the full
    forms, built without ``CutJoinVerifier.EH`` and its slice."""
    return functools.lru_cache(maxsize=None)(
        lambda g, n: euler_field(H(g, n), 0))


# The full forms read H and E_0 H only through the callables H and EH.

def full_lhs(H, EH, g, n):
    h = H(g, n)
    total = map_coefficients(h, lambda c: c.derivative())
    for slot in range(n):
        t = TPolynomial.variable(n, slot)
        total = total + (t * t - t) * h.partial_derivative(slot) \
            * (F + 1) ** -1
    return total


def per_slot_t1(H, EH, g, n):
    if g == 0:
        return TPolynomial.zero(n)
    inner = euler_field(H(g - 1, n + 1), n)
    total = TPolynomial.zero(n)
    for slot in range(n):
        total = total + substitute(euler_field(inner, slot), n, slot)
    return total * (-HALF)


def per_subset_t2_t3(H, EH, g, n):
    total = TPolynomial.zero(n)
    for m in range(n):
        others = tuple(k for k in range(n) if k != m)
        for size in range(n):
            for subset in combinations(others, size):
                comp = tuple(k for k in others if k not in subset)
                k1 = 1 + len(subset)
                k2 = 1 + len(comp)
                for a in range(0, g + 1):
                    if not (is_stable(a, k1) and is_stable(g - a, k2)):
                        continue
                    term = EH(a, k1).embed(n, (m,) + subset) \
                        * EH(g - a, k2).embed(n, (m,) + comp)
                    total = total + term * (-HALF)
    return total


def per_pair_t4(H, EH, g, n):
    total = TPolynomial.zero(n)
    if n < 2:
        return total
    base = EH(g, n - 1)
    for i in range(n):
        for j in range(i + 1, n):
            rest = tuple(k for k in range(n) if k != i and k != j)
            p_i = base.embed(n, (i,) + rest)
            p_j = base.embed(n, (j,) + rest)
            ti = TPolynomial.variable(n, i)
            tj = TPolynomial.variable(n, j)
            numer = ti * (F * ti + 1) * (tj - 1) * p_i \
                - tj * (F * tj + 1) * (ti - 1) * p_j
            total = total + numer.exact_divide_difference(i, j) * (F + 1) ** -1
    return total


FULL_FORMS = {"lhs": full_lhs, "t1": per_slot_t1, "t2_t3": per_subset_t2_t3,
              "t4": per_pair_t4}


@pytest.fixture(scope="module")
def table4():
    return BracketTable.from_json(REFERENCE_CHI4.read_text())


@pytest.fixture(scope="module")
def H4(table4):
    return full_H(table4, PhiTower())


@pytest.mark.parametrize("name", list(FULL_FORMS))
def test_orbit_terms_restrict_the_full_forms(table4, H4, name):
    v = CutJoinVerifier(table4, PhiTower())
    eh = unsliced_EH(H4)
    nonzero = 0
    for g, n in table4.cells():
        if 2 * g - 2 + n < 2:
            continue
        got = term(getattr(v, name), g, n)
        assert got == restricted(FULL_FORMS[name](H4, eh, g, n)), (g, n)
        nonzero += not got.is_zero
    assert nonzero >= 3
    # the operands the terms read: H by orbit and the slot-0 slice of the
    # full E_0 H, which every term of the right side reads
    assert v._h
    for (g, n), got in v._h.items():
        assert got == restricted(H4(g, n)), (g, n)
    assert bool(v._eh) == (name != "lhs")
    for (g, n), got in v._eh.items():
        assert got == sliced(eh(g, n)), (g, n)


class RandomEH(CutJoinVerifier):
    """EH(g, n) is a seeded random polynomial with no slot symmetry.

    Coefficients are random quadratics in f over (f+1)^k, and the t_0^3
    term has no image under any other slot order, so a term put on the
    wrong slots cannot match by symmetry.
    """

    def __init__(self, seed):
        super().__init__(None, None)
        self.seed = seed

    def EH(self, g, n):
        got = self._eh.get((g, n))
        if got is None:
            rng = random.Random("%d/%d/%d" % (self.seed, g, n))

            def coeff():
                num = FRational.poly([rng.randint(-5, 5) for _ in range(3)])
                return (num + 1) / (F + 1) ** rng.randint(1, 3)

            terms = [(tuple(rng.randint(0, 2) for _ in range(n)), coeff())
                     for _ in range(5)]
            terms.append(((3,) + (0,) * (n - 1), coeff()))
            got = self._eh[(g, n)] = TPolynomial(n, terms)
        return got


@pytest.mark.parametrize("cell", [(0, 5), (1, 3), (1, 4), (2, 2)],
                         ids=["0,5", "1,3", "1,4", "2,2"])
def test_terms_are_relabelled_products_on_asymmetric_input(cell):
    # the orbit terms weight each pair of operand terms by the slot maps
    # that read it, so they restrict the full sums even when EH has no
    # symmetry at all (and only its slice keys are read)
    g, n = cell
    v = RandomEH(7)
    if n > 2:  # the base of t4 has no slot symmetry
        eh = v.EH(g, n - 1)
        assert eh.embed(n - 1, tuple(reversed(range(n - 1)))) != eh
    t2_t3 = term(v.t2_t3, g, n)
    assert t2_t3 == restricted(per_subset_t2_t3(v.H, v.EH, g, n))
    assert not t2_t3.is_zero
    t4 = term(v.t4, g, n)
    assert t4 == restricted(per_pair_t4(v.H, v.EH, g, n))
    assert not t4.is_zero


PREMISE_CELLS = pytest.mark.parametrize(
    "cell", [(0, 5), (1, 4), (2, 2)], ids=["0,5", "1,4", "2,2"])


@functools.lru_cache(maxsize=None)
def random_cell(cell):
    """A table with random values on every key within the support bound of
    ``cell``, a tower for it, and the cell's full H by ``per_ordering_H``."""
    g, n = cell
    bound = support_bound(g, n)
    rng = random.Random("premise/%d/%d" % cell)
    table = BracketTable()
    table.mark_cell(g, n, {
        key: localised(rng)
        for key in combinations_with_replacement(range(bound + 1), n)
        if sum(key) <= bound})
    tower = PhiTower()
    return table, tower, per_ordering_H(table, tower, g, n)


@PREMISE_CELLS
def test_assemble_H_is_symmetric_for_any_values(cell):
    # the premise of checking one coefficient per orbit: H is symmetric
    # whatever the table holds, because every ordering of each key is
    # summed, so its representatives determine it
    g, n = cell
    table, tower, full = random_cell(cell)
    assert not full.is_zero
    for perm in permutations(range(n)):
        assert full.embed(n, perm) == full, perm
    # the orbit sums must be the sums over every ordering, held only at
    # the representatives
    assert assemble_H(g, n, table, tower) == restricted(full)


@PREMISE_CELLS
def test_slice_of_orbit_H_is_the_slice_of_the_full_H(cell):
    # the operand of EH, which all three terms of the right side read
    g, n = cell
    table, tower, full = random_cell(cell)
    h = assemble_H(g, n, table, tower)
    got = _slice(h)
    assert got == sliced(full)
    assert len(got) > len(h)


def test_assemble_H_matches_per_ordering_products(table4, H4):
    tower = PhiTower()
    for g, n in table4.cells():
        assert assemble_H(g, n, table4, tower) == restricted(H4(g, n)), \
            (g, n)
