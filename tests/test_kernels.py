import argparse
from collections import Counter

import pytest

from framedvertex import cli, kernels
from framedvertex import curve as curve_module
from framedvertex.curvefun import (phi_prime_decompose,
                                   phi_prime_decompose_pair, plus_part)
from framedvertex.engine import budget_cells, make_workspace, run_to_budget
from framedvertex.errors import DegreeCapExceeded, InsufficientTruncation
from framedvertex.kernels import (KernelWorkspace, kernel_I,
                                  kernel_I_via_involution, kernel_II,
                                  kernel_II_symmetrized)
from framedvertex.ratfunc import FRational
from framedvertex.tpoly import TPolynomial
from framedvertex.vseries import VSeries, compose_polynomial

F = FRational.variable()


@pytest.fixture(scope="module")
def ws():
    return KernelWorkspace(pair_budget=4)


def test_pair_kernel_top_coefficient(ws):
    p = ws.kernel_I(0, 0)
    assert p.degree_in(0) == 4
    assert p.coefficient((4,)) == -F ** 2 / (2 * (F + 1) ** 3)


def test_pair_kernel_symmetry(ws):
    # the module function, not the workspace, whose cache key is sorted
    for a in range(3):
        for b in range(a + 1, 3):
            assert (kernel_I(a, b, ws.eta, ws.curve)
                    == kernel_I(b, a, ws.eta, ws.curve)), (a, b)


def test_pair_kernel_degree(ws):
    for a in range(3):
        for b in range(3):
            assert ws.kernel_I(a, b).degree_in(0) == 2 * (a + b) + 4


def test_pair_kernel_cross_form(ws):
    for a, b in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 2)]:
        direct = ws.kernel_I(a, b)
        other = kernel_I_via_involution(a, b, ws.curve, ws.tower)
        assert direct == other, (a, b)


def test_pair_kernel_decomposes(ws):
    for a in range(3):
        for b in range(a, 3):
            coefficients = phi_prime_decompose(ws.kernel_I(a, b), ws.tower)
            assert max(coefficients) == a + b + 2


def test_point_kernel_b0_closed_form(ws):
    # forced by the genus-0 four-point data:
    # P_0(t, t_i) = -(f/3) phi'_1(t) - f phi'_1(t_i)
    got = ws.kernel_II(0)
    want = (ws.tower.phi_prime(1).embed(2, [0]) * (-F / 3)
            + ws.tower.phi_prime(1).embed(2, [1]) * (-F))
    assert got == want


def test_point_kernel_degree_bound(ws):
    for b in range(3):
        p = ws.kernel_II(b)
        assert p.degree_in(1) <= 2 * b + 2
        assert p.degree_in(0) <= 2 * b + 2


def test_point_kernel_symmetrized_variant(ws):
    for b in range(4):
        assert ws.kernel_II(b) == kernel_II_symmetrized(b, ws.curve, ws.tower), b


def test_symmetrized_point_kernel_stops_at_positive_leads(ws, monkeypatch):
    # A_k and B_k reach positive lead at k = 2b+3, and z, zbar have lead
    # 1, so steps 2b+3 .. 2b+6 are not run: crosscheck-chi4's b = 0, 1, 2
    # take 15 steps where 27 were run before
    leads = []

    def spy(series, curve):
        leads.append(series.lead)
        return plus_part(series, curve)

    monkeypatch.setattr(kernels, "plus_part", spy)
    steps = []
    for b in range(3):
        del leads[:]
        assert kernel_II_symmetrized(b, ws.curve, ws.tower) == ws.kernel_II(b)
        steps.append(len(leads))
        assert max(leads) <= 0
    assert steps == [3, 5, 7]


def test_symmetrized_point_kernel_cap_still_raises(ws):
    # phi_{b+3} in place of phi_{b+1}: step cap = 2b+6 still has lead 0,
    # so it is run, and its polynomial part is not zero
    class Shifted:
        def phi_coeffs(self, b):
            return ws.tower.phi_coeffs(b + 2)

    with pytest.raises(DegreeCapExceeded):
        kernel_II_symmetrized(0, ws.curve, Shifted())


def test_point_kernel_decomposes(ws):
    for b in range(3):
        out = phi_prime_decompose_pair(ws.kernel_II(b), ws.tower)
        assert all(not c.is_zero for c in out.values())
        assert max(c for c, _ in out) <= b + 2
        assert max(d for _, d in out) <= b + 1


def test_truncation_stability(monkeypatch):
    lo = KernelWorkspace(pair_budget=2)
    real = kernels.default_trunc
    monkeypatch.setattr(kernels, "default_trunc", lambda pair: real(pair) + 4)
    hi = KernelWorkspace(pair_budget=2)
    assert hi.trunc == lo.trunc + 4
    for a, b in [(0, 0), (0, 1), (1, 1), (0, 2)]:
        assert lo.kernel_I(a, b) == hi.kernel_I(a, b)
    for b in range(2):
        assert lo.kernel_II(b) == hi.kernel_II(b)


def test_integrand_difference_has_no_polynomial_part(ws):
    # the two pair-kernel integrands differ only in strictly positive
    # v-exponents, which is why their polynomial parts agree
    curve, tower, eta = ws.curve, ws.tower, ws.eta
    a, b = 1, 1
    x1 = eta.eta(a + 1) * eta.eta(b + 1) / eta.eta(-1)
    x1 = x1.shift(1) * ((F + 1) / F) / curve.dt_dv
    x1 = x1 * FRational.from_fraction("-1/2")
    pa_t = compose_polynomial(tower.phi_coeffs(a + 1), curve.t_of_v)
    pa_s = compose_polynomial(tower.phi_coeffs(a + 1), curve.s_t_of_v)
    numer = pa_t * pa_s * 2
    one = VSeries.one(curve.trunc)
    cubic = curve.t_of_v * (curve.t_of_v - one) * (curve.t_of_v * F + one)
    x2 = numer / (curve.eta_minus_one * cubic) * (-(F + 1) / 4)
    diff = x1 - x2
    assert diff.is_zero or diff.lead > 0


def test_eta_family_shares_curve_eta_minus_one(ws):
    assert ws.eta.eta(-1) is ws.curve.eta_minus_one


# -- kernels cut to what plus_part reads --------------------------------------

CHI5_PAIRS = [(a, b) for a in range(6) for b in range(a, 6 - a)]


@pytest.fixture(scope="module")
def ws5():
    ws = make_workspace(budget_cells(5))
    assert ws.trunc == 22
    return ws


def full_kernel_I(a, b, eta, curve):
    # the pair kernel with every factor at the curve's full truncation
    x = eta.eta(a + 1) * eta.eta(b + 1) / eta.eta(-1)
    x = x.shift(1) * ((F + 1) / F)
    x = x / curve.dt_dv
    return plus_part(x * FRational.from_fraction("-1/2"), curve)


def full_kernel_II(b, curve, tower):
    # the point kernel with phi composed at the full t(v) and C_k never cut
    phi_t = compose_polynomial(tower.phi_coeffs(b + 1), curve.t_of_v)
    c_k = phi_t * curve.zbar_of_v ** 2 / (curve.eta_minus_one * (-2))
    terms = {}
    for k in range(2 * b + 7):
        q = plus_part(curve.sprime * c_k - c_k.negate_variable(), curve)
        q = q * FRational.from_int(k + 1)
        for (e,), c in q.terms():
            terms[(e, k)] = c
        c_k = c_k * curve.zbar_of_v
    return TPolynomial(2, terms.items())


def test_windowed_pair_kernels_equal_full_truncation(ws5):
    assert len(CHI5_PAIRS) == 12
    for a, b in CHI5_PAIRS:
        assert (kernel_I(a, b, ws5.eta, ws5.curve)
                == full_kernel_I(a, b, ws5.eta, ws5.curve)), (a, b)


def test_windowed_point_kernels_equal_full_truncation(ws5):
    for b in range(6):
        assert (kernel_II(b, ws5.curve, ws5.tower)
                == full_kernel_II(b, ws5.curve, ws5.tower)), b


def test_kernels_read_exactly_through_v0(ws5, monkeypatch):
    # every series handed to plus_part is known through v^0 and no further
    seen = []

    def recording(series, curve):
        seen.append(series.trunc)
        return plus_part(series, curve)

    monkeypatch.setattr(kernels, "plus_part", recording)
    for a, b in CHI5_PAIRS:
        kernel_I(a, b, ws5.eta, ws5.curve)
    for b in range(6):
        kernel_II(b, ws5.curve, ws5.tower)
    assert len(seen) == len(CHI5_PAIRS) + sum(2 * b + 7 for b in range(6))
    assert set(seen) == {0}


def test_cross_check_forms_read_exactly_through_v0(ws5, monkeypatch):
    # every series the cross-check forms hand to plus_part is known
    # through v^0 and no further
    seen = []

    def recording(series, curve):
        seen.append(series.trunc)
        return plus_part(series, curve)

    monkeypatch.setattr(kernels, "plus_part", recording)
    for a, b in CHI5_PAIRS:
        kernel_I_via_involution(a, b, ws5.curve, ws5.tower)
    for b in range(6):
        kernel_II_symmetrized(b, ws5.curve, ws5.tower)
    assert len(seen) == len(CHI5_PAIRS) + sum(2 * b + 3 for b in range(6))
    assert set(seen) == {0}


def _cut_one_short(patch, name):
    cut = getattr(kernels, name)
    patch.setattr(kernels, name,
                  lambda *args: cut(*args[:-1], args[-1] - 1))


def test_one_short_window_raises(ws5, monkeypatch):
    # the generator kernels take their windows from _product_through and,
    # for kernel_II alone, the cut of the ladder rung it reads; either cut
    # one coefficient short makes them raise
    with monkeypatch.context() as patch:
        _cut_one_short(patch, "_product_through")
        for a, b in [(0, 0), (1, 2), (0, 5)]:
            with pytest.raises(InsufficientTruncation):
                kernel_I(a, b, ws5.eta, ws5.curve)
        for b in (0, 3, 5):
            with pytest.raises(InsufficientTruncation):
                kernel_II(b, ws5.curve, ws5.tower)
    with monkeypatch.context() as patch:
        _cut_one_short(patch, "_phi_on_ladder")
        for b in (0, 3, 5):
            with pytest.raises(InsufficientTruncation):
                kernel_II(b, ws5.curve, ws5.tower)


def test_one_short_cut_raises_in_cross_check_forms(ws5, monkeypatch):
    _cut_one_short(monkeypatch, "_product_through")
    for a, b in [(0, 0), (1, 2), (0, 5)]:
        with pytest.raises(InsufficientTruncation):
            kernel_I_via_involution(a, b, ws5.curve, ws5.tower)
    for b in (0, 3, 5):
        with pytest.raises(InsufficientTruncation):
            kernel_II_symmetrized(b, ws5.curve, ws5.tower)


def test_build_kernels_equal_cross_check_forms():
    # the chi <= 7 build reads exactly these kernels, the pairs with
    # a + b <= 8 and the point kernels b <= 8, where the ladder climbs to
    # phi_9(t(v)), and each equals its cross-check form
    ws = make_workspace(budget_cells(7))
    run_to_budget(7, workspace=ws)
    pairs = [(a, b) for a in range(9) for b in range(a, 9 - a)]
    assert set(ws._pair_dec) == set(pairs)
    assert set(ws._point_dec) == set(range(9))
    for a, b in pairs:
        assert (ws.kernel_I(a, b)
                == kernel_I_via_involution(a, b, ws.curve, ws.tower)), (a, b)
    for b in range(9):
        assert (ws.kernel_II(b)
                == kernel_II_symmetrized(b, ws.curve, ws.tower)), b


def test_plus_part_equals_peeling_on_kernel_inputs(ws5, monkeypatch):
    # every series the generator kernels and the cross-check forms hand to
    # plus_part at chi <= 5, solved against the rows and peeled
    from conftest import peeled_plus_part
    seen = []

    def recording(series, curve):
        seen.append(series)
        return plus_part(series, curve)

    monkeypatch.setattr(kernels, "plus_part", recording)
    for a, b in CHI5_PAIRS:
        kernel_I(a, b, ws5.eta, ws5.curve)
        kernel_I_via_involution(a, b, ws5.curve, ws5.tower)
    for b in range(6):
        kernel_II(b, ws5.curve, ws5.tower)
        kernel_II_symmetrized(b, ws5.curve, ws5.tower)
    assert len(seen) == 2 * len(CHI5_PAIRS) + sum(4 * b + 10 for b in range(6))
    for series in seen:
        assert (plus_part(series, ws5.curve)
                == peeled_plus_part(series, ws5.curve)), series


def test_generator_factors_made_once_per_curve(monkeypatch):
    # the first kernel_I and kernel_II on a fresh curve build their
    # factors; every later call on that curve inverts no series
    monkeypatch.setattr(curve_module, "_CACHE", {})
    ws = KernelWorkspace(pair_budget=3)
    calls = []
    reciprocal = VSeries.reciprocal

    def spy(series):
        calls.append(series)
        return reciprocal(series)

    monkeypatch.setattr(VSeries, "reciprocal", spy)
    kernel_I(0, 0, ws.eta, ws.curve)
    kernel_II(0, ws.curve, ws.tower)
    assert len(calls) == 2
    del calls[:]
    for a, b in [(0, 0), (0, 1), (1, 2), (0, 3)]:
        kernel_I(a, b, ws.eta, ws.curve)
    for b in range(3):
        kernel_II(b, ws.curve, ws.tower)
    assert calls == []


# -- cross-check forms: curve-level series built once per curve --------------

def parent_kernel_I_via_involution(a, b, curve, tower):
    # the pair cross-check form rebuilding every series on each call
    pa_t = compose_polynomial(tower.phi_coeffs(a + 1), curve.t_of_v)
    pa_s = pa_t.negate_variable()
    if a == b:
        pb_t, pb_s = pa_t, pa_s
    else:
        pb_t = compose_polynomial(tower.phi_coeffs(b + 1), curve.t_of_v)
        pb_s = pb_t.negate_variable()
    numer = pa_t * pb_s + pa_s * pb_t
    one = VSeries.one(curve.trunc)
    cubic = curve.t_of_v * (curve.t_of_v - one) * (curve.t_of_v * F + one)
    x = numer / (curve.eta_minus_one * cubic)
    x = x * (-(F + 1) / 4)
    return plus_part(x, curve)


def parent_kernel_II_symmetrized(b, curve, tower):
    # the point cross-check form with five full-length products per step
    phi_t = compose_polynomial(tower.phi_coeffs(b + 1), curve.t_of_v)
    phi_s = compose_polynomial(tower.phi_coeffs(b + 1), curve.s_t_of_v)
    phi_s_sp = phi_s * curve.sprime
    denom = (curve.eta_minus_one * 2).reciprocal()
    z_pow = curve.z_of_v ** 2
    zbar_pow = curve.zbar_of_v ** 2
    terms = {}
    for k in range(2 * b + 7):
        numer = phi_t * z_pow + phi_s_sp * zbar_pow
        q = plus_part(numer * denom, curve)
        q = q * FRational.from_int(k + 1)
        for (e,), c in q.terms():
            terms[(e, k)] = c
        z_pow = z_pow * curve.z_of_v
        zbar_pow = zbar_pow * curve.zbar_of_v
    return TPolynomial(2, terms.items())


def test_cross_check_forms_equal_their_parent_bodies(ws5):
    for a, b in CHI5_PAIRS:
        assert (kernel_I_via_involution(a, b, ws5.curve, ws5.tower)
                == parent_kernel_I_via_involution(a, b, ws5.curve, ws5.tower)
                ), (a, b)
    for b in range(6):
        assert (kernel_II_symmetrized(b, ws5.curve, ws5.tower)
                == parent_kernel_II_symmetrized(b, ws5.curve, ws5.tower)), b


def test_cross_check_compositions_made_once_per_curve(monkeypatch):
    # the kernels suite on a fresh curve, so no earlier test's memo counts
    monkeypatch.setattr(curve_module, "_CACHE", {})
    form = [None]
    calls = []

    def spy(coeffs, inner):
        calls.append((form[0], tuple(coeffs), inner))
        return compose_polynomial(coeffs, inner)

    def tagged(name):
        real = getattr(cli, name)

        def run(*args):
            form[0] = name
            try:
                return real(*args)
            finally:
                form[0] = None
        return run

    monkeypatch.setattr(kernels, "compose_polynomial", spy)
    for name in ("kernel_I_via_involution", "kernel_II_symmetrized"):
        monkeypatch.setattr(cli, name, tagged(name))
    rows = cli._suite_kernels(argparse.Namespace(chi_max=4, seed=1), None)
    assert all(row["passed"] for row in rows)
    (curve,) = curve_module._CACHE.values()

    made = Counter((c, inner) for _, c, inner in calls)
    assert set(made.values()) == {1}
    # phi_1..phi_4 through t(v), phi_1..phi_3 through s(t(v)), and phi_0
    # through t(v), the base of the generator kernel_II's ladder
    assert len(calls) == 8
    by_form = Counter((f, inner is curve.s_t_of_v) for f, _, inner in calls)
    assert by_form == {("kernel_I_via_involution", False): 4,
                       ("kernel_II_symmetrized", True): 3,
                       (None, False): 1}


# -- the generator's phi ladder -----------------------------------------------

def test_ladder_rungs_equal_compositions(ws5):
    # phi_b(t(v)) climbed by D from phi_0(t(v)) equals phi_b composed at
    # t(v), with the same lead and the same known range
    for b in range(10):
        rung = kernels._phi_on_ladder(b, ws5.curve, ws5.tower, ws5.trunc)
        composed = compose_polynomial(ws5.tower.phi_coeffs(b),
                                      ws5.curve.t_of_v)
        assert (rung.lead, rung.trunc) == (composed.lead, composed.trunc), b
        assert rung == composed, b


def test_ladder_holds_exactly_the_rungs_read(monkeypatch):
    monkeypatch.setattr(curve_module, "_CACHE", {})
    ws = make_workspace(budget_cells(5))

    def rungs():
        return len(ws.curve.derived("phi ladder", None)._rungs)

    kernel_II(3, ws.curve, ws.tower)
    assert rungs() == 5
    kernel_II(1, ws.curve, ws.tower)
    assert rungs() == 5
    # the chi <= 5 build reads the point kernels b <= 5, so phi_0 .. phi_6
    run_to_budget(5, workspace=ws)
    assert rungs() == 7


# -- phi' decompositions: one reduction per coefficient -----------------------

def test_decompositions_equal_subtraction_on_chi5_kernels(ws5):
    from conftest import (subtracting_phi_prime_decompose,
                          subtracting_phi_prime_decompose_pair)
    for a, b in CHI5_PAIRS:
        p = ws5.kernel_I(a, b)
        got = phi_prime_decompose(p, ws5.tower)
        want = subtracting_phi_prime_decompose(p, ws5.tower)
        assert list(got.items()) == list(want.items()), (a, b)
    for b in range(6):
        p = ws5.kernel_II(b)
        got = phi_prime_decompose_pair(p, ws5.tower)
        want = subtracting_phi_prime_decompose_pair(p, ws5.tower)
        assert list(got.items()) == list(want.items()), b
