import pytest

from framedvertex import kernels
from framedvertex.curvefun import (phi_prime_decompose,
                                   phi_prime_decompose_pair, plus_part)
from framedvertex.engine import budget_cells, make_workspace
from framedvertex.errors import InsufficientTruncation
from framedvertex.kernels import (KernelWorkspace, kernel_I,
                                  kernel_I_via_involution, kernel_II,
                                  kernel_II_symmetrized)
from framedvertex.ratfunc import FRational
from framedvertex.tpoly import TPolynomial
from framedvertex.vseries import compose_polynomial

F = FRational.variable()


@pytest.fixture(scope="module")
def ws():
    return KernelWorkspace(pair_budget=4, point_budget=2, b_max=8)


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


def test_point_kernel_decomposes(ws):
    for b in range(3):
        out = phi_prime_decompose_pair(ws.kernel_II(b), ws.tower)
        assert all(not c.is_zero for c in out.values())
        assert max(c for c, _ in out) <= b + 2
        assert max(d for _, d in out) <= b + 1


def test_truncation_stability():
    lo = KernelWorkspace(pair_budget=2, point_budget=1, b_max=6)
    hi = KernelWorkspace(pair_budget=2, point_budget=1, b_max=6, margin=4)
    for a, b in [(0, 0), (0, 1), (1, 1), (0, 2)]:
        assert lo.kernel_I(a, b) == hi.kernel_I(a, b)
    for b in range(2):
        assert lo.kernel_II(b) == hi.kernel_II(b)


def test_integrand_difference_has_no_polynomial_part(ws):
    # the two pair-kernel integrands differ only in strictly positive
    # v-exponents, which is why their polynomial parts agree
    from framedvertex.vseries import VSeries, compose_polynomial
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


# -- kernel windows ----------------------------------------------------------

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
    poly, _ = plus_part(x * FRational.from_fraction("-1/2"), curve)
    return poly


def full_kernel_II(b, curve, tower):
    # the point kernel with phi composed at the full t(v) and C_k never cut
    phi_t = compose_polynomial(tower.phi_coeffs(b + 1), curve.t_of_v)
    c_k = phi_t * curve.zbar_of_v ** 2 / (curve.eta_minus_one * (-2))
    terms = {}
    for k in range(2 * b + 7):
        q, _ = plus_part(curve.sprime * c_k - c_k.negate_variable(), curve)
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


def test_one_short_window_raises(ws5, monkeypatch):
    window = kernels._window
    monkeypatch.setattr(kernels, "_window",
                        lambda series, n: window(series, n - 1))
    for a, b in [(0, 0), (1, 2), (0, 5)]:
        with pytest.raises(InsufficientTruncation):
            kernel_I(a, b, ws5.eta, ws5.curve)
    for b in (0, 3, 5):
        with pytest.raises(InsufficientTruncation):
            kernel_II(b, ws5.curve, ws5.tower)
