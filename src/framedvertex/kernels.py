"""Residue kernels of the spectral-curve recursion, in formal-series form.

Two families of polynomial kernels are produced by extracting the
polynomial-in-t part of Laurent expansions along the curve:

* pair kernels P_{a,b}(t), built from the eta series, with an independent
  cross-check form built from phi compositions and the deck involution;
* point kernels P_b(t, t_i), built from geometric expansions of the
  double-pole factor 1/(. - t_i)^2, again with a symmetrized cross-check.

Every kernel must decompose exactly in the phi' basis; a nonzero residual
aborts the computation, since the whole bracket extraction relies on it.

``plus_part`` reads only the exponents <= 0 of its input, so the two
generator kernels cut their factors to the window that reaches v^0 and
no further; each docstring says why its window is exact.  A window one
coefficient short leaves a guarantee below v^0, and ``plus_part`` raises
``InsufficientTruncation`` instead of returning a wrong kernel.  The
cross-check forms run at the curve's full truncation.
"""

from __future__ import annotations

from .curve import build_curve_series
from .curvefun import (EtaFamily, PhiTower, phi_prime_decompose,
                       phi_prime_decompose_pair, plus_part)
from .errors import DegreeCapExceeded
from .ratfunc import FRational
from .tpoly import TPolynomial
from .vseries import VSeries, compose_polynomial

_F = FRational.variable()
_HALF = FRational.from_fraction("1/2")


def default_trunc(pair_budget, margin=0):
    """Truncation order covering pair kernels with a+b <= pair_budget."""
    return 2 * pair_budget + 12 + margin


class KernelWorkspace:
    """Curve, eta family, phi tower and kernel caches for one truncation."""

    def __init__(self, pair_budget, point_budget, b_max, margin=0):
        self.pair_budget = pair_budget
        self.point_budget = point_budget
        self.margin = margin
        self.trunc = default_trunc(max(pair_budget, 0), margin)
        self.curve = build_curve_series(self.trunc)
        self.tower = PhiTower(b_max)
        self.eta = EtaFamily(self.curve, max(pair_budget + 1, 0))
        self._pair = {}
        self._point = {}
        self._pair_dec = {}
        self._point_dec = {}

    # -- pair kernels -------------------------------------------------------

    def kernel_I(self, a, b):
        key = (a, b) if a <= b else (b, a)
        got = self._pair.get(key)
        if got is None:
            got = self._pair[key] = kernel_I(key[0], key[1], self.eta,
                                             self.curve)
        return got

    def kernel_II(self, b):
        got = self._point.get(b)
        if got is None:
            got = self._point[b] = kernel_II(b, self.curve, self.tower)
        return got

    def decompose_pair_kernel(self, a, b):
        """phi' coefficients of P_{a,b}; zero residual enforced."""
        key = (a, b) if a <= b else (b, a)
        got = self._pair_dec.get(key)
        if got is None:
            got = self._pair_dec[key] = phi_prime_decompose(
                self.kernel_I(a, b), self.tower)
        return got

    def decompose_point_kernel(self, b):
        """(c, d) -> coefficient for P_b(t_0, t_1); zero residual enforced."""
        got = self._point_dec.get(b)
        if got is None:
            got = self._point_dec[b] = phi_prime_decompose_pair(
                self.kernel_II(b), self.tower)
        return got


def _window(series, n):
    """``series`` known through its first ``n`` coefficients from its lead."""
    return series.truncate(series.lead + n - 1)


def kernel_I(a, b, eta, curve):
    """Pair kernel P_{a,b}(t).

    Expand eta_{a+1} eta_{b+1} / eta_{-1} * ((f+1)/f) v as a one-form in
    v dv, convert to the t chart by dividing by dt/dv, and keep the
    polynomial part, times -1/2.

    Window: eta_n has lead -(2n+1), eta_{-1} lead 1 and dt/dv lead -2, so
    x has lead -(2a+2b+4) and ``plus_part`` reads its W = 2a+2b+5
    coefficients through v^0.  Products, reciprocals, shifts and scalar
    multiples of series known to W coefficients from their leads are
    known to W coefficients from their own leads, so with each of the
    four factors cut to its first W coefficients x is known through v^0
    exactly.
    """
    w = 2 * a + 2 * b + 5
    x = (_window(eta.eta(a + 1), w) * _window(eta.eta(b + 1), w)
         / _window(eta.eta(-1), w))
    x = x.shift(1) * ((_F + 1) / _F)
    x = x / _window(curve.dt_dv, w)
    poly, _ = plus_part(x * (-_HALF), curve)
    return poly


def kernel_I_via_involution(a, b, curve, tower):
    """Cross-check form of P_{a,b} from phi compositions and the involution.

    -1/(4 eta_{-1}) (phi_{a+1}(t) phi_{b+1}(s(t)) + phi_{a+1}(s(t)) phi_{b+1}(t))
    times (f+1)/(t(t-1)(ft+1)), polynomial part.
    """
    pa_t = compose_polynomial(tower.phi_coeffs(a + 1), curve.t_of_v)
    pa_s = compose_polynomial(tower.phi_coeffs(a + 1), curve.s_t_of_v)
    if a == b:
        pb_t, pb_s = pa_t, pa_s
    else:
        pb_t = compose_polynomial(tower.phi_coeffs(b + 1), curve.t_of_v)
        pb_s = compose_polynomial(tower.phi_coeffs(b + 1), curve.s_t_of_v)
    numer = pa_t * pb_s + pa_s * pb_t
    cubic = curve.t_of_v * (curve.t_of_v - VSeries.one(curve.trunc)) \
        * (curve.t_of_v * _F + VSeries.one(curve.trunc))
    x = numer / (curve.eta_minus_one * cubic)
    x = x * (-(_F + 1) / 4)
    poly, _ = plus_part(x, curve)
    return poly


def kernel_II(b, curve, tower):
    """Point kernel P_b(t, t_i) as a two-variable polynomial.

    The double poles expand geometrically at t = infinity:
    1/(t - t_i)^2    = sum_k (k+1) t_i^k z^{k+2},        z   = 1/t,
    1/(s(t) - t_i)^2 = sum_k (k+1) t_i^k zbar^{k+2},     zbar = 1/s(t),
    and the factor from B(s(t), t_i) carries s'(t).  The t_i^k coefficient
    is (k+1) times the polynomial part of

        (s' phi_{b+1}(t) zbar^{k+2} + phi_{b+1}(s(t)) z^{k+2}) / (-2 eta_{-1})
          = s' C_k - C_k(-v),   C_k = phi_{b+1}(t) zbar^{k+2} / (-2 eta_{-1}),

    because the deck map v -> -v sends t to s(t) and zbar to z, and
    eta_{-1} is odd.  So phi_{b+1} is composed once and C_k advances by
    one factor of zbar per k.

    Window: phi_{b+1} has degree d = 2b+3 and t(v) lead -1, so Horner at
    t(v) cut to its first d coefficients (through v^{d-2}) gives
    phi_{b+1}(t), of lead -d, through v^{-1}.  zbar^2/eta_{-1} has lead 1,
    so C_0, with zbar and eta_{-1} cut to their first d coefficients too,
    is known through v^0.  Each advance by zbar is cut back to v^0, and
    s' (lead 0) times C_k is then known through v^0 by the product's own
    guarantee: exactly the coefficients ``plus_part`` reads.
    """
    cap = 2 * b + 6
    d = 2 * b + 3
    phi_t = compose_polynomial(tower.phi_coeffs(b + 1),
                               _window(curve.t_of_v, d))
    c_k = (phi_t * _window(curve.zbar_of_v, d) ** 2
           / (_window(curve.eta_minus_one, d) * (-2)))
    terms = {}
    for k in range(cap + 1):
        q, _ = plus_part(curve.sprime * c_k - c_k.negate_variable(), curve)
        q = q * FRational.from_int(k + 1)
        if not q.is_zero:
            if k == cap:
                raise DegreeCapExceeded(
                    "point kernel b=%d has a t_i^%d term" % (b, cap))
            for (e,), c in q.terms():
                terms[(e, k)] = c
        if k < cap:
            c_k = (c_k * curve.zbar_of_v).truncate(0)
    return TPolynomial(2, terms.items())


def kernel_II_symmetrized(b, curve, tower):
    """Alternate form of the point kernel: both summands on one sheet each.

    (phi_{b+1}(t) B(t, t_i) + phi_{b+1}(s(t)) B(s(t), t_i)) / (2 eta_{-1}),
    polynomial part per t_i-coefficient.  Must agree with ``kernel_II``.
    """
    cap = 2 * b + 6
    phi_t = compose_polynomial(tower.phi_coeffs(b + 1), curve.t_of_v)
    phi_s = compose_polynomial(tower.phi_coeffs(b + 1), curve.s_t_of_v)
    phi_s_sp = phi_s * curve.sprime
    denom = (curve.eta_minus_one * 2).reciprocal()
    z_pow = curve.z_of_v ** 2
    zbar_pow = curve.zbar_of_v ** 2
    terms = {}
    for k in range(cap + 1):
        numer = phi_t * z_pow + phi_s_sp * zbar_pow
        q, _ = plus_part(numer * denom, curve)
        q = q * FRational.from_int(k + 1)
        if not q.is_zero:
            if k == cap:
                raise DegreeCapExceeded(
                    "symmetrized point kernel b=%d has a t_i^%d term" % (b, cap))
            for (e,), c in q.terms():
                terms[(e, k)] = c
        if k < cap:
            z_pow = z_pow * curve.z_of_v
            zbar_pow = zbar_pow * curve.zbar_of_v
    return TPolynomial(2, terms.items())
