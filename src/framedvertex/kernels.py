"""Residue kernels of the spectral-curve recursion, in formal-series form.

Two families of polynomial kernels are produced by extracting the
polynomial-in-t part of Laurent expansions along the curve:

* pair kernels P_{a,b}(t), built from the eta series, with an independent
  cross-check form built from phi compositions and the deck involution;
* point kernels P_b(t, t_i), built from geometric expansions of the
  double-pole factor 1/(. - t_i)^2, again with a symmetrized cross-check.

Every kernel must decompose exactly in the phi' basis; a nonzero residual
aborts the computation, since the whole bracket extraction relies on it.

``plus_part`` reads only the exponents <= 0 of its input, so both the
generator kernels and their cross-check forms make every product exact
only through the exponent its consumer reads, by one rule
(``_product_through``): to know x y through v^top, cut x to
v^(top - lead y) and y to v^(top - lead x).  It is exact because no
coefficient of x y through v^top reads a factor beyond those cuts, and a
factor known less far leaves the product's own guarantee short of v^top,
so ``plus_part`` raises ``InsufficientTruncation`` instead of returning
a wrong kernel.  The rule reads only the operands' leads and the
``VSeries`` truncation bookkeeping.

The curve length is the one size in this layer (``default_trunc`` of
the largest pair index sum); the eta family, the phi tower and the phi
ladder grow to whatever index a kernel or a decomposition reads.

Every series a kernel reads that depends on the curve alone is built once
per curve, at full length, and kept on it (``CurveSeries.derived``): the
generators' factors -(1/2)((f+1)/f) v/(eta_{-1} dt/dv) and
zbar^2/(-2 eta_{-1}), the generator's ladder of phi_b(t(v)), which
starts from the tower's phi_0 composed at t(v) and climbs by E along the
curve (``curvefun.Ladder``), and the forms' phi_b(t(v)), which the two
forms share and compose from the tower, phi_b(s(t(v))), the pair factor
and the two point factors.  The cut factor equals the one built from cut
factors, since the first W coefficients of a product or a reciprocal
depend only on the first W of its factors; so a call pays only for the
cut products that involve its own pair or step, and a later kernel on
the same curve inverts no series.
The forms share nothing with the generator kernels but primitive
arithmetic (the cut rule among it) and ``plus_part``: neither side reads
the other's keys of ``derived``, and the shortcut each form checks stays
in the generator alone: the eta route of ``kernel_I``, and the ladder and
the v -> -v substitution of ``kernel_II`` (``kernel_II_symmetrized``
composes phi_{b+1} through t(v) and through s(t(v))).
"""

from __future__ import annotations

from .curve import build_curve_series
from .curvefun import (EtaFamily, Ladder, PhiTower, phi_prime_decompose,
                       phi_prime_decompose_pair, plus_part)
from .errors import DegreeCapExceeded
from .ratfunc import FRational
from .tpoly import TPolynomial
from .vseries import VSeries, compose_polynomial

_F = FRational.variable()


def default_trunc(pair_budget):
    """Curve truncation order for the pair kernels with a+b <= pair_budget.

    The one setting of the series length.  Every kernel cuts these series
    to what its products need (``_product_through``), so a longer curve
    changes no kernel.
    """
    return 2 * pair_budget + 12


class KernelWorkspace:
    """Curve, eta family, phi tower and kernel caches for one truncation.

    ``pair_budget`` sets the curve length alone (``default_trunc``); the
    eta family and the phi tower build each member the first time a
    kernel or a decomposition reads it.
    """

    def __init__(self, pair_budget):
        self.trunc = default_trunc(max(pair_budget, 0))
        self.curve = build_curve_series(self.trunc)
        self.tower = PhiTower()
        self.eta = EtaFamily(self.curve)
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


def kernel_I(a, b, eta, curve):
    """Pair kernel P_{a,b}(t).

    Expand eta_{a+1} eta_{b+1} / eta_{-1} * ((f+1)/f) v as a one-form in
    v dv, convert to the t chart by dividing by dt/dv, and keep the
    polynomial part, times -1/2.  Every factor but the two eta_n depends
    on the curve alone, so

        G = -(1/2) ((f+1)/f) v / (eta_{-1} dt/dv)

    is built once per curve, at full length (``_pair_generator_factor``),
    and a pair costs the two products eta_{a+1} eta_{b+1} G, the first
    exact through v^(-lead G) and the second through v^0
    (``_product_through``).
    """
    factor = curve.derived("kernel_I factor", _pair_generator_factor)
    x = _product_through(eta.eta(a + 1), eta.eta(b + 1), -factor.lead)
    return plus_part(_product_through(x, factor, 0), curve)


def _pair_generator_factor(curve):
    """-(1/2) ((f+1)/f) v / (eta_{-1} dt/dv) along the curve."""
    return ((curve.eta_minus_one * curve.dt_dv).reciprocal().shift(1)
            * (-(_F + 1) / (2 * _F)))


def kernel_I_via_involution(a, b, curve, tower):
    """Cross-check form of P_{a,b} from phi compositions and the involution.

    -1/(4 eta_{-1}) (phi_{a+1}(t) phi_{b+1}(s(t)) + phi_{a+1}(s(t)) phi_{b+1}(t))
    times (f+1)/(t(t-1)(ft+1)), polynomial part.

    s(t) is t(v) at -v, so each phi is composed once and phi(s(t)) is that
    composition at -v.  The compositions and the factor
    -(f+1)/(4 eta_{-1} t(t-1)(ft+1)) depend on the curve alone and are
    built once per curve, so a pair costs the two products of its
    numerator (one, doubled, when a = b) and one by the factor.  The
    factor has lead 2 (eta_{-1} has lead 1 and the cubic in t lead -3),
    so ``plus_part`` reads the numerator only through v^(-lead factor):
    each product is made exact through that exponent and the final one
    through v^0 (``_product_through``).  ``kernel_I`` builds P_{a,b} from
    the eta series without the involution, so this form stays
    independent of it.
    """
    factor = curve.derived("pair factor", _pair_factor)
    top = -factor.lead
    pa_t = _phi_composed(a + 1, curve, tower, "t_of_v")
    pa_s = pa_t.negate_variable()
    if a == b:
        numer = _product_through(pa_t, pa_s, top) * 2
    else:
        pb_t = _phi_composed(b + 1, curve, tower, "t_of_v")
        numer = (_product_through(pa_t, pb_t.negate_variable(), top)
                 + _product_through(pa_s, pb_t, top))
    return plus_part(_product_through(numer, factor, 0), curve)


def _product_through(x, y, top):
    """x * y known through v^top and no further.

    The coefficient of v^e in x * y reads x only through v^(e - lead y)
    and y only through v^(e - lead x), so x is cut to v^(top - lead y)
    and y to v^(top - lead x) first.  The product's own bookkeeping then
    guarantees v^top when both factors were known that far, and less when
    either was not, so a cut never hides a missing coefficient.  A zero
    factor has no lead and is not cut.
    """
    if not (x.is_zero or y.is_zero):
        x, y = x.truncate(top - y.lead), y.truncate(top - x.lead)
    return (x * y).truncate(top)


def _phi_on_ladder(b, curve, tower, top):
    """phi_b(t(v)) known through v^top, read from the generator's ladder.

    The ladder is kept once per curve.  Its base is the tower's phi_0
    composed at t(v), so the tower stays the one definition of phi_0, and
    rung b is D^b of it, phi_b(t(v)), since D is E along the curve.  Rung
    b is known through v^(curve.trunc - 1 - 2b), as far as phi_b composed
    at t(v); a read past that leaves the cut short, and the products that
    use it then guarantee less than ``plus_part`` reads.
    """
    ladder = curve.derived("phi ladder", lambda c: Ladder(
        compose_polynomial(tower.phi_coeffs(0), c.t_of_v)))
    return ladder.rung(b).truncate(top)


def _phi_composed(b, curve, tower, inner):
    """phi_b composed with the curve series named ``inner``, once per curve."""
    coeffs = tuple(tower.phi_coeffs(b))
    return curve.derived(
        ("phi", coeffs, inner),
        lambda c: compose_polynomial(coeffs, getattr(c, inner)))


def _pair_factor(curve):
    """-(f+1) / (4 eta_{-1} t (t-1) (ft+1)) along the curve."""
    t = curve.t_of_v
    one = VSeries.one(curve.trunc)
    cubic = t * (t - one) * (t * _F + one)
    return (curve.eta_minus_one * cubic).reciprocal() * (-(_F + 1) / 4)


def _point_factors(curve):
    """z^2 / (2 eta_{-1}) and s' zbar^2 / (2 eta_{-1}) along the curve."""
    inv = (curve.eta_minus_one * 2).reciprocal()
    return (inv * curve.z_of_v ** 2, inv * curve.sprime * curve.zbar_of_v ** 2)


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
    eta_{-1} is odd.  So phi_{b+1}(t) is read on one sheet and C_k
    advances by one factor of zbar per k.  phi_{b+1}(t(v)) is not
    composed: it is rung b+1 of the ladder kept on the curve
    (``_phi_on_ladder``), D^(b+1) phi_0(t(v)).  The factor
    zbar^2 / (-2 eta_{-1}) of C_0 depends on the curve alone and is built
    once per curve, at full length (``_point_generator_factor``).
    ``kernel_II_symmetrized`` composes phi_{b+1} through t(v) and s(t(v)),
    so it checks both the ladder and this v -> -v shortcut.

    C_0 is made exact through v^0, the rung cut to v^(-lead of the
    factor), and each advance by zbar through v^0 again
    (``_product_through``); s' (lead 0) times C_k is then known through
    v^0 by the product's own guarantee: exactly the coefficients
    ``plus_part`` reads.
    """
    cap = 2 * b + 6
    factor = curve.derived("kernel_II factor", _point_generator_factor)
    phi_t = _phi_on_ladder(b + 1, curve, tower, -factor.lead)
    c_k = _product_through(phi_t, factor, 0)
    terms = {}
    for k in range(cap + 1):
        q = plus_part(curve.sprime * c_k - c_k.negate_variable(), curve)
        q = q * FRational.from_int(k + 1)
        if not q.is_zero:
            if k == cap:
                raise DegreeCapExceeded(
                    "point kernel b=%d has a t_i^%d term" % (b, cap))
            for (e,), c in q.terms():
                terms[(e, k)] = c
        if k < cap:
            c_k = _product_through(c_k, curve.zbar_of_v, 0)
    return TPolynomial(2, terms.items())


def _point_generator_factor(curve):
    """zbar^2 / (-2 eta_{-1}) along the curve."""
    return curve.zbar_of_v ** 2 * (curve.eta_minus_one * (-2)).reciprocal()


def kernel_II_symmetrized(b, curve, tower):
    """Alternate form of the point kernel: both summands on one sheet each.

    (phi_{b+1}(t) B(t, t_i) + phi_{b+1}(s(t)) B(s(t), t_i)) / (2 eta_{-1}),
    polynomial part per t_i-coefficient.  Must agree with ``kernel_II``.

    With the geometric expansions of ``kernel_II`` the t_i^k coefficient
    is (k+1) times the polynomial part of A_k + B_k, where
    A_k = phi_{b+1}(t) z^{k+2} / (2 eta_{-1}) and
    B_k = phi_{b+1}(s(t)) s' zbar^{k+2} / (2 eta_{-1}).  The factors
    z^2 / (2 eta_{-1}) and s' zbar^2 / (2 eta_{-1}) and both compositions
    are built once per curve; each step then advances A_k by z and B_k by
    zbar, two products, each cut back to v^0 (``_product_through``), which
    is all that ``plus_part`` reads and all that the next step's
    coefficients through v^0 depend on.  z and zbar have lead 1, so once
    A_k and B_k both have positive lead, that is once both cut series are
    zero, every later step has polynomial part 0, and the loop stops
    there; a step ``cap`` that is reached and has a polynomial part still
    raises.

    phi_{b+1} is composed from the tower through t(v) and through s(t(v))
    separately, not climbed and not taken by v -> -v: the ladder and that
    substitution are the shortcuts of ``kernel_II`` which this form
    checks.
    """
    cap = 2 * b + 6
    on_t, on_s = curve.derived("point factors", _point_factors)
    a_k = _product_through(_phi_composed(b + 1, curve, tower, "t_of_v"),
                           on_t, 0)
    b_k = _product_through(_phi_composed(b + 1, curve, tower, "s_t_of_v"),
                           on_s, 0)
    terms = {}
    for k in range(cap + 1):
        if a_k.is_zero and b_k.is_zero:
            break
        q = plus_part(a_k + b_k, curve)
        q = q * FRational.from_int(k + 1)
        if not q.is_zero:
            if k == cap:
                raise DegreeCapExceeded(
                    "symmetrized point kernel b=%d has a t_i^%d term" % (b, cap))
            for (e,), c in q.terms():
                terms[(e, k)] = c
        if k < cap:
            a_k = _product_through(a_k, curve.z_of_v, 0)
            b_k = _product_through(b_k, curve.zbar_of_v, 0)
    return TPolynomial(2, terms.items())
