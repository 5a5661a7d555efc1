"""Polynomial and series functions attached to the curve.

* the tower phi_b(t), b >= 0: phi_0 = (t-1)/(f+1) and each step applies
  the vector field E = t(t-1)(ft+1)/(f+1) d/dt, raising the degree by 2;
* the odd Laurent series eta_n(v), n >= -1, generated from the curve's
  eta_{-1} = -(1/2)(log(1+1/(f t)) - log(1+1/(f s(t)))) by the operator
  -(f/(f+1)) (1/v) d/dv, which matches E along the curve;
* extraction of the polynomial-in-t part of a v-series (``plus_part``),
  a triangular solve against the rows [v^-j] t(v)^k that the curve keeps,
  exact because t(v)^k has lead -k and leading coefficient 1;
* triangular decomposition in the phi'_b basis.

The tower and the eta family are unbounded sequences and take no size:
each holds the members read so far, and a read builds every lower member
not built yet.
"""

from __future__ import annotations

from .errors import InsufficientTruncation, NotInSpan
from .ratfunc import FR_ONE, FRational, sum_of_products
from .tpoly import TPolynomial, gather, sum_gathered

_F = FRational.variable()
_INV_F1 = FR_ONE / (_F + 1)

# E = c(t) d/dt with c(t) = t(t-1)(ft+1)/(f+1), as {power of t: coefficient}
_E = {1: -_INV_F1, 2: (1 - _F) * _INV_F1, 3: _F * _INV_F1}
# eta_{n+1} = -(f/(f+1)) (1/v) d/dv eta_n
_ETA_STEP = -_F * _INV_F1


def euler_field(p, slot):
    """Apply E = t(t-1)(ft+1)/(f+1) d/dt in one variable slot.

    Each term of dp/dt_slot is gathered against the three terms of c(t).
    """
    groups = {}
    for exps, c in p.partial_derivative(slot).terms():
        for i, ci in _E.items():
            gather(groups, exps[:slot] + (exps[slot] + i,) + exps[slot + 1:],
                   c, ci)
    return TPolynomial._raw(p.arity, sum_gathered(groups))


class PhiTower:
    """phi_b and phi'_b, built through b on the first read of b."""

    __slots__ = ("_phis", "_phi_primes")

    def __init__(self):
        phi_0 = (TPolynomial.variable(1, 0) - 1) * _INV_F1
        self._phis = [phi_0]
        self._phi_primes = [phi_0.partial_derivative(0)]

    def _grow(self, b):
        if b < 0:
            raise IndexError("phi_%d: b must be >= 0" % b)
        phis = self._phis
        while len(phis) <= b:
            p = euler_field(phis[-1], 0)
            assert p.degree_in(0) == 2 * len(phis) + 1, \
                "phi tower degree broke"
            phis.append(p)
            self._phi_primes.append(p.partial_derivative(0))

    def phi(self, b):
        self._grow(b)
        return self._phis[b]

    def phi_prime(self, b):
        self._grow(b)
        return self._phi_primes[b]

    def phi_coeffs(self, b):
        """Ascending coefficient list of phi_b, for series composition."""
        p = self.phi(b)
        return [p.coefficient((k,)) for k in range(2 * b + 2)]

    def phi_prime_lead(self, b):
        return self.phi_prime(b).coefficient((2 * b,))


class EtaFamily:
    """eta_n for n >= -1, built through n on the first read of n.

    The family starts from ``curve.eta_minus_one``, which is not rebuilt.
    """

    __slots__ = ("_etas",)

    def __init__(self, curve):
        self._etas = [curve.eta_minus_one]

    def eta(self, n):
        if n < -1:
            raise IndexError("eta_%d: n must be >= -1" % n)
        etas = self._etas
        while len(etas) <= n + 1:
            etas.append((etas[-1].derivative() * _ETA_STEP).shift(-1))
        return etas[n + 1]


def plus_part(series, curve):
    """Polynomial-in-t part of a v-Laurent series: the p(t) with
    series - p(t(v)) free of every exponent <= 0.

    t(v)^k has lead -k and leading coefficient 1, so [v^-j] p(t(v)) is
    p_j plus sum_{k>j} p_k [v^-j] t^k, and matching it to x_{-j} is a
    triangular solve from the top: with L the input's most negative
    exponent, p_L = x_{-L} and, for j = L-1 down to 0,

        p_j = x_{-j} - sum_{k=j+1}^{L} p_k [v^-j] t^k,

    one ``sum_of_products`` per coefficient.  The rows [v^-j] t^k depend
    on the curve alone and are kept on it (``CurveSeries.t_rows``).  Only
    the input's coefficients through v^0 are read, and the solve is exact
    when they are known; an input known only below v^0 raises
    ``InsufficientTruncation``.
    """
    if series.is_zero:
        return TPolynomial.zero(1)
    if series.trunc < 0:
        raise InsufficientTruncation(
            "plus-part needs coefficients through v^0, trunc=%d" % series.trunc)
    top = -series.lead
    if top < 0:
        return TPolynomial.zero(1)
    rows = curve.t_rows(top)
    p = [series.leading_coefficient()]    # p_top, p_{top-1}, ...
    minus = [-p[0]]
    for j in range(top - 1, -1, -1):
        p.append(sum_of_products(
            (series.coeff(-j), *minus),
            (FR_ONE, *(rows[k][j] for k in range(top, j, -1)))))
        minus.append(-p[-1])
    return TPolynomial(1, [((top - i,), c) for i, c in enumerate(p)])


def phi_prime_decompose(poly, tower):
    """Coefficients {b: c_b} of a 1-variable polynomial = sum_b c_b phi'_b.

    phi'_b has exact degree 2b, so the solve is triangular from the top.
    A nonzero residual means the input is outside the span and raises
    ``NotInSpan``, which carries the coefficients and the residual.
    """
    if poly.arity != 1:
        raise ValueError("phi-prime decomposition expects one variable")
    coefficients = {}
    rest = poly
    for b in range(rest.degree_in(0) // 2, -1, -1):
        c = rest.coefficient((2 * b,))
        if c.is_zero:
            continue
        c = c / tower.phi_prime_lead(b)
        coefficients[b] = c
        rest = rest - tower.phi_prime(b) * c
    if not rest.is_zero:
        raise NotInSpan("polynomial not in the phi' span",
                        coefficients=coefficients, residual=rest)
    return coefficients


def phi_prime_decompose_pair(poly, tower):
    """Decompose a 2-variable polynomial in phi'_c(t_0) phi'_d(t_1).

    Raises ``NotInSpan`` if either stage leaves a residual.
    """
    if poly.arity != 2:
        raise ValueError("pair decomposition expects two variables")
    # split as sum_k t_0^k A_k(t_1), eliminate top powers of t_0
    slices = {}
    for exps, c in poly.terms():
        slices.setdefault(exps[0], {})[(exps[1],)] = c
    slices = {k: TPolynomial(1, v.items()) for k, v in slices.items()}
    out = {}
    if not slices:
        return out
    for b in range(max(slices) // 2, -1, -1):
        sl = slices.get(2 * b)
        if sl is None or sl.is_zero:
            continue
        lead = tower.phi_prime_lead(b)
        top = sl.map_coefficients(lambda c: c / lead)
        for d, c in phi_prime_decompose(top, tower).items():
            out[(b, d)] = c
        # subtract phi'_b(t_0) * top(t_1)
        for (k,), cb in tower.phi_prime(b).terms():
            upd = slices.get(k, TPolynomial.zero(1)) - top * cb
            if upd.is_zero:
                slices.pop(k, None)
            else:
                slices[k] = upd
    if slices:
        raise NotInSpan("two-variable polynomial not in the phi' x phi' span")
    return out
