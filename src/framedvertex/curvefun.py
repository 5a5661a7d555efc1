"""Polynomial and series functions attached to the curve.

* the tower phi_b(t), b >= 0: phi_0 = (t-1)/(f+1) and each step applies
  the vector field E = t(t-1)(ft+1)/(f+1) d/dt, raising the degree by 2;
* the odd Laurent series eta_n(v), n >= -1, generated from the curve's
  eta_{-1} = -(1/2)(log(1+1/(f t)) - log(1+1/(f s(t)))) by the operator
  -(f/(f+1)) (1/v) d/dv, which matches E along the curve;
* extraction of the polynomial-in-t part of a v-series (``plus_part``);
* triangular decomposition in the phi'_b basis.
"""

from __future__ import annotations

from .errors import InsufficientTruncation, NotInSpan
from .ratfunc import FR_ONE, FRational
from .tpoly import TPolynomial

_F = FRational.variable()
_INV_F1 = FR_ONE / (_F + 1)


def euler_field(p, slot):
    """Apply E = t(t-1)(ft+1)/(f+1) d/dt in one variable slot."""
    dp = p.partial_derivative(slot)
    if dp.is_zero:
        return dp
    arity = p.arity
    t = TPolynomial.variable(arity, slot)
    cubic = (_F * t ** 3 + (1 - _F) * t ** 2 - t) * _INV_F1
    return cubic * dp


def vector_field(p, slot):
    """Apply t(t-1)/(f+1) d/dt in one variable slot (cut-join left side)."""
    dp = p.partial_derivative(slot)
    if dp.is_zero:
        return dp
    t = TPolynomial.variable(p.arity, slot)
    return (t ** 2 - t) * _INV_F1 * dp


class PhiTower:
    """phi_b and their t-derivatives, built once up to ``b_max``."""

    __slots__ = ("b_max", "phis", "phi_primes")

    def __init__(self, b_max):
        if b_max < 0:
            raise ValueError("b_max must be non-negative")
        self.b_max = b_max
        t = TPolynomial.variable(1, 0)
        phis = [(t - 1) * _INV_F1]
        for _ in range(b_max):
            phis.append(euler_field(phis[-1], 0))
        self.phis = phis
        self.phi_primes = [p.partial_derivative(0) for p in phis]
        for b, p in enumerate(phis):
            assert p.degree_in(0) == 2 * b + 1, "phi tower degree broke"

    def phi(self, b):
        return self.phis[b]

    def phi_prime(self, b):
        return self.phi_primes[b]

    def phi_coeffs(self, b):
        """Ascending coefficient list of phi_b, for series composition."""
        p = self.phis[b]
        return [p.coefficient((k,)) for k in range(2 * b + 2)]

    def phi_prime_lead(self, b):
        return self.phi_primes[b].coefficient((2 * b,))


class EtaFamily:
    """eta_n for n = -1 .. n_max.

    The tower starts from ``curve.eta_minus_one``, which is not rebuilt.
    """

    __slots__ = ("n_max", "curve", "etas")

    def __init__(self, curve, n_max):
        self.curve = curve
        self.n_max = n_max
        eta = curve.eta_minus_one
        etas = [eta]
        scale = -_F * _INV_F1
        for _ in range(n_max + 1):
            eta = (eta.derivative() * scale).shift(-1)
            etas.append(eta)
        self.etas = etas

    def eta(self, n):
        if n < -1 or n > self.n_max:
            raise IndexError("eta_%d not built (n_max=%d)" % (n, self.n_max))
        return self.etas[n + 1]


def plus_part(series, curve):
    """Polynomial-in-t part of a v-Laurent series.

    Peels the most negative v-exponent against the matching power of
    t(v) = v^-1 (1 + ...), descending, then reads the constant from the
    v^0 coefficient.  Each cached power of t(v) is cut to the remainder's
    own guarantee before it is scaled, so the work follows the input's
    window, not the length of the cached power.  Returns
    ``(poly, remainder_lead)`` where ``remainder_lead`` is the lowest
    exponent of the discarded strictly positive tail (None when the tail
    vanishes).  An input known only below v^0 raises
    ``InsufficientTruncation``.
    """
    if series.is_zero:
        return TPolynomial.zero(1), None
    if series.trunc < 0:
        raise InsufficientTruncation(
            "plus-part needs coefficients through v^0, trunc=%d" % series.trunc)
    coeffs = {}
    rest = series
    while not rest.is_zero and rest.lead <= 0:
        j = -rest.lead
        c = rest.leading_coefficient()
        coeffs[j] = c
        rest = rest - curve.t_power(j).truncate(rest.trunc) * c
    poly = TPolynomial(1, [((j,), c) for j, c in coeffs.items()])
    return poly, (rest.lead if not rest.is_zero else None)


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
    top = rest.degree_in(0) // 2
    if top > tower.b_max:
        raise ValueError("tower too short: need phi'_%d" % top)
    for b in range(top, -1, -1):
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
