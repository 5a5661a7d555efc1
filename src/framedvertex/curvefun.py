"""Polynomial and series functions attached to the curve.

* the tower phi_b(t), b >= 0: phi_0 = (t-1)/(f+1) and each step applies
  the vector field E = t(t-1)(ft+1)/(f+1) d/dt, raising the degree by 2;
* E along the curve: the operator D = -(f/(f+1)) (1/v) d/dv, for which
  D [p(t(v))] = (E p)(t(v)), and the ``Ladder`` x, D x, D^2 x, ... that
  climbs by it; the odd Laurent series eta_n(v), n >= -1, are the ladder
  from the curve's eta_{-1} = -(1/2)(log(1+1/(f t)) - log(1+1/(f s(t)))),
  and ``kernels`` keeps the ladder from phi_0(t(v)), whose rungs are the
  phi_b(t(v));
* extraction of the polynomial-in-t part of a v-series (``plus_part``),
  a triangular solve against the rows [v^-j] t(v)^k that the curve keeps,
  exact because t(v)^k has lead -k and leading coefficient 1;
* decomposition in the phi'_b basis, a triangular solve on coefficient
  maps, exact because phi'_b has exact degree 2b.

The tower and the ladders are unbounded sequences and take no size: each
holds the members read so far, and a read builds every lower member not
built yet.
"""

from __future__ import annotations

from .errors import InsufficientTruncation, NotInSpan
from .ratfunc import FR_ONE, FR_ZERO, FRational, sum_of_products
from .tpoly import TPolynomial, gather, sum_gathered

_F = FRational.variable()
_INV_F1 = FR_ONE / (_F + 1)

# E = c(t) d/dt with c(t) = t(t-1)(ft+1)/(f+1), as {power of t: coefficient}
_E = {1: -_INV_F1, 2: (1 - _F) * _INV_F1, 3: _F * _INV_F1}
# D = -(f/(f+1)) (1/v) d/dv, E along the curve
_D_STEP = -_F * _INV_F1


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


class Ladder:
    """x, D x, D^2 x, ... with D = -(f/(f+1)) (1/v) d/dv, rung k built on
    the first read of k.

    D lowers a series' lead and its guarantee by 2 each, so rung k of an
    x known through v^T is known through v^(T - 2k).
    """

    __slots__ = ("_rungs",)

    def __init__(self, base):
        self._rungs = [base]

    def rung(self, k):
        if k < 0:
            raise IndexError("rung %d: k must be >= 0" % k)
        rungs = self._rungs
        while len(rungs) <= k:
            rungs.append((rungs[-1].derivative() * _D_STEP).shift(-1))
        return rungs[k]


class EtaFamily(Ladder):
    """eta_n for n >= -1: the ladder from the curve's eta_{-1}, which is
    not rebuilt, so eta_n is rung n + 1."""

    __slots__ = ()

    def __init__(self, curve):
        super().__init__(curve.eta_minus_one)

    def eta(self, n):
        if n < -1:
            raise IndexError("eta_%d: n must be >= -1" % n)
        return self.rung(n + 1)


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


def _phi_prime_solve(coeffs, tower, rows):
    """{b: c_b} and the residual of sum_k coeffs[k] t^k in the phi'_b basis.

    phi'_b has exact degree 2b, so the solve runs from the top power: the
    power k of the input less sum_{2b > k} c_b [t^k] phi'_b is one
    ``sum_of_products``.  At k = 2b it is c_b [t^2b] phi'_b; at an odd k
    no phi'_b starts there, so it is the residual at t^k, {k: value} for
    the nonzero ones.  ``rows`` holds [t^k] phi'_b, k = 0 .. 2b, per b
    read, and is filled here; the tower is read only at the b whose c_b
    is not zero.  The c_b are listed from the top b down.
    """
    c, residual = {}, {}
    for k in range(max(coeffs, default=-1), -1, -1):
        s = coeffs.get(k, FR_ZERO)
        above = [(cb, rows[b][k]) for b, cb in c.items() if rows[b][k]]
        if above:
            s = sum_of_products((s, *(cb for cb, _ in above)),
                                (FR_ONE, *(y for _, y in above)),
                                (1,) + (-1,) * len(above))
        if not s:
            continue
        if k % 2:
            residual[k] = s
            continue
        b = k // 2
        row = rows.get(b)
        if row is None:
            p = tower.phi_prime(b)
            row = rows[b] = [p.coefficient((i,)) for i in range(k + 1)]
        c[b] = s / row[k]
    return c, residual


def _decompose(coeffs, tower, rows):
    """``_phi_prime_solve`` that raises ``NotInSpan`` on a residual."""
    c, residual = _phi_prime_solve(coeffs, tower, rows)
    if residual:
        raise NotInSpan("polynomial not in the phi' span", coefficients=c,
                        residual=TPolynomial(1, [((k,), r) for k, r
                                                 in residual.items()]))
    return c


def phi_prime_decompose(poly, tower):
    """Coefficients {b: c_b} of a 1-variable polynomial = sum_b c_b phi'_b.

    A triangular solve on the coefficient map, one reduction per power of
    t (``_phi_prime_solve``): even powers give the c_b, and every odd
    power is a residual that must vanish.  A nonzero residual means the
    input is outside the span and raises ``NotInSpan``, which carries the
    coefficients and the residual.
    """
    if poly.arity != 1:
        raise ValueError("phi-prime decomposition expects one variable")
    return _decompose({k: c for (k,), c in poly.terms()}, tower, {})


def phi_prime_decompose_pair(poly, tower):
    """Decompose a 2-variable polynomial in phi'_c(t_0) phi'_d(t_1).

    Write poly = sum_c phi'_c(t_0) A_c(t_1).  Each power of t_1 is its own
    solve in t_0 (``_phi_prime_solve``), which gives that power of every
    A_c and a residual at the odd powers of t_0; each A_c, from the top c
    down, is then decomposed in t_1.  So every coefficient costs one
    reduction per stage.  Raises ``NotInSpan`` if either stage leaves a
    residual: an A_c out of span first, with that decomposition's
    coefficients and residual, and a t_0 residual after every A_c.
    """
    if poly.arity != 2:
        raise ValueError("pair decomposition expects two variables")
    columns = {}
    for (k0, k1), c in poly.terms():
        columns.setdefault(k1, {})[k0] = c
    rows = {}
    parts = {}
    left = False
    for k1, column in columns.items():
        c, residual = _phi_prime_solve(column, tower, rows)
        for b, cb in c.items():
            parts.setdefault(b, {})[k1] = cb
        left = left or bool(residual)
    out = {}
    for b in sorted(parts, reverse=True):
        for d, c in _decompose(parts[b], tower, rows).items():
            out[(b, d)] = c
    if left:
        raise NotInSpan("two-variable polynomial not in the phi' x phi' span")
    return out
