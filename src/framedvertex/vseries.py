"""Truncated Laurent series over Q(f).

A ``VSeries`` stores coefficients for exponents ``lead .. trunc`` of a
formal variable (called v throughout, but the type is variable-agnostic).
``trunc`` is the last exponent whose coefficient is guaranteed; arithmetic
propagates truncation conservatively, so every stored coefficient of every
derived series is exact.

The zero series keeps a truncation order but no coefficients; its lead is
treated as ``trunc + 1`` ("nothing seen yet") in truncation bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (InsufficientTruncation, InvalidComposition, NotAUnit,
                     NotInvertible, ZeroDivisor)
from .ratfunc import FR_ONE, FR_ZERO, FRational, _as_frational


class VSeries:
    __slots__ = ("_lead", "_coeffs", "_trunc")

    def __init__(self, lead, coeffs, trunc):
        coeffs = [_coerce(c) for c in coeffs]
        # drop anything beyond the guarantee
        if lead + len(coeffs) - 1 > trunc:
            coeffs = coeffs[:max(trunc - lead + 1, 0)]
        # strip leading zeros
        while coeffs and coeffs[0].is_zero:
            coeffs.pop(0)
            lead += 1
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        if not coeffs:
            lead = 0
        self._lead = lead
        self._coeffs = tuple(coeffs)
        self._trunc = trunc

    @classmethod
    def _raw(cls, lead, coeffs, trunc):
        self = object.__new__(cls)
        self._lead = lead
        self._coeffs = coeffs
        self._trunc = trunc
        return self

    @classmethod
    def zero(cls, trunc):
        return cls._raw(0, (), trunc)

    @classmethod
    def one(cls, trunc):
        return cls._raw(0, (FR_ONE,), trunc)

    @classmethod
    def monomial(cls, exponent, coeff, trunc):
        coeff = _coerce(coeff)
        if coeff.is_zero or exponent > trunc:
            return cls.zero(trunc)
        return cls._raw(exponent, (coeff,), trunc)

    @classmethod
    def v(cls, trunc):
        return cls.monomial(1, FR_ONE, trunc)

    @classmethod
    def from_map(cls, entries, trunc):
        if not entries:
            return cls.zero(trunc)
        lo = min(entries)
        hi = max(entries)
        coeffs = [entries.get(e, FR_ZERO) for e in range(lo, hi + 1)]
        return cls(lo, coeffs, trunc)

    # -- accessors -------------------------------------------------------------

    @property
    def trunc(self):
        return self._trunc

    @property
    def lead(self):
        """Lowest exponent with a nonzero known coefficient; None if zero."""
        return self._lead if self._coeffs else None

    @property
    def is_zero(self):
        return not self._coeffs

    def _efflead(self):
        # effective lead for truncation bookkeeping
        return self._lead if self._coeffs else self._trunc + 1

    def coeff(self, exponent):
        if exponent > self._trunc:
            raise InsufficientTruncation(
                "coefficient at order %d beyond guarantee %d"
                % (exponent, self._trunc))
        if not self._coeffs or exponent < self._lead:
            return FR_ZERO
        k = exponent - self._lead
        if k >= len(self._coeffs):
            return FR_ZERO
        return self._coeffs[k]

    def known_items(self):
        """Iterator over (exponent, nonzero coefficient)."""
        for k, c in enumerate(self._coeffs):
            if not c.is_zero:
                yield self._lead + k, c

    def leading_coefficient(self):
        if not self._coeffs:
            raise ZeroDivisor("zero series has no leading coefficient")
        return self._coeffs[0]

    # -- structural helpers ------------------------------------------------------

    def truncate(self, trunc):
        if trunc >= self._trunc:
            return self
        return VSeries(self._lead, list(self._coeffs), trunc)

    def shift(self, k):
        """Multiply by v^k."""
        return VSeries._raw(self._lead + k, self._coeffs, self._trunc + k)

    def negate_variable(self):
        """Substitute v -> -v: flip coefficients at odd exponents."""
        out = tuple(c if (self._lead + k) % 2 == 0 else -c
                    for k, c in enumerate(self._coeffs))
        return VSeries(self._lead, list(out), self._trunc)

    def is_even(self):
        return all((self._lead + k) % 2 == 0
                   for k, c in enumerate(self._coeffs) if not c.is_zero)

    def is_odd(self):
        return all((self._lead + k) % 2 == 1
                   for k, c in enumerate(self._coeffs) if not c.is_zero)

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, VSeries):
            c = _coerce_opt(other)
            if c is None:
                return NotImplemented
            other = VSeries.monomial(0, c, self._trunc)
        trunc = min(self._trunc, other._trunc)
        if not self._coeffs:
            return other.truncate(trunc)
        if not other._coeffs:
            return self.truncate(trunc)
        lo = min(self._lead, other._lead)
        hi = min(trunc, max(self._lead + len(self._coeffs) - 1,
                            other._lead + len(other._coeffs) - 1))
        out = []
        for e in range(lo, hi + 1):
            a = self._at(e)
            b = other._at(e)
            out.append(a + b)
        return VSeries(lo, out, trunc)

    __radd__ = __add__

    def _at(self, e):
        k = e - self._lead
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return FR_ZERO

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return VSeries._raw(self._lead, tuple(-c for c in self._coeffs),
                            self._trunc)

    def __mul__(self, other):
        if not isinstance(other, VSeries):
            c = _coerce_opt(other)
            if c is None:
                return NotImplemented
            if c.is_zero:
                return VSeries.zero(self._trunc)
            return VSeries._raw(self._lead,
                                tuple(x * c for x in self._coeffs), self._trunc)
        trunc = min(self._trunc + other._efflead(),
                    other._trunc + self._efflead())
        if not self._coeffs or not other._coeffs:
            return VSeries.zero(trunc)
        lead = self._lead + other._lead
        n = trunc - lead + 1
        if n <= 0:
            raise InsufficientTruncation(
                "product has no guaranteed terms (lead %d, trunc %d)"
                % (lead, trunc))
        out = [FR_ZERO] * n
        for i, a in enumerate(self._coeffs):
            if a.is_zero:
                continue
            jmax = min(len(other._coeffs), n - i)
            for j in range(jmax):
                b = other._coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return VSeries(lead, out, trunc)

    __rmul__ = __mul__

    def reciprocal(self):
        if not self._coeffs:
            raise ZeroDivisor("series reciprocal of (truncation-)zero")
        lead = self._lead
        u = self._coeffs  # unit part, u[0] != 0
        rel = self._trunc - lead  # relative guarantee of the unit part
        inv0 = FR_ONE / u[0]
        n = rel + 1
        out = [FR_ZERO] * n
        out[0] = inv0
        for m in range(1, n):
            s = FR_ZERO
            kmax = min(m, len(u) - 1)
            for k in range(1, kmax + 1):
                if not u[k].is_zero:
                    s = s + u[k] * out[m - k]
            out[m] = -s * inv0
        trunc = self._trunc - 2 * lead
        return VSeries(-lead, out, trunc)

    def __truediv__(self, other):
        if not isinstance(other, VSeries):
            c = _coerce_opt(other)
            if c is None:
                return NotImplemented
            if c.is_zero:
                raise ZeroDivisor("series division by zero scalar")
            return self * (FR_ONE / c)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        c = _coerce_opt(other)
        if c is None:
            return NotImplemented
        return self.reciprocal() * c

    def derivative(self):
        """d/dv."""
        out = {}
        for e, c in self.known_items():
            if e != 0:
                out[e - 1] = c * e
        return VSeries.from_map(out, self._trunc - 1)

    def integrate(self):
        """Antiderivative with zero constant; input must have no v^-1 term."""
        out = {}
        for e, c in self.known_items():
            if e == -1:
                raise InvalidComposition("cannot integrate a v^-1 term")
            out[e + 1] = c * Fraction(1, e + 1)
        return VSeries.from_map(out, self._trunc + 1)

    def __pow__(self, k):
        if k < 0:
            return self.reciprocal() ** (-k)
        # square-and-multiply; truncation bookkeeping rides on __mul__
        base = self
        acc = None
        while k:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if k:
                base = base * base
        if acc is None:
            return VSeries.one(self._trunc)
        return acc

    # -- composition ------------------------------------------------------------

    def compose(self, inner):
        """Substitute ``inner`` (lead >= 1) for the variable."""
        if not isinstance(inner, VSeries):
            raise InvalidComposition("inner must be a series")
        if inner.is_zero or inner.lead < 1:
            raise InvalidComposition(
                "series-in-series composition needs inner lead >= 1")
        if self.is_zero:
            return VSeries.zero((self._trunc + 1) * inner.lead - 1)
        # Horner over the known exponent window, then shift by inner^lead
        acc = VSeries.monomial(0, self._coeffs[-1], inner._trunc)
        for k in range(len(self._coeffs) - 2, -1, -1):
            acc = acc * inner
            c = self._coeffs[k]
            if not c.is_zero:
                acc = acc + VSeries.monomial(0, c, acc._trunc)
        if self._lead:
            acc = acc * (inner ** self._lead)
        # outer coefficients beyond trunc are unknown; first unseen term
        # contributes at exponent (trunc+1) * inner.lead
        cap = (self._trunc + 1) * inner.lead - 1
        return acc.truncate(min(acc._trunc, cap))

    # -- comparisons ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, VSeries):
            return NotImplemented
        return (self._lead == other._lead and self._coeffs == other._coeffs
                and self._trunc == other._trunc)

    def __hash__(self):
        return hash((self._lead, self._coeffs, self._trunc))

    def agrees_with(self, other, upto=None):
        """Coefficientwise equality through the common guarantee."""
        hi = min(self._trunc, other._trunc)
        if upto is not None:
            hi = min(hi, upto)
        lo = min(self._efflead(), other._efflead())
        if lo > hi:
            return True
        return all(self._at(e) == other._at(e) for e in range(lo, hi + 1))

    def dump_lines(self):
        return ["v^%d : %s" % (e, c.as_text()) for e, c in self.known_items()]

    def __repr__(self):
        if self.is_zero:
            return "VSeries(0; O(v^%d))" % (self._trunc + 1)
        body = ", ".join("%d: %s" % (e, c.as_text())
                         for e, c in self.known_items())
        return "VSeries({%s}; O(v^%d))" % (body, self._trunc + 1)


def _coerce(c):
    r = _as_frational(c)
    if r is NotImplemented:
        raise TypeError("series coefficients must be FRational-like")
    return r


def _coerce_opt(c):
    r = _as_frational(c)
    return None if r is NotImplemented else r


# ---------------------------------------------------------------------------
# unit-series functions
# ---------------------------------------------------------------------------

def sqrt_unit(a):
    """Square root of a series with constant term 1.

    b_0 = 1 and b_k = (a_k - sum_{i=1}^{k-1} b_i b_{k-i}) / 2.
    """
    _require_unit(a, "sqrt_unit")
    n = a.trunc + 1
    half = FRational.from_fraction(Fraction(1, 2))
    out = [FR_ZERO] * n
    out[0] = FR_ONE
    for k in range(1, n):
        s = a._at(k)
        for i in range(1, k):
            if not out[i].is_zero and not out[k - i].is_zero:
                s = s - out[i] * out[k - i]
        out[k] = s * half
    return VSeries(0, out, a.trunc)


def log_unit(a):
    """Logarithm of a series with constant term 1 (zero constant term)."""
    _require_unit(a, "log_unit")
    return (a.derivative() / a).integrate()


def exp_of(a):
    """Exponential of a series with lead >= 1 (constant term 1 output)."""
    if a.is_zero:
        return VSeries.one(a.trunc)
    if a.lead < 1:
        raise NotAUnit("exp_of needs a series with positive lead")
    n = a.trunc + 1
    out = [FR_ZERO] * n
    out[0] = FR_ONE
    for m in range(1, n):
        s = FR_ZERO
        for k in range(1, m + 1):
            ak = a._at(k)
            if not ak.is_zero and not out[m - k].is_zero:
                s = s + ak * k * out[m - k]
        out[m] = s * FRational.from_fraction(Fraction(1, m))
    return VSeries(0, out, a.trunc)


def _require_unit(a, where):
    if a.is_zero or a.lead != 0 or a.leading_coefficient() != FR_ONE:
        raise NotAUnit("%s needs lead 0 and constant term 1" % where)


def compose_polynomial(coeffs, inner):
    """Evaluate a polynomial (ascending coefficients) at a series.

    Unlike series-in-series composition, the outer object is fully known,
    so any inner lead is allowed (including negative).
    """
    coeffs = [_coerce(c) for c in coeffs]
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    if not coeffs:
        return VSeries.zero(inner.trunc)
    acc = VSeries.monomial(0, coeffs[-1], _poly_horner_trunc(coeffs, inner))
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * inner
        c = coeffs[k]
        if not c.is_zero:
            acc = acc + VSeries.monomial(0, c, acc.trunc)
    return acc


def _poly_horner_trunc(coeffs, inner):
    # generous starting guarantee for the constant seed; constants are exact,
    # so overshooting is safe and __mul__ tightens against inner's guarantee
    d = len(coeffs) - 1
    return inner.trunc + abs(d * inner._efflead()) + 2


def revert(a):
    """Compositional inverse of a series with lead exactly 1.

    Uses Lagrange inversion: with a = v * u(v), the inverse z(w) has
    [w^m] z = (1/m) [v^{m-1}] u(v)^{-m}.
    """
    if a.is_zero or a.lead != 1:
        raise NotInvertible("reversion needs lead exactly 1")
    rel = a.trunc - 1
    u = VSeries(0, list(a._coeffs), rel)  # u = a / v
    h = u.reciprocal().truncate(rel)
    out = {}
    p = VSeries.one(rel)
    for m in range(1, a.trunc + 1):
        p = (p * h).truncate(rel)
        c = p._at(m - 1)
        if not c.is_zero:
            out[m] = c * FRational.from_fraction(Fraction(1, m))
    return VSeries.from_map(out, a.trunc)
