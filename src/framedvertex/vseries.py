"""Truncated Laurent series over Q(f).

A ``VSeries`` stores coefficients for exponents ``lead .. trunc`` of a
formal variable (called v throughout, but the type is variable-agnostic).
``trunc`` is the last exponent whose coefficient is guaranteed; arithmetic
propagates truncation conservatively, so every stored coefficient of every
derived series is exact.

The zero series keeps a truncation order but no coefficients; its lead is
treated as ``trunc + 1`` ("nothing seen yet") in truncation bookkeeping.

Products and reciprocals form each output coefficient as one
``ratfunc.sum_of_products``, so a coefficient costs one Q(f) reduction
for its convolution sum, not one per term.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, InsufficientTruncation, InvalidComposition
from .ratfunc import FR_ONE, FR_ZERO, _as_frational, power, sum_of_products


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
            raise DivisionByZero("zero series has no leading coefficient")
        return self._coeffs[0]

    # -- structural helpers ------------------------------------------------------

    def truncate(self, trunc):
        """The series known through ``trunc`` only; a cut below the lead is 0.

        The stored coefficients are already coerced and start nonzero, so
        the cut slices them and strips the zeros it leaves at the end.
        """
        if trunc >= self._trunc:
            return self
        coeffs = self._coeffs[:max(trunc - self._lead + 1, 0)]
        while coeffs and coeffs[-1].is_zero:
            coeffs = coeffs[:-1]
        if not coeffs:
            return VSeries.zero(trunc)
        return VSeries._raw(self._lead, coeffs, trunc)

    def shift(self, k):
        """Multiply by v^k."""
        return VSeries._raw(self._lead + k, self._coeffs, self._trunc + k)

    def negate_variable(self):
        """Substitute v -> -v: flip coefficients at odd exponents."""
        out = tuple(c if (self._lead + k) % 2 == 0 else -c
                    for k, c in enumerate(self._coeffs))
        return VSeries(self._lead, list(out), self._trunc)

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, VSeries):
            c = _as_frational(other)
            if c is NotImplemented:
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
            c = _as_frational(other)
            if c is NotImplemented:
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
        a, b = self._coeffs, other._coeffs
        out = []
        for m in range(n):
            lo, hi = max(0, m - len(b) + 1), min(m + 1, len(a))
            out.append(sum_of_products(a[lo:hi],
                                       [b[m - i] for i in range(lo, hi)]))
        return VSeries(lead, out, trunc)

    __rmul__ = __mul__

    def reciprocal(self):
        if not self._coeffs:
            raise DivisionByZero("series reciprocal of (truncation-)zero")
        lead = self._lead
        u = self._coeffs  # unit part, u[0] != 0
        rel = self._trunc - lead  # relative guarantee of the unit part
        inv0 = FR_ONE / u[0]
        n = rel + 1
        # out[m] = sum_{k >= 1} w[k] out[m - k] with w[k] = -u[k] / u[0]
        w = [x * -inv0 for x in u[:n]]
        out = [inv0]
        for m in range(1, n):
            out.append(sum_of_products(w[1:m + 1], out[m - 1::-1]))
        trunc = self._trunc - 2 * lead
        return VSeries(-lead, out, trunc)

    def __truediv__(self, other):
        if not isinstance(other, VSeries):
            c = _as_frational(other)
            if c is NotImplemented:
                return NotImplemented
            if c.is_zero:
                raise DivisionByZero("series division by zero scalar")
            return self * (FR_ONE / c)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        c = _as_frational(other)
        if c is NotImplemented:
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
        # truncation bookkeeping rides on __mul__
        return power(self, k, VSeries.one(self._trunc))

    # -- comparisons ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, VSeries):
            return NotImplemented
        return (self._lead == other._lead and self._coeffs == other._coeffs
                and self._trunc == other._trunc)

    def __hash__(self):
        return hash((self._lead, self._coeffs, self._trunc))

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


def compose_polynomial(coeffs, inner):
    """Evaluate a polynomial (ascending coefficients) at a series.

    The outer object is fully known, so any inner lead is allowed
    (including negative).
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
