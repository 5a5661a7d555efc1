"""Exact arithmetic over Q and Q(f).

Rational numbers are stdlib :class:`fractions.Fraction`.  ``FRational``,
an element of Q(f) for the framing variable ``f``, is the only arithmetic
type: a quotient of two integer-coefficient polynomials kept in canonical
form (the denominator is monic and coprime to the numerator, so equality
is plain structural equality).  Cancellation has one route, ``_cancel``:
the denominator is split once into f^j (f+1)^k rest, the form that occurs
in practice; the numerator loses the powers of f and f + 1 it shares with
it, by synthetic division, and a primitive polynomial remainder sequence
runs only against a nonconstant ``rest``.
A value is built only by ``FRational.from_int``, ``from_fraction``,
``poly``, ``from_text`` and arithmetic, so every value is canonical.
``FPolynomial`` is the read-only view returned by ``FRational.num`` /
``.den``; it cannot be built from coefficients.

Everything here is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

from .errors import DivisionByZero, PoleAtFraming

Rational = Fraction


# ---------------------------------------------------------------------------
# integer-coefficient polynomial helpers
#
# A polynomial is a tuple of ints, ascending degree, last entry nonzero;
# () is the zero polynomial.
# ---------------------------------------------------------------------------

def _ptrim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pscale(a, k):
    if k == 0:
        return ()
    return tuple(x * k for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def _pcontent(a):
    g = 0
    for x in a:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def _psplit(a):
    """Split nonzero ``a`` into (signed content, primitive positive-lead part)."""
    c = _pcontent(a)
    if a[-1] < 0:
        c = -c
    if c == 1:
        return 1, a
    return c, tuple(x // c for x in a)


def _peval_int(a, x):
    """Horner value of ``a`` at ``x``, an int or a Fraction."""
    acc = 0
    for coef in reversed(a):
        acc = acc * x + coef
    return acc


def _pdivexact(a, b):
    """Exact quotient a // b for int polynomials; the division must be exact."""
    if not a:
        return ()
    la, lb = len(a), len(b)
    if la < lb:
        raise ArithmeticError("inexact polynomial division")
    q = [0] * (la - lb + 1)
    r = list(a)
    for k in range(la - lb, -1, -1):
        top = r[k + lb - 1]
        if top == 0:
            continue
        c, rem = divmod(top, b[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        for i, bx in enumerate(b):
            r[k + i] -= c * bx
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return tuple(q)


def _prem(a, b):
    """Pseudo-remainder of a by b (up to a unit), as an int polynomial."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db and r:
        s = r[-1]
        off = len(r) - 1 - db
        r = [lb * x for x in r]
        for i, bx in enumerate(b):
            r[off + i] -= s * bx
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _pdiv_f1(a):
    """Quotient and remainder a(-1) of ``a`` by f + 1, by synthetic division."""
    q = [0] * (len(a) - 1)
    acc = 0
    for i in range(len(a) - 1, 0, -1):
        acc = a[i] - acc
        q[i - 1] = acc
    return tuple(q), a[0] - acc


def _cancel(pn, pd):
    """Divide nonzero primitive positive-lead ``pn`` and ``pd`` by their gcd.

    The denominator is split once into f^j (f+1)^k rest.  The numerator
    loses the powers of f and f + 1 that the denominator holds, up to its
    first nonzero remainder, and the denominator loses the same powers.
    Any further common factor divides ``rest``, so the remainder sequence
    runs only when the numerator and ``rest`` are both nonconstant.
    """
    j = 0
    while pd[j] == 0:
        j += 1
    z = 0
    while z < j and pn[z] == 0:
        z += 1
    pn = pn[z:]
    pd = rest = pd[j:]
    shared = True
    while len(pn) > 1 and len(rest) > 1:
        q, r = _pdiv_f1(rest)
        if r:
            break
        rest = q
        if shared:
            q, r = _pdiv_f1(pn)
            shared = not r
            if shared:
                pn, pd = q, rest
    if len(pn) > 1 and len(rest) > 1:
        g = _prs_gcd(pn, rest)
        if g != (1,):
            pn = _pdivexact(pn, g)
            pd = _pdivexact(pd, g)
    return pn, (0,) * (j - z) + pd


def _prs_gcd(a, b):
    """Primitive PRS gcd for nonconstant primitive polynomials."""
    if len(a) < len(b):
        a, b = b, a
    while True:
        if len(b) == 1:
            return (1,)
        r = _prem(a, b)
        if not r:
            return b
        _, r = _psplit(r)
        a, b = b, r


# ---------------------------------------------------------------------------
# text rendering / parsing of integer-form polynomials
# ---------------------------------------------------------------------------

def _render_int_poly(c):
    if not c:
        return "0"
    parts = []
    for k in range(len(c) - 1, -1, -1):
        x = c[k]
        if x == 0:
            continue
        sign = "-" if x < 0 else "+"
        m = abs(x)
        if k == 0:
            body = str(m)
        else:
            var = "f" if k == 1 else "f^%d" % k
            body = var if m == 1 else "%d*%s" % (m, var)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = [first_body if first_sign == "+" else "-" + first_body]
    for sign, body in parts[1:]:
        out.append(sign)
        out.append(body)
    return "".join(out)


def _is_atom(c):
    """True when the int polynomial renders as a single positive term."""
    nonzero = [k for k, x in enumerate(c) if x]
    return len(nonzero) == 1 and c[nonzero[0]] > 0


# Largest exponent of f that text input may carry.  The parser builds a
# dense coefficient list as long as the largest exponent, so an unbounded
# exponent lets a few bytes of a cache file ask for gigabytes; table
# values reach degree 6 at chi <= 5, and 4096 leaves room far beyond that.
MAX_TEXT_DEGREE = 4096


def _parse_int_poly(text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    break
        else:
            text = text[1:-1].strip()
    if text == "0":
        return ()
    coeffs = {}
    i, n = 0, len(text)
    while i < n:
        sign = 1
        while i < n and text[i] in "+-":
            if text[i] == "-":
                sign = -sign
            i += 1
        j = i
        while j < n and text[j].isdigit():
            j += 1
        mag = int(text[i:j]) if j > i else None
        i = j
        if i < n and text[i] == "*":
            i += 1
        if i < n and text[i] == "f":
            i += 1
            if i < n and text[i] == "^":
                i += 1
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                if j == i:
                    raise ValueError("bad exponent in %r" % text)
                k = int(text[i:j])
                if k > MAX_TEXT_DEGREE:
                    raise ValueError("exponent %d above %d in %r"
                                     % (k, MAX_TEXT_DEGREE, text))
                i = j
            else:
                k = 1
        else:
            k = 0
            if mag is None:
                raise ValueError("bad term in %r" % text)
        coeffs[k] = coeffs.get(k, 0) + sign * (1 if mag is None else mag)
    if not coeffs:
        return ()
    out = [0] * (max(coeffs) + 1)
    for k, v in coeffs.items():
        out[k] = v
    return _ptrim(out)


# ---------------------------------------------------------------------------
# FPolynomial
# ---------------------------------------------------------------------------

class FPolynomial:
    """Univariate polynomial in f over Q: the num/den view of ``FRational``.

    Returned by ``FRational.num`` / ``.den``; it carries no arithmetic.
    Stored as integer coefficients ``ic`` (ascending degree, trimmed) over
    a positive integer denominator ``d`` with gcd(content(ic), d) = 1.
    """

    __slots__ = ("_ic", "_d")

    def __new__(cls, *args, **kwargs):
        raise TypeError("FPolynomial is the view FRational.num / .den")

    @classmethod
    def _raw(cls, ic, d):
        self = object.__new__(cls)
        self._ic = ic
        self._d = d
        return self

    @property
    def coefficients(self):
        return tuple(Fraction(x, self._d) for x in self._ic)

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self._ic) - 1

    def __eq__(self, other):
        if not isinstance(other, FPolynomial):
            return NotImplemented
        return self._ic == other._ic and self._d == other._d

    def __str__(self):
        body = _render_int_poly(self._ic)
        if self._d == 1:
            return body
        if _is_atom(self._ic):
            return "%s/%d" % (body, self._d)
        return "(%s)/%d" % (body, self._d)


# ---------------------------------------------------------------------------
# FRational
# ---------------------------------------------------------------------------

class FRational:
    """Element of Q(f) in canonical form.

    Internally ``(np, nd, dp)``: the value is ``(np/nd) / (dp/lc(dp))``
    where ``np`` is an integer polynomial carrying the sign, ``nd`` a
    positive integer with gcd(content(np), nd) = 1, and ``dp`` a primitive
    positive-lead integer polynomial coprime to ``np``.  The exposed
    denominator is therefore always monic, so equality of values is
    equality of representations.
    """

    __slots__ = ("_np", "_nd", "_dp")

    def __new__(cls, *args, **kwargs):
        raise TypeError("FRational is built by from_int, from_fraction, "
                        "poly, from_text or arithmetic")

    @classmethod
    def _raw(cls, np, nd, dp):
        self = object.__new__(cls)
        self._np = np
        self._nd = nd
        self._dp = dp
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, k):
        if k == 0:
            return FR_ZERO
        if k == 1:
            return FR_ONE
        return cls._raw((k,), 1, (1,))

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        if not q:
            return FR_ZERO
        return cls._raw((q.numerator,), q.denominator, (1,))

    @classmethod
    def variable(cls):
        return FR_F

    @classmethod
    def poly(cls, int_coeffs):
        """Polynomial value from ascending integer coefficients."""
        return cls._raw(_ptrim([index(c) for c in int_coeffs]), 1, (1,))

    @classmethod
    def from_text(cls, text):
        """Parse the canonical text form, e.g. ``"(f^2+f+1)/24"``."""
        text = text.strip()
        depth = 0
        split = -1
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "/" and depth == 0:
                split = i
                break
        if split < 0:
            return _from_raw(_parse_int_poly(text), 1, (1,), 1)
        return _from_raw(_parse_int_poly(text[:split]), 1,
                         _parse_int_poly(text[split + 1:]), 1)

    # -- views ---------------------------------------------------------------

    @property
    def num(self):
        return FPolynomial._raw(self._np, self._nd)

    @property
    def den(self):
        """Monic denominator."""
        return FPolynomial._raw(self._dp, self._dp[-1])

    @property
    def is_zero(self):
        return not self._np

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _as_frational(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._np:
            return other
        if not other._np:
            return self
        if self._dp == other._dp:
            num = _padd(_pscale(self._np, other._nd), _pscale(other._np, self._nd))
            return _from_raw(num, self._nd * other._nd, self._dp, self._dp[-1])
        lc1 = self._dp[-1]
        lc2 = other._dp[-1]
        a = _pscale(_pmul(self._np, other._dp), other._nd * lc1)
        b = _pscale(_pmul(other._np, self._dp), self._nd * lc2)
        return _from_raw(_padd(a, b), self._nd * other._nd * lc1 * lc2,
                         _pmul(self._dp, other._dp), lc1 * lc2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_frational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if not self._np:
            return self
        return FRational._raw(_pneg(self._np), self._nd, self._dp)

    def __mul__(self, other):
        other = _as_frational(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._np or not other._np:
            return FR_ZERO
        return _from_raw(_pmul(self._np, other._np), self._nd * other._nd,
                         _pmul(self._dp, other._dp), self._dp[-1] * other._dp[-1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_frational(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._np:
            raise DivisionByZero("division by zero in Q(f)")
        if not self._np:
            return FR_ZERO
        return _from_raw(_pmul(self._np, other._dp), self._nd * other._dp[-1],
                         _pmul(self._dp, other._np), self._dp[-1] * other._nd)

    def __rtruediv__(self, other):
        other = _as_frational(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if k < 0:
            return (FR_ONE / self) ** (-k)
        out = FR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def derivative(self):
        """d/df by the quotient rule, normalized."""
        if not self._np or (len(self._np) == 1 and len(self._dp) == 1):
            return FR_ZERO
        dn = _ptrim(tuple(k * x for k, x in enumerate(self._np))[1:])
        dd = _ptrim(tuple(k * x for k, x in enumerate(self._dp))[1:])
        num = _padd(_pmul(dn, self._dp), _pneg(_pmul(self._np, dd)))
        return _from_raw(num, self._nd, _pmul(self._dp, self._dp), self._dp[-1])

    def evaluate(self, f0):
        """Exact evaluation at a rational framing value."""
        f0 = Fraction(f0)
        den = _peval_int(self._dp, f0)
        if den == 0:
            raise PoleAtFraming(
                "denominator %s vanishes at f = %s" % (self.den, f0))
        num = _peval_int(self._np, f0)
        return (num * self._dp[-1]) / (self._nd * den)

    # -- text ----------------------------------------------------------------

    def as_text(self):
        """Canonical text form with integer-coefficient polynomials."""
        if not self._np:
            return "0"
        num_ic = _pscale(self._np, self._dp[-1])
        den_ic = _pscale(self._dp, self._nd)
        g = gcd(_pcontent(num_ic), _pcontent(den_ic))
        if g > 1:
            num_ic = tuple(x // g for x in num_ic)
            den_ic = tuple(x // g for x in den_ic)
        num_txt = _render_int_poly(num_ic)
        if den_ic == (1,):
            return num_txt
        if not _is_atom(num_ic):
            num_txt = "(%s)" % num_txt
        den_txt = _render_int_poly(den_ic)
        if not _is_atom(den_ic) or (len(den_ic) > 1 and den_ic[-1] != 1):
            den_txt = "(%s)" % den_txt
        return "%s/%s" % (num_txt, den_txt)

    # -- comparisons / hashing -------------------------------------------------

    def __eq__(self, other):
        other = _as_frational(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._np == other._np and self._nd == other._nd
                and self._dp == other._dp)

    def __hash__(self):
        return hash((self._np, self._nd, self._dp))

    def __bool__(self):
        return bool(self._np)

    def __repr__(self):
        return "FRational(%r)" % self.as_text()

    def __str__(self):
        return self.as_text()


def _normalize(nic, nd, dic, dd):
    """Reduce ((nic/nd) / (dic/dd)) to the canonical (np, nd, dp) triple."""
    dic = _ptrim(dic)
    if not dic:
        raise DivisionByZero("zero denominator in Q(f)")
    nic = _ptrim(nic)
    if not nic:
        return (), 1, (1,)
    cn, pn = _psplit(nic)
    cd, pd = _psplit(dic)
    if pd != (1,) and pn != (1,):
        pn, pd = _cancel(pn, pd)
    # value = (cn*dd)/(nd*cd) * pn/pd ; the stored triple reads back as
    # (np/nd) * lc(dp) / dp, so divide the scalar by lc(pd)
    num_s = cn * dd
    den_s = nd * cd * pd[-1]
    if den_s < 0:
        num_s, den_s = -num_s, -den_s
    g = gcd(abs(num_s), den_s)
    if g > 1:
        num_s //= g
        den_s //= g
    return _pscale(pn, num_s), den_s, pd


def _from_raw(nic, nd, dic, dd):
    v = _normalize(nic, nd, dic, dd)
    return FRational._raw(*v)


def _as_frational(x):
    if isinstance(x, FRational):
        return x
    if isinstance(x, int):
        return FRational.from_int(x)
    if isinstance(x, Fraction):
        return FRational.from_fraction(x)
    return NotImplemented


FR_ZERO = FRational._raw((), 1, (1,))
FR_ONE = FRational._raw((1,), 1, (1,))
FR_F = FRational._raw((0, 1), 1, (1,))
