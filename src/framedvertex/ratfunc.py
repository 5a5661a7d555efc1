"""Exact arithmetic over Q and Q(f).

Rational numbers are stdlib :class:`fractions.Fraction`.  ``FRational``,
an element of Q(f) for the framing variable ``f``, is the only arithmetic
type.  Every denominator the computation meets has the form
N f^j (f+1)^k, so a value is stored in the localised form

    np * lc(rest) / (nd * f^j * (f+1)^k * rest)

with the exponents j and k beside the integer numerator ``np`` and
``rest`` = (1,) in practice: arithmetic runs in Z[f, 1/f, 1/(f+1)].  A
product adds the exponents; a sum aligns its operands to the larger
exponents, by a shift and a cached power (f+1)^m, and its scalars to
their lcm.  The form is canonical (see ``FRational``), so equality of
values is structural equality.

Cancellation has one route, ``_reduce``, and it tests only the
numerator: it strips at most j factors f (leading zeros), divides by
f + 1 at most k times, each time after checking that the numerator
vanishes at f = -1, and takes the content gcd with the scalar
denominator.  A primitive remainder sequence runs only against a
nonconstant ``rest``.  A denominator is never split again: a polynomial
becomes a denominator only in ``from_text`` and in a division, and is
split there once, by ``_split``.

``sum_of_products`` puts a list of products over one common denominator
N f^J (f+1)^K, sums the integer numerators and reduces once (delayed
reduction), so series products, multivariate products and sums of slot
images cost one reduction per output coefficient.

A value is built only by ``FRational.from_int``, ``from_fraction``,
``poly``, ``from_text`` and arithmetic, so every value is canonical.
``FPolynomial`` is the read-only view returned by ``FRational.num`` /
``.den``; it cannot be built from coefficients.

Everything here is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    """Exact quotient of ``a`` by f + 1 (a(-1) = 0), by synthetic division."""
    q = [0] * (len(a) - 1)
    acc = 0
    for i in range(len(a) - 1, 0, -1):
        acc = a[i] - acc
        q[i - 1] = acc
    return tuple(q)


def _at_minus_one(a):
    """The value a(-1)."""
    return sum(a[::2]) - sum(a[1::2])


def _strip(p, j, k):
    """Divide nonzero ``p`` by f and by f + 1 as often as they divide it,
    at most ``j`` and ``k`` times; returns (quotient, times f, times f + 1).

    A division by f + 1 runs only after p(-1) = 0 is seen, so the first
    nonzero value ends the loop without a division.
    """
    a = 0
    while a < j and not p[a]:
        a += 1
    p = p[a:]
    b = 0
    while b < k and not _at_minus_one(p):
        p = _pdiv_f1(p)
        b += 1
    return p, a, b


def _split(p):
    """Split nonzero ``p`` as f^j (f+1)^k q with q(0) != 0 and q(-1) != 0.

    Returns (j, k, q).  Only ``from_text`` and division call this, on the
    polynomial that becomes a denominator.
    """
    q, j, k = _strip(p, len(p), len(p))
    return j, k, q


_F1_POWERS = [(1,)]


def _f1_power(m):
    """(f+1)^m, from a cache grown on demand."""
    while len(_F1_POWERS) <= m:
        p = _F1_POWERS[-1]
        _F1_POWERS.append(tuple(x + y for x, y in zip(p + (0,), (0,) + p)))
    return _F1_POWERS[m]


def _align(n, dj, dk):
    """n f^dj (f+1)^dk."""
    if dk:
        n = _pmul(n, _f1_power(dk))
    return (0,) * dj + n if dj else n


def _pderiv(a):
    return tuple(i * a[i] for i in range(1, len(a)))


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

_ONE = (1,)


class FRational:
    """Element of Q(f) in canonical localised form.

    Internally ``(np, nd, j, k, rest)``: the value is
    ``np * lc(rest) / (nd * f^j * (f+1)^k * rest)``, where

    * ``np`` is an integer polynomial carrying the sign and ``nd`` a
      positive integer, with gcd(content(np), nd) = 1;
    * np(0) != 0 when j > 0, and np(-1) != 0 when k > 0;
    * ``rest`` is a primitive, positive-lead integer polynomial coprime to
      ``np``, to f and to f + 1.  It is (1,) unless a denominator with
      another factor came in through ``from_text`` or a division.

    The exposed denominator ``dp / lc(dp)``, with the derived
    ``dp = f^j (f+1)^k rest``, is monic and coprime to the numerator, so
    equality of values is equality of representations.
    """

    __slots__ = ("_np", "_nd", "_j", "_k", "_rest")

    def __new__(cls, *args, **kwargs):
        raise TypeError("FRational is built by from_int, from_fraction, "
                        "poly, from_text or arithmetic")

    @classmethod
    def _raw(cls, np, nd, j, k, rest):
        self = object.__new__(cls)
        self._np = np
        self._nd = nd
        self._j = j
        self._k = k
        self._rest = rest
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, k):
        if k == 0:
            return FR_ZERO
        if k == 1:
            return FR_ONE
        return cls._raw((k,), 1, 0, 0, _ONE)

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        if not q:
            return FR_ZERO
        return cls._raw((q.numerator,), q.denominator, 0, 0, _ONE)

    @classmethod
    def variable(cls):
        return FR_F

    @classmethod
    def poly(cls, int_coeffs):
        """Polynomial value from ascending integer coefficients."""
        return cls._raw(_ptrim([index(c) for c in int_coeffs]), 1, 0, 0, _ONE)

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
            return _reduce(_parse_int_poly(text), 1, 0, 0)
        den = _parse_int_poly(text[split + 1:])
        if not den:
            raise DivisionByZero("zero denominator in Q(f)")
        return _reduce(_parse_int_poly(text[:split]), 1, *_split(den))

    # -- views ---------------------------------------------------------------

    @property
    def _dp(self):
        """The polynomial denominator f^j (f+1)^k rest."""
        dp = _pmul(_f1_power(self._k), self._rest) if self._k else self._rest
        return (0,) * self._j + dp

    @property
    def num(self):
        return FPolynomial._raw(self._np, self._nd)

    @property
    def den(self):
        """Monic denominator."""
        dp = self._dp
        return FPolynomial._raw(dp, dp[-1])

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
        na, nb, rest = self._np, other._np, self._rest
        if len(rest) > 1 or len(other._rest) > 1:
            na, nb = _pscale(na, rest[-1]), _pscale(nb, other._rest[-1])
            if rest != other._rest:
                na, nb = _pmul(na, other._rest), _pmul(nb, rest)
                rest = _pmul(rest, other._rest)
        da, db = self._nd, other._nd
        if da == db:
            d = da
        else:
            d = lcm(da, db)
            na, nb = _pscale(na, d // da), _pscale(nb, d // db)
        j, k = max(self._j, other._j), max(self._k, other._k)
        na = _align(na, j - self._j, k - self._k)
        nb = _align(nb, j - other._j, k - other._k)
        return _reduce(_padd(na, nb), d, j, k, rest)

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
        return FRational._raw(_pneg(self._np), self._nd, self._j, self._k,
                              self._rest)

    def __mul__(self, other):
        other = _as_frational(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._np or not other._np:
            return FR_ZERO
        n = _pmul(self._np, other._np)
        rest = _ONE
        if len(self._rest) > 1 or len(other._rest) > 1:
            n = _pscale(n, self._rest[-1] * other._rest[-1])
            rest = _pmul(self._rest, other._rest)
        return _reduce(n, self._nd * other._nd, self._j + other._j,
                       self._k + other._k, rest)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_frational(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._np:
            raise DivisionByZero("division by zero in Q(f)")
        if not self._np:
            return FR_ZERO
        # the divisor's numerator becomes a denominator: split it once
        s, t, q = _split(other._np)
        n = _pscale(self._np, other._nd * self._rest[-1])
        if len(other._rest) > 1:
            n = _pmul(n, other._rest)
        j = self._j + s - other._j
        k = self._k + t - other._k
        n = _align(n, max(-j, 0), max(-k, 0))
        rest = _pmul(self._rest, q) if len(self._rest) > 1 else q
        return _reduce(n, self._nd * other._rest[-1], max(j, 0), max(k, 0),
                       rest)

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
        """d/df, in closed form over the stored denominator.

        With L = f^[j>0] (f+1)^[k>0] and c = j (f+1)^[k>0] + k f^[j>0],
        d/df n / (nd f^j (f+1)^k) = (n' L - n c) / (nd f^j (f+1)^k L);
        a nonconstant ``rest`` r adds the quotient rule in r.
        """
        n, j, k, rest = self._np, self._j, self._k, self._rest
        if not n:
            return FR_ZERO
        low = (0, 1) if j else _ONE
        if k:
            low = _pmul(low, (1, 1))
        c = _padd(_pscale((1, 1) if k else _ONE, j),
                  _pscale((0, 1) if j else _ONE, k))
        if len(rest) > 1:
            n = _pscale(n, rest[-1])
        num = _padd(_pmul(_pderiv(n), low), _pneg(_pmul(n, c)))
        if len(rest) > 1:
            num = _padd(_pmul(num, rest),
                        _pneg(_pmul(_pmul(n, _pderiv(rest)), low)))
            rest = _pmul(rest, rest)
        return _reduce(num, self._nd, j + (j > 0), k + (k > 0), rest)

    def evaluate(self, f0):
        """Exact evaluation at a rational framing value."""
        f0 = Fraction(f0)
        dp = self._dp
        den = _peval_int(dp, f0)
        if den == 0:
            raise PoleAtFraming(
                "denominator %s vanishes at f = %s" % (self.den, f0))
        num = _peval_int(self._np, f0)
        return (num * dp[-1]) / (self._nd * den)

    # -- text ----------------------------------------------------------------

    def as_text(self):
        """Canonical text form with integer-coefficient polynomials."""
        if not self._np:
            return "0"
        dp = self._dp
        num_ic = _pscale(self._np, dp[-1])
        den_ic = _pscale(dp, self._nd)
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
                and self._j == other._j and self._k == other._k
                and self._rest == other._rest)

    def __hash__(self):
        return hash((self._np, self._nd, self._j, self._k, self._rest))

    def __bool__(self):
        return bool(self._np)

    def __repr__(self):
        return "FRational(%r)" % self.as_text()

    def __str__(self):
        return self.as_text()


def _reduce(n, d, j, k, rest=_ONE):
    """The canonical value of n / (d f^j (f+1)^k rest).

    ``n`` is a trimmed integer polynomial, ``d`` a nonzero integer and
    ``rest`` a nonzero integer polynomial prime to f and f + 1.  Only the
    numerator is tested against f and f + 1; the remainder sequence runs
    only when ``rest`` and the numerator are both nonconstant.
    """
    if not n:
        return FR_ZERO
    if j or k:
        n, a, b = _strip(n, j, k)
        j, k = j - a, k - b
    if len(rest) > 1:
        c, rest = _psplit(rest)
        if len(n) > 1:
            g = _prs_gcd(_psplit(n)[1], rest)
            if len(g) > 1:
                n = _pdivexact(n, g)
                rest = _pdivexact(rest, g)
        # the stored form reads np * lc(rest) / (nd ... rest)
        d *= c * rest[-1]
    elif rest[0] != 1:  # a constant rest is a scalar
        d *= rest[0]
        rest = _ONE
    if d < 0:
        n, d = _pneg(n), -d
    g = gcd(d, *n)
    if g > 1:
        n = tuple(x // g for x in n)
        d //= g
    return FRational._raw(n, d, j, k, rest)


def sum_of_products(xs, ys):
    """The sum of ``x * y`` over ``zip(xs, ys)``, two sequences, reduced once.

    Equal to the left fold of ``+`` and ``*``.  The products are put over
    one common denominator L f^J (f+1)^K, with L the lcm of their scalar
    denominators and J, K the largest exponents, and their integer
    numerators are summed: first per class of equal exponents (j, k),
    then each class aligned once, by a shift and (f+1)^(K-k).  A pair with
    a nonconstant ``rest`` makes it fold with ``+`` and ``*`` instead.
    """
    live = []
    for a, b in zip(xs, ys):
        if a._np and b._np:
            if len(a._rest) > 1 or len(b._rest) > 1:
                total = FR_ZERO
                for a, b in zip(xs, ys):
                    total = total + a * b
                return total
            live.append((a, b))
    if not live:
        return FR_ZERO
    if len(live) == 1:
        a, b = live[0]
        return _reduce(_pmul(a._np, b._np), a._nd * b._nd, a._j + b._j,
                       a._k + b._k)
    L = lcm(*[a._nd * b._nd for a, b in live])
    buckets = {}
    for a, b in live:
        an, bn = a._np, b._np
        if len(an) > len(bn):
            an, bn = bn, an
        s = L // (a._nd * b._nd)
        if s != 1:
            an = [x * s for x in an]
        key = (a._j + b._j, a._k + b._k)
        acc = buckets.get(key)
        size = len(an) + len(bn) - 1
        if acc is None:
            acc = buckets[key] = [0] * size
        elif len(acc) < size:
            acc.extend([0] * (size - len(acc)))
        for i, x in enumerate(an):
            if x:
                for m, y in enumerate(bn, i):
                    acc[m] += x * y
    J = max(j for j, _ in buckets)
    K = max(k for _, k in buckets)
    total = ()
    for (j, k), acc in buckets.items():
        total = _padd(total, _align(tuple(acc), J - j, K - k))
    return _reduce(total, L, J, K)


def _as_frational(x):
    if isinstance(x, FRational):
        return x
    if isinstance(x, int):
        return FRational.from_int(x)
    if isinstance(x, Fraction):
        return FRational.from_fraction(x)
    return NotImplemented


FR_ZERO = FRational._raw((), 1, 0, 0, _ONE)
FR_ONE = FRational._raw((1,), 1, 0, 0, _ONE)
FR_F = FRational._raw((0, 1), 1, 0, 0, _ONE)
