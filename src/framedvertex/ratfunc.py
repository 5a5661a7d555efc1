"""Exact arithmetic over Q and Q(f).

Rational numbers are stdlib :class:`fractions.Fraction`.  ``FRational``,
an element of Q(f) for the framing variable ``f``, is the only arithmetic
type.  Every denominator on the framed curve x = y^f (1 - y) is a
constant times a power of f and a power of f + 1, so values live in the
localised ring Q[f, 1/f, 1/(f+1)] and are stored as

    np / (nd * f^j * (f+1)^k)

with the exponents j and k beside the integer numerator ``np`` and the
positive integer ``nd``.  A product adds the exponents; a sum aligns its
operands to the larger exponents, by a shift and a cached power
(f+1)^m, and its scalars to their lcm.  The form is canonical (see
``FRational``), so equality of values is structural equality.

Cancellation has one route, ``_reduce``, and it tests only the
numerator: it strips at most j factors f (leading zeros), divides by
f + 1 at most k times, each time after checking that the numerator
vanishes at f = -1, and takes the content gcd with the scalar
denominator.  A polynomial becomes a denominator only in ``from_text``
and in a division, and ``_split`` is the one gate there: it splits the
polynomial once into c f^j (f+1)^k and raises ``ValueError`` when a
factor prime to f (f+1) is left, so a cache value such as
``1/(f^2+1)`` is refused.

``from_text`` reads only the text ``as_text`` writes, so each value has
one spelling.  It splits the text at its first ``/``, takes one pair of
outer parentheses off each side, reads the terms with one pattern and
then refuses, in this order, an exponent above ``MAX_TEXT_DEGREE``, a
zero denominator, a denominator factor prime to f (f+1), and any text
that is not the ``as_text`` of the value it reads as.

``sum_of_products`` puts a list of products, each with an integer
weight, over one common denominator N f^J (f+1)^K, sums the integer
numerators and reduces once (delayed reduction), so series products,
multivariate products and counted sums of slot images cost one reduction
per output coefficient; a weight only scales its product's integer
scalar.  A sum of at least
``_PACK_MIN`` products forms each numerator product as one integer
product of the images at f = 2^B (Kronecker substitution), with B chosen
per call from a proved bound on the total's coefficients so that the
total reads back exactly; shorter sums, where packing costs more than it
saves, keep the schoolbook loop.

A value is built only by ``FRational.from_int``, ``from_fraction``,
``poly``, ``from_text`` and arithmetic, so every value is canonical.
``FPolynomial`` is the read-only view returned by ``FRational.num`` /
``.den``; it cannot be built from coefficients.

Everything here is exact; no floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import index

from .errors import DivisionByZero, PoleAtFraming


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


def _peval_int(a, x):
    """Horner value of ``a`` at ``x``, an int or a Fraction."""
    acc = 0
    for coef in reversed(a):
        acc = acc * x + coef
    return acc


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
    """Split nonzero ``p`` as c f^j (f+1)^k with c a nonzero integer.

    Returns (j, k, c).  Only ``from_text`` and division call this, on the
    polynomial that becomes a denominator; a factor prime to f (f+1) has
    no place in the ring and raises ``ValueError``.
    """
    q, j, k = _strip(p, len(p), len(p))
    if len(q) > 1:
        raise ValueError("denominator %s has a factor prime to f(f+1)"
                         % _render_int_poly(p))
    return j, k, q[0]


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


# One term as ``_render_int_poly`` writes it: a sign, digits, then f or
# *f, either with ^k.  Text the pattern skips or reads another way fails
# the round trip in ``FRational.from_text``.
_TERM = re.compile(r"([+-]?)(\d*)(\*?f(?:\^(\d+))?)?")


def _parse_int_poly(text):
    """Int coefficients of a polynomial, one outer pair of parens off."""
    if text[:1] == "(" and text[-1:] == ")":
        text = text[1:-1]
    terms = [(int(sign + (mag or "1")), int(exp or 1) if var else 0)
             for sign, mag, var, exp in _TERM.findall(text) if mag or var]
    top = max((k for _, k in terms), default=-1)
    if top > MAX_TEXT_DEGREE:
        raise ValueError("exponent %d above %d in %r"
                         % (top, MAX_TEXT_DEGREE, text))
    out = [0] * (top + 1)
    for c, k in terms:
        out[k] += c
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

    Internally ``(np, nd, j, k)``: the value is
    ``np / (nd * f^j * (f+1)^k)``, where

    * ``np`` is an integer polynomial carrying the sign and ``nd`` a
      positive integer, with gcd(content(np), nd) = 1;
    * np(0) != 0 when j > 0, and np(-1) != 0 when k > 0.

    The exposed denominator ``f^j (f+1)^k`` is monic and coprime to the
    numerator, so equality of values is equality of representations.  A
    denominator with a factor prime to f (f+1) is refused with
    ``ValueError``, in ``from_text`` and in a division.
    """

    __slots__ = ("_np", "_nd", "_j", "_k")

    def __new__(cls, *args, **kwargs):
        raise TypeError("FRational is built by from_int, from_fraction, "
                        "poly, from_text or arithmetic")

    @classmethod
    def _raw(cls, np, nd, j, k):
        self = object.__new__(cls)
        self._np = np
        self._nd = nd
        self._j = j
        self._k = k
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, k):
        if k == 0:
            return FR_ZERO
        if k == 1:
            return FR_ONE
        return cls._raw((k,), 1, 0, 0)

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        if not q:
            return FR_ZERO
        return cls._raw((q.numerator,), q.denominator, 0, 0)

    @classmethod
    def variable(cls):
        return FR_F

    @classmethod
    def poly(cls, int_coeffs):
        """Polynomial value from ascending integer coefficients."""
        return cls._raw(_ptrim([index(c) for c in int_coeffs]), 1, 0, 0)

    @classmethod
    def from_text(cls, text):
        """The value ``as_text`` writes as ``text``, e.g. ``"(f^2+f+1)/24"``.

        Only that spelling is read.  The refusals come in this order: an
        exponent above ``MAX_TEXT_DEGREE`` (``ValueError``, before any
        coefficient list is built), a zero denominator
        (``DivisionByZero``), a denominator factor prime to f (f+1)
        (``ValueError`` from ``_split``), and last any text that is not
        the ``as_text`` of the value it reads as (``ValueError``).
        """
        num, slash, den = text.partition("/")
        num = _parse_int_poly(num)
        den = _parse_int_poly(den) if slash else _ONE
        if not den:
            raise DivisionByZero("zero denominator in Q(f)")
        j, k, c = _split(den)
        value = _reduce(num, c, j, k)
        canonical = value.as_text()
        if text != canonical:
            raise ValueError("%r is not the canonical spelling %r"
                             % (text, canonical))
        return value

    # -- views ---------------------------------------------------------------

    @property
    def _dp(self):
        """The polynomial denominator f^j (f+1)^k."""
        return (0,) * self._j + _f1_power(self._k)

    @property
    def num(self):
        return FPolynomial._raw(self._np, self._nd)

    @property
    def den(self):
        """Monic denominator."""
        return FPolynomial._raw(self._dp, 1)

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
        na, nb = self._np, other._np
        da, db = self._nd, other._nd
        if da == db:
            d = da
        else:
            d = lcm(da, db)
            na, nb = _pscale(na, d // da), _pscale(nb, d // db)
        j, k = max(self._j, other._j), max(self._k, other._k)
        na = _align(na, j - self._j, k - self._k)
        nb = _align(nb, j - other._j, k - other._k)
        return _reduce(_padd(na, nb), d, j, k)

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
        return FRational._raw(_pneg(self._np), self._nd, self._j, self._k)

    def __mul__(self, other):
        other = _as_frational(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._np or not other._np:
            return FR_ZERO
        return _reduce(_pmul(self._np, other._np), self._nd * other._nd,
                       self._j + other._j, self._k + other._k)

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
        s, t, c = _split(other._np)
        j = self._j + s - other._j
        k = self._k + t - other._k
        n = _align(_pscale(self._np, other._nd), max(-j, 0), max(-k, 0))
        return _reduce(n, self._nd * c, max(j, 0), max(k, 0))

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
        d/df n / (nd f^j (f+1)^k) = (n' L - n c) / (nd f^j (f+1)^k L).
        """
        n, j, k = self._np, self._j, self._k
        if not n:
            return FR_ZERO
        low = (0, 1) if j else _ONE
        if k:
            low = _pmul(low, (1, 1))
        c = _padd(_pscale((1, 1) if k else _ONE, j),
                  _pscale((0, 1) if j else _ONE, k))
        num = _padd(_pmul(_pderiv(n), low), _pneg(_pmul(n, c)))
        return _reduce(num, self._nd, j + (j > 0), k + (k > 0))

    def evaluate(self, f0):
        """Exact evaluation at a rational framing value."""
        f0 = Fraction(f0)
        den = self._nd * f0 ** self._j * (f0 + 1) ** self._k
        if den == 0:
            raise PoleAtFraming(
                "denominator %s vanishes at f = %s" % (self.den, f0))
        return _peval_int(self._np, f0) / den

    # -- text ----------------------------------------------------------------

    def as_text(self):
        """Canonical text form with integer-coefficient polynomials.

        The canonical form already has gcd(content(np), nd) = 1 and a
        monic f^j (f+1)^k, so the two integer polynomials share no content.
        """
        if not self._np:
            return "0"
        num_txt = _render_int_poly(self._np)
        den_ic = _pscale(self._dp, self._nd)
        if den_ic == (1,):
            return num_txt
        if not _is_atom(self._np):
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
                and self._j == other._j and self._k == other._k)

    def __hash__(self):
        return hash((self._np, self._nd, self._j, self._k))

    def __bool__(self):
        return bool(self._np)

    def __repr__(self):
        return "FRational(%r)" % self.as_text()

    def __str__(self):
        return self.as_text()


def _reduce(n, d, j, k):
    """The canonical value of n / (d f^j (f+1)^k).

    ``n`` is a trimmed integer polynomial and ``d`` a nonzero integer.
    Only the numerator is tested against f and f + 1.
    """
    if not n:
        return FR_ZERO
    if j or k:
        n, a, b = _strip(n, j, k)
        j, k = j - a, k - b
    if d < 0:
        n, d = _pneg(n), -d
    g = gcd(d, *n)
    if g > 1:
        n = tuple(x // g for x in n)
        d //= g
    return FRational._raw(n, d, j, k)


# Fewer live products than this and a sum keeps the direct loop.  Of the
# 19 366 sums of the chi <= 4 cut-and-join check, 92% have under 4 live
# products, mostly a constant times an 8-term numerator met once, so the
# images are not reused; packing every sum of two or more made those sums
# 20% slower.  The series products of the kernels and the curve sum up to
# 20 products of 4- to 13-term numerators, and there packing wins.
_PACK_MIN = 8

# The memos of ``_height`` and ``_pack`` keep the numerators that a series
# product reuses across its coefficients: 2^10 entries hit 94% of lookups
# on the kernel cross-check (2^14: 96%) and add 1.6 MB of peak memory at
# chi <= 7 (2^14: 3.6 MB).
_MEMO = 1 << 10


@lru_cache(maxsize=_MEMO)
def _height(p):
    """Bit length of the largest |coefficient| of nonzero ``p``."""
    return max(max(p), -min(p)).bit_length()


@lru_cache(maxsize=_MEMO)
def _pack(p, B):
    """The integer p(2^B), the Kronecker image of ``p`` with slot width B."""
    acc = 0
    for c in reversed(p):
        acc = (acc << B) + c
    return acc


def _unpack(n, B):
    """The trimmed polynomial p with p(2^B) = n and every coefficient in
    [-2^(B-1), 2^(B-1)): balanced digits, lowest first."""
    half, mask = 1 << (B - 1), (1 << B) - 1
    out = []
    while n:
        c = ((n + half) & mask) - half
        out.append(c)
        n = (n - c) >> B
    return tuple(out)


def sum_of_products(xs, ys, ws=None):
    """The sum of ``w * x * y`` over ``zip(xs, ys, ws)``, reduced once.

    ``ws`` holds integer weights, all 1 when it is not given; a zero
    weight drops its product.  Equal to the left fold of ``+`` and ``*``.
    The products are put over one common denominator L f^J (f+1)^K, with
    L the lcm of their scalar denominators and J, K the largest
    exponents, and their integer numerators are summed: first per class
    of equal exponents (j, k), then each class aligned once, by a shift
    and (f+1)^(K-k).  Each product's numerator is scaled by the one
    integer s = w L / (nd_a nd_b), so a weight costs no Q(f) product and
    no reduction of its own.

    A sum of at least ``_PACK_MIN`` live products sums its numerators by
    Kronecker substitution (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, 8.4): each product becomes the one integer product
    s a(2^B) b(2^B); each class is aligned by (f+1)^(K-k) at 2^B and a
    shift of B (J-j) bits; the total is read back in balanced digits.
    Shorter sums keep the direct loop, which costs less there (see
    ``_PACK_MIN``).

    Why the total reads back exactly.  Evaluation at 2^B is a ring map,
    so the packed total is T(2^B) for the exact summed numerator T, and
    it reads back as T when every coefficient of T lies in
    [-2^(B-1), 2^(B-1)).  Let h(p) be the bit length of the largest
    |coefficient| of p, so |coefficient| < 2^h(p), and bits(x) that of
    |x|.  A coefficient of a b sums at most min(len a, len b) terms, each
    below 2^(h(a)+h(b)), and |s| < 2^bits(s), the weight included, as it
    is a factor of s; a factor (f+1)^m multiplies the largest
    |coefficient| by at most 2^m, the sum of its coefficients; a shift
    changes none.  So every coefficient of an aligned product is below
    2^w with

        w = bits(s) + h(a) + h(b) + bits(min(len a, len b)) + (K - k),

    and n aligned products sum below 2^(max w + bits(n)).  B is that
    exponent plus one sign bit, rounded up to a multiple of 32 so that
    the memoised images repeat across calls.
    """
    if ws is None:
        ws = repeat(1)
    live = [(a, b, w) for a, b, w in zip(xs, ys, ws) if w and a._np and b._np]
    if not live:
        return FR_ZERO
    if len(live) == 1:
        a, b, w = live[0]
        an = a._np if w == 1 else _pscale(a._np, w)
        return _reduce(_pmul(an, b._np), a._nd * b._nd, a._j + b._j,
                       a._k + b._k)
    L = lcm(*[a._nd * b._nd for a, b, _ in live])
    if len(live) >= _PACK_MIN:
        return _packed_sum(live, L)
    buckets = {}
    for a, b, w in live:
        an, bn = a._np, b._np
        if len(an) > len(bn):
            an, bn = bn, an
        s = L // (a._nd * b._nd) * w
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


def _packed_sum(live, L):
    """``sum_of_products`` of the ``live`` triples (a, b, weight) over the
    scalar lcm ``L``, by packing."""
    terms = [(L // (a._nd * b._nd) * w, a._np, b._np, a._j + b._j,
              a._k + b._k) for a, b, w in live]
    J = max(t[3] for t in terms)
    K = max(t[4] for t in terms)
    w = max(s.bit_length() + _height(an) + _height(bn)
            + min(len(an), len(bn)).bit_length() + K - k
            for s, an, bn, _, k in terms)
    B = -(-(w + len(terms).bit_length() + 1) // 32) * 32
    buckets = {}
    for s, an, bn, j, k in terms:
        x = _pack(an, B) * _pack(bn, B)
        if s != 1:
            x *= s
        buckets[j, k] = buckets.get((j, k), 0) + x
    total = 0
    for (j, k), acc in buckets.items():
        if k != K:
            acc *= _pack(_f1_power(K - k), B)
        total += acc << B * (J - j)
    return _reduce(_unpack(total, B), L, J, K)


def _as_frational(x):
    if isinstance(x, FRational):
        return x
    if isinstance(x, int):
        return FRational.from_int(x)
    if isinstance(x, Fraction):
        return FRational.from_fraction(x)
    return NotImplemented


FR_ZERO = FRational._raw((), 1, 0, 0)
FR_ONE = FRational._raw((1,), 1, 0, 0)
FR_F = FRational._raw((0, 1), 1, 0, 0)
