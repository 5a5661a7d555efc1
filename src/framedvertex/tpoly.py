"""Sparse multivariate polynomials in t_0 .. t_{n-1} with ``FRational``
coefficients, in the ring Z[f, 1/f, 1/(f+1)] with rational scalars.

Terms are stored as a map from exponent tuples to nonzero ``FRational``
coefficients.  Values are immutable by convention: every operation returns
a new polynomial.  Variable slots are 0-based throughout.

Every sum of products per key in the package goes one route: ``gather``
appends each unreduced pair of factors, with its integer weight, to its
key's list, and ``sum_gathered`` closes each list with one
``ratfunc.sum_of_products``, one Q(f) reduction per key, none for a key
holding a single coefficient.  Products, ``curvefun.euler_field``, the
recursion, ``engine.assemble_H``'s orbit sums and the cut-and-join reads
all take this route.
"""

from __future__ import annotations

from .errors import ArityMismatch, IndexOutOfRange, NotDivisible
from .ratfunc import FR_ONE, FR_ZERO, _as_frational, power, sum_of_products


def add_term(terms, key, coeff):
    """Add ``coeff`` into ``terms[key]``, dropping the entry if it cancels."""
    prev = terms.get(key)
    if prev is None:
        terms[key] = coeff
    else:
        s = prev + coeff
        if s.is_zero:
            del terms[key]
        else:
            terms[key] = s


def gather(groups, key, x, y, w=1):
    """Append the unreduced product ``w * x * y``, ``w`` an integer, to
    the sum at ``key``: ``groups[key]`` is the flat list
    [x0, y0, w0, x1, y1, w1, ...]."""
    groups.setdefault(key, []).extend((x, y, w))


def sum_gathered(groups):
    """{key: sum of the products gathered at key}, zero sums dropped.

    One ``sum_of_products`` per key, which keeps a lone (c, 1, 1) as ``c``.
    """
    out = {}
    for key, g in groups.items():
        c = sum_of_products(g[::3], g[1::3], g[2::3])
        if c:
            out[key] = c
    return out


class TPolynomial:
    __slots__ = ("_arity", "_terms")

    def __init__(self, arity, terms=()):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        self._arity = arity
        clean = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != arity or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector %r for arity %d" % (exps, arity))
            coeff = _as_frational(coeff)
            if coeff is NotImplemented:
                raise TypeError("coefficients must be FRational-like")
            if not coeff.is_zero:
                add_term(clean, exps, coeff)
        self._terms = clean

    @classmethod
    def _raw(cls, arity, terms):
        self = object.__new__(cls)
        self._arity = arity
        self._terms = terms
        return self

    @classmethod
    def zero(cls, arity):
        return cls._raw(arity, {})

    @classmethod
    def constant(cls, arity, coeff):
        coeff = _as_frational(coeff)
        if coeff.is_zero:
            return cls.zero(arity)
        return cls._raw(arity, {(0,) * arity: coeff})

    @classmethod
    def variable(cls, arity, slot):
        if not 0 <= slot < arity:
            raise IndexOutOfRange("slot %d outside arity %d" % (slot, arity))
        exps = tuple(1 if i == slot else 0 for i in range(arity))
        return cls._raw(arity, {exps: FR_ONE})

    # -- accessors ------------------------------------------------------------

    @property
    def arity(self):
        return self._arity

    @property
    def is_zero(self):
        return not self._terms

    def coefficient(self, exps):
        return self._terms.get(tuple(exps), FR_ZERO)

    def terms(self):
        """Iterator over (exponent tuple, coefficient) pairs."""
        return iter(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def degree_in(self, slot):
        self._check_slot(slot)
        if not self._terms:
            return -1
        return max(e[slot] for e in self._terms)

    def _check_slot(self, slot):
        if not 0 <= slot < self._arity:
            raise IndexOutOfRange("slot %d outside arity %d" % (slot, self._arity))

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TPolynomial):
            c = _as_frational(other)
            if c is NotImplemented:
                return NotImplemented
            other = TPolynomial.constant(self._arity, c)
        if other._arity != self._arity:
            raise ArityMismatch("arity %d vs %d" % (self._arity, other._arity))
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for exps, c in other._terms.items():
            add_term(out, exps, c)
        return TPolynomial._raw(self._arity, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TPolynomial._raw(
            self._arity, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, TPolynomial):
            c = _as_frational(other)
            if c is NotImplemented:
                return NotImplemented
            if c.is_zero:
                return TPolynomial.zero(self._arity)
            return TPolynomial._raw(
                self._arity, {e: x * c for e, x in self._terms.items()})
        if other._arity != self._arity:
            raise ArityMismatch("arity %d vs %d" % (self._arity, other._arity))
        if not self._terms or not other._terms:
            return TPolynomial.zero(self._arity)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        groups = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                gather(groups, tuple(x + y for x, y in zip(e1, e2)), c1, c2)
        return TPolynomial._raw(self._arity, sum_gathered(groups))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, k, TPolynomial.constant(self._arity, FR_ONE))

    def __eq__(self, other):
        if not isinstance(other, TPolynomial):
            return NotImplemented
        return self._arity == other._arity and self._terms == other._terms

    def __hash__(self):
        return hash((self._arity, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- calculus / relabelling ----------------------------------------------

    def partial_derivative(self, slot):
        self._check_slot(slot)
        # lowering one exponent is injective, so no two terms collide
        return TPolynomial._raw(self._arity, {
            exps[:slot] + (exps[slot] - 1,) + exps[slot + 1:]: c * exps[slot]
            for exps, c in self._terms.items() if exps[slot]})

    def embed(self, arity, slot_map):
        """Map this polynomial into a larger ring along explicit slots.

        ``slot_map[k]`` is the destination of variable ``k``; the map must
        be injective into ``range(arity)``.
        """
        slot_map = tuple(slot_map)
        if len(slot_map) != self._arity:
            raise ArityMismatch("slot map length %d, arity %d"
                                % (len(slot_map), self._arity))
        if len(set(slot_map)) != len(slot_map):
            raise ValueError("slot map must be injective")
        for s in slot_map:
            if not 0 <= s < arity:
                raise IndexOutOfRange("destination slot %d outside arity %d"
                                      % (s, arity))
        out = {}
        for exps, c in self._terms.items():
            e = [0] * arity
            for k, v in enumerate(exps):
                e[slot_map[k]] = v
            out[tuple(e)] = c
        return TPolynomial._raw(arity, out)

    # -- exact division -----------------------------------------------------------

    def exact_divide_difference(self, i, j):
        """Divide exactly by (t_i - t_j).

        The numerator must vanish on the diagonal t_i = t_j; otherwise a
        nonzero synthetic-division remainder is left and ``NotDivisible``
        is raised.
        """
        self._check_slot(i)
        self._check_slot(j)
        if i == j:
            raise IndexOutOfRange("divide-difference needs distinct slots")
        if not self._terms:
            return self
        # coefficients of powers of t_i, as polynomials in the other slots
        by_k = {}
        for exps, c in self._terms.items():
            k = exps[i]
            e0 = exps[:i] + (0,) + exps[i + 1:]
            by_k.setdefault(k, {})[e0] = c
        dmax = max(by_k)
        quotient = {}
        carry = {}  # q_k as a term dict while sweeping k downward
        for k in range(dmax - 1, -1, -1):
            # q_k = a_{k+1} + t_j * q_{k+1}
            term = dict(by_k.get(k + 1, {}))
            for e, c in carry.items():
                add_term(term, e[:j] + (e[j] + 1,) + e[j + 1:], c)
            for e, c in term.items():
                quotient[e[:i] + (k,) + e[i + 1:]] = c
            carry = term
        # remainder = a_0 + t_j * q_0
        rem = dict(by_k.get(0, {}))
        for e, c in carry.items():
            add_term(rem, e[:j] + (e[j] + 1,) + e[j + 1:], c)
        if rem:
            raise NotDivisible(
                "numerator does not vanish on the diagonal t_%d = t_%d" % (i, j))
        return TPolynomial._raw(self._arity, quotient)

    # -- rendering -----------------------------------------------------------------

    def render_lines(self):
        """Canonical text lines, graded-lexicographically sorted exponents."""
        lines = []
        for exps in sorted(self._terms, key=lambda e: (sum(e), e)):
            lines.append("%s : %s" % (",".join(map(str, exps)),
                                      self._terms[exps].as_text()))
        return lines

    def __repr__(self):
        if not self._terms:
            return "TPolynomial(%d, 0)" % self._arity
        return "TPolynomial(%d, {%s})" % (self._arity, "; ".join(self.render_lines()))
