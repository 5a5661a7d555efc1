"""Independent verification of the bracket table.

The generating polynomials H of the table must satisfy an exact
differential-recursive identity: applying (d/df + sum_l t_l(t_l-1)/(f+1)
d/dt_l) to H equals the sum of four terms built from lower-complexity
cells (a genus reduction, two kinds of stable splittings, and a
divided-difference term).  The identity is checked in the polynomial ring
over Q(f), monomial by monomial; any nonzero residual means either the
table or the term semantics is wrong.

The splitting and divided-difference terms sum one product over many slot
maps.  Each is computed once per orbit of those maps and every other term
is its relabelled image (``TPolynomial.embed_sum``); the relabelling comes
from the verifier's own slot maps, never from a symmetry of the table
under test, so the genus-reduction term and the left side stay per slot.

This module also carries a pure rational oracle for one-point-class
intersection numbers (genus 0 closed form plus the standard Virasoro-type
recursion), used to pin the genus-0 cells and the one-point seed.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial

from .curvefun import euler_field, vector_field
from .engine import _subsets, assemble_H, is_stable
from .errors import OutsideVerifiableSet, UnstableDependency
from .ratfunc import FRational
from .tpoly import TPolynomial

_F = FRational.variable()
_HALF = FRational.from_fraction("1/2")
_INV_F1 = FRational.from_int(1) / (_F + 1)


# ---------------------------------------------------------------------------
# psi-class intersection numbers (no auxiliary classes), used as an oracle
# ---------------------------------------------------------------------------

def _dfact_odd(m):
    """(m)!! for odd m >= -1, with (-1)!! = 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _split_weights(legs):
    """Yield (sub, complement, count) over labeled subsets of a multiset."""
    from collections import Counter
    items = sorted(Counter(legs).items())

    def rec(i, chosen, count):
        if i == len(items):
            sub = []
            rest = []
            for (v, m), c in zip(items, chosen):
                sub.extend([v] * c)
                rest.extend([v] * (m - c))
            yield tuple(sub), tuple(rest), count
            return
        v, m = items[i]
        for c in range(m + 1):
            yield from rec(i + 1, chosen + [c], count * comb(m, c))

    yield from rec(0, [], 1)


@functools.lru_cache(maxsize=None)
def _psi(g, key):
    n = len(key)
    if g == 0:
        return Fraction(factorial(n - 3)) / \
            functools.reduce(lambda a, b: a * factorial(b), key, 1)
    if g == 1 and n == 1:
        return Fraction(1, 24)
    # descend on the largest index
    m = key[-1]
    rest = key[:-1]
    k = m - 1
    total = Fraction(0)
    for j, b in enumerate(rest):
        if j > 0 and rest[j] == rest[j - 1]:
            continue
        mult = rest.count(b)
        coeff = Fraction(_dfact_odd(2 * (k + b) + 1), _dfact_odd(2 * b - 1))
        smaller = rest[:j] + rest[j + 1:]
        total += mult * coeff * psi_oracle(g, smaller + (k + b,))
    for a in range(k):
        b = k - 1 - a
        c_ab = _dfact_odd(2 * a + 1) * _dfact_odd(2 * b + 1)
        acc = psi_oracle(g - 1, rest + (a, b))
        for sub, comp, count in _split_weights(rest):
            for g1 in range(g + 1):
                g2 = g - g1
                if not is_stable(g1, 1 + len(sub)):
                    continue
                if not is_stable(g2, 1 + len(comp)):
                    continue
                acc += count * psi_oracle(g1, sub + (a,)) * \
                    psi_oracle(g2, comp + (b,))
        total += Fraction(c_ab, 2) * acc
    return total / _dfact_odd(2 * k + 3)


def psi_oracle(g, indices):
    """Intersection number of cotangent-class powers, exact.

    Zero off the dimension shell sum(b) = 3g - 3 + n or for unstable (g, n).
    """
    key = tuple(sorted(indices))
    n = len(key)
    if not is_stable(g, n) or any(b < 0 for b in key):
        return Fraction(0)
    if sum(key) != 3 * g - 3 + n:
        return Fraction(0)
    return _psi(g, key)


# ---------------------------------------------------------------------------
# the four right-hand-side terms and the verification driver
# ---------------------------------------------------------------------------

class CutJoinReport:
    __slots__ = ("g", "n", "lhs", "rhs", "residual")

    def __init__(self, g, n, lhs, rhs):
        self.g = g
        self.n = n
        self.lhs = lhs
        self.rhs = rhs
        self.residual = lhs - rhs

    @property
    def passed(self):
        return self.residual.is_zero

    @property
    def residual_terms(self):
        return len(self.residual)

    def to_json_obj(self):
        return {"g": self.g, "n": self.n, "passed": self.passed,
                "residual_terms": self.residual_terms}


class CutJoinVerifier:
    """Caches assembled polynomials across cell verifications."""

    def __init__(self, table, tower):
        self.table = table
        self.tower = tower
        self._h = {}
        self._eh = {}

    def H(self, g, n):
        got = self._h.get((g, n))
        if got is None:
            got = assemble_H(g, n, self.table, self.tower)
            self._h[(g, n)] = got
        return got

    def EH(self, g, n):
        """H with the vector field E applied in slot 0."""
        got = self._eh.get((g, n))
        if got is None:
            got = euler_field(self.H(g, n), 0)
            self._eh[(g, n)] = got
        return got

    def lhs(self, g, n):
        h = self.H(g, n)
        out = h.map_coefficients(lambda c: c.derivative())
        for slot in range(n):
            out = out + vector_field(h, slot)
        return out

    def t1(self, g, n):
        if g == 0:
            return TPolynomial.zero(n)
        if not is_stable(g - 1, n + 1):
            raise UnstableDependency("term needs the unstable cell (%d, %d)"
                                     % (g - 1, n + 1))
        inner = euler_field(self.H(g - 1, n + 1), n)
        total = TPolynomial.zero(n)
        for slot in range(n):
            total = total + euler_field(inner, slot).substitute(n, slot)
        return total * (-_HALF)

    def t2_t3(self, g, n):
        """-1/2 over the joining slot m and ordered stable splits.

        The (m, subset, a) term is EH(a, 1+s) on t_m + subset times
        EH(g-a, n-s) on t_m + comp, s = len(subset): both factors carry
        the joining variable, like the diagonal slot in t1 and the slot
        pairs in t4.  For g1 != g2 the two orders combine to the familiar
        unordered terms.  ``_subsets`` lists subset and comp in increasing
        order, so the term is the image of the class product (first
        factor on slots 0..s, second on 0 and s+1..n-1) under the slot map
        (m,) + subset + comp: one product per class (s, a), and every term
        of the class is a relabelled copy of it.
        """
        maps = {}
        for m in range(n):
            others = tuple(k for k in range(n) if k != m)
            for subset in _subsets(others):
                comp = tuple(k for k in others if k not in subset)
                maps.setdefault(len(subset), []).append((m,) + subset + comp)
        total = TPolynomial.zero(n)
        for s, slot_maps in maps.items():
            second = tuple(range(1 + s, n))
            for a in range(0, g + 1):
                if not (is_stable(a, 1 + s) and is_stable(g - a, n - s)):
                    continue
                product = self.EH(a, 1 + s).embed(n, range(1 + s)) \
                    * self.EH(g - a, n - s).embed(n, (0,) + second)
                total = total + (product * (-_HALF)).embed_sum(n, slot_maps)
        return total

    def t4(self, g, n):
        """Divided differences over the slot pairs i < j.

        The (i, j) term embeds EH(g, n-1) along (i,) + rest and (j,) + rest,
        rest the other slots in order, and divides by t_i - t_j.  That is
        the image of the (0, 1) term under the slot map (i, j) + rest, and
        relabelling commutes with the exact division, so one numerator and
        one division serve all C(n, 2) pairs.
        """
        if n < 2:
            return TPolynomial.zero(n)
        if not is_stable(g, n - 1):
            raise UnstableDependency("term needs the unstable cell (%d, %d)"
                                     % (g, n - 1))
        base = self.EH(g, n - 1)
        rest = tuple(range(2, n))
        p_0 = base.embed(n, (0,) + rest)
        p_1 = base.embed(n, (1,) + rest)
        t0 = TPolynomial.variable(n, 0)
        t1 = TPolynomial.variable(n, 1)
        numer = t0 * (_F * t0 + 1) * (t1 - 1) * p_0 \
            - t1 * (_F * t1 + 1) * (t0 - 1) * p_1
        term = numer.exact_divide_difference(0, 1) * _INV_F1
        return term.embed_sum(n, [
            (i, j) + tuple(k for k in range(n) if k != i and k != j)
            for i in range(n) for j in range(i + 1, n)])

    def verify(self, g, n):
        if 2 * g - 2 + n < 2:
            raise OutsideVerifiableSet(
                "cell (%d, %d) references unstable data; nothing to check"
                % (g, n))
        rhs = self.t1(g, n) + self.t2_t3(g, n) + self.t4(g, n)
        return CutJoinReport(g, n, self.lhs(g, n), rhs)
