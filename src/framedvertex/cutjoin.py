"""Independent verification of the bracket table.

The generating polynomials H of the table must satisfy an exact
differential-recursive identity: applying (d/df + sum_l t_l(t_l-1)/(f+1)
d/dt_l) to H equals the sum of four terms built from lower-complexity
cells (a genus reduction, two kinds of stable splittings, and a
divided-difference term).  Any nonzero residual means either the table
or the term semantics is wrong.

The identity is checked at one coefficient per S_n orbit of monomials,
the non-increasing exponent vectors.  That is the same exact test on
every monomial, because the residual is symmetric in t_0..t_{n-1} whatever
values the table holds: ``assemble_H`` sums every ordering of each sorted
key, so every H is symmetric; the left side treats all slots alike; and
the genus-reduction term sums over every slot, the splitting term over
every joining slot and subset, the divided-difference term over every
pair i < j (its summand is unchanged when i and j swap).  The symmetry
comes from the assembly and from the verifier's own sums, never from the
values under test.  Each term reads its coefficient at a representative:
the left side from H, the genus-reduction term from E_n H(g-1, n+1), the
splitting and divided-difference terms from one product or quotient per
class of the verifier's slot maps, through every map of the class.  The
reads at a representative are gathered (``tpoly.gather``) and summed
with one ``sum_of_products`` by ``tpoly.sum_gathered``.  Each term covers
every representative its full expansion would touch, so a report's
``residual_terms`` counts the nonzero orbit representatives of the
residual (zero exactly when the identity holds).

H is held by orbit: ``assemble_H`` returns it only at the
representatives, and no operand is built at every ordering.  That is
exact whatever the table holds, because H is symmetric by construction
(it sums every ordering at each representative), and E_n leaves slots
0..n-1 alone, so E_n H(g-1, n+1) is symmetric in those slots.  So the
left side reads H at the representative of each key, and ``t1`` reads
E_n H(g-1, n+1) at the representative of a key's first n slots
(``_field_reads``).  An operand with one slot free is built from a slice
(``_slice``), the keys non-increasing on every slot but that one: ``t1``
applies E_n to the slot-n slice of H(g-1, n+1), and ``EH`` applies E_0
to the slot-0 slice of H, so the splitting products and the
divided-difference numerator and quotient are built from that slice.
The slot-0 slice is exact for any EH, symmetric or not, because those
two terms read only keys that come from it (see ``EH``).

This module also carries a pure rational oracle for one-point-class
intersection numbers (genus 0 closed form plus the standard Virasoro-type
recursion), used to pin the genus-0 cells and the one-point seed.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from math import comb, factorial

from .curvefun import _E, euler_field
from .engine import _subsets, assemble_H, is_stable
from .errors import OutsideVerifiableSet, UnstableDependency
from .ratfunc import FR_ONE, FRational
from .tpoly import TPolynomial, gather, sum_gathered

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
    """Caches assembled polynomials across cell verifications.

    Each term holds its coefficients at the orbit representatives it
    touches, one gathered sum each (see the module docstring).
    """

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
        """E applied in slot 0 to the slot-0 slice of H.

        The slice (``_slice``) is the keys whose slots 1..n-1 are
        non-increasing, listed from the representatives H holds; E in slot
        0 keeps slots 1..n-1, so this is that slice of the full E_0 H.
        It holds every key ``t2_t3`` and ``t4`` read, whatever EH holds:
        - ``t4`` reads its quotient at (e_i, e_j, rest in slot order), so
          at keys whose slots 2.. are non-increasing; the factor and the
          division by t_0 - t_1 touch slots 0 and 1 alone, so those keys
          come only from keys of EH whose slots 1.. are non-increasing;
        - ``t2_t3`` reads its class product through (m,) + subset + comp,
          both increasing, so at keys that are non-increasing on the
          slots of each factor but the joining one; the product adds
          slot 0 only, so it reads each factor only in the slice.
        """
        got = self._eh.get((g, n))
        if got is None:
            got = self._eh[(g, n)] = euler_field(_slice(self.H(g, n), 0), 0)
        return got

    def lhs(self, g, n):
        """(d/df + sum_l t_l(t_l-1)/(f+1) d/dt_l) H.

        At e it reads H at e and at each e - 1_l, each at its
        representative.  H is symmetric and held at its representatives, so
        those touched are its keys and the representatives one step above.
        """
        h = dict(self.H(g, n).terms())
        reps = set(h)
        for r in h:
            reps.update(_rep(_bump(r, l, 1)) for l in range(n))
        reads = {}
        for e in reps:
            c = h.get(e)
            if c is not None:
                gather(reads, e, c.derivative(), FR_ONE)
            for slot in range(n):
                _field_reads(h, e, slot, _V, reads, e)
        return TPolynomial._raw(n, sum_gathered(reads))

    def t1(self, g, n):
        """-1/2 sum over the slots l of E_l E_n H(g-1, n+1) with t_n set to t_l.

        The coefficient at e sums the (E_l G)(e with e_l split as p + q, the
        q on t_n) over l and p, with G = E_n H(g-1, n+1).  G is symmetric in
        t_0..t_{n-1}, so it is built only at the keys non-increasing there,
        by E_n on the slot-n slice of H(g-1, n+1), and each read is taken
        at the representative of its first n slots.  Those keys reach every
        orbit: E_l moves a key by 0, 1 or 2 in slot l.
        """
        if g == 0:
            return TPolynomial.zero(n)
        if not is_stable(g - 1, n + 1):
            raise UnstableDependency("term needs the unstable cell (%d, %d)"
                                     % (g - 1, n + 1))
        inner = dict(euler_field(_slice(self.H(g - 1, n + 1), n), n).terms())
        reps = set()
        for k in inner:
            for l in range(n):
                merged = _bump(k[:n], l, k[n])
                reps.update(_rep(_bump(merged, l, j)) for j in range(3))
        reads = {}
        for e in reps:
            for l, x in enumerate(e):
                for p in range(x + 1):
                    _field_reads(inner, e[:l] + (p,) + e[l + 1:] + (x - p,),
                                 l, _E, reads, e)
        return TPolynomial._raw(n, sum_gathered(reads)) * (-_HALF)

    def t2_t3(self, g, n):
        """-1/2 over the joining slot m and ordered stable splits.

        The (m, subset, a) term is EH(a, 1+s) on t_m + subset times
        EH(g-a, n-s) on t_m + comp, s = len(subset): both factors carry
        the joining variable, like the diagonal slot in t1 and the slot
        pairs in t4.  For g1 != g2 the two orders combine to the familiar
        unordered terms.  ``_subsets`` lists subset and comp in increasing
        order, so the term is the image of the class product (first
        factor on slots 0..s, second on 0 and s+1..n-1) under the slot map
        (m,) + subset + comp: one product per class (s, a), read at each
        representative through every map of its class.
        """
        maps = {}
        for m in range(n):
            others = tuple(k for k in range(n) if k != m)
            for subset in _subsets(others):
                comp = tuple(k for k in others if k not in subset)
                maps.setdefault(len(subset), []).append((m,) + subset + comp)
        reads = {}
        for s, slot_maps in maps.items():
            second = tuple(range(1 + s, n))
            for a in range(0, g + 1):
                if not (is_stable(a, 1 + s) and is_stable(g - a, n - s)):
                    continue
                product = self.EH(a, 1 + s).embed(n, range(1 + s)) \
                    * self.EH(g - a, n - s).embed(n, (0,) + second)
                _image_reads(dict(product.terms()), slot_maps, reads)
        return TPolynomial._raw(n, sum_gathered(reads)) * (-_HALF)

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
        reads = {}
        _image_reads(dict(numer.exact_divide_difference(0, 1).terms()), [
            (i, j) + tuple(k for k in range(n) if k != i and k != j)
            for i in range(n) for j in range(i + 1, n)], reads)
        return TPolynomial._raw(n, sum_gathered(reads)) * _INV_F1

    def verify(self, g, n):
        if 2 * g - 2 + n < 2:
            raise OutsideVerifiableSet(
                "cell (%d, %d) references unstable data; nothing to check"
                % (g, n))
        rhs = self.t1(g, n) + self.t2_t3(g, n) + self.t4(g, n)
        return CutJoinReport(g, n, self.lhs(g, n), rhs)


# ---------------------------------------------------------------------------
# reading a term at orbit representatives
# ---------------------------------------------------------------------------

# the left side's field t(t-1)/(f+1) d/dt, as {power of t: coefficient},
# like curvefun's E
_V = {1: -_INV_F1, 2: _INV_F1}


def _rep(key):
    """The representative of the S_n orbit of an exponent vector."""
    return tuple(sorted(key, reverse=True))


def _slice(p, slot):
    """The keys of the orbit-held ``p`` that are non-increasing on every
    slot but ``slot``, each with the coefficient of its representative.

    A representative r gives one such key per distinct value x in r: x on
    ``slot``, the other entries of r in order on the other slots.
    """
    terms = {}
    for r, c in p.terms():
        for i, x in enumerate(r):
            if i == 0 or r[i - 1] != x:
                rest = r[:i] + r[i + 1:]
                terms[rest[:slot] + (x,) + rest[slot:]] = c
    return TPolynomial._raw(p.arity, terms)


def _bump(key, slot, by):
    return key[:slot] + (key[slot] + by,) + key[slot + 1:]


def _field_reads(terms, key, slot, field, reads, e):
    """Gather at ``e`` the products whose sum is the coefficient at ``key``
    of c(t) d/dt_slot applied to the polynomial with ``terms``: each
    c_i t^i d/dt reads the key i - 1 lower in ``slot``.

    The polynomial is symmetric in its first len(e) slots and ``terms``
    holds it where those are non-increasing, so a key is read at its
    representative there."""
    n = len(e)
    x = key[slot]
    for i, c in field.items():
        m = x - i + 1
        if m > 0:
            k = _bump(key, slot, 1 - i)
            v = terms.get(_rep(k[:n]) + k[n:])
            if v is not None:
                gather(reads, e, v, c * m)


def _image_reads(terms, slot_maps, reads):
    """Add the reads of the sum of the images of ``terms`` under the slot
    maps at every representative those images touch.

    The image under m puts variable k on slot m[k], so its coefficient at
    e is ``terms[e o m]``; an image only permutes a key, so the
    representatives of the keys of ``terms`` are all it touches.  Which
    maps read the same key depends only on which entries of e are equal,
    so the maps are counted once per equality pattern p of e (p[i] the
    first slot holding e[i]), as the slot tuples p o m that e then reads.
    """
    counted = {}
    for e in {_rep(k) for k in terms}:
        pattern = tuple(e.index(x) for x in e)
        if pattern not in counted:
            counted[pattern] = [
                (idx, FRational.from_int(count)) for idx, count in
                Counter(tuple(pattern[i] for i in m)
                        for m in slot_maps).items()]
        for idx, count in counted[pattern]:
            v = terms.get(tuple(e[i] for i in idx))
            if v is not None:
                gather(reads, e, v, count)
