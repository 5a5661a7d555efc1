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
values under test.

Every term pushes: it goes once over the terms of its operands and sends
each product to the one representative e it lands on, weighted by the
number of the term's slot maps that read it there, a count of slots of e
holding given values.  ``lhs`` and ``t1`` send a term of H, or of
E_n H(g-1, n+1), through a field in one slot (``_push``); ``t2_t3``
pairs a term of each factor of each unordered split; ``t4`` pairs a slice
term of EH with a term of the two-variable quotient Q_m.  No n-variable
product, numerator or division is built.  Each term applies its scalar
and the side's sign once per call, to a factor it reads many times (the
field of ``lhs`` and ``t1``, the first factor of ``t2_t3``, the EH
coefficient of ``t4``), and the count goes with each read as its integer
weight.  So ``verify`` gathers all four terms of a cell in one dict
(``tpoly.gather``), and one ``tpoly.sum_gathered`` gives the residual,
one ``sum_of_products`` per representative.  Each term covers every
representative its full expansion would touch, so ``residual_terms``
counts the nonzero orbit representatives of the residual (zero exactly
when the identity holds).

H is held by orbit (``assemble_H``), and no operand is built at every
ordering.  That is exact whatever the table holds: H is symmetric by
construction, and E_n leaves slots 0..n-1 alone, so E_n H(g-1, n+1) is
symmetric in those slots; a term of either is read through every
ordering of its key, so it is sent from its representative.  The one
operand with a slot free, ``EH``, applies E_0 to the slot-0 slice of H
(``_slice``), the keys non-increasing on every slot but slot 0.  It
serves all three terms on the right: ``t1`` reads EH(g-1, n+1) with slot
0 moved to the end, which is E_n on the slot-n slice, as H is symmetric;
the splitting and divided-difference terms read only slice keys of EH,
and ``_by_rest`` keeps only those, so the slice is exact for any EH,
symmetric or not (see ``EH``).

This module also carries a pure rational oracle for one-point-class
intersection numbers (genus 0 closed form plus the standard Virasoro-type
recursion), used to pin the genus-0 cells and the one-point seed.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

from .curvefun import _E, euler_field
from .engine import assemble_H, is_stable
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
    __slots__ = ("g", "n", "residual")

    def __init__(self, g, n, residual):
        self.g = g
        self.n = n
        self.residual = residual

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
    """Caches assembled polynomials across cell verifications.  Each term
    method gathers its reads into ``reads``, each weight times ``sign``,
    and ``verify`` sums a cell's four terms in one gather."""

    def __init__(self, table, tower):
        self.table = table
        self.tower = tower
        self._h = {}
        self._eh = {}

    def H(self, g, n):
        got = self._h.get((g, n))
        if got is None:
            got = self._h[(g, n)] = assemble_H(g, n, self.table, self.tower)
        return got

    def EH(self, g, n):
        """E applied in slot 0 to the slot-0 slice of H.

        The slice (``_slice``) is the keys whose slots 1..n-1 are
        non-increasing, listed from the representatives H holds; E in slot
        0 keeps slots 1..n-1, so this is that slice of the full E_0 H.
        ``t1`` reads all of it, slot 0 moved last (see ``t1``).  It holds
        every key ``t2_t3`` and ``t4`` read, whatever EH holds.
        At a representative e a slot map reads EH at the joining slot or
        slot i, then the other slots it places, in increasing slot order:
        - ``t2_t3`` reads each factor at (p, e[subset]) or (q, e[comp]),
          subset and comp increasing;
        - ``t4`` reads EH(g, n-1) at (m, e[rest]), rest the slots other
          than i and j in order; the factor t_i(f t_i+1)(t_j-1) and the
          division by t_i - t_j touch slots i and j alone.
        e is non-increasing, so every read key is non-increasing from slot
        1 on: a slice key.  ``_by_rest`` lists only those, so a term put
        together from any other key of EH would be a read the full term
        never makes.
        """
        got = self._eh.get((g, n))
        if got is None:
            got = self._eh[(g, n)] = euler_field(_slice(self.H(g, n)), 0)
        return got

    def lhs(self, g, n, reads, sign=1):
        """(d/df + sum_l t_l(t_l-1)/(f+1) d/dt_l) H.

        Each term (r, c) of H gives its d/df read at r and is pushed
        through the field in one slot (``_push``): H is symmetric, so
        every slot of e that holds the moved value reads the term.
        """
        field = {i: ci * sign for i, ci in _V.items()}
        for r, c in self.H(g, n).terms():
            gather(reads, r, c.derivative(), FR_ONE, sign)
            _push(reads, r, 0, c, field)

    def t1(self, g, n, reads, sign=1):
        """-1/2 sum over the slots l of E_l E_n H(g-1, n+1) with t_n set to t_l.

        G = E_n H(g-1, n+1) is symmetric in t_0..t_{n-1}, so it is read
        only at the keys non-increasing there.  H(g-1, n+1) is symmetric,
        so those are the keys of EH(g-1, n+1) with slot 0 moved to the
        end: a term (k, c) of EH is the term t^r t_n^y of G, r = k[1:] and
        y = k[0], and is pushed (``_push``) from r: E_l moves the x on
        slot l to x + i - 1, and setting t_n to t_l adds y there.
        """
        if g == 0:
            return
        if not is_stable(g - 1, n + 1):
            raise UnstableDependency("term needs the unstable cell (%d, %d)"
                                     % (g - 1, n + 1))
        scale = -_HALF * sign
        field = {i: ci * scale for i, ci in _E.items()}
        for k, c in self.EH(g - 1, n + 1).terms():
            _push(reads, k[1:], k[0], c, field)

    def t2_t3(self, g, n, reads, sign=1):
        """-1/2 over the joining slot m and ordered stable splits.

        The (m, subset, a) term is EH(a, 1+s) on t_m + subset times
        EH(g-a, n-s) on t_m + comp, s = len(subset), subset and comp the
        other slots in increasing order: both factors carry the joining
        variable, like the diagonal slot in t1 and the slot pairs in t4.
        At a representative e it reads EH(a, 1+s) at (p, e[subset]) and
        EH(g-a, n-s) at (q, e[comp]) with p + q = e_m.  So a pair of slice
        terms (p, u), (q, w) is read at e = rep((p+q,) + u + w) once per
        slot map that puts p+q on the joining slot and the multiset u on
        the subset (the complement then holds w, in order, as e is
        non-increasing): mult_e(p+q) joining slots, times the subsets of
        the other slots, rest = rep(u + w), holding u, prod_v
        C(mult_rest(v), mult_u(v)) (``_choices``); each map adds its own
        copy of the product.  The mirror class (n-1-s, g-a) reads the same
        pairs, swapped, at the same e with the same weight, as
        C(m, k) = C(m, m-k), whatever EH holds: so each unordered split is
        summed once, with weight 2 unless it is its own mirror.
        """
        scale = -_HALF * sign
        for s, a in product(range(n), range(g + 1)):
            mirror = (n - 1 - s, g - a)
            if mirror < (s, a) or not (is_stable(a, 1 + s)
                                       and is_stable(g - a, n - s)):
                continue
            copies = 1 if mirror == (s, a) else 2
            first = [(u, [(p, c * scale) for p, c in ps]) for u, ps
                     in _by_rest(self.EH(a, 1 + s)).items()]
            second = _by_rest(self.EH(g - a, n - s)).items()
            for (u, ps), (w, qs) in product(first, second):
                rest = _rep(u + w)
                maps = copies * _choices(rest, u)
                for (p, c1), (q, c2) in product(ps, qs):
                    e = _rep((p + q,) + rest)
                    gather(reads, e, c1, c2, e.count(p + q) * maps)

    def t4(self, g, n, reads, sign=1):
        """Divided differences over the slot pairs i < j, times 1/(f+1).

        The (i, j) term embeds EH(g, n-1) along (i,) + rest and (j,) + rest,
        rest the other slots in order, multiplies by t_i(f t_i+1)(t_j-1)
        and t_j(f t_j+1)(t_i-1), subtracts and divides by t_i - t_j.  A
        slice term c t_0^m t^r of EH(g, n-1) so gives c Q_m(t_i, t_j) t^r
        on the rest, with Q_m = (A_m(t0, t1) - A_m(t1, t0)) / (t0 - t1) and
        A_m = t0^(m+1)(f t0+1)(t1-1) (``_quotient``).  Q_m is exact: its
        numerator is antisymmetric, so it vanishes on t0 = t1, and
        ``exact_divide_difference`` would refuse a remainder.  Q_m is
        symmetric (both numerator and divisor change sign under the swap),
        so the pair (i, j) reads the same coefficient at (e_i, e_j) and
        (e_j, e_i), and only its terms t0^a t1^b with a >= b are listed.
        Each is read at e = rep((a, b) + r) once per slot pair holding the
        values {a, b}: C(mult_e(a), 2) pairs when a = b, mult_e(a)
        mult_e(b) otherwise (``_choices``).
        """
        if n < 2:
            return
        if not is_stable(g, n - 1):
            raise UnstableDependency("term needs the unstable cell (%d, %d)"
                                     % (g, n - 1))
        scale = _INV_F1 * sign
        for r, ms in _by_rest(self.EH(g, n - 1)).items():
            for m, c in ms:
                c = c * scale
                for (a, b), qc in _quotient(m):
                    e = _rep((a, b) + r)
                    gather(reads, e, c, qc, _choices(e, (a, b)))

    def verify(self, g, n):
        """The residual lhs - (t1 + t2_t3 + t4) of the cell: the four
        terms gathered into one dict, the right side's with sign -1, and
        reduced once per representative."""
        if 2 * g - 2 + n < 2:
            raise OutsideVerifiableSet(
                "cell (%d, %d) references unstable data; nothing to check"
                % (g, n))
        reads = {}
        self.lhs(g, n, reads)
        for term in (self.t1, self.t2_t3, self.t4):
            term(g, n, reads, -1)
        return CutJoinReport(g, n, TPolynomial._raw(n, sum_gathered(reads)))


# ---------------------------------------------------------------------------
# pushing a term to orbit representatives
# ---------------------------------------------------------------------------

# the left side's field t(t-1)/(f+1) d/dt, as {power of t: coefficient},
# like curvefun's E
_V = {1: -_INV_F1, 2: _INV_F1}


def _rep(key):
    """The representative of the S_n orbit of an exponent vector."""
    return tuple(sorted(key, reverse=True))


def _slice(p):
    """The keys of the orbit-held ``p`` that are non-increasing on every
    slot but slot 0, each with the coefficient of its representative.

    A representative r gives one such key per distinct value x in r: x on
    slot 0, the other entries of r in order on the other slots.
    """
    terms = {}
    for r, c in p.terms():
        for i, x in enumerate(r):
            if i == 0 or r[i - 1] != x:
                terms[(x,) + r[:i] + r[i + 1:]] = c
    return TPolynomial._raw(p.arity, terms)


def _push(reads, r, y, c, field):
    """Gather the reads of the term c t^r, r non-increasing, under the
    ``field`` sum_i c_i t^i d/dt in one slot, then ``y`` added to that
    slot: each distinct nonzero x of r, moved to v = x + i - 1 + y, lands
    at e = rep(r with one x set to v), read through each slot of e that
    holds v, so as c c_i with the integer weight x mult_e(v)."""
    for k, x in enumerate(r):
        if not x:
            break
        if k and r[k - 1] == x:
            continue
        for i, ci in field.items():
            v = x + i - 1 + y
            e = _rep(r[:k] + (v,) + r[k + 1:])
            gather(reads, e, c, ci, x * e.count(v))


def _by_rest(p):
    """The slice terms of ``p`` (slots 1.. non-increasing) as
    {slots 1..: [(slot 0, coefficient)]}: the keys ``t2_t3`` and ``t4``
    read, whatever else ``p`` holds."""
    out = {}
    for k, c in p.terms():
        if all(x >= y for x, y in zip(k[1:], k[2:])):
            out.setdefault(k[1:], []).append((k[0], c))
    return out


def _choices(e, u):
    """The number of sets of slots of ``e`` that hold the multiset ``u``:
    prod over the values v of u of C(mult_e(v), mult_u(v))."""
    return prod(comb(e.count(v), u.count(v)) for v in set(u))


@functools.lru_cache(maxsize=None)
def _quotient(m):
    """The terms t0^a t1^b with a >= b of the symmetric
    (A(t0, t1) - A(t1, t0)) / (t0 - t1), A = t0^(m+1)(f t0+1)(t1-1).

    Built once per m; m is at most the largest support bound checked."""
    t0, t1 = TPolynomial.variable(2, 0), TPolynomial.variable(2, 1)
    a = t0 ** (m + 1) * (_F * t0 + 1) * (t1 - 1)
    q = (a - a.embed(2, (1, 0))).exact_divide_difference(0, 1)
    return tuple((k, c) for k, c in q.terms() if k[0] >= k[1])
