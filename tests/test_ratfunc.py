import json
import random
from fractions import Fraction
from math import gcd

import pytest

from framedvertex import ratfunc
from framedvertex.engine import run_to_budget
from framedvertex.errors import DivisionByZero, PoleAtFraming
from framedvertex.ratfunc import (FPolynomial, FRational, FR_ONE, FR_ZERO,
                                  _pmul, _pscale, _reduce, sum_of_products)

from conftest import fold, localised

F = FRational.variable()
ONE = FR_ONE


def fr(num, den=(1,)):
    return FRational.poly(num) / FRational.poly(den)


def test_plain_rational_arithmetic():
    a = FRational.from_fraction(Fraction(1, 2))
    b = FRational.from_fraction(Fraction(1, 3))
    assert a + b == FRational.from_fraction(Fraction(5, 6))


def test_gcd_cancellation():
    # (f^2 - 1) / (f + 1) -> f - 1
    r = fr([-1, 0, 1], [1, 1])
    assert r == fr([-1, 1])
    assert r.den.coefficients == (1,)
    # a numerator prime to f(f+1) stays as it is
    r = fr([1, 0, 1], [0, 1, 1])
    assert r.num.coefficients == (1, 0, 1)
    assert r.den.coefficients == (0, 1, 1)
    assert r.as_text() == "(f^2+1)/(f^2+f)"
    assert FRational.from_text(r.as_text()) == r
    # a denominator factor prime to f(f+1), common or not, is refused
    for num, den in (([1, 0, 1], [1, 1, 1]), ([-2, 1, -2, 1], [3, 1, 3, 1])):
        with pytest.raises(ValueError, match=r"prime to f\(f\+1\)"):
            fr(num, den)
        with pytest.raises(ValueError, match=r"prime to f\(f\+1\)"):
            FRational.from_text("(%s)/(%s)" % (FRational.poly(num),
                                               FRational.poly(den)))


def expand(*factors):
    """Ascending int coefficients of a product of int polynomials."""
    out = (1,)
    for p in factors:
        out = _pmul(out, tuple(p))
    return list(out)


FP = (0, 1)   # f
FP1 = (1, 1)  # f + 1


@pytest.mark.parametrize("num, den, want_num, want_den", [
    # (f+1)(f+2) / (f+1)^3 -> (f+2)/(f+1)^2: part of the (f+1)^k cancels
    (expand(FP1, (2, 1)), expand(FP1, FP1, FP1), [2, 1], expand(FP1, FP1)),
    # f^3 (f+2) / (f^2 (f+1)) -> f(f+2)/(f+1)
    (expand(FP, FP, FP, (2, 1)), expand(FP, FP, FP1),
     expand(FP, (2, 1)), [1, 1]),
    # f^2 / (f^3 (f+1)) -> 1/(f^2+f)
    (expand(FP, FP), expand(FP, FP, FP, FP1), [1], [0, 1, 1]),
    # (f+1)^2 (f-3) / f^2: no f+1 below, nothing cancels
    (expand(FP1, FP1, (-3, 1)), expand(FP, FP),
     expand(FP1, FP1, (-3, 1)), [0, 0, 1]),
    # a denominator factor prime to f(f+1) is refused, whether the
    # numerator shares it, as f (f+1)^2 (f^2+1) / ((f+1)(f^2+1)(f-2)) ...
    (expand(FP, FP1, FP1, (1, 0, 1)), expand(FP1, (1, 0, 1), (-2, 1)),
     None, None),
    # ... or not, as (f+1)(f^2+1) / ((f+1)^2 (f^2+f+1))
    (expand(FP1, (1, 0, 1)), expand(FP1, FP1, (1, 1, 1)), None, None),
], ids=["part-of-f1-power", "f-powers-both-sides", "f-power-left-below",
        "f1-only-above", "common-rest", "coprime-rest"])
def test_cancel_branches(num, den, want_num, want_den):
    if want_num is None:
        with pytest.raises(ValueError, match=r"prime to f\(f\+1\)"):
            fr(num, den)
        with pytest.raises(ValueError, match=r"prime to f\(f\+1\)"):
            FRational.from_text("(%s)/(%s)" % (FRational.poly(num),
                                               FRational.poly(den)))
        return
    r = fr(num, den)
    assert r.num.coefficients == tuple(want_num)
    assert r.den.coefficients == tuple(want_den)
    assert FRational.from_text(r.as_text()) == r


def stored(r):
    return r._np, r._nd, r._j, r._k


def assert_canonical(r):
    """Every invariant of the stored form (np, nd, j, k)."""
    np, nd, j, k = stored(r)
    if not np:
        assert (nd, j, k) == (1, 0, 0)
        return
    assert isinstance(np, tuple) and np[-1] != 0
    assert nd > 0 and gcd(nd, *np) == 1
    assert j >= 0 and k >= 0
    # np is prime to the denominator f^j (f+1)^k
    if j:
        assert np[0] != 0
    if k:
        assert sum(np[::2]) - sum(np[1::2]) != 0


def test_normalization_is_reduced_and_keeps_the_value():
    # random quotients of c f^a (f+1)^b cofactor by c f^a (f+1)^b, with a
    # shared factor f^a (f+1)^b half of the time; the check reads only the
    # stored form and _pmul
    rng = random.Random(5)

    def unit():
        return expand(*[FP] * rng.randint(0, 3) + [FP1] * rng.randint(0, 3),
                      [rng.choice([-3, -1, 1, 2])])

    def factor():
        cof = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        cof[-1] = cof[-1] or 1
        return expand(unit(), cof)

    for _ in range(300):
        num, den = factor(), unit()
        if rng.random() < 0.5:
            common = unit()
            num, den = expand(num, common), expand(den, common)
        r = fr(num, den)
        assert_canonical(r)
        assert FRational.from_text(r.as_text()) == r
        np, nd, dp = r._np, r._nd, r._dp
        # num/den == np / (nd dp), with dp = f^j (f+1)^k monic
        assert dp[-1] == 1
        assert (_pmul(tuple(num), _pscale(dp, nd))
                == _pmul(tuple(den), np)), (num, den)


def dot(pairs):
    return sum_of_products([a for a, _ in pairs], [b for _, b in pairs])


# scalar denominators whose lcm is wide: coprime, up to 31 bits
WIDE_SCALARS = (1, 7, 9, 11, 13, 25, 64, 1009, 65537, 2 ** 31 - 1)


def test_sum_of_products_is_the_fold(packed_sums):
    rng = random.Random(11)
    a, b, c = (localised(rng) for _ in range(3))
    cases = {
        "empty": [],
        "total-cancellation": [(a, b), (-a, b), (c, a), (a, -c)],
        "zeros": [(FR_ZERO, a), (b, FR_ZERO)],
        "one-product": [(a, b)],
        "mixed-exponents": [(F, fr([1], [0, 0, 0, 1])), (a, fr([1], [1, 1])),
                            (fr([1], [1, 2, 1]), b), (ONE, c)],
        "mixed-scalars": [(fr([1], [2]), a), (fr([1], [3]), b),
                          (fr([5, 1], [7]), c)],
    }
    for name, pairs in cases.items():
        got = dot(pairs)
        assert stored(got) == stored(fold(pairs)), name
        assert_canonical(got)
    assert dot(cases["total-cancellation"]).is_zero
    for _ in range(100):
        pairs = [(localised(rng, (1, 2, 9)), localised(rng, (1, 4, 5)))
                 for _ in range(rng.randint(1, 6))]
        assert stored(dot(pairs)) == stored(fold(pairs))
    assert packed_sums == []
    # sums of 7 products stay on the direct loop, sums of 8 to 20 are
    # packed: 100- to 300-bit coefficients of both signs, 13-term
    # numerators, scalars with a wide lcm, (f+1) exponents 0..4 per factor
    sizes = [7] * 4 + list(range(8, 21)) * 2
    for n in sizes:
        pairs = [(localised(rng, WIDE_SCALARS, 12, bits=300),
                  localised(rng, WIDE_SCALARS, 12, bits=300))
                 for _ in range(n)]
        got = dot(pairs)
        assert stored(got) == stored(fold(pairs)), n
        assert_canonical(got)
    assert packed_sums == [n for n in sizes if n >= 8]
    # a total cancellation across exponent classes: each product comes
    # back negated, its factors moved by a unit c f^i (f+1)^m / d
    pairs = []
    for _ in range(6):
        a, b = (localised(rng, WIDE_SCALARS, 12, bits=300) for _ in "ab")
        u = (FRational.from_fraction(Fraction(rng.choice((-3, 5)),
                                              rng.choice((2, 7))))
             * F ** rng.randint(0, 2) * (F + 1) ** rng.randint(0, 3))
        pairs += [(a, b), (-a * u, b / u)]
    rng.shuffle(pairs)
    assert stored(dot(pairs)) == stored(FR_ZERO) == stored(fold(pairs))
    assert packed_sums[-1] == 12
    # integer weights: zero drops a product, negative and 2^200-sized ones
    # join the product's scalar, on the direct loop and on the packed path
    big, before = 2 ** 200, len(packed_sums)
    for ws in ([0], [0, 0, 0], [3], [0, -big, 0], [2, -2],
               [0, -1, big + 1, 0, -(2 ** 203), 5, 1],
               [0, -1, big, 3, -(2 ** 203), 0, 7, -2, 1, big + 5, -9]):
        triples = [(localised(rng, WIDE_SCALARS, 12, bits=300),
                    localised(rng, WIDE_SCALARS, 12, bits=300), w)
                   for w in ws]
        if ws == [2, -2]:
            triples[1] = triples[0][:2] + (-2,)
        got = sum_of_products(*zip(*triples))
        assert stored(got) == stored(fold(
            [(FRational.from_int(w) * a, b) for a, b, w in triples])), ws
        assert_canonical(got)
    # only the 11 products with 9 live ones are packed
    assert packed_sums[before:] == [9]


@pytest.mark.parametrize("h, K", [(103, 5), (104, 3), (121, 1), (151, 6)])
def test_packed_sum_at_its_bound(packed_sums, h, K):
    # the worst case of the slot-width bound: all-positive maximal
    # numerators c (1 + f + ... + f^14), c = 2^h - 1, fourteen products
    # aligned by (f+1)^K and over the scalar s = 31, one more over
    # 31 (f+1)^K; s, the length 15 and the count 15 each sit one below a
    # power of two.  The middle coefficient then needs every bit of the
    # width but the sign bit, 2h + 13 + K.  The unrounded width is 1
    # above a multiple of 32 (2 for K = 6), so a width K bits short, or
    # but for K = 6 one bit short, rounds down to a slot the total does
    # not fit.
    a = FRational.poly([2 ** h - 1] * 15)
    for sign in (1, -1):
        pairs = [(a, sign * a)] * 14 + [(a / 31, sign * a / (F + 1) ** K)]
        got = dot(pairs)
        assert stored(got) == stored(fold(pairs))
        assert_canonical(got)
        assert max(map(abs, got._np)).bit_length() == 2 * h + 13 + K
    assert packed_sums == [15, 15]


@pytest.mark.parametrize("B", [32, 64, 96, 160])
def test_pack_unpack_round_trip(B):
    # balanced digits read back every trimmed polynomial whose
    # coefficients lie in [-2^(B-1), 2^(B-1)), the ends included
    rng = random.Random(B)
    lo, hi = -2 ** (B - 1), 2 ** (B - 1) - 1
    cases = [(lo,), (hi,), (-1,), (lo, hi), (hi, lo), (hi, 0, 0, lo),
             (0, 0, -5), (1, 0, 0, -1), (lo, 0, 0, 0, hi)]
    for _ in range(200):
        p = [rng.choice((lo, hi, 0, rng.randint(lo, hi), rng.randint(-3, 3)))
             for _ in range(rng.randint(1, 13))]
        p[-1] = p[-1] or rng.choice((lo, -1))
        cases.append(tuple(p))
    for p in cases:
        n = ratfunc._pack(p, B)
        assert n == ratfunc._peval_int(p, 2 ** B)
        assert ratfunc._unpack(n, B) == p
    assert ratfunc._unpack(0, B) == ()


@pytest.mark.parametrize("j", [0, 1, 3])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_derivative_closed_form_is_the_quotient_rule(j, k):
    rng = random.Random(10 * j + k)
    den = expand([rng.choice([1, 2, 6])], *[FP] * j + [FP1] * k)
    dd = [i * x for i, x in enumerate(den)][1:]
    for _ in range(20):
        num = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        dn = [i * x for i, x in enumerate(num)][1:]
        # (N' D - N D') / D^2, unreduced
        top = [0] * (len(num) + len(den))
        for i, x in enumerate(_pmul(tuple(dn), tuple(den))):
            top[i] += x
        for i, x in enumerate(_pmul(tuple(num), tuple(dd))):
            top[i] -= x
        got = fr(num, den).derivative()
        assert got == fr(top, expand(den, den)), (num, den)
        assert_canonical(got)


def test_localised_arithmetic_never_splits_a_denominator(monkeypatch):
    # only division splits a polynomial, the divisor's numerator
    rng = random.Random(3)
    values = [localised(rng) for _ in range(30)]

    def refuse(*args):
        raise AssertionError("denominator split outside a division")

    monkeypatch.setattr(ratfunc, "_split", refuse)
    for a, b in zip(values, values[1:]):
        for r in (a + b, a - b, a * b, a ** 3, a.derivative(),
                  sum_of_products([a, b, a], [b, b, F])):
            assert_canonical(r)


def test_multiplicative_inverse():
    r = fr([1], [1, 1])  # 1/(f+1)
    assert r * fr([1, 1]) == ONE
    assert (ONE / r) == fr([1, 1])
    # a divisor's denominator f^j (f+1)^k moves up into the numerator
    assert ONE / fr([1], [0, 0, 1]) == fr([0, 0, 1])
    assert fr([1], [0, 1, 1]) / fr([3], [0, 0, 1, 1]) == fr([0, 1], [3])
    assert fr([3], [1, 2, 1]) / fr([1], [0, 1]) == fr([0, 3], [1, 2, 1])


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        ONE / FR_ZERO
    with pytest.raises(DivisionByZero):
        FRational.from_text("1/0")


def test_no_constructor_route():
    # values come only from the named constructors and arithmetic, so none
    # is ever half-initialised or off its canonical form
    for cls, args in ((FRational, ()), (FRational, (1, 2)),
                      (FPolynomial, ([1, 2],))):
        with pytest.raises(TypeError):
            cls(*args)
    with pytest.raises(TypeError):
        FRational.poly([Fraction(1, 2)])


def test_monic_denominator_and_structural_equality():
    # 2f / (2f + 2) must normalize to f/(f+1)
    r = fr([0, 2], [2, 2])
    assert r == fr([0, 1], [1, 1])
    assert r.den.coefficients[-1] == 1
    assert str(r) == "f/(f+1)"


def test_normalization_idempotence():
    # the stored form reads back as np / (nd f^j (f+1)^k)
    for r in (fr([0, 2, 4], [0, 6, 6]), fr([3, 1], [0, 0, 2, 2]), F, FR_ZERO):
        assert stored(_reduce(*stored(r))) == stored(r)


def test_derivative_simple():
    assert F.derivative() == ONE
    # d/df 1/(f+1) = -1/(f+1)^2
    r = fr([1], [1, 1]).derivative()
    assert r == fr([-1], [1, 2, 1])


def test_derivative_quotient_rule_value():
    # d/df f^2/(f+1) = (f^2 + 2f)/(f+1)^2, expanded by hand
    r = fr([0, 0, 1], [1, 1]).derivative()
    assert r == fr([0, 2, 1], [1, 2, 1])


def test_derivation_property(rng):
    for _ in range(25):
        a = localised(rng)
        b = localised(rng)
        assert (a * b).derivative() == a * b.derivative() + b * a.derivative()


def test_evaluate():
    r = fr([0, 0, 1], [1, 1])  # f^2/(f+1)
    assert r.evaluate(2) == Fraction(4, 3)
    assert fr([1, 1, 1], [24]).evaluate(1) == Fraction(1, 8)


def test_evaluate_at_pole_raises():
    r = fr([1], [1, 1])
    with pytest.raises(PoleAtFraming):
        r.evaluate(-1)


def test_evaluate_is_ring_homomorphism(rng):
    pts = [Fraction(2), Fraction(3), Fraction(1, 2)]
    for _ in range(20):
        a = localised(rng)
        b = localised(rng)
        for x in pts:
            try:
                ax, bx = a.evaluate(x), b.evaluate(x)
            except PoleAtFraming:
                continue
            assert (a + b).evaluate(x) == ax + bx
            assert (a * b).evaluate(x) == ax * bx


def test_field_laws(rng):
    for _ in range(20):
        a = localised(rng, max_deg=8)
        b = localised(rng, max_deg=8)
        c = localised(rng, max_deg=8)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        # the units c f^i (f+1)^m divide; a factor prime to f(f+1) does not
        u = fr(expand([rng.choice([-3, -1, 1, 2])],
                      *[FP] * rng.randint(0, 3) + [FP1] * rng.randint(0, 3)),
               expand([rng.choice([1, 2, 6])],
                      *[FP] * rng.randint(0, 3) + [FP1] * rng.randint(0, 3)))
        assert u * (ONE / u) == ONE
        assert a / u * u == a


def test_text_round_trip():
    samples = [
        ONE,
        fr([1, 1, 1], [24]),
        fr([0, -1, -1], [24]),
        fr([0, 0, 1], [1, 1]),
        fr([0, 0, -1], [2, 6, 6, 2]),
        F,
        FR_ZERO,
    ]
    for r in samples:
        assert FRational.from_text(r.as_text()) == r


def test_text_canonical_examples():
    assert fr([1, 1, 1], [24]).as_text() == "(f^2+f+1)/24"
    assert fr([0, -1, -1], [24]).as_text() == "(-f-f^2)/24" or \
        fr([0, -1, -1], [24]).as_text() == "(-f^2-f)/24"
    assert fr([0, -1, -1], [24]).as_text() == "(-f^2-f)/24"
    assert ONE.as_text() == "1"
    assert F.as_text() == "f"
    assert FR_ZERO.as_text() == "0"


def normalization_values():
    """The 300 random quotients of
    ``test_normalization_is_reduced_and_keeps_the_value``: the same seed
    and the same draws, in the same order."""
    rng = random.Random(5)

    def unit():
        return expand(*[FP] * rng.randint(0, 3) + [FP1] * rng.randint(0, 3),
                      [rng.choice([-3, -1, 1, 2])])

    def factor():
        cof = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        cof[-1] = cof[-1] or 1
        return expand(unit(), cof)

    for _ in range(300):
        num, den = factor(), unit()
        if rng.random() < 0.5:
            common = unit()
            num, den = expand(num, common), expand(den, common)
        yield fr(num, den)


def one_character_edits(text):
    """Every text one deleted, repeated or inserted character from ``text``."""
    edits = set()
    for i in range(len(text)):
        edits.add(text[:i] + text[i + 1:])
        edits.add(text[:i] + text[i] + text[i:])
    for i in range(len(text) + 1):
        edits.update(text[:i] + ch + text[i:] for ch in "+-*^()/ 0f")
    return edits


def test_text_has_one_spelling_per_value():
    # from_text reads only what as_text writes: each one-character edit of
    # a canonical text is refused, or is the canonical text of its value
    texts = set(json.loads(run_to_budget(5).to_json())["entries"].values())
    texts.update(r.as_text() for r in normalization_values())
    for text in texts:
        for edit in one_character_edits(text):
            try:
                value = FRational.from_text(edit)
            except (ValueError, DivisionByZero):
                continue
            assert value.as_text() == edit, (text, edit)


def test_power_and_negative_power():
    r = fr([1, 1])
    assert r ** 3 == fr([1, 3, 3, 1])
    assert r ** -2 == fr([1], [1, 2, 1])


def test_fpolynomial_basics():
    # num/den are the read-only view the tracer reads: degree, coefficients
    r = fr([0, 2, 4], [2, 2])  # (4f^2+2f)/(2f+2) = (2f^2+f)/(f+1)
    assert r.num.degree == 2
    assert r.num.coefficients == (0, 1, 2)
    assert r.den.degree == 1
    assert r.den.coefficients == (1, 1)
    assert str(r.num) == "2*f^2+f"
    assert str(r.den) == "f+1"
    assert r.num == fr([0, 1, 2]).num and r.den == fr([1, 1]).num
    assert r.num != r.den
    half = fr([1, 2], [2])
    assert half.num.coefficients == (Fraction(1, 2), 1)
    assert str(half.num) == "(2*f+1)/2"
    assert FR_ZERO.num.degree == -1
    assert FR_ZERO.num.coefficients == ()
    assert ONE.den.coefficients == (1,) and ONE.num == ONE.den
