"""Local series data of the framed mirror curve x = y^f (1 - y).

Near the branch point the curve is a double cover of the x-line.  With
z = 1/t the exponential local coordinate v satisfies

    v^2 = -2 (f/(f+1)) [ f log(1 + z/f) + log(1 - z) ]
        = z^2 (1 + sum_{k>=1} c_k z^k),
    c_k = 2 (f^{k+1} - (-1)^{k+1}) / ((k+2) f^k (f+1)),

so z = v G(v) is the inverse of v = z sqrt(1 + sum c_k z^k), the deck
transformation is v -> -v, and t = 1/(v G(v)) is the chart every
downstream computation works in.

z(v) is not found by reverting that square root.  Differentiating the
first line in v gives z z' = v (1 + z/f)(1 - z), and with y = z^2 the
coefficients follow from two recurrences,

    (k+1) y_{k+1} = 2 [k = 1] + 2 (1/f - 1) z_{k-1} - (2/f) y_{k-1},
    z_k = (y_{k+1} - sum_{i=2}^{k-1} z_i z_{k+1-i}) / 2,

from z_1 = 1 and y_2 = 1.  They fix every z_k once z_1 = 1 is chosen,
and the inverse of the square root solves the same ODE with z_1 = 1, so
the two agree coefficient by coefficient; the tests pin them equal.

The odd series eta_{-1} = -(1/2)(log(1 + 1/(f t)) - log(1 + 1/(f s(t))))
lives here too, so the eta family and both kernel forms share one copy.
It needs no logarithm: by the ODE z'/(f + z) = v (1 - z)/(f z), that is
d/dv log(1 + 1/(f t)) = v (t - 1)/f, and since s(t(v)) = t(-v) the same
at -v gives d/dv log(1 + 1/(f s)) = v (s - 1)/f, so

    eta_{-1}' = -(1/(2f)) v (t - s),

integrated with zero constant term (eta_{-1} is odd).

Everything is built once per truncation order and cached process-wide.
The cached object is immutable apart from two caches that only grow:
the rows [v^-j] t(v)^k that ``curvefun.plus_part`` solves against, and
``derived``, where other modules keep series they build from this curve
alone (the generator kernels keep their factors there, the cross-check
forms their phi compositions and their pair- and step-independent
factors), so each is built once per curve and dropped with it.
Nothing is built at import.
"""

from __future__ import annotations

from fractions import Fraction

from .ratfunc import FR_ONE, FR_ZERO, FRational, sum_of_products
from .vseries import VSeries


def z_of_v(trunc):
    """z(v) through v^trunc, from the recurrences of the module docstring.

    Each z_k is one reduction of its convolution sum, after the two-term
    sum that gives y_{k+1}; ``low`` holds -z_i/2, so no product is scaled
    inside the convolution.
    """
    f = FRational.variable()
    up_z, up_y = 2 * (1 - f) / f, -2 / f
    half = FRational.from_fraction("1/2")
    z = [FR_ZERO, FR_ONE]
    low = [FR_ZERO, -half]
    y = [FR_ZERO, FR_ZERO, FR_ONE]
    for k in range(2, trunc + 1):
        y.append(sum_of_products((z[k - 1], y[k - 1]), (up_z, up_y))
                 * Fraction(1, k + 1))
        z.append(sum_of_products((y[k + 1], *z[2:k]),
                                 (half, *low[k - 1:1:-1])))
        low.append(-z[k] * half)
    return VSeries(0, z, trunc)


class CurveSeries:
    """Series tower for one truncation order, shared read-only."""

    __slots__ = ("trunc", "z_of_v", "t_of_v", "s_t_of_v", "zbar_of_v",
                 "dt_dv", "sprime", "eta_minus_one", "_t_rows", "_derived")

    def __init__(self, trunc):
        if trunc < 4:
            raise ValueError("curve series need truncation order >= 4")
        self.trunc = trunc
        self.z_of_v = z_of_v(trunc + 1)         # z = v G(v)
        self.t_of_v = self.z_of_v.reciprocal()  # t = 1/(v G(v)), lead -1
        self.s_t_of_v = self.t_of_v.negate_variable()
        self.zbar_of_v = self.z_of_v.negate_variable()
        self.dt_dv = self.t_of_v.derivative()
        self.sprime = self.s_t_of_v.derivative() / self.dt_dv
        self.eta_minus_one = ((self.t_of_v - self.s_t_of_v).shift(1)
                              * (-1 / (2 * FRational.variable()))
                              ).integrate().truncate(trunc)
        self._t_rows = []
        self._derived = {}

    def t_power(self, j):
        """t(v)^j through v^0; j >= 0.

        u = v t(v) has constant term 1 and t^j = v^-j u^j, so only the
        coefficients w_0 .. w_j of u^j are wanted, and they follow from u
        alone by J. C. P. Miller's recurrence for the powers of a series:
        w_0 = 1, m w_m = sum_{i=1}^m (j i - (m - i)) u_i w_{m-i}.  Each w_m
        is one ``sum_of_products``, with the integer weights j i - (m - i);
        no power is built from another, and none past v^0.  A power the
        curve does not know through v^0 (j > trunc) raises
        ``InsufficientTruncation``.
        """
        if j < 0:
            raise ValueError("negative power of t")
        u = [self.t_of_v.coeff(i - 1) for i in range(j + 1)]
        w = [FR_ONE]
        for m in range(1, j + 1):
            weights = [j * i - (m - i) for i in range(1, m + 1)]
            w.append(sum_of_products(u[1:m + 1], w[::-1], weights)
                     * Fraction(1, m))
        return VSeries(-j, w, 0)

    def t_rows(self, top):
        """The rows of [v^-j] t(v)^k, row k listed for j = 0 .. k, at least
        through k = top.

        Built on demand, row k from ``t_power(k)``, and kept.  A row whose
        power is not known through v^0 raises ``InsufficientTruncation``.
        """
        rows = self._t_rows
        for k in range(len(rows), top + 1):
            power = self.t_power(k)
            rows.append(tuple(power.coeff(-j) for j in range(k + 1)))
        return rows

    def derived(self, key, build):
        """``build(self)``, made on the first call for ``key`` and kept."""
        got = self._derived.get(key)
        if got is None:
            got = self._derived[key] = build(self)
        return got


_CACHE = {}


def build_curve_series(trunc):
    """Construct-once, read-many access to the curve series at ``trunc``."""
    data = _CACHE.get(trunc)
    if data is None:
        data = CurveSeries(trunc)
        _CACHE[trunc] = data
    return data
