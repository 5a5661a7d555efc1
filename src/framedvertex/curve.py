"""Local series data of the framed mirror curve x = y^f (1 - y).

Near the branch point the curve is a double cover of the x-line.  With
z = 1/t the exponential local coordinate v satisfies

    v^2 = -2 (f/(f+1)) [ f log(1 + z/f) + log(1 - z) ]
        = z^2 (1 + sum_{k>=1} c_k z^k),
    c_k = 2 (f^{k+1} - (-1)^{k+1}) / ((k+2) f^k (f+1)),

so v = z F(z) for the unique square root F with F(0) = 1.  Reverting
gives z = v G(v), the deck transformation is v -> -v, and t = 1/(v G(v))
is the chart every downstream computation works in.

The odd series eta_{-1} = -(1/2)(log(1 + 1/(f t)) - log(1 + 1/(f s(t))))
lives here too, so the eta family and both kernel forms share one copy.

Everything is built once per truncation order and cached process-wide.
The cached object is immutable apart from two caches that only grow: the
powers of t(v), and ``derived``, where other modules keep series they
build from this curve alone (the kernel cross-check forms keep their phi
compositions and their pair- and step-independent factors there), so each
is built once per curve and dropped with it.
"""

from __future__ import annotations

from .ratfunc import FR_ONE, FRational
from .vseries import VSeries, log_unit, revert, sqrt_unit


def square_ratio_coefficient(k):
    """Coefficient c_k of z^k in (v/z)^2; c_0 = 1."""
    if k == 0:
        return FR_ONE
    # 2 (f^{k+1} - (-1)^{k+1}) / ((k+2) f^k (f+1))
    num = [0] * (k + 2)
    num[k + 1] = 2
    num[0] = 2 if k % 2 == 0 else -2
    den = [0] * (k + 2)
    den[k] = k + 2
    den[k + 1] = k + 2
    return FRational.poly(num) / FRational.poly(den)


class CurveSeries:
    """Series tower for one truncation order, shared read-only."""

    __slots__ = ("trunc", "F_of_z", "z_of_v", "t_of_v", "s_t_of_v",
                 "zbar_of_v", "dt_dv", "sprime", "eta_minus_one", "_t_pows",
                 "_derived")

    def __init__(self, trunc):
        if trunc < 4:
            raise ValueError("curve series need truncation order >= 4")
        self.trunc = trunc
        ratio = VSeries(0, [square_ratio_coefficient(k) for k in range(trunc + 1)],
                        trunc)
        self.F_of_z = sqrt_unit(ratio)
        v_of_z = self.F_of_z.shift(1)           # v = z F(z)
        self.z_of_v = revert(v_of_z)            # z = v G(v)
        self.t_of_v = self.z_of_v.reciprocal()  # t = 1/(v G(v)), lead -1
        self.s_t_of_v = self.t_of_v.negate_variable()
        self.zbar_of_v = self.z_of_v.negate_variable()
        self.dt_dv = self.t_of_v.derivative()
        self.sprime = self.s_t_of_v.derivative() / self.dt_dv
        one = VSeries.one(trunc)
        inv_f = FR_ONE / FRational.variable()
        log_plus = log_unit(one + self.z_of_v * inv_f)      # log(1 + 1/(f t))
        log_minus = log_unit(one + self.zbar_of_v * inv_f)  # log(1 + 1/(f s(t)))
        self.eta_minus_one = (log_minus - log_plus) \
            * FRational.from_fraction("1/2")
        self._t_pows = {0: VSeries.one(self.t_of_v.trunc + self.trunc),
                        1: self.t_of_v}
        self._derived = {}

    def t_power(self, j):
        """t(v)^j, cached; j >= 0."""
        if j < 0:
            raise ValueError("negative power of t")
        have = max(self._t_pows)
        while have < j:
            self._t_pows[have + 1] = self._t_pows[have] * self.t_of_v
            have += 1
        return self._t_pows[j]

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
