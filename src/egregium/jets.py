"""Forward-mode automatic differentiation truncated at order 2.

A 2-jet carries the value of a function of two coordinates together with
its first and second partials at a point, as six slots (v, du, dv, duu,
duv, dvv); the mixed partial occupies a single slot, so symmetry of second
derivatives is structural.  The product and chain rule are module-level
functions over slot tuples (`mul_slots`, `compose_slots`), which the
order-2 expression lowering in `exprlang` calls (its order-1 programs
emit the first three slots of the same rules as source), and `JetSlots`
names the slots of one result.  A function of one variable is a 2-jet
seeded along u alone; one of three variables takes three 2-jets, each
with two coordinates seeded and the third held.

`Jet2_2` is the same algebra as a class with operators, which
`exprlang.evaluate` walks a tree over: the bitwise reference the lowered
programs are checked against.

Jet values are plain floats and every operation is pure, so jets are safe
to share across threads.  `mul_slots` and `compose_slots` also take
float64 arrays, one element per point of a grid, since numpy rounds
`+ - *` as Python does; the tables of f, f', f'' (`FUNCTION_TABLES`,
`recip_table`, `power_table`) stay scalar code, which `tabulate` runs at
each element, so an element carries the bits of a scalar evaluation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DivisionByZero, DomainError

INT_EXP_LIMIT = 64  # larger integer exponents fall through to the pow rule


class JetSlots(NamedTuple):
    """The slots of one 2-jet by name: floats, or float64 arrays with one
    element per point of a grid."""
    v: float
    du: float
    dv: float
    duu: float
    duv: float
    dvv: float


def _as_float(x):
    if isinstance(x, (int, float)):
        return float(x)
    return None


class Jet2_2:
    """Bivariate 2-jet with operators; one slot for the mixed partial."""

    __slots__ = ("v", "du", "dv", "duu", "duv", "dvv")

    def __init__(self, v, du=0.0, dv=0.0, duu=0.0, duv=0.0, dvv=0.0):
        self.v = float(v)
        self.du = float(du)
        self.dv = float(dv)
        self.duu = float(duu)
        self.duv = float(duv)
        self.dvv = float(dvv)

    @classmethod
    def variable_u(cls, value):
        return cls(value, du=1.0)

    @classmethod
    def variable_v(cls, value):
        return cls(value, dv=1.0)

    @property
    def slots(self):
        """(v, du, dv, duu, duv, dvv) as a tuple."""
        return (self.v, self.du, self.dv, self.duu, self.duv, self.dvv)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"Jet2_2({fields})"

    def __add__(self, other):
        c = _as_float(other)
        if c is not None:
            return Jet2_2(self.v + c, self.du, self.dv, self.duu, self.duv, self.dvv)
        if isinstance(other, Jet2_2):
            return Jet2_2(
                self.v + other.v,
                self.du + other.du,
                self.dv + other.dv,
                self.duu + other.duu,
                self.duv + other.duv,
                self.dvv + other.dvv,
            )
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        c = _as_float(other)
        if c is not None:
            return Jet2_2(self.v - c, self.du, self.dv, self.duu, self.duv, self.dvv)
        if isinstance(other, Jet2_2):
            return Jet2_2(
                self.v - other.v,
                self.du - other.du,
                self.dv - other.dv,
                self.duu - other.duu,
                self.duv - other.duv,
                self.dvv - other.dvv,
            )
        return NotImplemented

    def __rsub__(self, other):
        c = _as_float(other)
        if c is not None:
            return Jet2_2(c - self.v, -self.du, -self.dv, -self.duu, -self.duv, -self.dvv)
        return NotImplemented

    def __neg__(self):
        return Jet2_2(-self.v, -self.du, -self.dv, -self.duu, -self.duv, -self.dvv)

    def __mul__(self, other):
        c = _as_float(other)
        if c is not None:
            return Jet2_2(self.v * c, self.du * c, self.dv * c,
                          self.duu * c, self.duv * c, self.dvv * c)
        if isinstance(other, Jet2_2):
            return Jet2_2(*mul_slots(self.slots, other.slots))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _as_float(other)
        if c is not None:
            if c == 0.0:
                raise DivisionByZero("jet divided by zero constant")
            return self * (1.0 / c)
        if isinstance(other, Jet2_2):
            return self * other._recip()
        return NotImplemented

    def __rtruediv__(self, other):
        c = _as_float(other)
        if c is not None:
            return self._recip() * c
        return NotImplemented

    def _recip(self):
        return self._compose(*recip_table(self.v))

    def __pow__(self, other):
        c = _as_float(other)
        if c is not None:
            if c == 0.0:
                return Jet2_2(1.0)
            if c == 1.0:
                return self
            return self._compose(*power_table(c)(self.v))
        if isinstance(other, Jet2_2):
            # general a**b via exp(b * log a)
            if self.v <= 0.0:
                raise DomainError(
                    f"jet power with non-positive base {self.v!r}")
            return apply_function("exp", other * apply_function("log", self))
        return NotImplemented

    def __rpow__(self, other):
        c = _as_float(other)
        if c is not None:
            # c**b for a real base: exp(b log c)
            if c <= 0.0:
                raise DomainError(f"power with non-positive base {c!r}")
            return apply_function("exp", self * math.log(c))
        return NotImplemented

    def _compose(self, f0, f1, f2):
        return Jet2_2(*compose_slots(self.slots, f0, f1, f2))


def is_jet(x):
    return isinstance(x, Jet2_2)


def mul_slots(a, b):
    """Product rule on two bivariate slot tuples (v, du, dv, duu, duv, dvv)."""
    av, adu, adv, aduu, aduv, advv = a
    bv, bdu, bdv, bduu, bduv, bdvv = b
    return (
        av * bv,
        adu * bv + av * bdu,
        adv * bv + av * bdv,
        aduu * bv + 2.0 * adu * bdu + av * bduu,
        aduv * bv + adu * bdv + adv * bdu + av * bduv,
        advv * bv + 2.0 * adv * bdv + av * bdvv,
    )


def compose_slots(a, f0, f1, f2):
    """Second-order chain rule: slots of f(a) from f, f', f'' at a's value."""
    _, du, dv, duu, duv, dvv = a
    return (
        f0,
        f1 * du,
        f1 * dv,
        f2 * du * du + f1 * duu,
        f2 * du * dv + f1 * duv,
        f2 * dv * dv + f1 * dvv,
    )


def tabulate(table, values):
    """`table` (float -> tuple of floats) at each element of a 1-D float64
    array, as a tuple of arrays.  The table runs as Python scalar code, so
    each element has the bits of a scalar call, and the first element that
    raises raises."""
    return tuple(np.array(column)
                 for column in zip(*map(table, values.tolist())))


def power_table(e):
    """The table v -> (v^e, e v^(e-1), e (e-1) v^(e-2)) of a real exponent e
    other than 0 and 1: integers up to INT_EXP_LIMIT take any base but a
    zero one when negative, other exponents only a positive base."""
    if float(e).is_integer() and abs(e) <= INT_EXP_LIMIT:
        n = int(e)
        n1, n2, nn1 = n - 1, n - 2, n * (n - 1)

        def table(v):
            if n < 0 and v == 0.0:
                raise DivisionByZero("negative power of jet with zero value")
            try:
                return v ** n, n * v ** n1, nn1 * v ** n2
            except OverflowError:
                raise DomainError(f"power {v!r}**{e!r} overflows") from None
        return table
    e1, e2, ee1 = e - 1.0, e - 2.0, e * (e - 1.0)

    def table(v):
        if v <= 0.0:
            raise DomainError(f"fractional power of non-positive base {v!r}")
        try:
            return v ** e, e * v ** e1, ee1 * v ** e2
        except OverflowError:
            raise DomainError(f"power {v!r}**{e!r} overflows") from None
    return table


# f -> (f, f', f'') value tables for the second-order chain rule
def recip_table(v):
    if v == 0.0:
        raise DivisionByZero("jet divided by jet with zero value")
    w = 1.0 / v
    return w, -w * w, 2.0 * w * w * w


def _sin_t(v):
    return math.sin(v), math.cos(v), -math.sin(v)


def _cos_t(v):
    return math.cos(v), -math.sin(v), -math.cos(v)


def _tan_t(v):
    t = math.tan(v)
    s = 1.0 + t * t
    return t, s, 2.0 * t * s


def _sinh_t(v):
    return math.sinh(v), math.cosh(v), math.sinh(v)


def _cosh_t(v):
    return math.cosh(v), math.sinh(v), math.cosh(v)


def _tanh_t(v):
    t = math.tanh(v)
    s = 1.0 - t * t
    return t, s, -2.0 * t * s


def _exp_t(v):
    e = math.exp(v)
    return e, e, e


def _log_t(v):
    if v <= 0.0:
        raise DomainError(f"log of non-positive value {v!r}")
    w = 1.0 / v
    return math.log(v), w, -w * w


def _sqrt_t(v):
    if v <= 0.0:
        raise DomainError(f"sqrt of non-positive value {v!r}")
    s = math.sqrt(v)
    vs = v * s
    if vs == 0.0:
        # v below about 2e-216: v * s underflows to 0, so -0.25 / (v s)
        # is beyond the float range
        raise DomainError(f"sqrt second derivative overflows at {v!r}")
    return s, 0.5 / s, -0.25 / vs


def _atan_t(v):
    w = 1.0 / (1.0 + v * v)
    return math.atan(v), w, -2.0 * v * w * w


def _overflow_checked(name, table):
    def checked(v):
        try:
            return table(v)
        except OverflowError:
            raise DomainError(f"{name} overflows at this argument") from None
        except ValueError:
            # libm's domain error: sin, cos and tan at +-inf
            raise DomainError(f"{name} is undefined at {v!r}") from None
    return checked


# name -> the table v -> (f, f', f'') of the elementary function at a float,
# with overflow and libm's domain errors raised as DomainError
FUNCTION_TABLES = {name: _overflow_checked(name, table) for name, table in (
    ("sin", _sin_t),
    ("cos", _cos_t),
    ("tan", _tan_t),
    ("sinh", _sinh_t),
    ("cosh", _cosh_t),
    ("tanh", _tanh_t),
    ("exp", _exp_t),
    ("log", _log_t),
    ("sqrt", _sqrt_t),
    ("atan", _atan_t),
)}


def apply_function(name, x):
    """Apply a named elementary function to a Jet2_2 or a plain float."""
    if is_jet(x):
        return x._compose(*FUNCTION_TABLES[name](x.v))
    return FUNCTION_TABLES[name](float(x))[0]


def fd_oracle(f, point, h):
    """Central-difference partials of a scalar function; the independent
    oracle.

    `f` takes 1, 2 or 3 float arguments matching `point` (a float or tuple).
    The result is (v, d1, d2) for one variable, JetSlots for two, and
    (v, dx, dy, dz, dxx, dxy, dxz, dyy, dyz, dzz) for three.  All first and
    second partial estimates carry O(h^2) truncation error; the caller owns
    the step choice.
    """
    if isinstance(point, (int, float)):
        x = float(point)
        fm, f0, fp = f(x - h), f(x), f(x + h)
        return f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)
    point = tuple(float(c) for c in point)
    if len(point) == 2:
        u, v = point
        f0 = f(u, v)
        fu_p, fu_m = f(u + h, v), f(u - h, v)
        fv_p, fv_m = f(u, v + h), f(u, v - h)
        fpp, fpm = f(u + h, v + h), f(u + h, v - h)
        fmp, fmm = f(u - h, v + h), f(u - h, v - h)
        return JetSlots(
            f0,
            (fu_p - fu_m) / (2.0 * h),
            (fv_p - fv_m) / (2.0 * h),
            (fu_p - 2.0 * f0 + fu_m) / (h * h),
            (fpp - fpm - fmp + fmm) / (4.0 * h * h),
            (fv_p - 2.0 * f0 + fv_m) / (h * h),
        )
    if len(point) == 3:
        x, y, z = point
        f0 = f(x, y, z)

        def d1(i):
            q = list(point)
            q[i] += h
            fp = f(*q)
            q[i] -= 2.0 * h
            fm = f(*q)
            return (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)

        def dmix(i, j):
            q = list(point)
            q[i] += h
            q[j] += h
            s = f(*q)
            q[j] -= 2.0 * h
            s -= f(*q)
            q[i] -= 2.0 * h
            s += f(*q)
            q[j] += 2.0 * h
            s -= f(*q)
            return s / (4.0 * h * h)

        (dx, dxx), (dy, dyy), (dz, dzz) = d1(0), d1(1), d1(2)
        return (f0, dx, dy, dz,
                dxx, dmix(0, 1), dmix(0, 2), dyy, dmix(1, 2), dzz)
    raise ValueError(f"point must have 1, 2 or 3 coordinates, got {len(point)}")
