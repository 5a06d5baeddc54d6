"""Forward-mode automatic differentiation truncated at order 2.

Three fixed jet shapes, one per arity (1, 2 or 3 variables).  A jet carries
the value of a function together with every first and second partial
derivative at a point; arithmetic and elementary-function composition
propagate the truncated Taylor coefficients exactly (to floating point).
The mixed partial occupies a single slot, so symmetry of second derivatives
is structural.

Division, powers and the repr do not depend on the arity and live in one
shared base class; the slot arithmetic stays unrolled per shape for speed.
The bivariate product and chain rule are module-level functions over
6-slot tuples (`mul_slots`, `compose_slots`), which `Jet2_2` and the
expression lowering in `exprlang` both call.

Jet values are plain floats and every operation is pure, so jets are safe
to share across threads.  `mul_slots` and `compose_slots` also take
float64 arrays, one element per point of a grid, since numpy rounds
`+ - *` as Python does; the tables of f, f', f'' (`FUNCTION_TABLES`,
`recip_table`, `power_terms`) stay scalar code, which `tabulate` runs at
each element, so an element carries the bits of a scalar evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivisionByZero, DomainError

INT_EXP_LIMIT = 64  # larger integer exponents fall through to the pow rule


def _as_float(x):
    if isinstance(x, (int, float)):
        return float(x)
    return None


class _JetBase:
    """Methods that read the same for every arity; each subclass supplies
    __slots__, the unrolled arithmetic and `_compose`."""

    __slots__ = ()

    @classmethod
    def constant(cls, value):
        return cls(value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __truediv__(self, other):
        c = _as_float(other)
        if c is not None:
            if c == 0.0:
                raise DivisionByZero("jet divided by zero constant")
            return self * (1.0 / c)
        if type(other) is type(self):
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
        return _pow(self, other)

    def __rpow__(self, other):
        c = _as_float(other)
        if c is not None:
            return _pow_base_const(c, self)
        return NotImplemented


class Jet2_1(_JetBase):
    """Univariate 2-jet: value, first and second derivative."""

    __slots__ = ("v", "d1", "d2")
    arity = 1

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v = float(v)
        self.d1 = float(d1)
        self.d2 = float(d2)

    @classmethod
    def variable(cls, value):
        return cls(value, 1.0)

    def __add__(self, other):
        c = _as_float(other)
        if c is not None:
            return Jet2_1(self.v + c, self.d1, self.d2)
        if isinstance(other, Jet2_1):
            return Jet2_1(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        c = _as_float(other)
        if c is not None:
            return Jet2_1(self.v - c, self.d1, self.d2)
        if isinstance(other, Jet2_1):
            return Jet2_1(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2)
        return NotImplemented

    def __rsub__(self, other):
        c = _as_float(other)
        if c is not None:
            return Jet2_1(c - self.v, -self.d1, -self.d2)
        return NotImplemented

    def __neg__(self):
        return Jet2_1(-self.v, -self.d1, -self.d2)

    def __mul__(self, other):
        c = _as_float(other)
        if c is not None:
            return Jet2_1(self.v * c, self.d1 * c, self.d2 * c)
        if isinstance(other, Jet2_1):
            return Jet2_1(
                self.v * other.v,
                self.d1 * other.v + self.v * other.d1,
                self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2,
            )
        return NotImplemented

    __rmul__ = __mul__

    def _compose(self, f0, f1, f2):
        # second-order chain rule for a univariate outer function
        return Jet2_1(
            f0,
            f1 * self.d1,
            f2 * self.d1 * self.d1 + f1 * self.d2,
        )


class Jet2_2(_JetBase):
    """Bivariate 2-jet; one slot for the mixed partial."""

    __slots__ = ("v", "du", "dv", "duu", "duv", "dvv")
    arity = 2

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

    def _compose(self, f0, f1, f2):
        return Jet2_2(*compose_slots(self.slots, f0, f1, f2))


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


def recip_slots(a):
    """Slots of 1/a; DivisionByZero when a's value is zero."""
    return compose_slots(a, *recip_table(a[0]))


def tabulate(table, values):
    """`table` (float -> tuple of floats) at each element of a 1-D float64
    array, as a tuple of arrays.  The table runs as Python scalar code, so
    each element has the bits of a scalar call, and the first element that
    raises raises."""
    return tuple(np.array(column)
                 for column in zip(*map(table, values.tolist())))


class Jet2_3(_JetBase):
    """Trivariate 2-jet."""

    __slots__ = ("v", "dx", "dy", "dz", "dxx", "dxy", "dxz", "dyy", "dyz", "dzz")
    arity = 3

    def __init__(self, v, dx=0.0, dy=0.0, dz=0.0,
                 dxx=0.0, dxy=0.0, dxz=0.0, dyy=0.0, dyz=0.0, dzz=0.0):
        self.v = float(v)
        self.dx = float(dx)
        self.dy = float(dy)
        self.dz = float(dz)
        self.dxx = float(dxx)
        self.dxy = float(dxy)
        self.dxz = float(dxz)
        self.dyy = float(dyy)
        self.dyz = float(dyz)
        self.dzz = float(dzz)

    @classmethod
    def variable_x(cls, value):
        return cls(value, dx=1.0)

    @classmethod
    def variable_y(cls, value):
        return cls(value, dy=1.0)

    @classmethod
    def variable_z(cls, value):
        return cls(value, dz=1.0)

    def __add__(self, other):
        c = _as_float(other)
        if c is not None:
            return Jet2_3(self.v + c, self.dx, self.dy, self.dz,
                          self.dxx, self.dxy, self.dxz, self.dyy, self.dyz, self.dzz)
        if isinstance(other, Jet2_3):
            a, b = self, other
            return Jet2_3(
                a.v + b.v, a.dx + b.dx, a.dy + b.dy, a.dz + b.dz,
                a.dxx + b.dxx, a.dxy + b.dxy, a.dxz + b.dxz,
                a.dyy + b.dyy, a.dyz + b.dyz, a.dzz + b.dzz,
            )
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet2_3(-self.v, -self.dx, -self.dy, -self.dz,
                      -self.dxx, -self.dxy, -self.dxz, -self.dyy, -self.dyz, -self.dzz)

    def __mul__(self, other):
        c = _as_float(other)
        if c is not None:
            return Jet2_3(self.v * c, self.dx * c, self.dy * c, self.dz * c,
                          self.dxx * c, self.dxy * c, self.dxz * c,
                          self.dyy * c, self.dyz * c, self.dzz * c)
        if isinstance(other, Jet2_3):
            a, b = self, other
            return Jet2_3(
                a.v * b.v,
                a.dx * b.v + a.v * b.dx,
                a.dy * b.v + a.v * b.dy,
                a.dz * b.v + a.v * b.dz,
                a.dxx * b.v + 2.0 * a.dx * b.dx + a.v * b.dxx,
                a.dxy * b.v + a.dx * b.dy + a.dy * b.dx + a.v * b.dxy,
                a.dxz * b.v + a.dx * b.dz + a.dz * b.dx + a.v * b.dxz,
                a.dyy * b.v + 2.0 * a.dy * b.dy + a.v * b.dyy,
                a.dyz * b.v + a.dy * b.dz + a.dz * b.dy + a.v * b.dyz,
                a.dzz * b.v + 2.0 * a.dz * b.dz + a.v * b.dzz,
            )
        return NotImplemented

    __rmul__ = __mul__

    def _compose(self, f0, f1, f2):
        return Jet2_3(
            f0,
            f1 * self.dx,
            f1 * self.dy,
            f1 * self.dz,
            f2 * self.dx * self.dx + f1 * self.dxx,
            f2 * self.dx * self.dy + f1 * self.dxy,
            f2 * self.dx * self.dz + f1 * self.dxz,
            f2 * self.dy * self.dy + f1 * self.dyy,
            f2 * self.dy * self.dz + f1 * self.dyz,
            f2 * self.dz * self.dz + f1 * self.dzz,
        )


def is_jet(x):
    return isinstance(x, _JetBase)


def coerce(value, cls):
    """View a plain number as a constant jet of the given shape."""
    return value if isinstance(value, cls) else cls.constant(value)


def seed_variable(index, value, arity):
    """Jet of the coordinate function x_index at `value`, for the given arity."""
    if arity == 1:
        if index != 0:
            raise IndexError(f"variable index {index} out of range for arity 1")
        return Jet2_1.variable(value)
    if arity == 2:
        if index == 0:
            return Jet2_2.variable_u(value)
        if index == 1:
            return Jet2_2.variable_v(value)
        raise IndexError(f"variable index {index} out of range for arity 2")
    if arity == 3:
        if index == 0:
            return Jet2_3.variable_x(value)
        if index == 1:
            return Jet2_3.variable_y(value)
        if index == 2:
            return Jet2_3.variable_z(value)
        raise IndexError(f"variable index {index} out of range for arity 3")
    raise ValueError(f"arity must be 1, 2 or 3, got {arity}")


def _pow_const(a, e):
    """a**e for a jet base and a real exponent."""
    if e == 0.0:
        return type(a).constant(1.0)
    if e == 1.0:
        return a
    return a._compose(*power_terms(a.v, e))


def power_terms(v, e):
    """(v^e, e v^(e-1), e (e-1) v^(e-2)) for a real exponent e other than
    0 and 1: integers up to INT_EXP_LIMIT take any base but a zero one when
    negative, other exponents only a positive base."""
    try:
        if float(e).is_integer() and abs(e) <= INT_EXP_LIMIT:
            n = int(e)
            if n < 0 and v == 0.0:
                raise DivisionByZero("negative power of jet with zero value")
            return v ** n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2)
        if v <= 0.0:
            raise DomainError(f"fractional power of non-positive base {v!r}")
        return v ** e, e * v ** (e - 1.0), e * (e - 1.0) * v ** (e - 2.0)
    except OverflowError:
        raise DomainError(f"power {v!r}**{e!r} overflows") from None


def _pow(a, b):
    c = _as_float(b)
    if c is not None:
        return _pow_const(a, c)
    if isinstance(b, type(a)):
        # general a**b via exp(b * log a)
        if a.v <= 0.0:
            raise DomainError(f"jet power with non-positive base {a.v!r}")
        return exp(b * log(a))
    return NotImplemented


def _pow_base_const(c, b):
    """c**b for a real base and a jet exponent."""
    if c <= 0.0:
        raise DomainError(f"power with non-positive base {c!r}")
    return exp(b * math.log(c))


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
    return checked


# name -> the table v -> (f, f', f'') of the elementary function at a float,
# with overflow raised as DomainError
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
    """Apply a named elementary function to a jet or a plain float."""
    if is_jet(x):
        return x._compose(*FUNCTION_TABLES[name](x.v))
    return FUNCTION_TABLES[name](float(x))[0]


def sin(x):
    return apply_function("sin", x)


def cos(x):
    return apply_function("cos", x)


def tan(x):
    return apply_function("tan", x)


def sinh(x):
    return apply_function("sinh", x)


def cosh(x):
    return apply_function("cosh", x)


def tanh(x):
    return apply_function("tanh", x)


def exp(x):
    return apply_function("exp", x)


def log(x):
    return apply_function("log", x)


def sqrt(x):
    return apply_function("sqrt", x)


def atan(x):
    return apply_function("atan", x)


def fd_oracle(f, point, h):
    """Central-difference jet of a scalar function; the independent oracle.

    `f` takes 1, 2 or 3 float arguments matching `point` (a float or tuple).
    All first and second partial estimates carry O(h^2) truncation error;
    the caller owns the step choice.
    """
    if isinstance(point, (int, float)):
        x = float(point)
        fm, f0, fp = f(x - h), f(x), f(x + h)
        return Jet2_1(f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h))
    point = tuple(float(c) for c in point)
    if len(point) == 2:
        u, v = point
        f0 = f(u, v)
        fu_p, fu_m = f(u + h, v), f(u - h, v)
        fv_p, fv_m = f(u, v + h), f(u, v - h)
        fpp, fpm = f(u + h, v + h), f(u + h, v - h)
        fmp, fmm = f(u - h, v + h), f(u - h, v - h)
        return Jet2_2(
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
        return Jet2_3(f0, dx, dy, dz,
                      dxx, dmix(0, 1), dmix(0, 2), dyy, dmix(1, 2), dzz)
    raise ValueError(f"point must have 1, 2 or 3 coordinates, got {len(point)}")
