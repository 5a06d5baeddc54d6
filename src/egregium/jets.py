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

The same algebra as a class with operators, walked over a tree, is the
bitwise reference the lowered programs are checked against; it lives with
the tests, in `tests/oracle.py`, with the finite-difference oracle.

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
    import numpy as np
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
    """A named elementary function of a float."""
    return FUNCTION_TABLES[name](float(x))[0]
