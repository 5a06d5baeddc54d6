"""The references the derivatives of `egregium` are checked against.

`Jet2_2` is the order-2 jet algebra of `egregium.jets` as a class with
operators, and `evaluate` walks an expression tree over it, one node at a
time (Taylor arithmetic: Griewank & Walther, *Evaluating Derivatives*,
2008, ch. 13).  It performs the float operations of the lowered programs of
`exprlang.lower_jet2` in the same order, so the tests compare their slots
with it bit for bit, exceptions and messages included.  A subtree that no
jet reaches evaluates over floats, through `exprlang._float_pow` and the
tables of `jets.FUNCTION_TABLES`, as `exprlang.evaluate` does.

`fd_oracle` gives central-difference partials of any float function: an
oracle that shares no arithmetic with the jets.

`probe_refuses` is the conjugate-locus check that shooting made with one
probe shot past the converged angle, before `geodesics.connect_geodesic`
read the locus from its last secant slope.
"""

import math

from egregium import exprlang, geodesics, jets
from egregium.errors import DivisionByZero, DomainError, UnboundVariable
from egregium.exprlang import Constant, Unary, Variable


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
            return Jet2_2(*jets.mul_slots(self.slots, other.slots))
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
        return self._compose(*jets.recip_table(self.v))

    def __pow__(self, other):
        c = _as_float(other)
        if c is not None:
            if c == 0.0:
                return Jet2_2(1.0)
            if c == 1.0:
                return self
            return self._compose(*jets.power_table(c)(self.v))
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
        return Jet2_2(*jets.compose_slots(self.slots, f0, f1, f2))


def apply_function(name, x):
    """A named elementary function of a Jet2_2 or a float."""
    if isinstance(x, Jet2_2):
        return x._compose(*jets.FUNCTION_TABLES[name](x.v))
    return jets.FUNCTION_TABLES[name](float(x))[0]


def evaluate(ast, bindings):
    """`ast` with its variables bound to Jet2_2 or floats: a Jet2_2, or a
    float where no jet reaches the root."""
    if isinstance(ast, Constant):
        return ast.value
    if isinstance(ast, Variable):
        try:
            return bindings[ast.name]
        except KeyError:
            raise UnboundVariable(f"unbound variable {ast.name!r}") from None
    if isinstance(ast, Unary):
        child = evaluate(ast.child, bindings)
        if ast.op == "neg":
            return -child
        return apply_function(ast.op, child)
    left = evaluate(ast.left, bindings)
    right = evaluate(ast.right, bindings)
    if ast.op == "+":
        return left + right
    if ast.op == "-":
        return left - right
    if ast.op == "*":
        return left * right
    if ast.op == "/":
        if not isinstance(right, Jet2_2) and float(right) == 0.0:
            raise DivisionByZero("division by zero")
        return left / right
    if ast.op == "^":
        if isinstance(left, Jet2_2) or isinstance(right, Jet2_2):
            return left ** right
        return exprlang._float_pow(float(left), float(right))
    raise ValueError(f"unknown operator {ast.op!r}")


def fd_oracle(f, point, h):
    """Central-difference partials of a scalar function.

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
        return jets.JetSlots(
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


def _nearest_sample_miss(metric, a, b, angle, length, step):
    """Signed perpendicular deviation of a shot from b at its sample
    nearest b."""
    path = geodesics._shoot(metric, a, angle, length, step)
    st = path.states[geodesics._nearest_sample(path, b)]
    speed = math.hypot(st.pu, st.pv)
    return (st.pu * (b[1] - st.v) - st.pv * (b[0] - st.u)) / speed


def probe_refuses(metric, a, b, tol=1e-6):
    """Whether shooting from a to b refuses: the secant on the angle at
    length/800 steps per shot, with the miss read at the nearest sample,
    stalls or misses b by more than tol/2; or, once it converges, a probe
    shot 1e-3 rad further misses b by less than 0.05 * 1e-3 * length, so
    that the endpoint is insensitive to the angle (the conjugate locus)."""
    chord = (b[0] - a[0], b[1] - a[1])
    length = 1.25 * geodesics._chord_metric_length(metric, a, b)
    step = max(length / 800.0, 1e-4)
    phi0 = math.atan2(chord[1], chord[0])
    bracket = math.pi / 3.0
    x0, x1 = phi0, phi0 + 0.05 * bracket
    f0 = _nearest_sample_miss(metric, a, b, x0, length, step)
    f1 = _nearest_sample_miss(metric, a, b, x1, length, step)
    best = min((abs(f0), x0), (abs(f1), x1))
    for _ in range(50):
        if best[0] <= 0.5 * tol:
            break
        if abs(f1 - f0) < 1e-15 * (1.0 + abs(f1)):
            return True
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x2 = min(max(x2, phi0 - bracket), phi0 + bracket)
        f2 = _nearest_sample_miss(metric, a, b, x2, length, step)
        best = min(best, (abs(f2), x2))
        x0, f0, x1, f1 = x1, f1, x2, f2
    if best[0] > 0.5 * tol:
        return True
    probe = 1e-3
    lateral = _nearest_sample_miss(metric, a, b, best[1] + probe, length,
                                   step)
    return abs(lateral) < 0.05 * probe * length
