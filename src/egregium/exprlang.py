"""Small scalar expression language for curves, surfaces and metrics.

Grammar (recursive descent, `^` binds tightest and is right-associative,
unary minus binds looser than `^`):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Variables come from the fixed binding set {x, y, z, t, u, v, p, q}; the
function set is restricted to smooth or domain-checked functions, so every
parsed expression is C^2 wherever it evaluates.  Implicit multiplication
("2x") is rejected, and so is nesting deeper than MAX_DEPTH, which keeps
every recursive walk of a tree inside Python's recursion limit.  A parsed
tree is immutable and can be shared freely.

`evaluate` walks a tree over plain floats or any jet shape.  Trees that are
evaluated as bivariate 2-jets at many points are lowered once by
`lower_jet2` into closures over slot tuples, which replay the same float
operations without the walk; `evaluate` remains their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import jets
from .errors import DivisionByZero, DomainError, InputError, NumericError, \
    UnboundVariable

VARIABLE_NAMES = frozenset({"x", "y", "z", "t", "u", "v", "p", "q"})
FUNCTION_NAMES = frozenset(jets.FUNCTION_TABLES)

# Deepest accepted nesting: tree height, with each bracket pair counted as
# one more level.  The parser recurses about five frames per level.
MAX_DEPTH = 100


class ParseError(InputError):
    """Syntax violation with its position in the input."""

    def __init__(self, offset, message, expected=()):
        self.offset = offset
        self.message = message
        self.expected = list(expected)
        super().__init__(f"{message} at offset {offset}")


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" or a function name
    child: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


ExprAst = Constant | Variable | Unary | Binary


_SYMBOLS = "+-*/^()"


def _tokenize(text):
    """Yield (kind, value, offset) triples; kind in num/ident/sym/end."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lexeme = text[start:i]
            try:
                value = float(lexeme)
            except ValueError:
                raise ParseError(start, f"malformed number {lexeme!r}",
                                 ["number"]) from None
            tokens.append(("num", value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
            continue
        raise ParseError(i, f"unexpected character {ch!r}", ["expression"])
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent; each rule returns (node, height), where height
    counts tree levels and bracket pairs, and `nesting` counts the brackets,
    unary minus signs and exponents open at the current token."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym):
        kind, value, offset = self.peek()
        if kind == "sym" and value == sym:
            return self.advance()
        raise ParseError(offset, f"expected {sym!r}", [sym])

    def check_depth(self, height, offset):
        """`height`, or ParseError once it passes MAX_DEPTH."""
        if height > MAX_DEPTH:
            raise ParseError(offset, "expression nested too deeply")
        return height

    def nested(self, rule, offset):
        """(node, height + 1) of `rule` parsed one level deeper."""
        self.nesting = self.check_depth(self.nesting + 1, offset)
        node, height = rule()
        self.nesting -= 1
        return node, self.check_depth(height + 1, offset)

    def parse(self):
        node, _ = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(offset, f"unexpected trailing input {value!r}",
                             ["end of input"])
        return node

    def expr(self):
        node, height = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "sym" and value in "+-":
                self.advance()
                right, right_height = self.term()
                node = Binary(value, node, right)
                height = self.check_depth(max(height, right_height) + 1, offset)
            else:
                return node, height

    def term(self):
        node, height = self.factor()
        while True:
            kind, value, offset = self.peek()
            if kind == "sym" and value in "*/":
                self.advance()
                right, right_height = self.factor()
                node = Binary(value, node, right)
                height = self.check_depth(max(height, right_height) + 1, offset)
            else:
                return node, height

    def factor(self):
        kind, value, offset = self.peek()
        if kind == "sym" and value == "-":
            self.advance()
            child, height = self.nested(self.factor, offset)
            return Unary("neg", child), height
        return self.power()

    def power(self):
        node, height = self.atom()
        kind, value, offset = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            right, right_height = self.nested(self.factor, offset)
            node = Binary("^", node, right)
            height = max(height + 1, right_height)
        return node, height

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Constant(value), 1
        if kind == "ident":
            next_kind, next_value, _ = self.peek()
            if next_kind == "sym" and next_value == "(":
                if value not in FUNCTION_NAMES:
                    raise ParseError(offset, f"unknown function {value!r}",
                                     sorted(FUNCTION_NAMES))
                self.advance()
                arg, height = self.nested(self.expr, offset)
                self.expect_sym(")")
                return Unary(value, arg), height
            if value in VARIABLE_NAMES:
                return Variable(value), 1
            if value in FUNCTION_NAMES:
                raise ParseError(offset,
                                 f"function {value!r} requires an argument list",
                                 ["("])
            raise ParseError(offset, f"unknown identifier {value!r}",
                             sorted(VARIABLE_NAMES))
        if kind == "sym" and value == "(":
            node, height = self.nested(self.expr, offset)
            self.expect_sym(")")
            return node, height
        raise ParseError(offset, "expected expression", ["expression"])


def parse(text):
    """Parse `text` into an immutable ExprAst, or raise ParseError."""
    try:
        return _Parser(text).parse()
    except ParseError as err:
        byte_offset = len(text[:err.offset].encode("utf-8"))
        if byte_offset == err.offset:
            raise
        raise ParseError(byte_offset, err.message, err.expected) from None


def free_variables(ast):
    if isinstance(ast, Constant):
        return set()
    if isinstance(ast, Variable):
        return {ast.name}
    if isinstance(ast, Unary):
        return free_variables(ast.child)
    return free_variables(ast.left) | free_variables(ast.right)


def evaluate(ast, bindings):
    """Evaluate over floats or jets; all bound jets must share one shape."""
    shapes = {type(val) for val in bindings.values() if jets.is_jet(val)}
    if len(shapes) > 1:
        names = sorted(cls.__name__ for cls in shapes)
        raise ValueError(f"mixed jet shapes in bindings: {names}")
    return _eval(ast, bindings)


def _eval(ast, bindings):
    if isinstance(ast, Constant):
        return ast.value
    if isinstance(ast, Variable):
        try:
            return bindings[ast.name]
        except KeyError:
            raise UnboundVariable(f"unbound variable {ast.name!r}") from None
    if isinstance(ast, Unary):
        child = _eval(ast.child, bindings)
        if ast.op == "neg":
            return -child
        return jets.apply_function(ast.op, child)
    left = _eval(ast.left, bindings)
    right = _eval(ast.right, bindings)
    if ast.op == "+":
        return left + right
    if ast.op == "-":
        return left - right
    if ast.op == "*":
        return left * right
    if ast.op == "/":
        if not jets.is_jet(right) and float(right) == 0.0:
            from .errors import DivisionByZero
            raise DivisionByZero("division by zero")
        return left / right
    if ast.op == "^":
        if jets.is_jet(left) or jets.is_jet(right):
            return left ** right
        return _float_pow(float(left), float(right))
    raise ValueError(f"unknown operator {ast.op!r}")


def _float_pow(base, exponent):
    from .errors import DivisionByZero, DomainError
    try:
        if float(exponent).is_integer():
            if base == 0.0 and exponent < 0:
                raise DivisionByZero("zero raised to a negative power")
            return base ** exponent
        if base <= 0.0:
            raise DomainError(
                f"fractional power of non-positive base {base!r}")
        return math.pow(base, exponent)
    except OverflowError:
        raise DomainError(f"power {base!r}**{exponent!r} overflows") from None


# --- lowering to bivariate 2-jet slot closures --------------------------
#
# A lowered node is either a float (a folded constant subtree) or a closure
# (U, V) -> slots, where U and V are the slot tuples of the two seed
# variables and slots is (v, du, dv, duu, duv, dvv).  Each closure performs
# exactly the float operations `_eval` performs on `jets.Jet2_2` values, in
# the same order, so results are bit-identical and the same exceptions are
# raised with the same messages.

_ONE = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def lower_jet2(asts, seeds):
    """Compile trees once into a function (u, v) -> list of 2-jet slot
    tuples (v, du, dv, duu, duv, dvv), one per tree in `asts`.

    `seeds` maps variable names to "u" or "v", the direction each is seeded
    along; any other name raises UnboundVariable when evaluated.  A tree that
    equals an earlier one is lowered and evaluated once.  Results are those
    of `evaluate` over `jets.Jet2_2` bindings, bit for bit.
    """
    programs, order, index = [], [], {}
    for ast in asts:
        if ast not in index:
            index[ast] = len(programs)
            programs.append(_program(_lower(ast, seeds)))
        order.append(index[ast])

    def run(u, v):
        U = (float(u), 1.0, 0.0, 0.0, 0.0, 0.0)
        V = (float(v), 0.0, 1.0, 0.0, 0.0, 0.0)
        values = [program(U, V) for program in programs]
        return [values[i] for i in order]

    return run


def _program(node):
    """A closure for a lowered tree; a constant becomes a constant jet."""
    if callable(node):
        return node
    constant = (float(node), 0.0, 0.0, 0.0, 0.0, 0.0)
    return lambda U, V: constant


def _lower(ast, seeds):
    if isinstance(ast, Constant):
        return ast.value
    if isinstance(ast, Variable):
        return _lower_variable(ast.name, seeds.get(ast.name))
    if isinstance(ast, Unary):
        child = _lower(ast.child, seeds)
        if not callable(child):
            return _fold(Unary(ast.op, Constant(child)))
        if ast.op == "neg":
            return _lower_neg(child)
        return _lower_function(ast.op, child)
    left = _lower(ast.left, seeds)
    right = _lower(ast.right, seeds)
    if not callable(left) and not callable(right):
        return _fold(Binary(ast.op, Constant(left), Constant(right)))
    if not callable(right):
        return _JET_CONST[ast.op](left, float(right))
    if not callable(left):
        return _CONST_JET[ast.op](float(left), right)
    return _JET_JET[ast.op](left, right)


def _fold(ast):
    """The float value of a constant node, or a closure that raises what
    evaluating it raises, at its place in evaluation order."""
    try:
        return _eval(ast, {})
    except (NumericError, ValueError):
        def deferred(U, V):
            return _eval(ast, {})
        return deferred


def _lower_variable(name, direction):
    if direction == "u":
        return lambda U, V: U
    if direction == "v":
        return lambda U, V: V
    message = f"unbound variable {name!r}"

    def unbound(U, V):
        raise UnboundVariable(message)
    return unbound


def _lower_neg(a):
    def neg(U, V):
        v, du, dv, duu, duv, dvv = a(U, V)
        return (-v, -du, -dv, -duu, -duv, -dvv)
    return neg


def _lower_function(name, a):
    table, compose = jets.function_table, jets.compose_slots

    def function(U, V):
        x = a(U, V)
        return compose(x, *table(name, x[0]))
    return function


def _add_jj(a, b):
    def add(U, V):
        av, adu, adv, aduu, aduv, advv = a(U, V)
        bv, bdu, bdv, bduu, bduv, bdvv = b(U, V)
        return (av + bv, adu + bdu, adv + bdv,
                aduu + bduu, aduv + bduv, advv + bdvv)
    return add


def _add_jc(a, c):
    def add(U, V):
        v, du, dv, duu, duv, dvv = a(U, V)
        return (v + c, du, dv, duu, duv, dvv)
    return add


def _sub_jj(a, b):
    def sub(U, V):
        av, adu, adv, aduu, aduv, advv = a(U, V)
        bv, bdu, bdv, bduu, bduv, bdvv = b(U, V)
        return (av - bv, adu - bdu, adv - bdv,
                aduu - bduu, aduv - bduv, advv - bdvv)
    return sub


def _sub_jc(a, c):
    def sub(U, V):
        v, du, dv, duu, duv, dvv = a(U, V)
        return (v - c, du, dv, duu, duv, dvv)
    return sub


def _sub_cj(c, b):
    def sub(U, V):
        v, du, dv, duu, duv, dvv = b(U, V)
        return (c - v, -du, -dv, -duu, -duv, -dvv)
    return sub


def _mul_jj(a, b):
    mul = jets.mul_slots
    return lambda U, V: mul(a(U, V), b(U, V))


def _scale(a, c):
    def scale(U, V):
        v, du, dv, duu, duv, dvv = a(U, V)
        return (v * c, du * c, dv * c, duu * c, duv * c, dvv * c)
    return scale


def _div_jj(a, b):
    mul, recip = jets.mul_slots, jets.recip_slots

    def div(U, V):
        x = a(U, V)
        return mul(x, recip(b(U, V)))
    return div


def _div_jc(a, c):
    if c == 0.0:
        def div(U, V):
            a(U, V)
            raise DivisionByZero("division by zero")
        return div
    return _scale(a, 1.0 / c)


def _div_cj(c, b):
    recip = jets.recip_slots

    def div(U, V):
        v, du, dv, duu, duv, dvv = recip(b(U, V))
        return (v * c, du * c, dv * c, duu * c, duv * c, dvv * c)
    return div


def _pow_jc(a, e):
    """a^e for a constant exponent, following `jets._pow_const`."""
    compose = jets.compose_slots
    if e == 0.0:
        def power(U, V):
            a(U, V)
            return _ONE
        return power
    if e == 1.0:
        return a
    if e.is_integer() and abs(e) <= jets.INT_EXP_LIMIT:
        n = int(e)
        n1, n2, nn1 = n - 1, n - 2, n * (n - 1)

        def power(U, V):
            x = a(U, V)
            v = x[0]
            if n < 0 and v == 0.0:
                raise DivisionByZero("negative power of jet with zero value")
            try:
                return compose(x, v ** n, n * v ** n1, nn1 * v ** n2)
            except OverflowError:
                raise DomainError(f"power {v!r}**{e!r} overflows") from None
        return power
    e1, e2, ee1 = e - 1.0, e - 2.0, e * (e - 1.0)

    def power(U, V):
        x = a(U, V)
        v = x[0]
        if v <= 0.0:
            raise DomainError(f"fractional power of non-positive base {v!r}")
        try:
            return compose(x, v ** e, e * v ** e1, ee1 * v ** e2)
        except OverflowError:
            raise DomainError(f"power {v!r}**{e!r} overflows") from None
    return power


def _pow_cj(c, b):
    """c^b for a constant base: exp(b * log c), as `jets._pow_base_const`."""
    if c <= 0.0:
        def power(U, V):
            b(U, V)
            raise DomainError(f"power with non-positive base {c!r}")
        return power
    return _lower_function("exp", _scale(b, math.log(c)))


def _pow_jj(a, b):
    """a^b as exp(b * log a), as `jets._pow`."""
    table, compose, mul = jets.function_table, jets.compose_slots, jets.mul_slots

    def power(U, V):
        x = a(U, V)
        y = b(U, V)
        v = x[0]
        if v <= 0.0:
            raise DomainError(f"jet power with non-positive base {v!r}")
        z = mul(y, compose(x, *table("log", v)))
        return compose(z, *table("exp", z[0]))
    return power


_JET_JET = {"+": _add_jj, "-": _sub_jj, "*": _mul_jj, "/": _div_jj,
            "^": _pow_jj}
_JET_CONST = {"+": _add_jc, "-": _sub_jc, "*": _scale, "/": _div_jc,
              "^": _pow_jc}
# constant on the left: + and * commute slot by slot, as in Jet2_2.__radd__
_CONST_JET = {"+": lambda c, b: _add_jc(b, c), "-": _sub_cj,
              "*": lambda c, b: _scale(b, c), "/": _div_cj, "^": _pow_cj}


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_text(ast):
    """Canonical printed form; parse(to_text(parse(s))) == parse(s) while
    the printed form, which brackets nested minus signs, stays within
    MAX_DEPTH."""
    return _print(ast, 0)


def _print(ast, parent_prec):
    if isinstance(ast, Constant):
        value = ast.value
        if value == int(value) and abs(value) < 1e16:
            text = str(int(value))
        else:
            text = repr(value)
        if value < 0 and parent_prec > 0:
            return f"({text})"
        return text
    if isinstance(ast, Variable):
        return ast.name
    if isinstance(ast, Unary):
        if ast.op == "neg":
            inner = _print(ast.child, 3)
            text = f"-{inner}"
            return f"({text})" if parent_prec > 1 else text
        return f"{ast.op}({_print(ast.child, 0)})"
    prec = _PRECEDENCE[ast.op]
    if ast.op == "^":
        # right-associative; unary minus on the right re-parses via factor
        text = f"{_print(ast.left, prec + 1)}^{_print(ast.right, prec)}"
    else:
        text = f"{_print(ast.left, prec)}{ast.op}{_print(ast.right, prec + 1)}"
    return f"({text})" if parent_prec > prec else text
