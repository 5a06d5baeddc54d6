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

`evaluate` walks a tree over plain floats.  Every derivative comes from
trees lowered once by `lower_jet2` into closures over 2-jet slot tuples,
for functions of one, two or three variables; `evaluate` over the
operator jets of `jets`, which performs the same float operations by
walking the tree, is their reference.  Over a grid, the same trees run
once on float64 arrays of the points' coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from numpy import ndarray

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
    """Evaluate over floats, or over the operator jets of `jets`, the
    reference the lowered programs are checked against."""
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
            raise DivisionByZero("division by zero")
        return left / right
    if ast.op == "^":
        if jets.is_jet(left) or jets.is_jet(right):
            return left ** right
        return _float_pow(float(left), float(right))
    raise ValueError(f"unknown operator {ast.op!r}")


def _float_pow(base, exponent):
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


# --- lowering to 2-jet slot closures ------------------------------------
#
# A lowered node is either a float (a folded constant subtree) or a closure
# C -> slots, where C holds one slot tuple per coordinate and slots is
# (v, du, dv, duu, duv, dvv), or (v, du, dv) at order 1.  Each closure
# performs exactly the float operations `_eval` performs on the operator
# jets of `jets`, in the same order, so results are bit-identical and the
# same exceptions are raised with the same messages.  An order-1 closure
# performs the part of them that yields the first three slots: none of
# those reads a second-order slot, and every table of f, f', f'' is still
# called whole, so it raises where order 2 raises.

_ONE = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def lower_jet2(asts, seeds, order=2):
    """Compile trees once into a function (*coords) -> list of 2-jet slot
    tuples (v, du, dv, duu, duv, dvv), one per tree in `asts`.  With
    `order=1` the tuples are (v, du, dv), with the bits of the first three
    order-2 slots and the same exceptions, and cost only the first-order
    arithmetic.

    `seeds` maps variable names to coordinate indices; any other name raises
    UnboundVariable when evaluated.  The function seeds coordinate 0 along
    u and coordinate 1 along v, and holds any later coordinate as a jet with
    zero derivatives, so a function of one variable reads its derivatives
    from du and duu, and one of three variables gives five of its partials
    per pass.  A tree that equals an earlier one is lowered and evaluated
    once.  Results are those of `evaluate` over operator-jet bindings with
    the same seeding, bit for bit.

    At order 2 the coordinates may also be 1-D float64 arrays of one length,
    the points of a grid; every slot is then an array, and element i holds
    the bits of the scalar call at the i-th point.  If any point fails, some
    error is raised, not necessarily the one of the first failing point.
    The trees are lowered at the first call, and points and grids run the
    same programs.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    trees, picks, index = [], [], {}
    for ast in asts:
        if ast not in index:
            index[ast] = len(trees)
            trees.append(ast)
        picks.append(index[ast])
    nodes, seeded, width = ((_NODES, _seeded, 6) if order == 2
                            else (_FIRST_NODES, _seeded_first, 3))
    programs = None

    def run(*coords):
        nonlocal programs
        grid = type(coords[0]) is ndarray
        if grid and order != 2:
            raise ValueError("order-1 programs take scalar coordinates")
        if programs is None:
            programs = [_program(_lower_with(ast, seeds, nodes), width)
                        for ast in trees]
        if grid:
            values = _run_columns(programs, coords)
        else:
            C = seeded(*coords)
            values = [program(C) for program in programs]
        return [values[i] for i in picks]

    return run


def _seeded(u, v=None, *held):
    """The slot tuples of scalar coordinates: u seeded along u, v along v,
    and any later coordinate held with zero derivatives."""
    U = (float(u), 1.0, 0.0, 0.0, 0.0, 0.0)
    if v is None:
        return (U,)
    C = (U, (float(v), 0.0, 1.0, 0.0, 0.0, 0.0))
    if held:
        C += tuple((float(h), 0.0, 0.0, 0.0, 0.0, 0.0) for h in held)
    return C


def _seeded_first(u, v=None, *held):
    """`_seeded` at order 1."""
    U = (float(u), 1.0, 0.0)
    if v is None:
        return (U,)
    C = (U, (float(v), 0.0, 1.0))
    if held:
        C += tuple((float(h), 0.0, 0.0) for h in held)
    return C


def _program(node, width):
    """A closure for a lowered tree; a constant becomes a constant jet of
    `width` slots."""
    if callable(node):
        return node
    constant = (float(node),) + (0.0,) * (width - 1)
    return lambda C: constant


def _lower_with(ast, seeds, nodes):
    if isinstance(ast, Constant):
        return ast.value
    if isinstance(ast, Variable):
        return _lower_variable(ast.name, seeds.get(ast.name))
    if isinstance(ast, Unary):
        child = _lower_with(ast.child, seeds, nodes)
        if not callable(child):
            return _fold(Unary(ast.op, Constant(child)))
        if ast.op == "neg":
            return nodes.neg(child)
        return nodes.function(ast.op, child)
    left = _lower_with(ast.left, seeds, nodes)
    right = _lower_with(ast.right, seeds, nodes)
    if not callable(left) and not callable(right):
        return _fold(Binary(ast.op, Constant(left), Constant(right)))
    if not callable(right):
        return nodes.jet_const[ast.op](left, float(right))
    if not callable(left):
        return nodes.const_jet[ast.op](float(left), right)
    return nodes.jet_jet[ast.op](left, right)


def _fold(ast):
    """The float value of a constant node, or a closure that raises what
    evaluating it raises, at its place in evaluation order."""
    try:
        return _eval(ast, {})
    except (NumericError, ValueError):
        def deferred(C):
            return _eval(ast, {})
        return deferred


def _lower_variable(name, coordinate):
    if coordinate is not None:
        return itemgetter(coordinate)
    message = f"unbound variable {name!r}"

    def unbound(C):
        raise UnboundVariable(message)
    return unbound


# slot-wise nodes, order 2

def _lower_neg(a):
    def neg(C):
        v, du, dv, duu, duv, dvv = a(C)
        return (-v, -du, -dv, -duu, -duv, -dvv)
    return neg


def _add_jj(a, b):
    def add(C):
        av, adu, adv, aduu, aduv, advv = a(C)
        bv, bdu, bdv, bduu, bduv, bdvv = b(C)
        return (av + bv, adu + bdu, adv + bdv,
                aduu + bduu, aduv + bduv, advv + bdvv)
    return add


def _add_jc(a, c):
    def add(C):
        v, du, dv, duu, duv, dvv = a(C)
        return (v + c, du, dv, duu, duv, dvv)
    return add


def _sub_jj(a, b):
    def sub(C):
        av, adu, adv, aduu, aduv, advv = a(C)
        bv, bdu, bdv, bduu, bduv, bdvv = b(C)
        return (av - bv, adu - bdu, adv - bdv,
                aduu - bduu, aduv - bduv, advv - bdvv)
    return sub


def _sub_jc(a, c):
    def sub(C):
        v, du, dv, duu, duv, dvv = a(C)
        return (v - c, du, dv, duu, duv, dvv)
    return sub


def _sub_cj(c, b):
    def sub(C):
        v, du, dv, duu, duv, dvv = b(C)
        return (c - v, -du, -dv, -duu, -duv, -dvv)
    return sub


def _scale(a, c):
    def scale(C):
        v, du, dv, duu, duv, dvv = a(C)
        return (v * c, du * c, dv * c, duu * c, duv * c, dvv * c)
    return scale


# slot-wise nodes, order 1: the first three slots of the above

def _neg_first(a):
    def neg(C):
        v, du, dv = a(C)
        return (-v, -du, -dv)
    return neg


def _add_first_jj(a, b):
    def add(C):
        av, adu, adv = a(C)
        bv, bdu, bdv = b(C)
        return (av + bv, adu + bdu, adv + bdv)
    return add


def _add_first_jc(a, c):
    def add(C):
        v, du, dv = a(C)
        return (v + c, du, dv)
    return add


def _sub_first_jj(a, b):
    def sub(C):
        av, adu, adv = a(C)
        bv, bdu, bdv = b(C)
        return (av - bv, adu - bdu, adv - bdv)
    return sub


def _sub_first_jc(a, c):
    def sub(C):
        v, du, dv = a(C)
        return (v - c, du, dv)
    return sub


def _sub_first_cj(c, b):
    def sub(C):
        v, du, dv = b(C)
        return (c - v, -du, -dv)
    return sub


def _scale_first(a, c):
    def scale(C):
        v, du, dv = a(C)
        return (v * c, du * c, dv * c)
    return scale


class _Nodes(NamedTuple):
    """Node builders by kind: negation and a named function of a closure,
    and operators with closures or constants (c) on each side."""
    neg: object
    function: object
    jet_jet: dict
    jet_const: dict
    const_jet: dict


def _log_base(v):
    """The log table at the base of a^b, whose base must be positive."""
    if v <= 0.0:
        raise DomainError(f"jet power with non-positive base {v!r}")
    return jets.FUNCTION_TABLES["log"](v)


def _nodes(neg, add, add_c, sub, sub_c, c_sub, scale, mul, compose, one,
           lift):
    """The node builders of one kind of program, from its slot-wise
    builders, its product rule `mul` and chain rule `compose` over slot
    tuples, its constant jet `one`, and `lift`, which turns a scalar table
    v -> (f, f', f'') into the one its nodes call.  Every node that takes
    f, f', f'' from a table (function, reciprocal, power) is written here
    once for all kinds."""
    recip, log_base, exp = (lift(jets.recip_table), lift(_log_base),
                            lift(jets.FUNCTION_TABLES["exp"]))

    def chain(a, table):
        def apply(C):
            x = a(C)
            return compose(x, *table(x[0]))
        return apply

    def function(name, a):
        return chain(a, lift(jets.FUNCTION_TABLES[name]))

    def mul_jj(a, b):
        return lambda C: mul(a(C), b(C))

    def div_jc(a, c):
        if c == 0.0:
            def div(C):
                a(C)
                raise DivisionByZero("division by zero")
            return div
        return scale(a, 1.0 / c)

    def pow_jc(a, e):
        """a^e for a constant exponent, following the operator jets' `**`."""
        if e == 0.0:
            def power(C):
                a(C)
                return one
            return power
        if e == 1.0:
            return a
        return chain(a, lift(jets.power_table(e)))

    def pow_cj(c, b):
        """c^b for a constant base: exp(b * log c), as the operator jets do."""
        if c <= 0.0:
            def power(C):
                b(C)
                raise DomainError(f"power with non-positive base {c!r}")
            return power
        return function("exp", scale(b, math.log(c)))

    def pow_jj(a, b):
        """a^b as exp(b * log a), as the operator jets do: both operands
        first, then the base's check."""
        def power(C):
            x = a(C)
            z = mul(b(C), compose(x, *log_base(x[0])))
            return compose(z, *exp(z[0]))
        return power

    return _Nodes(
        neg, function,
        {"+": add, "-": sub, "*": mul_jj,
         "/": lambda a, b: mul_jj(a, chain(b, recip)), "^": pow_jj},
        {"+": add_c, "-": sub_c, "*": scale, "/": div_jc, "^": pow_jc},
        # constant on the left: + and * commute slot by slot, as in
        # the operator jets' __radd__ and __rmul__
        {"+": lambda c, b: add_c(b, c), "-": c_sub,
         "*": lambda c, b: scale(b, c),
         "/": lambda c, b: scale(chain(b, recip), c), "^": pow_cj})


def _elementwise(table):
    """A scalar table that also takes a float64 array, running at each
    element (`jets.tabulate`), never numpy's exp, log or power, whose last
    bits differ from libm's."""
    tabulate = jets.tabulate
    return lambda v: tabulate(table, v) if type(v) is ndarray else table(v)


# Over a grid each slot is a float64 array, or a float where it does not
# depend on the point.  + - * / run in numpy, which rounds them as Python
# does, and each table runs at every element, so the order-2 nodes serve
# points and grids alike.
_NODES = _nodes(_lower_neg, _add_jj, _add_jc, _sub_jj, _sub_jc, _sub_cj,
                _scale, jets.mul_slots, jets.compose_slots, _ONE, _elementwise)
_FIRST_NODES = _nodes(
    _neg_first, _add_first_jj, _add_first_jc, _sub_first_jj, _sub_first_jc,
    _sub_first_cj, _scale_first, jets.mul_first, jets.compose_first,
    (1.0, 0.0, 0.0), lambda table: table)


def _run_columns(programs, coords):
    """The programs over arrays of points, with every slot an array (a slot
    that does not depend on the point stays a float until here)."""
    # seeded as `_seeded` seeds scalars, with the arrays as values
    C = tuple((c,) + slots[1:]
              for c, slots in zip(coords, _seeded(*[0.0] * len(coords))))
    shape = coords[0].shape
    with np.errstate(all="ignore"):
        values = [program(C) for program in programs]
    return [tuple(slot if type(slot) is ndarray else np.full(shape, slot)
                  for slot in slots)
            for slots in values]


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_text(ast):
    """Canonical printed form; parse(to_text(parse(s))) == parse(s) while
    the printed form, which brackets nested minus signs, stays within
    MAX_DEPTH."""
    return _print(ast, 0)


def _print(ast, parent_prec):
    if isinstance(ast, Constant):
        value = ast.value
        if math.isinf(value):
            text = "-1e999" if value < 0 else "1e999"
        elif value == int(value) and abs(value) < 1e16:
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
