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

`evaluate` walks a tree over plain floats, for constant folding and the
public API only.  Every value and derivative at a point or grid comes from
trees lowered once, for functions of one, two or three variables: by
`lower_jet2` into closures over 2-jet slot tuples, which also run once on
float64 arrays of a grid's coordinates, or, for the first-order slots
alone (v, du, dv), by `first_order_function` into one straight-line Python
function, emitted as source with a caller's function body and compiled.
Their reference, a tree walk over a 2-jet class with operators that
performs the same float operations, is `tests/oracle.py`.
"""

from __future__ import annotations

import keyword
import math
import re
from dataclasses import dataclass
from operator import add, itemgetter, mul, sub

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


def evaluate(ast, bindings):
    """The float value of `ast` with its variables bound to floats."""
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
        if float(right) == 0.0:
            raise DivisionByZero("division by zero")
        return left / right
    if ast.op == "^":
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


# --- lowering -------------------------------------------------------------
#
# `_lower_with` walks a tree once and is the only place that knows the
# operator rules.  It folds constant subtrees to floats, chains a named
# function through its table, and hands every other binary node to its rule
# in `_OPERATORS`.  A backend, `nodes`, supplies only the operations on
# slots that the rules name: variable raising then constant neg add sub
# add_c sub_c c_sub scale mul chain pow_c pow, where `then(a, b)` is b after
# a and `chain(a, table)` is f(a) from a table of f, f', f''.  The rules and
# operations perform exactly the float operations that the tree walk over
# operator jets in `tests/oracle.py` performs, in the same order, so results
# are bit-identical and the same exceptions are raised with the same
# messages.
#
# `_Closures` makes order-2 closures C -> (v, du, dv, duu, duv, dvv), where C
# holds one slot tuple per coordinate.  `_FirstOrderSource` makes the triples
# (v, du, dv) of one straight-line Python function that it emits.  That
# function performs the part of the order-2 operations that yields the first
# three slots: none of those reads a second-order slot.  A table of f, f',
# f'' is called whole, so it raises where order 2 raises, but where f''
# cannot raise unless f or f' does (integer powers from 2, as |v|^(n-2)
# overflows only where |v|^n does, the reciprocal, sin and cos), f and f'
# are inline source that calls the table only where it raises.  A negative
# power's f'' can overflow alone, and sqrt's has its own check.

_SCALARS = (float, int)  # a point's coordinates; a grid's are arrays


def lower_jet2(asts, seeds):
    """Compile trees once into a function (*coords) -> list of 2-jet slot
    tuples (v, du, dv, duu, duv, dvv), one per tree in `asts`.

    `seeds` maps variable names to coordinate indices; any other name raises
    UnboundVariable when evaluated.  The function seeds coordinate 0 along
    u and coordinate 1 along v, and holds any later coordinate as a jet with
    zero derivatives, so a function of one variable reads its derivatives
    from du and duu, and one of three variables gives five of its partials
    per pass.  A tree that equals an earlier one is lowered and evaluated
    once.  Results are those of the operator-jet tree walk in
    `tests/oracle.py` with the same seeding, bit for bit.

    The trees become closures, lowered at the first call.  The coordinates
    may also be 1-D float64 arrays of one length, the points of a grid;
    every slot is then an array, and element i holds the bits of the scalar
    call at the i-th point.  If any point fails, some error is raised, not
    necessarily the one of the first failing point.  Points and grids run
    the same closures.
    """
    trees, picks, index = [], [], {}
    for ast in asts:
        # Constant(0.0) == Constant(-0.0), so an equal tree is taken only
        # when its repr matches too: only trees equal bit for bit merge
        i = index.get(ast)
        if i is None or repr(trees[i]) != repr(ast):
            i = len(trees)
            index.setdefault(ast, i)
            trees.append(ast)
        picks.append(i)
    programs = None

    def run(*coords):
        nonlocal programs
        if programs is None:
            programs = [_lower_root(ast, seeds, _Closures) for ast in trees]
        if isinstance(coords[0], _SCALARS):
            C = _seeded(*coords)
            values = [program(C) for program in programs]
        else:
            values = _run_columns(programs, coords)
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


def _lower_root(ast, seeds, nodes):
    """The node of a whole tree; a tree that folds becomes a constant."""
    node = _lower_with(ast, seeds, nodes)
    return nodes.constant(float(node)) if _folded(node) else node


def _folded(node):
    """Whether a lowered node is a constant, folded to a number."""
    return isinstance(node, (int, float))


def _lower_with(ast, seeds, nodes):
    if isinstance(ast, Constant):
        return ast.value
    if isinstance(ast, Variable):
        coordinate = seeds.get(ast.name)
        if coordinate is None:
            return nodes.raising(_raiser(UnboundVariable,
                                         f"unbound variable {ast.name!r}"))
        return nodes.variable(coordinate)
    if isinstance(ast, Unary):
        child = _lower_with(ast.child, seeds, nodes)
        if _folded(child):
            return _fold(Unary(ast.op, Constant(child)), nodes)
        if ast.op == "neg":
            return nodes.neg(child)
        return nodes.chain(child, jets.FUNCTION_TABLES[ast.op])
    left = _lower_with(ast.left, seeds, nodes)
    right = _lower_with(ast.right, seeds, nodes)
    if _folded(left) and _folded(right):
        return _fold(Binary(ast.op, Constant(left), Constant(right)), nodes)
    return _OPERATORS[ast.op](nodes, left, right)


def _fold(ast, nodes):
    """The float value of a constant node, or a node that raises what
    evaluating it raises, at its place in evaluation order."""
    try:
        return _eval(ast, {})
    except NumericError:
        return nodes.raising(lambda: _eval(ast, {}))


def _raiser(error, message):
    """A callable that raises error(message)."""
    def raise_error():
        raise error(message)
    return raise_error


# The rule of each operator, over two nodes or a node and a constant on
# either side.  A constant on the left of + and * commutes, as in the
# operator jets' __radd__ and __rmul__.

def _add(nodes, a, b):
    if _folded(a):
        a, b = b, a
    return nodes.add_c(a, float(b)) if _folded(b) else nodes.add(a, b)


def _sub(nodes, a, b):
    if _folded(b):
        return nodes.sub_c(a, float(b))
    return nodes.c_sub(float(a), b) if _folded(a) else nodes.sub(a, b)


def _mul(nodes, a, b):
    if _folded(a):
        a, b = b, a
    return nodes.scale(a, float(b)) if _folded(b) else nodes.mul(a, b)


def _div(nodes, a, b):
    """a/c scales by 1/c; a divisor that is a node multiplies by its
    reciprocal."""
    if _folded(b):
        if b == 0.0:
            return nodes.then(a, nodes.raising(
                _raiser(DivisionByZero, "division by zero")))
        return nodes.scale(a, 1.0 / float(b))
    recip = nodes.chain(b, jets.recip_table)
    return nodes.scale(recip, float(a)) if _folded(a) else nodes.mul(a, recip)


def _pow(nodes, a, b):
    """a^b as the operator jets' `**`: a constant exponent takes a power
    table, and any other power is exp(b log a)."""
    if _folded(b):
        if b == 0.0:
            return nodes.then(a, nodes.constant(1.0))
        return a if b == 1.0 else nodes.pow_c(a, float(b))
    if _folded(a):
        if a <= 0.0:
            return nodes.then(b, nodes.raising(_raiser(
                DomainError, f"power with non-positive base {float(a)!r}")))
        return nodes.chain(nodes.scale(b, math.log(a)),
                           jets.FUNCTION_TABLES["exp"])
    # both operands first, then the base's check
    return nodes.pow(a, b)


_OPERATORS = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}


def _log_base(v):
    """The log table at the base of a^b, whose base must be positive."""
    if v <= 0.0:
        raise DomainError(f"jet power with non-positive base {v!r}")
    return jets.FUNCTION_TABLES["log"](v)


# order 2: slot-wise closures

def _elementwise(table):
    """A scalar table that also takes a float64 array, running at each
    element (`jets.tabulate`), never numpy's exp, log or power, whose last
    bits differ from libm's."""
    tabulate = jets.tabulate
    return lambda v: table(v) if isinstance(v, _SCALARS) else tabulate(table, v)


class _Closures:
    """The operations on order-2 closures, for `_lower_with`.  Over a grid
    each slot is a float64 array, or a float where it does not depend on
    the point: + - * / run in numpy, which rounds them as Python does, and
    each table runs at every element, so the closures serve points and
    grids alike."""

    variable = staticmethod(itemgetter)

    @staticmethod
    def raising(raise_error):
        return lambda C: raise_error()

    @staticmethod
    def then(a, b):
        def then(C):
            a(C)
            return b(C)
        return then

    @staticmethod
    def constant(c):
        slots = (c, 0.0, 0.0, 0.0, 0.0, 0.0)
        return lambda C: slots

    @staticmethod
    def neg(a):
        def neg(C):
            v, du, dv, duu, duv, dvv = a(C)
            return (-v, -du, -dv, -duu, -duv, -dvv)
        return neg

    @staticmethod
    def add(a, b):
        def add(C):
            av, adu, adv, aduu, aduv, advv = a(C)
            bv, bdu, bdv, bduu, bduv, bdvv = b(C)
            return (av + bv, adu + bdu, adv + bdv,
                    aduu + bduu, aduv + bduv, advv + bdvv)
        return add

    @staticmethod
    def sub(a, b):
        def sub(C):
            av, adu, adv, aduu, aduv, advv = a(C)
            bv, bdu, bdv, bduu, bduv, bdvv = b(C)
            return (av - bv, adu - bdu, adv - bdv,
                    aduu - bduu, aduv - bduv, advv - bdvv)
        return sub

    @staticmethod
    def add_c(a, c):
        def add(C):
            v, du, dv, duu, duv, dvv = a(C)
            return (v + c, du, dv, duu, duv, dvv)
        return add

    @staticmethod
    def sub_c(a, c):
        def sub(C):
            v, du, dv, duu, duv, dvv = a(C)
            return (v - c, du, dv, duu, duv, dvv)
        return sub

    @staticmethod
    def c_sub(c, b):
        def sub(C):
            v, du, dv, duu, duv, dvv = b(C)
            return (c - v, -du, -dv, -duu, -duv, -dvv)
        return sub

    @staticmethod
    def scale(a, c):
        def scale(C):
            v, du, dv, duu, duv, dvv = a(C)
            return (v * c, du * c, dv * c, duu * c, duv * c, dvv * c)
        return scale

    @staticmethod
    def mul(a, b):
        mul = jets.mul_slots
        return lambda C: mul(a(C), b(C))

    @staticmethod
    def chain(a, table):
        compose, table = jets.compose_slots, _elementwise(table)

        def apply(C):
            x = a(C)
            return compose(x, *table(x[0]))
        return apply

    @staticmethod
    def pow_c(a, e):
        return _Closures.chain(a, jets.power_table(e))

    @staticmethod
    def pow(a, b):
        """a^b as exp(b * log a): both operands first, then the base's
        check."""
        mul, compose = jets.mul_slots, jets.compose_slots
        log_base, exp = map(_elementwise,
                            (_log_base, jets.FUNCTION_TABLES["exp"]))

        def power(C):
            x = a(C)
            z = mul(b(C), compose(x, *log_base(x[0])))
            return compose(z, *exp(z[0]))
        return power


def _run_columns(programs, coords):
    """The programs over arrays of points, with every slot an array (a slot
    that does not depend on the point stays a float until here)."""
    import numpy as np
    # seeded as `_seeded` seeds scalars, with the arrays as values
    C = tuple((c,) + slots[1:]
              for c, slots in zip(coords, _seeded(*[0.0] * len(coords))))
    shape = coords[0].shape
    with np.errstate(all="ignore"):
        values = [program(C) for program in programs]
    return [tuple(slot if type(slot) is np.ndarray else np.full(shape, slot)
                  for slot in slots)
            for slots in values]


# order 1: one emitted function

def first_order_function(asts, seeds, names, body, params, namespace):
    """One straight-line function of `params`, float coordinates first,
    that computes the order-1 jets (v, du, dv) of `asts`, with the bits of
    the first three slots of `lower_jet2(asts, seeds)` and its exceptions,
    and then runs `body`: the source of a function body over `params`, the
    names of `namespace`, and names[i] for the slots of asts[i].

    The jets cost only the first-order arithmetic.  A subtree that equals an
    earlier one is computed once, and every name in the body becomes a
    generated one, so the source holds only generated names and float
    literals."""
    emitter = _FirstOrderSource()
    args = [f"c{i}" for i in range(len(params))]
    rename = dict(zip(params, args))
    rename.update((name, emitter._bind(obj))
                  for name, obj in namespace.items())
    for ast, jet_names in zip(asts, names):
        jet = _lower_root(ast, seeds, emitter)
        rename.update((name, f"({slot!r})" if type(slot) is float else slot)
                      for name, slot in zip(jet_names, jet))

    def generated(match):
        name = match.group()
        if not keyword.iskeyword(name) and name not in rename:
            rename[name] = emitter._fresh()
        return rename.get(name, name)

    lines = emitter.lines + re.sub(_IDENTIFIER, generated, body).splitlines()
    return emitter.compiled(f"def program({', '.join(args)}):\n" + "".join(
        f"    {line}\n" for line in lines))


_ARITHMETIC = {"+": add, "-": sub, "*": mul}

# a name in Python source; `re` compiles it at the first emission
_IDENTIFIER = r"(?<![\w.])[A-Za-z_]\w*"


class _Text(str):
    """The source of an operation on earlier slots, not yet named."""


class _FirstOrderSource:
    """The operations on order-1 jets, for `_lower_with`, as the statements
    of one program, emitted node by node: a node's operands are emitted
    before it, so evaluation order is emission order.

    A jet is a triple (v, du, dv) whose slots are generated names or finite
    floats, written as literals.  An operation on two literals is done here,
    with the float operation the program would do; one with a name is
    emitted, so x*1.0 and x*0.0 are kept and keep the sign of zero and NaN.
    One statement names the new slots of a node, and an operation or table
    call already emitted on the same operands is not emitted again.
    Tables, non-finite constants and the callables that raise are bound in
    `namespace` under generated names, so the source holds only generated
    names and float literals.
    """

    def __init__(self):
        self.lines = []
        self.namespace = {}
        self._count = 0
        self._bound = {}  # id of a bound object -> its name
        self._named = {}  # text of an emitted operation -> its name
        self._calls = {}  # text of an emitted table call -> its three names
        self._powers = {}  # exponent -> its power table
        self._forms = dict(_FORMS)  # table -> its inline form

    def compiled(self, source):
        exec(compile(source, "<order-1 program>", "exec"), self.namespace)
        return self.namespace["program"]

    def literal(self, x):
        """A constant slot: a literal when finite, else a bound name."""
        return x if math.isfinite(x) else self._bind(x)

    def _fresh(self):
        self._count += 1
        return f"s{self._count}"

    def _bind(self, obj):
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = f"k{len(self._bound)}"
            self.namespace[name] = obj
        return name

    def _op(self, a, symbol, b):
        if type(a) is float and type(b) is float:
            return self.literal(_ARITHMETIC[symbol](a, b))
        return _Text(f"({_slot_source(a)} {symbol} {_slot_source(b)})")

    @staticmethod
    def _neg(a):
        return -a if type(a) is float else _Text(f"(-{a})")

    def _emit(self, *slots):
        """The jet of `slots`, whose new operations are named by one
        statement."""
        jet, targets, values = [], [], []
        for slot in slots:
            if type(slot) is _Text:
                name = self._named.get(slot)
                if name is None:
                    name = self._named[slot] = self._fresh()
                    targets.append(name)
                    values.append(slot)
                slot = name
            jet.append(slot)
        if targets:
            self.lines.append(f"{', '.join(targets)} = {', '.join(values)}")
        return tuple(jet)

    def _call(self, table, slot):
        """The names of (f, f') that `table` returns at `slot`: a call, or
        the table's inline form, whose error makes the same call."""
        x = _slot_source(slot)
        call = f"{self._bind(table)}({x})"
        names = self._calls.get(call)
        if names is None:
            names = self._calls[call] = (self._fresh(), self._fresh(),
                                         self._fresh())
            statement = f"{', '.join(names)} = {call}"
            form = self._forms.get(table)
            if form is None:
                self.lines.append(statement)
            else:
                value, slope = (part.format(
                    x=f"({x})" if type(slot) is float else x, f=names[0],
                    sin=self._bind(math.sin), cos=self._bind(math.cos))
                    for part in form)
                self.lines += ["try:", f"    {names[0]} = {value}",
                               f"    {names[1]} = {slope}",
                               f"except {self._bind(_FORM_ERRORS)}:",
                               f"    {statement}"]
        return names[:2]

    def variable(self, coordinate):
        # coordinate i is the parameter c{i}, seeded as `_seeded` seeds it
        return (f"c{coordinate}", float(coordinate == 0),
                float(coordinate == 1))

    def raising(self, raise_error):
        names = (self._fresh(), self._fresh(), self._fresh())
        self.lines.append(f"{', '.join(names)} = {self._bind(raise_error)}()")
        return names

    @staticmethod
    def then(a, b):
        return b  # a's statements are already emitted

    def constant(self, c):
        return (self.literal(c), 0.0, 0.0)

    def neg(self, a):
        return self._emit(*map(self._neg, a))

    def add(self, a, b):
        return self._emit(*(self._op(x, "+", y) for x, y in zip(a, b)))

    def sub(self, a, b):
        return self._emit(*(self._op(x, "-", y) for x, y in zip(a, b)))

    def add_c(self, a, c):
        return self._emit(self._op(a[0], "+", self.literal(c)), a[1], a[2])

    def sub_c(self, a, c):
        return self._emit(self._op(a[0], "-", self.literal(c)), a[1], a[2])

    def c_sub(self, c, b):
        return self._emit(self._op(self.literal(c), "-", b[0]),
                          self._neg(b[1]), self._neg(b[2]))

    def scale(self, a, c):
        c = self.literal(c)
        return self._emit(*(self._op(x, "*", c) for x in a))

    def mul(self, a, b):
        """The product rule, as `jets.mul_slots` takes its first three
        slots."""
        op = self._op
        (av, adu, adv), (bv, bdu, bdv) = a, b
        return self._emit(op(av, "*", bv),
                          op(op(adu, "*", bv), "+", op(av, "*", bdu)),
                          op(op(adv, "*", bv), "+", op(av, "*", bdv)))

    def chain(self, a, table):
        """f(a) from the table of f, f', f'' at a's value, as
        `jets.compose_slots` takes its first three slots."""
        f0, f1 = self._call(table, a[0])
        return self._emit(f0, self._op(f1, "*", a[1]),
                          self._op(f1, "*", a[2]))

    def pow_c(self, a, e):
        # equal exponents have equal bits, as 0 and -0 do not get here; a
        # NaN equals no other key and gets a table of its own
        if e not in self._powers:
            table = self._powers[e] = jets.power_table(e)
            if e.is_integer() and 2.0 <= e <= jets.INT_EXP_LIMIT:
                # v ** n of an int n rounds as v ** float(n); v ** 1.0 has
                # v's bits, so the square's slope makes no pow call
                slope = "{x}" if e == 2.0 else f"{{x}} ** {e - 1.0!r}"
                self._forms[table] = (f"{{x}} ** {e!r}", f"{e!r} * {slope}")
        return self.chain(a, self._powers[e])

    def pow(self, a, b):
        """a^b as exp(b * log a): the base's check after both operands."""
        return self.chain(self.mul(b, self.chain(a, _log_base)),
                          jets.FUNCTION_TABLES["exp"])


# table -> the sources of its f and f' at {x} with its float operations, {f}
# reading f (see the lowering notes); each integer power from 2 adds its own
_FORMS = {
    jets.recip_table: ("1.0 / {x}", "-{f} * {f}"),
    jets.FUNCTION_TABLES["sin"]: ("{sin}({x})", "{cos}({x})"),
    jets.FUNCTION_TABLES["cos"]: ("{cos}({x})", "-{sin}({x})"),
}
# what an inline form raises where its table raises a NumericError
_FORM_ERRORS = (ArithmeticError, ValueError)


def _slot_source(slot):
    """A slot as source: its name, or the literal of its float."""
    return repr(slot) if type(slot) is float else slot


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
