"""Closed-form expression language over a space variable and a sequence index.

The vocabulary is deliberately small: numeric literals, ``pi``, the space
variable ``x``, the index variable ``nu``, rational arithmetic, integer
powers, and the unary functions sin, cos, exp, tanh, cosh.  Every expression
is smooth wherever its denominators stay away from zero, and the class is
closed under differentiation (cosh' is written tanh*cosh, tanh' as cosh^-2).

Sums and products are flat: ``Add`` holds (op, node) terms, op ``+`` or
``-``, and ``Mul`` (op, node) factors, op ``*`` or ``/``; the first op is
``+`` or ``*``.  Only a left operand of the same kind is flattened, so a flat
node is the binary left chain with its spine collapsed (``a + (b + c)`` keeps
its inner sum) and a chain of any length is one level deep.  Each walk folds
a flat node left to right with the rule of one binary node, so values round,
term maps collect, text prints and derivatives nest as on binary chains.

Nodes are immutable and hash-consed: a constructor returns the one live node
of its type and fields, so equal trees are one object and ``==`` and
``hash`` are identity.  ``simplify`` produces a deterministic normal form:
like terms of a sum and like factors of a product are collected, constants
are folded, and the result is rebuilt as the exact tree the parser would
produce on its own printout, so ``parse(to_string(simplify(e))) is
simplify(e)``.  Products are never distributed over multi-term sums and no
trigonometric identities are applied.

Each node keeps its printed form (stored by ``to_string``), its normal-form
term map and its compiled function once computed, and every holder of the
structure shares them, however it was built.  Term maps are read-only, as
every later caller is handed the stored one.  ``diff`` passes one memo,
keyed by node, down through ``_d`` for all orders, so each distinct
subexpression is differentiated once per call; ``_d`` folds term maps and
builds no chain node.  The memo dies with the call.

Every value comes from one generated function ``f(nu, x)`` per expression,
compiled once and kept on its root node, with x an array:
``evaluate_on_grid`` passes a grid and ``_on_lanes`` one point and one index
per lane.  Both run under an error state that ignores everything and pass
inf and nan through.  ``_defined_values`` states where a value is defined:
where it is finite and none of the expression's denominators is zero.
``_compile`` writes the tree as the source of one Python expression: a flat
node is a left-associative chain ``a - b + c``, which Python folds left to
right as the walks fold, and every inner sum, product, negation and power
sits in parentheses.  Each constant is a float64 parameter, each exponent an
int parameter and each call a numpy ufunc parameter, so every numpy
operation gets the operands, of the types and in the order, that a
node-by-node evaluation gives it, and the results are equal bit for bit.  A
subexpression 50 levels deep, counting chain parts, goes to a local
temporary first, so no tree is too deep or too long for Python's parser.
The source is wrapped in a factory ``make(c0, ...)`` that returns ``f``,
and factories are cached by source text in one bounded ``lru_cache``: trees
of one shape with other constants share one code object and skip Python's
compiler.  The source is built only from node types, parameter names,
temporaries, ``nu``, ``x`` and the four operators; no text a user wrote
enters it, so ``exec`` runs nothing a user chose.

``_enclose`` is the one interval evaluator: it folds the tree as ``f``
does, with each operation's bounds widened outward, so the bounds hold every
value ``f`` computes for nu and x in a box.  ``denominator_safety`` takes
the indices it samples from its one caller, ``sequences.admission``, and
first encloses each distinct denominator over the box of those indices and
the grid's hull; one that the enclosure keeps away from zero is not
sampled.  Any other it calls once on the block of those indices (a column)
by every grid point (a row), then refines all rows' argmin brackets
together with ``_numutil.refine_min_abs_lanes`` through ``_on_lanes``;
membership witness roots are bisected the same way.  An x-free power of the
index, such as ``(nu-1.738)^3``, is an array power on lanes and a scalar
power on a grid, and may differ in the last bit.
"""

from __future__ import annotations

import math
import re
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from ._numutil import refine_min_abs_lanes
from ._report import Record

FUNCTIONS = ("sin", "cos", "exp", "tanh", "cosh")

_NP_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "cosh": np.cosh,
}

_MATH_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "tanh": math.tanh,
    "cosh": math.cosh,
}


class ParseError(ValueError):
    """Syntax or vocabulary error, carrying the offending text offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class EvalError(ValueError):
    """Raised when an expression cannot be evaluated at all: an unbound placeholder."""


class _Interned(type):
    """Metaclass of the nodes: one live node per type and fields, held weakly.

    The lookup and the entry are two steps, so nodes are built on one thread.
    """

    def __call__(cls, *fields):
        # checked first: Pow(x, True) must raise even while Pow(x, 1) lives
        if cls._fields is not None:
            fields = cls._fields(*fields)
        key = (cls, *fields)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields, strict=True):
                object.__setattr__(node, name, value)
            _NODES[key] = weakref.KeyedRef(node, _forget, key)
        return node


def _forget(ref):
    # a dead node's entry, unless a node of the same structure took its key
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


_NODES = {}


class Expr(metaclass=_Interned):
    """Base class for expression nodes; the three cache slots are unset until used.

    A node type lists its fields as ``__slots__`` and ``__match_args__``.
    """

    __slots__ = ("_text", "_term_map", "_closure", "__weakref__")
    _fields = None  # a node type's check: the given fields to the stored ones

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, which interns
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])

    def __add__(self, other):
        return _chain(self, "+", other)

    def __sub__(self, other):
        return _chain(self, "-", other)

    def __mul__(self, other):
        return _chain(self, "*", other)

    def __pow__(self, exponent):
        return Pow(self, exponent)

    def __repr__(self):
        return to_string(self)

    def __setattr__(self, *_):
        # an interned node is shared by every holder of its structure
        raise AttributeError("expression nodes are immutable")

    __delattr__ = __setattr__


class Num(Expr):
    __slots__ = __match_args__ = ("value",)

    @staticmethod
    def _fields(value):
        v = float(value)
        return (0.0 if v == 0.0 else v,)


class Pi(Expr):
    __slots__ = __match_args__ = ()


class Var(Expr):
    __slots__ = __match_args__ = ("name",)

    @staticmethod
    def _fields(name):
        if name not in ("x", "nu", "u"):
            raise ValueError(f"unknown variable {name!r}")
        return (name,)


class Neg(Expr):
    __slots__ = __match_args__ = ("operand",)


class Add(Expr):
    __slots__ = __match_args__ = ("terms",)  # (op, node) pairs, op "+" or "-", the first "+"


class Mul(Expr):
    __slots__ = __match_args__ = ("factors",)  # (op, node) pairs, op "*" or "/", the first "*"


class Pow(Expr):
    __slots__ = __match_args__ = ("base", "exponent")

    @staticmethod
    def _fields(base, exponent):
        # bools are ints but make no sense as exponents
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("power exponents must be plain integers")
        return base, exponent


class Call(Expr):
    __slots__ = __match_args__ = ("fn", "arg")

    @staticmethod
    def _fields(fn, arg):
        if fn not in FUNCTIONS:
            raise ValueError(f"unknown function {fn!r}")
        return fn, arg


x = Var("x")
nu = Var("nu")
pi = Pi()
_ZERO = Num(0.0)  # the base of the zero division sentinel


def _flat(parts):
    """One node from (op, node) parts, the first op "+" or "*"; a first node of its kind splices."""
    op, first = parts[0]
    if len(parts) == 1:
        return first
    if op == "+":
        return Add((*first.terms, *parts[1:]) if isinstance(first, Add) else tuple(parts))
    return Mul((*first.factors, *parts[1:]) if isinstance(first, Mul) else tuple(parts))


def _chain(left, op, right):
    return _flat((("+" if op in "+-" else "*", left), (op, right)))


def substitute(e, name, replacement):
    """Replace every occurrence of the variable `name` by `replacement`."""
    match e:
        case Var(n):
            return replacement if n == name else e
        case Num() | Pi():
            return e
        case Neg(a):
            return Neg(substitute(a, name, replacement))
        case Add(parts) | Mul(parts):
            replaced = []
            for op, node in parts:
                replaced.append((op, substitute(node, name, replacement)))
            return _flat(replaced)
        case Pow(b, k):
            return Pow(substitute(b, name, replacement), k)
        case Call(fn, a):
            return Call(fn, substitute(a, name, replacement))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# domain


@dataclass(frozen=True, slots=True)
class DomainInterval:
    """Open interval of the space variable; finite, lower < upper."""

    lower: float
    upper: float

    def __post_init__(self):
        lo = float(self.lower)
        hi = float(self.upper)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("domain endpoints must be finite")
        if not lo < hi:
            raise ValueError("domain must satisfy lower < upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def length(self):
        return self.upper - self.lower

    def interior_grid(self, count):
        """Evenly spaced sample points, endpoints excluded."""
        return np.linspace(self.lower, self.upper, count + 2)[1:-1]

    def to_dict(self):
        """Report form: the endpoints as a two-element list."""
        return [self.lower, self.upper]


DEFAULT_DOMAIN = DomainInterval(-1.0, 1.0)


# ---------------------------------------------------------------------------
# evaluation


# Distinct expression shapes whose generated factory is kept; a tree of a
# kept shape compiles without running Python's compiler.
_SHAPE_CACHE_SIZE = 256
# AST depth at which a running subexpression moves to a local temporary, so
# no line of generated source nears the parser's nesting or the compiler's
# recursion limit however deep or long the tree is
_SPILL_DEPTH = 50


class _Source:
    """Body lines and parameters of the generated function f(nu, x).

    Only node types, parameter names, temporaries, nu, x and the four
    operators enter the text; every literal value is a parameter.
    """

    def __init__(self):
        self.lines = []
        self.names = []
        self.values = []
        self.temps = 0

    def param(self, kind, value):
        name = f"{kind}{len(self.names)}"
        self.names.append(name)
        self.values.append(value)
        return name

    def temp(self, text, at=None):
        name = f"t{self.temps}"
        self.temps += 1
        self.lines.insert(len(self.lines) if at is None else at, f"{name} = {text}")
        return name

    def spill(self, text, depth):
        return (self.temp(text), 0) if depth >= _SPILL_DEPTH else (text, depth)


def _operand(node, text):
    """text as an operand: a name or a call stands bare, anything else in parentheses."""
    return text if text.isidentifier() or isinstance(node, Call) else f"({text})"


def _write(e, src):
    """Python text of e and its AST depth, deep parts spilled to src's temporaries.

    Every numpy operation gets the operands, of the types and in the order,
    that folding each flat node left to right gives it: a flat node is a
    left-associative chain, constants are float64 parameters, exponents int
    parameters and calls numpy ufunc parameters.
    """
    match e:
        case Num() | Pi():
            # float64 constants keep every operation under numpy's error state
            return src.param("c", np.float64(math.pi if isinstance(e, Pi) else e.value)), 0
        case Var("x" | "nu"):
            return e.name, 0
        case Var():
            raise EvalError("operation placeholder 'u' is unbound at evaluation")
        case Neg(a):
            text, depth = _write(a, src)
            return src.spill(f"-{_operand(a, text)}", depth + 1)
        case Add(parts) | Mul(parts):
            (_, first), *rest = parts
            text, depth = _write(first, src)
            text = _operand(first, text)
            for op, node in rest:
                mark = len(src.lines)
                part, part_depth = _write(node, src)
                if len(src.lines) > mark and not text.isidentifier():
                    # the left operand runs before the part's temporaries, as in a fold
                    text, depth = src.temp(text, at=mark), 0
                text = f"{text} {op} {_operand(node, part)}"
                depth = max(depth, part_depth) + 1
                if depth >= _SPILL_DEPTH:
                    text, depth = src.temp(text), 0
            return text, depth
        case Pow(b, k):
            text, depth = _write(b, src)
            return src.spill(f"{_operand(b, text)} ** {src.param('k', k)}", depth + 1)
        case Call(fn, a):
            text, depth = _write(a, src)
            return src.spill(f"{src.param('f', _NP_FUNCTIONS[fn])}({text})", depth + 1)
    raise TypeError(f"not an expression node: {e!r}")


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _factory(source):
    namespace = {}
    exec(source, namespace)
    return namespace["make"]


def _compile(e):
    """One generated function f(nu, x) for e: scalars in, scalar out; x array in, array out."""
    src = _Source()
    text, _ = _write(e, src)
    lines = [f"def make({', '.join(src.names)}):", "    def f(nu, x):"]
    lines += [f"        {line}" for line in (*src.lines, f"return {text}")]
    lines.append("    return f")
    return _factory("\n".join(lines))(*src.values)


def _compiled(e):
    closure = getattr(e, "_closure", None)
    if closure is None:
        closure = _compile(e)
        object.__setattr__(e, "_closure", closure)
    return closure


def evaluate_on_grid(e, nu_value, xs):
    """Vectorized value of e over an array of x samples.

    Non-finite values, poles included, are passed through for the caller to
    inspect.
    """
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        result = _compiled(e)(np.float64(nu_value), xs)
    return result if np.shape(result) == xs.shape else np.full_like(xs, result)


def _defined_values(e, nu_value, xs):
    """Values of e over an array of x samples, nan wherever e is undefined.

    A point is defined only when the value is finite and none of e's
    denominators is zero there: tanh(1/x) is tanh(inf) = 1 at x = 0, yet
    undefined.
    """
    values = evaluate_on_grid(e, nu_value, xs)
    undefined = ~np.isfinite(values)
    for den in dict.fromkeys(denominators(e)):
        undefined |= evaluate_on_grid(den, nu_value, xs) == 0.0
    return np.where(undefined, np.nan, values)


def _on_lanes(exprs, ids, nus):
    """points -> exprs[ids[i]] at (nus[i], points[i]) for every lane i, one call
    per distinct expression; run under an error state that ignores everything."""
    # np.bincount, not np.unique, which imports numpy.ma on first use
    groups = [(_compiled(exprs[k]), ids == k) for k in np.flatnonzero(np.bincount(ids))]

    def f(points):
        if len(groups) == 1:
            values = groups[0][0](nus, points)
            # only a constant comes back as a scalar
            return values if np.ndim(values) else np.full_like(points, values)
        out = np.empty_like(points)
        for closure, lanes in groups:
            out[lanes] = closure(nus[lanes], points[lanes])
        return out

    return f


# Each bound of an enclosure moves outward by this share of its size plus
# _SLACK_ABS, far more than the few ulps by which a numpy operation or a libm
# function errs, so it holds every value the compiled function computes.
_SLACK_REL = 2.0**-40
_SLACK_ABS = 2.0**-1000


def _widen(lo, hi):
    """[lo, hi] moved outward; a bound that is not finite is no proof."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise OverflowError("an enclosure bound is not finite")
    return lo - (abs(lo) * _SLACK_REL + _SLACK_ABS), hi + (abs(hi) * _SLACK_REL + _SLACK_ABS)


def _hull(*values):
    return _widen(min(values), max(values))


def _pow_bounds(lo, hi, k):
    """[lo, hi] ** k for an integer k; a negative k needs a base away from 0."""
    if k == 0:
        return 1.0, 1.0
    if k < 0:
        return _step_bounds((1.0, 1.0), "/", _pow_bounds(lo, hi, -k))
    if k % 2 == 0 and lo < 0.0 < hi:
        return _widen(0.0, max(lo**k, hi**k))
    return _hull(lo**k, hi**k)


def _step_bounds(left, op, right):
    """Bounds of `a op b` from those of a and b, one flat node's step."""
    (a, b), (c, d) = left, right
    if op == "+":
        return _widen(a + c, b + d)
    if op == "-":
        return _widen(a - d, b - c)
    if op == "/":
        if c <= 0.0 <= d:
            raise OverflowError("a division by an interval holding 0")
        return _hull(a / c, a / d, b / c, b / d)
    return _hull(a * c, a * d, b * c, b * d)


def _bounds(e, box):
    match e:
        case Num(v):
            return _widen(v, v)  # so every bound below is finite
        case Pi():
            return math.pi, math.pi
        case Var("x"):
            return box[2], box[3]
        case Var("nu"):
            return box[0], box[1]
        case Neg(a):
            lo, hi = _bounds(a, box)
            return -hi, -lo
        case Add(((_, first), *rest)) | Mul(((_, first), *rest)):
            bounds = _bounds(first, box)
            for op, node in rest:
                bounds = _step_bounds(bounds, op, _bounds(node, box))
            return bounds
        case Pow(b, k):
            return _pow_bounds(*_bounds(b, box), k)
        case Call(fn, a):
            lo, hi = _bounds(a, box)
            if fn in ("sin", "cos"):
                return _widen(-1.0, 1.0)
            if fn == "cosh":
                if lo <= 0.0 <= hi:
                    return _widen(1.0, math.cosh(max(-lo, hi)))
                return _hull(math.cosh(lo), math.cosh(hi))
            return _widen(_MATH_FUNCTIONS[fn](lo), _MATH_FUNCTIONS[fn](hi))  # exp, tanh
    raise TypeError(f"not an expression node: {e!r}")


def _enclose(e, box):
    """(lo, hi) holding every value the compiled f(nu, x) of e takes for nu and x
    in the box (nu_lo, nu_hi, x_lo, x_hi), on a grid or on lanes.

    Each flat node folds left to right, as f does, and every operation's
    bounds are widened outward (``_widen``).  sin and cos give [-1, 1], exp
    and tanh are monotone, cosh is least at 0, and integer powers follow
    their sign and parity.  A division by an interval that holds 0, a bound
    that is not finite and an overflow give (-inf, inf): no proof.
    """
    try:
        return _bounds(e, box)
    except OverflowError:
        return -math.inf, math.inf


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        # an operator's kind is the operator itself
        tokens.append((m.group() if m.lastgroup == "op" else m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


# Deepest nesting of parentheses, calls and unary minus the parser accepts.
# A parenthesised level costs the parser five frames, so text nested about
# 200 levels deep would exhaust the interpreter's stack while parsing.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text, variable_names):
        self.tokens = _tokenize(text)
        self.index = 0
        self.variable_names = variable_names
        self.nesting = 0

    def enter(self, position):
        """Open one nesting level at the token offset `position`."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", position)

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self):
        e = self.expression()
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"unexpected token {token[1]!r}", token[2])
        return e

    def expression(self):
        parts = [("+", self.term())]
        while self.peek()[0] in ("+", "-"):
            parts.append((self.advance()[0], self.term()))
        return _flat(parts)

    def term(self):
        parts = [("*", self.factor())]
        while self.peek()[0] in ("*", "/"):
            parts.append((self.advance()[0], self.factor()))
        return _flat(parts)

    def factor(self):
        negate = False
        if self.peek()[0] == "-":
            self.enter(self.advance()[2])
            negate = True
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            node = Pow(node, self.exponent())
        if negate:
            self.nesting -= 1
            # a leading minus on a bare literal (not a power) folds into the
            # literal, matching what the printer emits for negative coefficients
            if isinstance(node, Num):
                node = Num(-node.value)
            else:
                node = Neg(node)
        return node

    def exponent(self):
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        kind, text, pos = self.peek()
        if kind != "num":
            raise ParseError("expected an integer exponent", pos)
        if "." in text or "e" in text or "E" in text:
            raise ParseError("power exponents must be integers", pos)
        self.advance()
        return sign * int(text)

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            if text == "pi":
                return Pi()
            if text in self.variable_names:
                return Var(text)
            if text in FUNCTIONS:
                kind, _, after = self.advance()
                if kind != "(":
                    raise ParseError("expected '(' after function name", after)
                return Call(text, self.group(pos))
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "(":
            self.advance()
            return self.group(pos)
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)

    def group(self, position):
        """The expression after an opening parenthesis, through its ')'."""
        self.enter(position)
        e = self.expression()
        closing = self.peek()
        if closing[0] != ")":
            raise ParseError("expected ')'", closing[2])
        self.advance()
        self.nesting -= 1
        return e


def parse(text, variable_names=("x", "nu")):
    """Parse an expression in the given variables: a sequence tail's x and nu by
    default, an exceptional entry's x, or an operation body's placeholder u."""
    return _Parser(text, variable_names).parse()


# ---------------------------------------------------------------------------
# printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5
_PRECEDENCE = {Add: _PREC_ADD, Mul: _PREC_MUL, Neg: _PREC_UNARY, Pow: _PREC_POW}


def _precedence(e):
    """Binding strength of e's printed form; a negative literal binds as a unary minus."""
    if isinstance(e, Num) and e.value < 0:
        return _PREC_UNARY
    return _PRECEDENCE.get(type(e), _PREC_ATOM)


def format_number(v):
    if math.isinf(v):
        # the parser reads 1e999 back as the same infinity
        return "1e999" if v > 0 else "-1e999"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(e, context):
    # a printed form that to_string cached is reused here, never stored
    text = getattr(e, "_text", None)
    if text is None:
        match e:
            case Num(v):
                text = format_number(v)
            case Pi():
                text = "pi"
            case Var(name):
                text = name
            case Call(fn, a):
                text = f"{fn}({_render(a, 0)})"
            case Pow(b, k):
                base = _render(b, _PREC_ATOM)
                if isinstance(b, Num) and b.value < 0:
                    base = f"({base})"
                text = f"{base}^{k}"
            case Neg(a):
                # parenthesize literal operands: "-2" would re-parse as a literal
                text = "-" + _render(a, _PREC_ATOM + 1 if isinstance(a, Num) else _PREC_POW + 1)
            case Add(((_, first), *rest)) | Mul(((_, first), *rest)):
                level = _precedence(e)
                text = _render(first, level)
                for op, node in rest:
                    text += (f" {op} " if level == _PREC_ADD else op) + _render(node, level + 1)
            case _:
                raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if _precedence(e) < context else text


def to_string(e):
    """Render e so that re-parsing reproduces the same tree shape."""
    text = getattr(e, "_text", None)
    if text is None:
        text = _render(e, 0)
        object.__setattr__(e, "_text", text)
    return text


# ---------------------------------------------------------------------------
# normal form

# A term map sends a monomial, a tuple of (base, exponent) pairs ordered by
# printed base, to its real coefficient.  Bases are canonical sub-expressions;
# multi-term sums appearing as factors stay atomic, so products are never
# distributed.  No coefficient is nan: a sum, product or quotient that would
# make one raises this error.
_COEFFICIENT_OVERFLOW = "coefficient overflow: inf - inf, 0*inf or inf/inf makes a NaN coefficient"


def _order(factor):
    """A factor's place in a monomial: its base's printed form."""
    return to_string(factor[0])


def _monomial(factors):
    """Canonical monomial of a factor dict: factors ordered by printed base."""
    return tuple(sorted(factors.items(), key=_order))


def _ordered_terms(terms):
    """Items of a term map in canonical term order."""
    return sorted(
        terms.items(),
        key=lambda item: tuple((to_string(base), exponent) for base, exponent in item[0]),
    )


def _scale_terms(terms, factor):
    if factor == 0:
        return {}
    return {mono: c * factor for mono, c in terms.items()}


def _merge_terms(left, right):
    out = dict(left)
    for mono, c in right.items():
        total = out.get(mono, 0.0) + c
        if total == 0.0:
            out.pop(mono, None)
        elif total != total:
            raise ValueError(_COEFFICIENT_OVERFLOW)
        else:
            out[mono] = total
    return out


def _atomic_sum(terms):
    # Scale convention: the leading term of an atomic sum base has
    # coefficient one, the rest rides on the enclosing coefficient.  Without
    # this the normal form is not idempotent: -(a + b) vs (-a - b), and
    # -2*(1 + x) vs -(2 + 2*x), depending on how the factors associated.
    ordered = _ordered_terms(terms)
    lead = ordered[0][1] if ordered else 1.0
    if lead == 1.0:
        return 1.0, _from_terms(terms)
    if math.isinf(lead):  # the lead term would be inf / inf
        raise ValueError(_COEFFICIENT_OVERFLOW)
    # true division: lead/lead is exactly 1.0, reciprocal products are not
    return lead, _from_terms({mono: c / lead for mono, c in terms.items()})


def _as_single_term(terms):
    """View a term map as one (coefficient, monomial) product."""
    if not terms:
        return 0.0, ()
    if len(terms) == 1:
        (mono, c), = terms.items()
        return c, mono
    lead, base = _atomic_sum(terms)
    return lead, ((base, 1),)


def _combine_factors(coefficient, left, right):
    """Term map of coefficient times the monomials left and right.

    Each factor of right is placed into left by bisection, so no sort runs.
    """
    if coefficient == 0.0:
        return {}
    if coefficient != coefficient:
        raise ValueError(_COEFFICIENT_OVERFLOW)
    factors = list(left)
    for base, exponent in right:
        # distinct nodes print apart, so a base's place holds it if any does
        i = bisect_left(factors, to_string(base), key=_order)
        found = i < len(factors) and factors[i][0] is base
        total = factors[i][1] + exponent if found else exponent
        if total and base is _ZERO:
            # exponent arithmetic must not rescale the zero division sentinel
            total = -1
        if not found:
            factors.insert(i, (base, total))
        elif total:
            factors[i] = (base, total)
        else:
            del factors[i]
    if len(factors) == 1 and coefficient in (1.0, -1.0):
        (base, exponent), = factors
        if exponent == 1 and isinstance(base, Add):
            # a lone signed sum is not a product, fold it into open terms or
            # one derivation path nests it while another flattens it; only
            # the exact +-1 scalings fold, anything else would round twice
            return _scale_terms(_terms(base), coefficient)
    return {tuple(factors): coefficient}


def _pow_factors(mono, k):
    return tuple([(base, exponent * k) for base, exponent in mono])


def _step_terms(left, op, right):
    """Term map of `a op b` from the maps of a and b: the rule of one binary node."""
    if op == "+":
        return _merge_terms(left, right)
    if op == "-":
        return _merge_terms(left, _scale_terms(right, -1.0))
    cl, fl = _as_single_term(left)
    cr, fr = _as_single_term(right)
    if op == "*":
        return _combine_factors(cl * cr, fl, fr)
    if cr == 0.0 and not fr:
        # division by literal zero: keep it symbolic, evaluation raises
        cr, fr = 1.0, ((_ZERO, 1),)
    return _combine_factors(cl / cr, fl, _pow_factors(fr, -1))


def _power(c, k):
    """c ** k for a coefficient; one that overflows is +-inf, as a product's is."""
    try:
        return c ** k
    except OverflowError:
        return math.copysign(math.inf, c) if k % 2 else math.inf


def _terms(e):
    """Term map of e's normal form, computed once per node and stored on it.

    The map is shared by every later caller, so it is read, never mutated.
    The check and the store stay in this frame: one frame per tree level.
    """
    terms = getattr(e, "_term_map", None)
    if terms is not None:
        return terms
    match e:
        case Num(v):
            terms = {} if v == 0.0 else {(): v}
        case Pi() | Var():
            terms = {((e, 1),): 1.0}
        case Neg(a):
            terms = _scale_terms(_terms(a), -1.0)
        case Add(((_, first), *rest)) | Mul(((_, first), *rest)):
            terms = _terms(first)
            for op, node in rest:
                terms = _step_terms(terms, op, _terms(node))
        case Pow(_, 0):
            terms = {(): 1.0}
        case Pow(b, k):
            base_terms = _terms(b)
            if not base_terms:
                # zero denominator sentinel, always order one so reparses agree
                terms = {} if k > 0 else _combine_factors(1.0, (), ((_ZERO, -1),))
            elif len(base_terms) == 1:
                (mono, c), = base_terms.items()
                if mono:
                    terms = _combine_factors(_power(c, k), (), _pow_factors(mono, k))
                elif c == 0.0 and k < 0:
                    terms = _combine_factors(1.0, (), ((_ZERO, -1),))
                else:
                    terms = {(): _power(c, k)}
            else:
                lead, base = _atomic_sum(base_terms)
                terms = _combine_factors(_power(lead, k), (), ((base, k),))
        case Call(fn, a):
            arg = simplify(a)
            folded = None
            if isinstance(arg, Num):
                try:
                    folded = _MATH_FUNCTIONS[fn](arg.value)
                except OverflowError:
                    pass
            if folded is None:
                terms = {((Call(fn, arg), 1),): 1.0}
            else:
                terms = {} if folded == 0.0 else {(): folded}
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    object.__setattr__(e, "_term_map", terms)
    return terms


def _positive_term_expr(coefficient, mono):
    numerators = []
    denominators = []
    for base, exponent in mono:
        if exponent > 0:
            numerators.append(("*", base if exponent == 1 else Pow(base, exponent)))
        else:
            denominators.append(("/", base if exponent == -1 else Pow(base, -exponent)))
    if coefficient != 1.0 or not numerators:
        numerators.insert(0, ("*", Num(coefficient)))
    return _flat(numerators + denominators)


def _negate_leading(e):
    match e:
        case Num(v):
            return Num(-v)
        case Mul(((_, first), *rest)):
            return Mul((("*", _negate_leading(first)), *rest))
    return Neg(e)


def _from_terms(terms):
    cleaned = {mono: c for mono, c in terms.items() if c != 0.0}
    if not cleaned:
        return Num(0.0)
    (mono, coefficient), *rest = _ordered_terms(cleaned)
    lead = _positive_term_expr(abs(coefficient), mono)
    parts = [("+", _negate_leading(lead) if coefficient < 0 else lead)]
    for mono, coefficient in rest:
        parts.append(("-" if coefficient < 0 else "+", _positive_term_expr(abs(coefficient), mono)))
    return _flat(parts)


def simplify(e):
    """Deterministic normal form; semantics preserved, no trig rewriting."""
    return _from_terms(_terms(e))


def is_zero(e):
    """True when the normal form of e is the literal 0."""
    return simplify(e) == Num(0.0)


# ---------------------------------------------------------------------------
# differentiation


def _d(e, memo):
    """Term map of e's derivative; memo maps each node this diff call differentiated to it.

    Each rule folds its parts' maps as ``_terms`` folds the node the rule
    stands for, and builds only the atoms a map holds.  Nodes are interned,
    so an equal subtree is one object, found however the rules rebuilt it.
    """
    derivative = memo.get(e)
    if derivative is not None:
        return derivative
    match e:
        case Num() | Pi() | Pow(_, 0):
            derivative = {}
        case Var(name):
            derivative = {(): 1.0} if name == "x" else {}
        case Neg(a):
            derivative = _scale_terms(_d(a, memo), -1.0)
        case Add(((_, first), *rest)):
            derivative = _d(first, memo)
            for op, node in rest:
                derivative = _step_terms(derivative, op, _d(node, memo))
        case Mul(((_, first), *rest)):
            # the binary product and quotient rules folded over the prefixes
            prefix, derivative = _terms(first), _d(first, memo)
            for k, (op, node) in enumerate(rest):
                if k:
                    prefix = _step_terms(prefix, rest[k - 1][0], _terms(rest[k - 1][1]))
                lead = _step_terms(prefix, "*", _d(node, memo))
                derivative = _step_terms(derivative, "*", _terms(node))
                if op == "*":
                    derivative = _step_terms(derivative, "+", lead)
                else:
                    derivative = _step_terms(_step_terms(derivative, "-", lead), "/", _terms(node**2))
        case Pow(b, k):
            derivative = _step_terms({(): float(k)}, "*", _terms(Pow(b, k - 1)))
            derivative = _step_terms(derivative, "*", _d(b, memo))
        case Call(fn, a):
            if fn == "sin":
                outer = _terms(Call("cos", a))
            elif fn == "cos":
                outer = _scale_terms(_terms(Call("sin", a)), -1.0)
            elif fn == "exp":
                outer = _terms(e)
            elif fn == "tanh":
                outer = _terms(Pow(Call("cosh", a), -2))
            else:  # cosh; sinh is not in the vocabulary
                outer = _step_terms(_terms(Call("tanh", a)), "*", _terms(e))
            derivative = _step_terms(outer, "*", _d(a, memo))
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    memo[e] = derivative
    return derivative


def diff(e, order=1):
    """Symbolic derivative with respect to x, simplified at each order.

    Each distinct subexpression is differentiated once across all orders:
    one memo, keyed by the interned nodes, lives for this call alone.  An
    order that repeats an earlier one's result, as 0, exp(x) and sin(x) do,
    starts a cycle that the remaining orders are read off.
    """
    result = simplify(e) if order == 0 else e
    seen = {result: 0}  # each order's result to its order
    memo = {}
    for n in range(1, order + 1):
        result = _from_terms(_d(result, memo))
        if result in seen:
            start = seen[result]
            return list(seen)[start + (order - start) % (n - start)]
        seen[result] = n
    return result


# ---------------------------------------------------------------------------
# denominator safety


# the (nu, x) lattice a denominator is sampled on, and the distance from zero it must keep
SAFETY_X_SAMPLES = 512
SAFETY_NU_SAMPLES = 64
SAFETY_MARGIN = 1e-6


class SafetyStatus(str, Enum):
    SAFE = "safe"
    UNSAFE = "unsafe"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class DenominatorSafety(Record):
    status: SafetyStatus
    margin: float
    denominator_count: int
    witness_nu: int | None = None
    witness_x: float | None = None
    witness_value: float | None = None


def denominators(e):
    """Every sub-expression that appears as a quotient denominator in e."""
    found = []

    def walk(node):
        match node:
            case Neg(a) | Call(_, a):
                walk(a)
            case Add(parts) | Mul(parts):
                # in the order of the binary walk, which met each divisor on
                # its way down the left chain: the last divisor first
                found.extend([part for op, part in reversed(parts) if op == "/"])
                for _, part in parts:
                    walk(part)
            case Pow(b, k):
                if k < 0:
                    found.append(b)
                walk(b)

    walk(e)
    return found


def denominator_safety(e, domain, nus):
    """Check every denominator of e over the lattice of the indices nus (a float
    column, in the order they are checked) by a grid of the domain.

    Each distinct denominator, in the order of first occurrence, is proved
    first: an enclosure over the box from the least to the greatest index
    and from the first to the last grid point that is finite and lies above
    the margin, or below its negative, holds every value sampling would
    compute, so sampling would pass it, and it is skipped.  Any other is
    evaluated once on the whole lattice, one row per index;
    ``denominator_count`` counts every occurrence.  Every row's argmin is
    refined by bisection or golden-section search before comparing against
    the margin, all rows in one lane-wise pass; a lattice alone cannot land
    within 1e-6 of a root.  The verdict is the first index, in order, whose
    row is not finite, whose refined value is not finite, or whose refined
    value is below the margin.  Safe is a certificate at these indices, not
    a proof for all indices.
    """
    dens = denominators(e)
    verdict = partial(DenominatorSafety, margin=SAFETY_MARGIN, denominator_count=len(dens))
    if not dens:
        return verdict(SafetyStatus.SAFE)
    xs = domain.interior_grid(SAFETY_X_SAMPLES)
    box = (float(nus.min()), float(nus.max()), float(xs[0]), float(xs[-1]))
    for den in dict.fromkeys(dens):
        lo, hi = _enclose(den, box)
        if lo > SAFETY_MARGIN or hi < -SAFETY_MARGIN:
            continue  # finite and away from zero: sampling would pass it
        closure = _compiled(den)
        with np.errstate(all="ignore"):
            block = np.broadcast_to(closure(nus[:, None], xs), (len(nus), len(xs)))
        # rows before the first non-finite one are refined; that row, if
        # any, fails only after every earlier index passed
        row_finite = np.isfinite(block).all(axis=1)
        rows = len(nus) if row_finite.all() else int(np.argmin(row_finite))
        k = np.argmin(np.abs(block[:rows]), axis=1)
        f = _on_lanes((den,), np.zeros(rows, int), nus[:rows])
        with np.errstate(all="ignore"):
            best_x, best_abs = refine_min_abs_lanes(
                f, xs[np.maximum(k - 1, 0)], xs[np.minimum(k + 1, len(xs) - 1)]
            )
        failed = ~np.isfinite(best_abs) | (best_abs < SAFETY_MARGIN)
        if failed.any():
            row = int(np.argmax(failed))
            index, point = int(nus[row]), float(best_x[row])
            if not math.isfinite(best_abs[row]):
                return verdict(SafetyStatus.INCONCLUSIVE, witness_nu=index, witness_x=point)
            # the witness is probed as one grid point, x a 1-element array
            with np.errstate(all="ignore"):
                value = closure(nus[row], np.array([point])).item()
            return verdict(
                SafetyStatus.UNSAFE, witness_nu=index, witness_x=point, witness_value=value
            )
        if rows < len(nus):
            bad = float(xs[np.argmax(~np.isfinite(block[rows]))])
            return verdict(SafetyStatus.INCONCLUSIVE, witness_nu=int(nus[rows]), witness_x=bad)
    return verdict(SafetyStatus.SAFE)
