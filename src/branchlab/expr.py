"""Closed-form expression language over a space variable and a sequence index.

The vocabulary is deliberately small: numeric literals, ``pi``, the space
variable ``x``, the index variable ``nu``, rational arithmetic, integer
powers, and the unary functions sin, cos, exp, tanh, cosh.  Every expression
is smooth wherever its denominators stay away from zero, and the class is
closed under differentiation (cosh' is written tanh*cosh, tanh' as cosh^-2).

Nodes are immutable and compare structurally.  ``simplify`` produces a
deterministic normal form: like terms of a sum and like factors of a product
are collected, constants are folded, and the result is rebuilt as the exact
tree the parser would produce on its own printout, so
``parse(to_string(simplify(e))) == simplify(e)`` holds node for node.
Products are never distributed over multi-term sums and no trigonometric
identities are applied.

``evaluate`` (scalar; EvalError at a division by zero or a non-finite value)
and ``evaluate_on_grid`` (array; inf/nan passed through) run one closure
compiled per expression.  Bracket refinement probes one expression at one
index many times, so it holds a probe for the whole bracket: the index check,
the closure lookup and the error state are paid once, and each call costs
the closure plus the scalar policy of ``evaluate``.  Probes keep the type of
the path whose numbers they reproduce, because numpy's integer powers differ
in the last bit between arrays and scalars: certificate roots and witnesses
are probed with float64 scalars, and ``denominator_safety`` probes with
one-element arrays so its witnesses agree with its grid.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from ._numutil import refine_min_abs

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
    """Raised when evaluation cannot produce a finite real."""


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, exponent):
        return Pow(self, exponent)

    def __neg__(self):
        return Neg(self)

    def __repr__(self):
        return to_string(self)

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True, slots=True, repr=False)
class Num(Expr):
    value: float

    def __post_init__(self):
        v = float(self.value)
        if v == 0.0:
            v = 0.0
        object.__setattr__(self, "value", v)


@dataclass(frozen=True, slots=True, repr=False)
class Pi(Expr):
    pass


@dataclass(frozen=True, slots=True, repr=False)
class Var(Expr):
    name: str

    def __post_init__(self):
        if self.name not in ("x", "nu", "u"):
            raise ValueError(f"unknown variable {self.name!r}")


@dataclass(frozen=True, slots=True, repr=False)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Div(Expr):
    numerator: Expr
    denominator: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        # bools are ints but make no sense as exponents
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise TypeError("power exponents must be plain integers")


@dataclass(frozen=True, slots=True, repr=False)
class Call(Expr):
    fn: str
    arg: Expr

    def __post_init__(self):
        if self.fn not in FUNCTIONS:
            raise ValueError(f"unknown function {self.fn!r}")


x = Var("x")
nu = Var("nu")
pi = Pi()


def as_expr(value):
    """Coerce a number to a literal node; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("cannot coerce bool to an expression")
    if isinstance(value, (int, float)):
        return Num(float(value))
    raise TypeError(f"cannot coerce {type(value).__name__} to an expression")


def sin(e):
    return Call("sin", as_expr(e))


def cos(e):
    return Call("cos", as_expr(e))


def exp(e):
    return Call("exp", as_expr(e))


def tanh(e):
    return Call("tanh", as_expr(e))


def cosh(e):
    return Call("cosh", as_expr(e))


def variables(e):
    """Free variable names appearing in e."""
    match e:
        case Var(name):
            return frozenset((name,))
        case Num() | Pi():
            return frozenset()
        case Neg(a):
            return variables(a)
        case Add(l, r) | Sub(l, r) | Mul(l, r):
            return variables(l) | variables(r)
        case Div(n, d):
            return variables(n) | variables(d)
        case Pow(b, _):
            return variables(b)
        case Call(_, a):
            return variables(a)
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e, name, replacement):
    """Replace every occurrence of the variable `name` by `replacement`."""
    replacement = as_expr(replacement)
    match e:
        case Var(n):
            return replacement if n == name else e
        case Num() | Pi():
            return e
        case Neg(a):
            return Neg(substitute(a, name, replacement))
        case Add(l, r):
            return Add(substitute(l, name, replacement), substitute(r, name, replacement))
        case Sub(l, r):
            return Sub(substitute(l, name, replacement), substitute(r, name, replacement))
        case Mul(l, r):
            return Mul(substitute(l, name, replacement), substitute(r, name, replacement))
        case Div(n_, d):
            return Div(substitute(n_, name, replacement), substitute(d, name, replacement))
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

    def contains(self, value):
        return self.lower < value < self.upper

    def interior_grid(self, count):
        """Evenly spaced sample points, endpoints excluded."""
        return np.linspace(self.lower, self.upper, count + 2)[1:-1]


# ---------------------------------------------------------------------------
# evaluation


def _compile(e):
    """Closure f(nu, x) for e: scalars in, scalar out; x array in, array out."""
    match e:
        case Num() | Pi():
            # float64 constants keep every operation under numpy's error state
            c = np.float64(math.pi if isinstance(e, Pi) else e.value)
            return lambda nu, x: c
        case Var("x"):
            return lambda nu, x: x
        case Var("nu"):
            return lambda nu, x: nu
        case Var():
            raise EvalError("operation placeholder 'u' is unbound at evaluation")
        case Neg(a):
            fa = _compile(a)
            return lambda nu, x: -fa(nu, x)
        case Add(l, r):
            fl, fr = _compile(l), _compile(r)
            return lambda nu, x: fl(nu, x) + fr(nu, x)
        case Sub(l, r):
            fl, fr = _compile(l), _compile(r)
            return lambda nu, x: fl(nu, x) - fr(nu, x)
        case Mul(l, r):
            fl, fr = _compile(l), _compile(r)
            return lambda nu, x: fl(nu, x) * fr(nu, x)
        case Div(n, d):
            fn_, fd = _compile(n), _compile(d)
            return lambda nu, x: fn_(nu, x) / fd(nu, x)
        case Pow(b, k):
            fb = _compile(b)
            return lambda nu, x: fb(nu, x) ** k
        case Call(fn, a):
            ufunc, fa = _NP_FUNCTIONS[fn], _compile(a)
            return lambda nu, x: ufunc(fa(nu, x))
    raise TypeError(f"not an expression node: {e!r}")


# Root closures by node identity: hashing a node walks its whole subtree.
# Each entry keeps its node alive, so the id cannot be reused meanwhile.
_COMPILED = {}
_COMPILED_LIMIT = 64


def _compiled(e):
    hit = _COMPILED.get(id(e))
    if hit is None or hit[0] is not e:
        if len(_COMPILED) >= _COMPILED_LIMIT:
            _COMPILED.clear()
        hit = _COMPILED[id(e)] = (e, _compile(e))
    return hit[1]


def _check_index(nu_value):
    if not isinstance(nu_value, (int, np.integer)) or isinstance(nu_value, bool):
        raise EvalError("sequence index must be an integer")
    if nu_value < 1:
        raise EvalError("sequence index must be >= 1")


def _scalar(f, nu, x_value):
    """f(nu, x_value) as a finite float; run under the scalar error state.

    That state ignores everything but division by zero, which raises.
    """
    try:
        result = float(f(nu, np.float64(x_value)))
    except FloatingPointError:
        raise EvalError("division by zero at the sample point") from None
    if not math.isfinite(result):
        raise EvalError("evaluation produced a non-finite value")
    return result


def evaluate(e, nu_value, x_value):
    """Value of e at integer index nu_value >= 1 and real x_value."""
    _check_index(nu_value)
    with np.errstate(all="ignore", divide="raise"):
        return _scalar(_compiled(e), np.float64(nu_value), x_value)


@contextmanager
def _probe(e, nu_value):
    """Yield x -> evaluate(e, nu_value, x) with the per-call setup done once.

    The index check, the closure lookup, boxing nu and the error state are
    paid on entry; the probe must not be called after the block exits.
    """
    _check_index(nu_value)
    scalar = partial(_scalar, _compiled(e), np.float64(nu_value))
    with np.errstate(all="ignore", divide="raise"):
        yield scalar


def evaluate_on_grid(e, nu_value, xs):
    """Vectorized value of e over an array of x samples.

    Non-finite values, poles included, are passed through for the caller to
    inspect.
    """
    _check_index(nu_value)
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        result = _compiled(e)(np.float64(nu_value), xs)
    return result if np.shape(result) == xs.shape else np.full_like(xs, result)


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
        if m.lastgroup == "num":
            tokens.append(("num", m.group(), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        else:
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text, variable_names):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.variable_names = variable_names

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind, what):
        token = self.peek()
        if token[0] != kind:
            raise ParseError(f"expected {what}", token[2])
        return self.advance()

    def parse(self):
        e = self.expression()
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"unexpected token {token[1]!r}", token[2])
        return e

    def expression(self):
        left = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.term()
            left = Add(left, right) if op == "+" else Sub(left, right)
        return left

    def term(self):
        left = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            right = self.factor()
            left = Mul(left, right) if op == "*" else Div(left, right)
        return left

    def factor(self):
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        node = self.atom()
        has_exponent = False
        if self.peek()[0] == "^":
            self.advance()
            node = Pow(node, self.exponent())
            has_exponent = True
        if negate:
            # a leading minus on a bare literal folds into the literal,
            # matching what the printer emits for negative coefficients
            if isinstance(node, Num) and not has_exponent:
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
                self.expect("(", "'(' after function name")
                arg = self.expression()
                closing = self.peek()
                if closing[0] != ")":
                    raise ParseError("expected ')'", closing[2])
                self.advance()
                return Call(text, arg)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "(":
            self.advance()
            e = self.expression()
            closing = self.peek()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            self.advance()
            return e
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse(text):
    """Parse an expression in the variables x and nu."""
    return _Parser(text, ("x", "nu")).parse()


def parse_operation(text):
    """Parse a one-variable operation body; its placeholder variable is u."""
    return _Parser(text, ("u",)).parse()


# ---------------------------------------------------------------------------
# printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _precedence(e):
    match e:
        case Num(v):
            return _PREC_UNARY if v < 0 else _PREC_ATOM
        case Pi() | Var() | Call():
            return _PREC_ATOM
        case Pow():
            return _PREC_POW
        case Neg():
            return _PREC_UNARY
        case Mul() | Div():
            return _PREC_MUL
        case Add() | Sub():
            return _PREC_ADD
    raise TypeError(f"not an expression node: {e!r}")


def format_number(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(e, context):
    text = None
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
            inner = _render(a, _PREC_POW + 1 if not isinstance(a, Num) else _PREC_ATOM + 1)
            text = f"-{inner}"
        case Mul(l, r):
            text = f"{_render(l, _PREC_MUL)}*{_render(r, _PREC_MUL + 1)}"
        case Div(n, d):
            text = f"{_render(n, _PREC_MUL)}/{_render(d, _PREC_MUL + 1)}"
        case Add(l, r):
            text = f"{_render(l, _PREC_ADD)} + {_render(r, _PREC_ADD + 1)}"
        case Sub(l, r):
            text = f"{_render(l, _PREC_ADD)} - {_render(r, _PREC_ADD + 1)}"
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    if _precedence(e) < context:
        return f"({text})"
    return text


def to_string(e):
    """Render e so that re-parsing reproduces the same tree shape."""
    return _render(e, 0)


# ---------------------------------------------------------------------------
# normal form

# A term map sends a monomial (sorted tuple of (base, exponent) pairs) to its
# real coefficient.  Bases are canonical sub-expressions; multi-term sums
# appearing as factors stay atomic, so products are never distributed.


def _monomial(factors):
    """Canonical monomial of a factor dict: factors ordered by printed base."""
    return tuple(sorted(factors.items(), key=lambda item: to_string(item[0])))


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
    # true division: lead/lead is exactly 1.0, reciprocal products are not
    return lead, _from_terms({mono: c / lead for mono, c in terms.items()})


def _as_single_term(terms):
    """View a term map as one (coefficient, factor dict) product."""
    if not terms:
        return 0.0, {}
    if len(terms) == 1:
        (mono, c), = terms.items()
        return c, dict(mono)
    lead, base = _atomic_sum(terms)
    return lead, {base: 1}


def _combine_factors(coefficient, *factor_maps):
    factors = {}
    for fm in factor_maps:
        for base, exponent in fm.items():
            total = factors.get(base, 0) + exponent
            if total == 0:
                factors.pop(base, None)
            else:
                factors[base] = total
    if coefficient == 0.0:
        return {}
    if Num(0.0) in factors:
        # exponent arithmetic must not rescale the zero division sentinel
        factors[Num(0.0)] = -1
    if len(factors) == 1 and coefficient in (1.0, -1.0):
        (base, exponent), = factors.items()
        if exponent == 1 and isinstance(base, (Add, Sub)):
            # a lone signed sum is not a product, fold it into open terms or
            # one derivation path nests it while another flattens it; only
            # the exact +-1 scalings fold, anything else would round twice
            return _scale_terms(_terms(base), coefficient)
    return {_monomial(factors): coefficient}


def _pow_factors(factors, k):
    return {base: exponent * k for base, exponent in factors.items()}


def _terms(e):
    match e:
        case Num(v):
            return {} if v == 0.0 else {(): v}
        case Pi() | Var():
            return {((e, 1),): 1.0}
        case Neg(a):
            return _scale_terms(_terms(a), -1.0)
        case Add(l, r):
            return _merge_terms(_terms(l), _terms(r))
        case Sub(l, r):
            return _merge_terms(_terms(l), _scale_terms(_terms(r), -1.0))
        case Mul(l, r):
            cl, fl = _as_single_term(_terms(l))
            cr, fr = _as_single_term(_terms(r))
            return _combine_factors(cl * cr, fl, fr)
        case Div(n, d):
            cn, fn_ = _as_single_term(_terms(n))
            cd, fd = _as_single_term(_terms(d))
            if cd == 0.0 and not fd:
                # division by literal zero: keep it symbolic, evaluation raises
                cd, fd = 1.0, {Num(0.0): 1}
            return _combine_factors(cn / cd, fn_, _pow_factors(fd, -1))
        case Pow(b, k):
            if k == 0:
                return {(): 1.0}
            base_terms = _terms(b)
            if not base_terms:
                if k > 0:
                    return {}
                # zero denominator sentinel, always order one so reparses agree
                return _combine_factors(1.0, {Num(0.0): -1})
            if len(base_terms) == 1:
                (mono, c), = base_terms.items()
                if not mono:
                    if c == 0.0 and k < 0:
                        return _combine_factors(1.0, {Num(0.0): -1})
                    return {(): c ** k}
                return _combine_factors(c ** k, _pow_factors(dict(mono), k))
            lead, base = _atomic_sum(base_terms)
            return _combine_factors(lead ** k, {base: k})
        case Call(fn, a):
            arg = simplify(a)
            if isinstance(arg, Num):
                try:
                    folded = _MATH_FUNCTIONS[fn](arg.value)
                except OverflowError:
                    return {((Call(fn, arg), 1),): 1.0}
                return {} if folded == 0.0 else {(): folded}
            return {((Call(fn, arg), 1),): 1.0}
    raise TypeError(f"not an expression node: {e!r}")


def _product_chain(parts):
    node = parts[0]
    for part in parts[1:]:
        node = Mul(node, part)
    return node


def _positive_term_expr(coefficient, mono):
    numerators = []
    denominators = []
    for base, exponent in mono:
        if exponent > 0:
            numerators.append(base if exponent == 1 else Pow(base, exponent))
        else:
            denominators.append(base if exponent == -1 else Pow(base, -exponent))
    parts = []
    if coefficient != 1.0 or not numerators:
        parts.append(Num(coefficient))
    parts.extend(numerators)
    node = _product_chain(parts)
    for d in denominators:
        node = Div(node, d)
    return node


def _negate_leading(e):
    match e:
        case Num(v):
            return Num(-v)
        case Mul(l, r):
            return Mul(_negate_leading(l), r)
        case Div(n, d):
            return Div(_negate_leading(n), d)
    return Neg(e)


def _from_terms(terms):
    cleaned = {mono: c for mono, c in terms.items() if c != 0.0}
    if not cleaned:
        return Num(0.0)
    node = None
    for mono, coefficient in _ordered_terms(cleaned):
        positive = _positive_term_expr(abs(coefficient), mono)
        if node is None:
            node = _negate_leading(positive) if coefficient < 0 else positive
        else:
            node = Sub(node, positive) if coefficient < 0 else Add(node, positive)
    return node


def simplify(e):
    """Deterministic normal form; semantics preserved, no trig rewriting."""
    return _from_terms(_terms(e))


def sum_terms(e):
    """Normal-form additive decomposition of e.

    Returns (coefficient, monomial) pairs, where a monomial is a sorted tuple
    of (base, exponent) factors.  Multi-term sums appearing as factors stay
    atomic bases, mirroring simplify.
    """
    return tuple((c, mono) for mono, c in _ordered_terms(_terms(e)))


def from_sum_terms(pairs):
    """Rebuild an expression from (coefficient, monomial) pairs."""
    terms = {}
    for c, mono in pairs:
        terms[mono] = terms.get(mono, 0.0) + c
    return _from_terms(terms)


def atomic_factor(e):
    """Split e as (lead, base) with base in the shape factor bases take.

    Multi-term sums are rescaled so the leading term has coefficient one,
    matching how they appear as atomic bases inside monomials; everything
    else returns lead 1 and the normal form unchanged.
    """
    terms = _terms(e)
    if len(terms) <= 1:
        return 1.0, _from_terms(terms)
    return _atomic_sum(terms)


def is_zero(e):
    """True when the normal form of e is the literal 0."""
    return simplify(e) == Num(0.0)


# ---------------------------------------------------------------------------
# differentiation


def _d(e):
    match e:
        case Num() | Pi():
            return Num(0.0)
        case Var(name):
            return Num(1.0) if name == "x" else Num(0.0)
        case Neg(a):
            return Neg(_d(a))
        case Add(l, r):
            return Add(_d(l), _d(r))
        case Sub(l, r):
            return Sub(_d(l), _d(r))
        case Mul(l, r):
            return Add(Mul(_d(l), r), Mul(l, _d(r)))
        case Div(n, d):
            return Div(Sub(Mul(_d(n), d), Mul(n, _d(d))), Pow(d, 2))
        case Pow(b, k):
            if k == 0:
                return Num(0.0)
            return Mul(Mul(Num(float(k)), Pow(b, k - 1)), _d(b))
        case Call(fn, a):
            da = _d(a)
            if fn == "sin":
                outer = Call("cos", a)
            elif fn == "cos":
                outer = Neg(Call("sin", a))
            elif fn == "exp":
                outer = Call("exp", a)
            elif fn == "tanh":
                outer = Pow(Call("cosh", a), -2)
            else:  # cosh; sinh is not in the vocabulary
                outer = Mul(Call("tanh", a), Call("cosh", a))
            return Mul(outer, da)
    raise TypeError(f"not an expression node: {e!r}")


def diff(e, order=1):
    """Symbolic derivative with respect to x, simplified at each order."""
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ValueError("derivative order must be a non-negative integer")
    result = simplify(e) if order == 0 else e
    for _ in range(order):
        result = simplify(_d(result))
    return result


# ---------------------------------------------------------------------------
# denominator safety


class SafetyStatus(str, Enum):
    SAFE = "safe"
    UNSAFE = "unsafe"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class DenominatorSafety:
    status: SafetyStatus
    margin: float
    denominator_count: int
    witness_nu: int | None = None
    witness_x: float | None = None
    witness_value: float | None = None

    def to_dict(self):
        return {
            "status": self.status.value,
            "margin": self.margin,
            "denominator_count": self.denominator_count,
            "witness_nu": self.witness_nu,
            "witness_x": self.witness_x,
            "witness_value": self.witness_value,
        }


def denominators(e):
    """Every sub-expression that appears as a quotient denominator in e."""
    found = []

    def walk(node):
        match node:
            case Num() | Pi() | Var():
                return
            case Neg(a):
                walk(a)
            case Add(l, r) | Sub(l, r) | Mul(l, r):
                walk(l)
                walk(r)
            case Div(n, d):
                found.append(d)
                walk(n)
                walk(d)
            case Pow(b, k):
                if k < 0:
                    found.append(b)
                walk(b)
            case Call(_, a):
                walk(a)

    walk(e)
    return found


def denominator_safety(e, domain, x_samples=512, nu_samples=64, margin=1e-6):
    """Sample every denominator of e over a (nu, x) lattice on the domain.

    The lattice argmin per index is refined by bisection or golden-section
    search before comparing against the margin; a lattice alone cannot land
    within 1e-6 of a root.  Safe is a certificate at this lattice resolution,
    not a proof for all indices.
    """
    dens = denominators(e)
    if not dens:
        return DenominatorSafety(SafetyStatus.SAFE, margin, 0)
    xs = domain.interior_grid(x_samples)
    for den in dens:
        closure = _compiled(den)
        for index in range(1, nu_samples + 1):
            values = evaluate_on_grid(den, index, xs)
            if not np.all(np.isfinite(values)):
                bad = int(np.argmax(~np.isfinite(values)))
                return DenominatorSafety(
                    SafetyStatus.INCONCLUSIVE,
                    margin,
                    len(dens),
                    witness_nu=index,
                    witness_x=float(xs[bad]),
                )
            k = int(np.argmin(np.abs(values)))
            lo = xs[max(k - 1, 0)]
            hi = xs[min(k + 1, len(xs) - 1)]
            nu = np.float64(index)

            # probes stay 1-element arrays: witness bytes follow the grid's powers
            def f(point):
                return closure(nu, np.array([point])).item()

            with np.errstate(all="ignore"):
                best_x, best_abs = refine_min_abs(f, float(lo), float(hi))
                if not math.isfinite(best_abs):
                    return DenominatorSafety(
                        SafetyStatus.INCONCLUSIVE,
                        margin,
                        len(dens),
                        witness_nu=index,
                        witness_x=best_x,
                    )
                if best_abs < margin:
                    return DenominatorSafety(
                        SafetyStatus.UNSAFE,
                        margin,
                        len(dens),
                        witness_nu=index,
                        witness_x=best_x,
                        witness_value=f(best_x),
                    )
    return DenominatorSafety(SafetyStatus.SAFE, margin, len(dens))
