"""Independent evaluation of the expression language, for checking reports.

A small parser of its own (nothing from the package under test) turns the
text of an expression into a tree, and one evaluator walks it over floats,
numpy arrays or truncated Taylor series in x.  The Taylor series give exact
x-derivatives up to any fixed order at a point, which is the closed-form
answer a symbolic derivative must match.  The bump test functions are
rebuilt here from their definition, so expected weak limits do not depend
on the package either.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|([A-Za-z_]\w*)|(.))")
FUNCTIONS = ("sin", "cos", "exp", "tanh", "cosh")


# ---------------------------------------------------------------------------
# parsing: text -> nested tuples


@functools.lru_cache(maxsize=512)
def parse(text):
    """Tree of ("num", v) | ("var", name) | ("neg", a) | (op, a, b) | ("pow", a, k) | (fn, a)."""
    tokens = []
    for number, name, other in _TOKEN.findall(text):
        if number:
            tokens.append(("num", float(number)))
        elif name:
            tokens.append(("name", name))
        elif other.strip():
            tokens.append((other, other))
    tokens.append(("end", None))
    position = 0

    def peek():
        return tokens[position][0]

    def take(kind=None):
        nonlocal position
        token = tokens[position]
        if kind is not None and token[0] != kind:
            raise ValueError(f"expected {kind!r} in {text[:60]!r}")
        position += 1
        return token

    def expression():
        node = term()
        while peek() in ("+", "-"):
            op = take()[0]
            node = (op, node, term())
        return node

    def term():
        node = factor()
        while peek() in ("*", "/"):
            op = take()[0]
            node = (op, node, factor())
        return node

    def factor():
        if peek() == "-":
            take()
            return ("neg", factor())
        node = atom()
        if peek() == "^":
            take()
            sign = -1 if peek() == "-" else 1
            if sign < 0:
                take()
            exponent = take("num")[1]
            if exponent != int(exponent):
                raise ValueError("non-integer exponent")
            node = ("pow", node, sign * int(exponent))
        return node

    def atom():
        kind, value = take()
        if kind == "num":
            return ("num", value)
        if kind == "(":
            node = expression()
            take(")")
            return node
        if kind == "name":
            if value in FUNCTIONS:
                take("(")
                node = expression()
                take(")")
                return (value, node)
            if value in ("x", "nu"):
                return ("var", value)
            if value == "pi":
                return ("num", math.pi)
        raise ValueError(f"unexpected token {value!r} in {text[:60]!r}")

    tree = expression()
    take("end")
    return tree


# ---------------------------------------------------------------------------
# truncated Taylor series in x


class Jet:
    """Taylor coefficients c[0..n] of a function of x around one point."""

    __slots__ = ("c",)

    def __init__(self, coefficients):
        self.c = list(coefficients)

    @classmethod
    def variable(cls, x0, order):
        return cls([x0, 1.0] + [0.0] * (order - 1)) if order else cls([x0])

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        return Jet([float(other)] + [0.0] * (len(self.c) - 1))

    def __add__(self, other):
        other = self._lift(other)
        return Jet([a + b for a, b in zip(self.c, other.c)])

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.c])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        n = len(self.c)
        return Jet([sum(self.c[j] * other.c[k - j] for j in range(k + 1)) for k in range(n)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        q = []
        for k in range(len(self.c)):
            q.append((self.c[k] - sum(other.c[j] * q[k - j] for j in range(1, k + 1))) / other.c[0])
        return Jet(q)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, k):
        if k < 0:
            return 1.0 / (self ** -k)
        result = self._lift(1.0)
        for _ in range(k):
            result = result * self
        return result

    def derivative(self, order):
        return self.c[order] * math.factorial(order)


def _sin_cos(a):
    n = len(a.c)
    s, c = [math.sin(a.c[0])], [math.cos(a.c[0])]
    for k in range(1, n):
        s.append(sum(j * a.c[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(-sum(j * a.c[j] * s[k - j] for j in range(1, k + 1)) / k)
    return Jet(s), Jet(c)


def _exp(a):
    e = [math.exp(a.c[0])]
    for k in range(1, len(a.c)):
        e.append(sum(j * a.c[j] * e[k - j] for j in range(1, k + 1)) / k)
    return Jet(e)


def _sech_squared(a):
    """1 - tanh(a)^2 without the cancellation of that form at large |a|."""
    e = math.exp(-2.0 * abs(a))
    return 4.0 * e / (1.0 + e) ** 2


def _tanh(a):
    """From tanh' = (1 - tanh^2) a', which stays finite for any argument."""
    t = [math.tanh(a.c[0])]
    one_minus_square = [_sech_squared(a.c[0])]
    for k in range(1, len(a.c)):
        t.append(sum(j * a.c[j] * one_minus_square[k - j] for j in range(1, k + 1)) / k)
        one_minus_square.append(-sum(t[i] * t[k - i] for i in range(k + 1)))
    return Jet(t)


def _apply(fn, value):
    if not isinstance(value, Jet):
        return getattr(np, fn)(value)
    if fn == "sin":
        return _sin_cos(value)[0]
    if fn == "cos":
        return _sin_cos(value)[1]
    if fn == "exp":
        return _exp(value)
    if fn == "cosh":
        return (_exp(value) + _exp(-value)) * 0.5
    return _tanh(value)


def evaluate(tree, x, nu):
    """Value of a parsed tree; x may be a float, a numpy array or a Jet."""
    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "var":
        return x if tree[1] == "x" else float(nu)
    if kind == "neg":
        return -evaluate(tree[1], x, nu)
    if kind == "pow":
        return evaluate(tree[1], x, nu) ** tree[2]
    if kind in FUNCTIONS:
        return _apply(kind, evaluate(tree[1], x, nu))
    left, right = evaluate(tree[1], x, nu), evaluate(tree[2], x, nu)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left * right
    return left / right


def derivative(text, order, x0, nu):
    """Exact order-th x-derivative of an expression at (nu, x0); nan on overflow."""
    try:
        result = evaluate(parse(text), Jet.variable(x0, order), nu)
    except (OverflowError, ZeroDivisionError):
        return math.nan
    if isinstance(result, Jet):
        return result.derivative(order)
    return float(result) if order == 0 else 0.0


def value(text, x0, nu):
    """Value of an expression at (nu, x0); inf or nan where floats give out."""
    with np.errstate(all="ignore"):
        return float(evaluate(parse(text), np.float64(x0), nu))


_EPS = 2.0**-52


def _rounding(tree, x, nu):
    """(value, first-order bound on the rounding error of evaluating it as written)."""
    kind = tree[0]
    if kind in ("num", "var"):
        v = evaluate(tree, x, nu)
        return v, _EPS * abs(v)
    if kind == "neg":
        v, e = _rounding(tree[1], x, nu)
        return -v, e
    if kind == "pow":
        a, ea = _rounding(tree[1], x, nu)
        k = tree[2]
        v = a**k
        return v, abs(k) * abs(v) * (ea / abs(a) + _EPS) if a else math.inf
    if kind in FUNCTIONS:
        a, ea = _rounding(tree[1], x, nu)
        slope = {"sin": 1.0, "cos": 1.0, "exp": math.exp(a), "cosh": abs(math.sinh(a))}.get(
            kind, _sech_squared(a)
        )
        v = _apply(kind, a)
        return v, slope * ea + _EPS * abs(v)
    a, ea = _rounding(tree[1], x, nu)
    b, eb = _rounding(tree[2], x, nu)
    if kind in "+-":
        v = a + b if kind == "+" else a - b
        return v, ea + eb + _EPS * abs(v)
    if kind == "*":
        v = a * b
        return v, abs(a) * eb + abs(b) * ea + _EPS * abs(v)
    v = a / b
    return v, (ea + abs(v) * eb) / abs(b) + _EPS * abs(v)


def value_with_error(text, x0, nu):
    """Value of the expression as written, with a bound on its rounding error.

    Printed normal forms can hold large terms that cancel; comparing such a
    value with an exact one needs the error its own evaluation order makes.
    """
    try:
        with np.errstate(all="ignore"):
            return _rounding(parse(text), float(x0), nu)
    except (OverflowError, ZeroDivisionError):
        return math.nan, math.inf


# ---------------------------------------------------------------------------
# bump test functions


def _bump_shape(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


_MIDPOINTS = 1 << 16
BUMP_INTEGRAL = float(
    np.sum(_bump_shape(-1.0 + (2.0 / _MIDPOINTS) * (np.arange(_MIDPOINTS) + 0.5))) * 2.0 / _MIDPOINTS
)


def bump_value(center, width, x):
    """Normalized bump (unit integral) at x."""
    return float(_bump_shape((x - center) / width)) / (width * BUMP_INTEGRAL)


def bump_pairing(center, width, text, points=4096):
    """Integral of a smooth x-only expression against the normalized bump."""
    h = 2.0 / points
    u = -1.0 + h * (np.arange(points) + 0.5)
    xs = center + width * u
    values = np.broadcast_to(evaluate(parse(text), xs, 1), xs.shape)
    return float(np.sum(values * _bump_shape(u)) * h / BUMP_INTEGRAL)


def default_panel(lower, upper, count=8):
    """(center, width) of the package's default panel, from its definition."""
    spacing = (upper - lower) / (count + 1)
    return [(lower + spacing * (k + 1), spacing) for k in range(count)]
