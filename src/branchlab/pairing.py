"""Compactly supported bump test functions and the pairing integral.

The bump family is exp(-1/(1-u^2)) on |u| < 1 with u = (x-center)/width,
zero outside.  All derivatives vanish at the support endpoints, so the
composite Simpson rule converges extremely fast; the step size additionally
resolves the oscillation of the sequence entry being paired (at least 16
points per period of the hint frequency).  Every integral returns an error
estimate from comparing the rule against itself at half the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._report import Record


class IntegrationError(ValueError):
    """Raised when an integrand produces non-finite samples."""


def _bump_shape(u):
    """exp(-1/(1-u^2)) on |u| < 1, zero elsewhere; vectorized."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    if np.any(inside):
        v = u[inside]
        out[inside] = np.exp(-1.0 / (1.0 - v * v))
    return out


def _bump_shape_derivative(u):
    """d/du of the bump shape: shape(u) * (-2u/(1-u^2)^2)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    if np.any(inside):
        v = u[inside]
        w = 1.0 - v * v
        out[inside] = np.exp(-1.0 / w) * (-2.0 * v / (w * w))
    return out


@lru_cache(maxsize=1)
def bump_shape_integral():
    """Integral of the unit bump shape over [-1, 1].

    The integrand is smooth with all derivatives vanishing at the endpoints,
    so the midpoint rule converges faster than any power of the step; 2^16
    panels put the result at machine precision.
    """
    n = 1 << 16
    h = 2.0 / n
    u = -1.0 + h * (np.arange(n) + 0.5)
    return float(np.sum(_bump_shape(u)) * h)


@dataclass(frozen=True, slots=True)
class TestFunction(Record):
    """Scaled bump; integral normalized to 1 when `normalized` is set."""

    center: float
    width: float
    normalized: bool = True

    def __post_init__(self):
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "width", float(self.width))
        if not self.width > 0:
            raise ValueError("bump width must be positive")

    @property
    def support(self):
        return (self.center - self.width, self.center + self.width)

    def integral(self):
        if self.normalized:
            return 1.0
        return self.width * bump_shape_integral()

    def _scale(self):
        if self.normalized:
            return 1.0 / (self.width * bump_shape_integral())
        return 1.0

    def values(self, xs):
        u = (np.asarray(xs, dtype=float) - self.center) / self.width
        return _bump_shape(u) * self._scale()

    def value(self, x_value):
        return float(self.values(np.array([x_value]))[0])

    def derivative_values(self, xs):
        u = (np.asarray(xs, dtype=float) - self.center) / self.width
        return _bump_shape_derivative(u) * (self._scale() / self.width)


def bump(center, width, normalized=True, domain=None):
    """Bump test function; its support must stay inside the domain closure."""
    phi = TestFunction(center, width, normalized)
    if domain is not None:
        lo, hi = phi.support
        if lo < domain.lower or hi > domain.upper:
            raise ValueError(
                f"support [{lo}, {hi}] escapes the domain "
                f"[{domain.lower}, {domain.upper}]"
            )
    return phi


@dataclass(frozen=True, slots=True)
class Panel(Record):
    """Family of test functions jointly covering most of the domain."""

    members: tuple
    domain: object

    def __post_init__(self):
        if not self.members:
            raise ValueError("a panel needs at least one test function")
        covered = _union_length(
            [m.support for m in self.members], self.domain.lower, self.domain.upper
        )
        if covered < 0.8 * self.domain.length:
            raise ValueError("panel supports must cover at least 80% of the domain")

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def _union_length(intervals, lo, hi):
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cursor = lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def _fitted_width(center, width, domain):
    """The width, shrunk only if rounding pushed the support past the domain."""
    if center - width < domain.lower or center + width > domain.upper:
        width = min(width, center - domain.lower, domain.upper - center)
        while center - width < domain.lower or center + width > domain.upper:
            width = math.nextafter(width, 0.0)
    return width


def default_panel(domain, count=8):
    """Equally spaced normalized bumps; widths equal the spacing, so supports overlap."""
    spacing = domain.length / (count + 1)
    members = []
    for k in range(count):
        center = domain.lower + spacing * (k + 1)
        width = _fitted_width(center, spacing, domain)
        members.append(bump(center, width, domain=domain))
    return Panel(tuple(members), domain)


def _simpson(ys, step):
    """Composite Simpson sum of samples ys (odd count) spaced `step` apart."""
    weights = np.ones(len(ys))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.sum(weights * ys) * step / 3.0)


def integrate(f, lower, upper, oscillation_hint=1):
    """Composite Simpson integral of f with an oscillation-aware step.

    Returns (value, error_estimate); the estimate is the raw step-halving
    difference, which is deliberately conservative.  f is sampled once, on
    the fine grid; the coarse rule reads every other sample.
    """
    lower = float(lower)
    upper = float(upper)
    if not upper > lower:
        raise ValueError("integration interval must have positive length")
    if oscillation_hint < 1:
        raise ValueError("oscillation hint must be >= 1")
    width = upper - lower
    period = 2.0 * math.pi / float(oscillation_hint)
    step = min(width / 50.0, period / 16.0)
    panels = int(math.ceil(width / step))
    if panels % 2:
        panels += 1
    # linspace(lo, hi, 2n+1)[::2] is linspace(lo, hi, n+1) bit for bit
    ys = f(np.linspace(lower, upper, 2 * panels + 1))
    if not np.all(np.isfinite(ys)):
        raise IntegrationError("non-finite sample in the integrand")
    coarse = _simpson(ys[::2], width / panels)
    fine = _simpson(ys, width / (2 * panels))
    return fine, abs(fine - coarse)


def pair_with_estimate(s, index, phi):
    """Pairing integral of sequence entry `index` against the test function."""
    lo, hi = phi.support

    def integrand(xs):
        # a non-finite entry times the bump's zeros is nan; integrate rejects it
        with np.errstate(all="ignore"):
            return s.term_values(index, xs) * phi.values(xs)

    return integrate(integrand, lo, hi, oscillation_hint=index)


def pair(s, index, phi):
    """Pairing value alone; see pair_with_estimate for the error estimate."""
    return pair_with_estimate(s, index, phi)[0]
