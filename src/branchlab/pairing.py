"""Compactly supported bump test functions and the pairing integral.

The bump family is exp(-1/(1-u^2)) on |u| < 1 with u = (x-center)/width,
zero outside.  All derivatives vanish at the support endpoints, so the
composite Simpson rule converges extremely fast; the step size additionally
resolves the oscillation of the sequence entry being paired (at least 16
points per period of the index).  Every pairing returns an error estimate
from comparing the rule against itself at half the step.

Pairings have one entry point, `pairing_tables`, which pairs a sequence with
every member of a panel at every index of a schedule, over the GridPlan that
`plan_grids` made of them once for every sequence paired there.  At each index
the panel members whose supports need the same number of Simpson panels (all
of them, when the widths are equal) share one (member x node) block of grids,
and the sequence entry is evaluated on the whole block in one closure call.
The index stays a scalar: an integer power of an array of indices can differ
in the last bit from the same power of each index alone.  A block holds at
most BLOCK_NODES nodes, unless one grid alone is longer, and no grid may hold
more than MAX_GRID_NODES, so memory stays bounded however wide the panel and
however large the index.  Each call computes its blocks in two buffers it
allocates once, and grows only for a longer grid:
the grid goes into one, the bump and then the integrand into the other, one
`out=` ufunc at a time, and the weighted samples of each Simpson rule back
into the first.  A finite sum has finite samples, so only a row whose sum is
not finite is searched for a non-finite sample.  Every value is bit for bit
the value of pairing the member alone on `np.linspace`: each node gets the
same floating-point operations on the same operands, and each Simpson sum
reduces one contiguous row, the same pairwise sum as over a 1-D grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._report import Record

# most nodes one closure call of pairing_tables sees, unless one grid is longer
BLOCK_NODES = 8192
# most nodes of one member's grid; a longer one is refused before any index is sampled
MAX_GRID_NODES = 1 << 22
# most units of work one command may plan: grid nodes, scan nodes and samples together
WORK_BUDGET = 2 * MAX_GRID_NODES


class IntegrationError(ValueError):
    """Raised when an integrand produces non-finite samples or needs too many grid nodes."""


def _bump(u, scale):
    """scale * exp(-1/(1-u^2)) written over u, zero where u*u >= 1 or u is nan; run it
    under an error state that ignores division by zero and overflow.  np.fmax clips
    1 - u*u (nan too) to 0, exp(-1/0) is 0, and a point inside gets the same ufuncs."""
    np.multiply(u, u, out=u)
    np.subtract(1.0, u, out=u)
    np.fmax(u, 0.0, out=u)
    np.divide(-1.0, u, out=u)
    np.exp(u, out=u)
    return np.multiply(u, scale, out=u)


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
    return float(np.sum(_bump(u, 1.0)) * h)  # no u*u reaches 1


@dataclass(frozen=True, slots=True)
class TestFunction(Record):
    """Scaled bump; integral normalized to 1 when `normalized` is set."""

    center: float
    width: float
    normalized: bool = True

    def __post_init__(self):
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "width", float(self.width))
        lo, hi = self.support
        # a width that rounds the support to a point leaves nothing to integrate
        if not lo < hi:
            raise ValueError(f"bump support [{lo}, {hi}] must have positive length")

    @property
    def support(self):
        return (self.center - self.width, self.center + self.width)

    def integral(self):
        return 1.0 if self.normalized else self.width * bump_shape_integral()

    def _scale(self):
        return 1.0 / (self.width * bump_shape_integral()) if self.normalized else 1.0

    def values(self, xs):
        u = np.array(xs, dtype=float)  # a copy, even of a 0-d array, that _bump overwrites
        np.subtract(u, self.center, out=u)
        np.divide(u, self.width, out=u)
        with np.errstate(all="ignore"):
            return _bump(u, self._scale())

    def value(self, x_value):
        return float(self.values(np.array([x_value]))[0])


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


def default_panel(domain):
    """Eight equally spaced normalized bumps; widths equal the spacing, so supports overlap."""
    spacing = domain.length / 9
    members = []
    for k in range(8):
        center = domain.lower + spacing * (k + 1)
        width = _fitted_width(center, spacing, domain)
        members.append(bump(center, width, domain=domain))
    return Panel(tuple(members), domain)


def _panel_count(width, oscillation_hint):
    """Even Simpson panel count for an interval of that width (upper - lower).

    At least 50 panels, and at least 16 per period of the hint.
    """
    period = 2.0 * math.pi / float(oscillation_hint)
    step = min(width / 50.0, period / 16.0)
    panels = int(math.ceil(width / step))
    return panels + panels % 2


def _grids(lower, upper, nodes, out):
    """Writes row i of np.linspace(lower[i], upper[i], count) into out, bit for bit
    for a nonzero step; `nodes` is np.arange(count)."""
    np.multiply(nodes, ((upper - lower) / (nodes.size - 1))[:, None], out=out)
    np.add(out, lower[:, None], out=out)
    out[:, -1] = upper
    return out


def _simpson_weights(size):
    """1, 4, 2, 4, 2, ...: the composite Simpson weights of n + 1 samples are its
    first n entries and then 1."""
    weights = np.full(size, 2.0)
    weights[1::2] = 4.0
    weights[0] = 1.0
    return weights


def _two_grid_rule(ys, width, panels, weights, out):
    """Per row: Simpson on 2*panels, and its distance to Simpson on every other node.

    linspace(lo, hi, 2n+1)[::2] is linspace(lo, hi, n+1) bit for bit, so the
    coarse rule reads the fine grid's samples instead of sampling again.  Each
    rule writes its weighted samples into contiguous rows of the flat buffer
    `out` and sums each row pairwise, as over a 1-D grid; ys is left as it is.
    """
    sums = []
    for stride, n in ((1, 2 * panels), (2, panels)):
        weighted = out[: len(ys) * (n + 1)].reshape(-1, n + 1)
        np.multiply(ys[:, :-1:stride], weights[:n], out=weighted[:, :-1])
        weighted[:, -1] = ys[:, -1]
        sums.append(np.add.reduce(weighted, axis=1) * (width / n) / 3.0)
    fine, coarse = sums
    return fine, np.abs(fine - coarse)


class GridPlan(NamedTuple):
    """A schedule planned against test functions: at each index, its members grouped
    by Simpson panel count as {count: member positions}; and the nodes of all grids."""

    members: tuple
    schedule: tuple
    groups: tuple
    nodes: int


def plan_grids(members, schedule):
    """The GridPlan of the members over the schedule.  A grid longer than MAX_GRID_NODES
    raises IntegrationError naming its index and member."""
    members = tuple(members)
    # equal widths can differ in the last bit of upper - lower, the float a count reads
    lengths = [phi.support[1] - phi.support[0] for phi in members]
    plan, total = [], 0
    for index in schedule:
        counts = {length: _panel_count(length, index) for length in dict.fromkeys(lengths)}
        groups = {}
        for k, length in enumerate(lengths):
            nodes = 2 * counts[length] + 1
            if nodes > MAX_GRID_NODES:
                phi = members[k]
                raise IntegrationError(
                    f"the grid at index {index}, against the test function centered at "
                    f"{phi.center} with width {phi.width}, would have "
                    f"{nodes} nodes, more than {MAX_GRID_NODES}"
                )
            total += nodes
            groups.setdefault(counts[length], []).append(k)
        plan.append(groups)
    return GridPlan(members, tuple(schedule), tuple(plan), total)


def pairing_tables(s, grids):
    """Pairing values and quadrature estimates of s against each test function of the
    GridPlan, at each index of its schedule.

    Returns one [(index, value, estimate), ...] table per member, in schedule
    order; see the module docstring for the blocks they are computed on.  A
    non-finite sample raises IntegrationError naming the first index of the
    schedule that has one and, at that index, the first member that does.
    """
    members = grids.members
    lower = np.array([phi.support[0] for phi in members])
    upper = np.array([phi.support[1] for phi in members])
    centers = np.array([phi.center for phi in members])[:, None]
    widths = np.array([phi.width for phi in members])[:, None]
    scales = np.array([phi._scale() for phi in members])[:, None]
    tables = [[] for _ in members]
    size = 0  # nodes of each buffer; no chunk is longer than max(BLOCK_NODES, count)
    # a non-finite entry times the bump's zeros is nan, and a sum may overflow
    with np.errstate(all="ignore"):
        for index, groups in zip(grids.schedule, grids.groups):
            failed = []
            for panels, rows in groups.items():
                count = 2 * panels + 1
                if count > size:
                    size = max(BLOCK_NODES, count)
                    grid, work = np.empty((2, size))
                    nodes, weights = np.arange(size, dtype=float), _simpson_weights(size)
                chunk_rows = max(1, BLOCK_NODES // count)
                for first in range(0, len(rows), chunk_rows):
                    chunk = np.array(rows[first : first + chunk_rows])
                    xs = grid[: chunk.size * count].reshape(-1, count)
                    _grids(lower[chunk], upper[chunk], nodes[:count], xs)
                    ys = np.subtract(xs, centers[chunk], out=work[: xs.size].reshape(xs.shape))
                    np.divide(ys, widths[chunk], out=ys)
                    np.multiply(s.term_values(index, xs), _bump(ys, scales[chunk]), out=ys)
                    # the grid is read; its buffer takes the weighted samples
                    width = upper[chunk] - lower[chunk]
                    fine, estimate = _two_grid_rule(ys, width, panels, weights, grid)
                    # a finite sum has finite samples; finite samples may still overflow it
                    suspect = ~np.isfinite(fine)
                    if suspect.any():
                        failed += chunk[suspect][~np.isfinite(ys[suspect]).all(axis=1)].tolist()
                    for k, value, error in zip(chunk.tolist(), fine.tolist(), estimate.tolist()):
                        tables[k].append((index, value, error))
            if failed:
                phi = members[min(failed)]
                raise IntegrationError(
                    f"non-finite sample in the integrand at index {index}, against the "
                    f"test function centered at {phi.center} with width {phi.width}"
                )
    return tables
