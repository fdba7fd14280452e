"""Root and minimum refinement used by the certificate machinery.

``refine_min_abs`` refines one bracket with a scalar ``f``: bisection on a
sign change, golden-section search on |f| otherwise.  ``refine_min_abs_lanes``
runs the same algorithm on many brackets at once, one numpy lane per bracket:
each step evaluates ``f`` once on an array of points, one per lane, and a lane
freezes when its own search would have returned.  Every comparison, update
and stopping rule is the scalar one applied elementwise, so lane i returns
bit for bit what ``refine_min_abs`` returns for lane i's bracket, given an
``f`` whose lane values equal the scalar ``f``'s.  ``denominator_safety``
refines all sampled indices of a denominator this way, one lane per index;
the known way its lane values differ from a probe at one scalar index is
the last bit of an x-free integer power of the index, which numpy rounds
differently on arrays than on scalars.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BISECT_ITERATIONS = 200
GOLDEN_ITERATIONS = 90


def bisect_root(f, lo, hi):
    """Bisection on a sign change; returns the midpoint of the final bracket."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change on the bracket")
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-15 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def golden_min(g, lo, hi):
    """Golden-section minimum of g on [lo, hi]; assumes local unimodality."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(GOLDEN_ITERATIONS):
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - _GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _GOLDEN * (b - a)
            gd = g(d)
        if b - a < 1e-15 * max(1.0, abs(a)):
            break
    mid = 0.5 * (a + b)
    return mid, g(mid)


def refine_min_abs(f, lo, hi):
    """Point in [lo, hi] where |f| is (locally) smallest.

    Uses bisection when f changes sign on the bracket (exact root, tangential
    behaviour excluded) and golden-section search on |f| otherwise, which
    handles quadratic touch points such as 1+sin.
    """
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        return lo, abs(f(lo))
    flo, fhi = f(lo), f(hi)
    if math.isfinite(flo) and math.isfinite(fhi) and flo * fhi < 0:
        root = bisect_root(f, lo, hi)
        return root, abs(f(root))
    point, value = golden_min(lambda t: abs(f(t)), lo, hi)
    for candidate in (lo, hi):
        cv = abs(f(candidate))
        if cv < value:
            point, value = candidate, cv
    return point, value


def _width_done(lo, hi):
    """The stopping rule hi - lo < 1e-15 * max(1, |lo|), elementwise."""
    scale = np.abs(lo)
    return hi - lo < 1e-15 * np.where(scale > 1.0, scale, 1.0)


def refine_min_abs_lanes(f, lo, hi):
    """refine_min_abs on every lane of the bracket arrays lo and hi.

    lo and hi are float arrays; f maps an array of points, one per lane, to
    an array of the lanes' values.  Returns the arrays (points, |f| at the
    points).
    """
    lo, hi = np.where(lo > hi, hi, lo), np.where(lo > hi, lo, hi)
    flo, fhi = f(lo), f(hi)
    bisecting = np.isfinite(flo) & np.isfinite(fhi) & (flo * fhi < 0)
    golden = ~bisecting & (lo != hi)
    # bisection keeps the bracket [blo, bhi] with f(blo) = bflo; a lane whose
    # midpoint is an exact zero freezes, so that zero stays its midpoint
    blo, bhi, bflo = lo, hi, flo
    # golden-section keeps [a, b] with inner points c < d and gc, gd = |f|
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = np.abs(f(c)), np.abs(f(d))
    bisect_active = bisecting
    golden_active = golden
    for step in range(max(BISECT_ITERATIONS, GOLDEN_ITERATIONS)):
        if step == GOLDEN_ITERATIONS:
            golden_active = np.zeros_like(golden)
        if not (bisect_active.any() or golden_active.any()):
            break
        mid = 0.5 * (blo + bhi)
        # golden-section: when gc < gd the bracket drops (d, b] and probes a
        # new c, otherwise it drops [a, c) and probes a new d
        left = gc < gd
        na = np.where(left, a, c)
        nb = np.where(left, d, b)
        nc = np.where(left, nb - _GOLDEN * (nb - na), d)
        nd = np.where(left, c, na + _GOLDEN * (nb - na))
        values = f(np.where(bisecting, mid, np.where(left, nc, nd)))

        zero = bisect_active & (values == 0.0)
        moving = bisect_active & ~zero
        lower = bflo * values < 0
        bhi = np.where(moving & lower, mid, bhi)
        blo = np.where(moving & ~lower, mid, blo)
        bflo = np.where(moving & ~lower, values, bflo)
        bisect_active = moving & ~_width_done(blo, bhi)

        g = np.abs(values)
        gc, gd = (
            np.where(golden_active, np.where(left, g, gd), gc),
            np.where(golden_active, np.where(left, gc, g), gd),
        )
        a, b = np.where(golden_active, na, a), np.where(golden_active, nb, b)
        c, d = np.where(golden_active, nc, c), np.where(golden_active, nd, d)
        golden_active = golden_active & ~_width_done(a, b)
    points = np.where(bisecting, 0.5 * (blo + bhi), np.where(golden, 0.5 * (a + b), lo))
    values = np.abs(f(points))
    # a golden-section lane keeps an endpoint where |f| is smaller still
    for end, fend in ((lo, flo), (hi, fhi)):
        better = golden & (np.abs(fend) < values)
        points = np.where(better, end, points)
        values = np.where(better, np.abs(fend), values)
    return points, values
