"""Root and minimum refinement on many brackets at once, one numpy lane each.

``f`` maps an array of points, one per lane, to the lanes' values, so each
step costs one call of ``f`` for all lanes, and a lane freezes when its own
search would have returned.  ``bisect_lanes`` gives the roots of
membership witnesses; ``refine_min_abs_lanes`` refines the sampled indices of
a denominator.  Every comparison, update and stopping rule is the scalar
search's applied elementwise, so a lane returns bit for bit what the scalar
search returns on its bracket when f's lane values equal the scalar f's.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BISECT_ITERATIONS = 200
GOLDEN_ITERATIONS = 90


def _width_done(lo, hi):
    """The stopping rule hi - lo < 1e-15 * max(1, |lo|), elementwise."""
    return hi - lo < 1e-15 * np.maximum(np.abs(lo), 1.0)


def bisect_lanes(f, lo, hi):
    """Bisection on every lane of the brackets [lo, hi]; returns the lanes' points.

    A lane with an exact zero at an endpoint returns that endpoint, lo
    first.  A lane whose f changes sign between finite endpoint values
    returns the midpoint of its final bracket; a midpoint that is an exact
    zero freezes the lane, so that zero stays its midpoint.  Any other lane
    returns lo.
    """
    flo, fhi = f(lo), f(hi)
    bisecting = np.isfinite(flo) & np.isfinite(fhi) & (flo * fhi < 0)
    blo, bhi, bflo = lo.copy(), hi.copy(), flo.copy()
    active = bisecting
    for _ in range(BISECT_ITERATIONS):
        if not active.any():
            break
        mid = 0.5 * (blo + bhi)
        values = f(mid)
        moving = active & (values != 0.0)
        lower = moving & (bflo * values < 0)
        higher = moving ^ lower
        np.copyto(bhi, mid, where=lower)
        np.copyto(blo, mid, where=higher)
        np.copyto(bflo, values, where=higher)
        active = moving & ~_width_done(blo, bhi)
    points = np.where(bisecting, 0.5 * (blo + bhi), lo)
    return np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, points))


def refine_min_abs_lanes(f, lo, hi):
    """Point of every lane's bracket where |f| is (locally) smallest.

    lo and hi are float arrays.  A lane whose f changes sign is bisected; the
    others run golden-section search on |f|, which handles quadratic touch
    points such as 1+sin, and keep an endpoint where |f| is smaller still.
    Returns the arrays (points, |f| at the points).
    """
    lo, hi = np.where(lo > hi, hi, lo), np.where(lo > hi, lo, hi)
    flo, fhi = f(lo), f(hi)
    bisecting = np.isfinite(flo) & np.isfinite(fhi) & (flo * fhi < 0)
    golden = ~bisecting & (lo != hi)
    roots = bisect_lanes(f, lo, hi) if bisecting.any() else lo
    # golden-section keeps [a, b] with inner points c < d and gc, gd = |f|
    a, b = lo.copy(), hi.copy()
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = np.abs(f(c)), np.abs(f(d))
    active = golden
    for _ in range(GOLDEN_ITERATIONS):
        if not active.any():
            break
        # when gc < gd the bracket drops (d, b] and probes a new c, otherwise
        # it drops [a, c) and probes a new d
        left = gc < gd
        na, nb = np.where(left, a, c), np.where(left, d, b)
        nc = np.where(left, nb - _GOLDEN * (nb - na), d)
        nd = np.where(left, c, na + _GOLDEN * (nb - na))
        g = np.abs(f(np.where(left, nc, nd)))
        moved = (na, nb, nc, nd, np.where(left, g, gd), np.where(left, gc, g))
        for kept, new in zip((a, b, c, d, gc, gd), moved):
            np.copyto(kept, new, where=active)
        active = active & ~_width_done(a, b)
    points = np.where(bisecting, roots, np.where(golden, 0.5 * (a + b), lo))
    values = np.abs(f(points))
    # a golden-section lane keeps an endpoint where |f| is smaller still
    for end, fend in ((lo, flo), (hi, fhi)):
        better = golden & (np.abs(fend) < values)
        points = np.where(better, end, points)
        values = np.where(better, np.abs(fend), values)
    return points, values
