"""Scalar root and minimum refinement used by the certificate machinery."""

from __future__ import annotations

import math

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
