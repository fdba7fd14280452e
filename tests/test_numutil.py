import random

import numpy as np

from branchlab import expr as ex
from branchlab._numutil import refine_min_abs, refine_min_abs_lanes
from conftest import random_expression


def _lanes(den, lanes):
    """Lane-wise and per-lane probes of den for (index, lo, hi) lanes.

    The reference probe of a lane evaluates one-element arrays, index and
    point alike, so both sides take numpy's array path.
    """
    closure = ex._compiled(den)
    nus = np.array([float(index) for index, _, _ in lanes])

    def f(points):
        return np.broadcast_to(closure(nus, points), points.shape)

    def scalar_f(index):
        nu = np.array([float(index)])
        return lambda point: closure(nu, np.array([point])).item()

    return f, [scalar_f(index) for index, _, _ in lanes]


def _assert_lanes_match(den, lanes):
    f, scalar_fs = _lanes(den, lanes)
    lo = np.array([lane[1] for lane in lanes])
    hi = np.array([lane[2] for lane in lanes])
    with np.errstate(all="ignore"):
        points, values = refine_min_abs_lanes(f, lo, hi)
        expected = [refine_min_abs(g, a, b) for g, (_, a, b) in zip(scalar_fs, lanes)]
    assert points.tobytes() == np.array([p for p, _ in expected]).tobytes()
    assert values.tobytes() == np.array([v for _, v in expected]).tobytes()


def test_lanes_equal_scalar_refinement_on_random_trees(rng):
    for _ in range(60):
        den = random_expression(rng, depth=3, allow_nu=True)
        lanes = []
        for _ in range(16):
            a = rng.uniform(-3.0, 3.0)
            # narrow and wide brackets converge after different step counts,
            # and wide ones often straddle a sign change and bisect
            b = a + rng.choice((1e-9, 1e-4, 0.01, 0.5, 4.0)) * rng.choice((1, -1))
            lanes.append((rng.randint(1, 64), a, b))
        _assert_lanes_match(den, lanes)


def test_lanes_cover_every_exit_of_the_scalar_search():
    # x - 1/4 bisects; on [-1/2, 1] its first midpoint is an exact zero, and
    # on [-1e60, 3e60] it runs out of bisection steps
    _assert_lanes_match(
        ex.parse("x - 0.25"),
        [(1, -0.5, 1.0), (2, -1.0, 0.9), (3, 0.5, -0.7), (4, -1e60, 3e60)],
    )
    # golden-section lanes on a touching zero, a pole at an endpoint (a
    # non-finite endpoint value), a degenerate bracket, a large |x| scale
    # and a bracket too wide to close in the golden-section steps
    _assert_lanes_match(
        ex.parse("(x - nu/10)^2 + 1/x"),
        [
            (1, 0.0, 0.3),
            (2, 0.1, 0.3),
            (3, 0.25, 0.25),
            (4, -0.2, 0.0),
            (5, 2e3, 2e3 + 1.0),
            (6, 1e-3, 2e4),
        ],
    )
    # sign changes and touching zeros mixed lane by lane, with lanes that
    # stop at different steps
    _assert_lanes_match(
        ex.parse("sin(nu*x)"),
        [(k, -0.3 + k * 0.01, 0.4 + (k % 5) * 0.7) for k in range(1, 20)],
    )
    _assert_lanes_match(
        ex.parse("1 + sin(nu*x)"), [(k, -2.0, -1.0 + k * 0.1) for k in range(1, 12)]
    )


def test_lanes_with_nothing_to_refine():
    f, _ = _lanes(ex.x, [])
    points, values = refine_min_abs_lanes(f, np.array([]), np.array([]))
    assert points.shape == values.shape == (0,)
