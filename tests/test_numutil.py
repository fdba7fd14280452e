import random

import numpy as np

from branchlab import expr as ex
from branchlab._numutil import bisect_lanes, refine_min_abs_lanes
from conftest import bisect_root, random_expression, refine_min_abs


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


def _assert_bisection_matches(den, lanes):
    """bisect_lanes against the scalar bisect_root, lane for lane, bit for bit.

    A lane without a sign change, where the scalar search refuses the
    bracket, returns its lo.
    """
    f, scalar_fs = _lanes(den, lanes)
    lo = np.array([lane[1] for lane in lanes])
    hi = np.array([lane[2] for lane in lanes])
    expected = []
    with np.errstate(all="ignore"):
        points = bisect_lanes(f, lo, hi)
        for g, (_, a, b) in zip(scalar_fs, lanes):
            try:
                expected.append(bisect_root(g, a, b))
            except ValueError:
                expected.append(a)
    assert points.tobytes() == np.array(expected).tobytes()


def test_bisection_lanes_equal_scalar_bisection_on_random_trees(rng):
    compared = 0
    for _ in range(60):
        den = random_expression(rng, depth=3, allow_nu=True)
        lanes = []
        for _ in range(16):
            a = rng.uniform(-3.0, 3.0)
            b = a + rng.choice((1e-9, 1e-4, 0.01, 0.5, 4.0))
            lanes.append((rng.randint(1, 64), a, b))
        f, _ = _lanes(den, lanes)
        with np.errstate(all="ignore"):
            ends = [f(np.array([lane[end] for lane in lanes])) for end in (1, 2)]
        # the scalar search bisects a non-finite end too; the lanes refuse it
        finite = np.isfinite(ends[0]) & np.isfinite(ends[1])
        lanes = [lane for lane, keep in zip(lanes, finite) if keep]
        _assert_bisection_matches(den, lanes)
        compared += len(lanes)
    assert compared > 500


def test_bisection_lanes_cover_every_exit():
    # an exact zero at either end, a midpoint that is an exact zero (the lane
    # freezes there), no sign change, a degenerate bracket, and a bracket
    # that runs out of steps
    _assert_bisection_matches(
        ex.parse("x - 0.25"),
        [
            (1, 0.25, 1.0),
            (2, -1.0, 0.25),
            (3, -0.5, 1.0),
            (4, 0.5, 0.7),
            (5, 0.3, 0.3),
            (6, -1e60, 3e60),
        ],
    )
    # the generator x on (-1, 1): a symmetric bracket's first midpoint is 0
    _assert_bisection_matches(ex.x, [(1, -0.25, 0.25), (2, -1e-3, 2e-3)])
