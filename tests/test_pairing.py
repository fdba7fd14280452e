import math
import tracemalloc

import numpy as np
import pytest

import branchlab.expr as ex
import branchlab.pairing as pairing
from branchlab.sequences import (
    SmoothSequence,
    apply_smooth,
    seq_add,
    seq_derive,
    seq_mul,
    smooth_sequence,
)
from branchlab.weaklimit import DEFAULT_SCHEDULE
from conftest import random_expression

# midpoint rule at 2^20 panels, written before looking at the package value
FROZEN_SHAPE_INTEGRAL = 0.4439938161680794

DOM = ex.DomainInterval(-1.0, 1.0)


def midpoint(f, lo, hi, n):
    h = (hi - lo) / n
    xs = lo + h * (np.arange(n) + 0.5)
    return float(np.sum(f(xs)) * h)


def _shape(u):
    return np.exp(-1.0 / (1.0 - u * u))


def test_shape_integral_against_independent_oracle():
    oracle = midpoint(_shape, -1.0, 1.0, 1 << 20)
    assert abs(oracle - FROZEN_SHAPE_INTEGRAL) < 1e-10
    assert abs(pairing.bump_shape_integral() - oracle) < 1e-12


def _masked_bump_shape(u):
    """The bump shape by a boolean gather and scatter, as pairing._bump_shape once was."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    if np.any(inside):
        v = u[inside]
        out[inside] = np.exp(-1.0 / (1.0 - v * v))
    return out


def _bump_shape_derivative(u):
    """d/du of the bump shape: shape(u) * (-2u/(1-u^2)^2), by np.where."""
    u = np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        w = 1.0 - u * u
        return np.where(np.abs(u) < 1.0, np.exp(-1.0 / w) * (-2.0 * u / (w * w)), 0.0)


def _derivative_values(phi, xs):
    """phi' at xs: the reference integration by parts pairs against."""
    u = (np.asarray(xs, dtype=float) - phi.center) / phi.width
    return _bump_shape_derivative(u) * (phi._scale() / phi.width)


def _bump_shape(u):
    """pairing._bump at scale 1 on a copy of u."""
    with np.errstate(all="ignore"):
        return pairing._bump(np.array(u, dtype=float), 1.0)


def _masked_bump_shape_derivative(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    if np.any(inside):
        v = u[inside]
        w = 1.0 - v * v
        out[inside] = np.exp(-1.0 / w) * (-2.0 * v / (w * w))
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


EDGE_U = np.array(
    [
        -np.inf,
        np.nextafter(-1.0, -2.0),
        -1.0,
        np.nextafter(-1.0, 0.0),
        -0.0,
        0.0,
        np.nextafter(1.0, 0.0),
        1.0,
        np.nextafter(1.0, 2.0),
        np.inf,
        np.nan,
    ]
)


def test_bump_shape_matches_the_masked_form_bit_for_bit(rng):
    pairs = (
        (_bump_shape, _masked_bump_shape),
        (_bump_shape_derivative, _masked_bump_shape_derivative),
    )
    for shape, reference in pairs:
        expected = reference(EDGE_U)
        assert _same_bits(shape(EDGE_U), expected)
        assert _same_bits(shape(EDGE_U[:, None]), expected[:, None])
    for _ in range(24):
        rows = rng.choice((1, 8))
        count = rng.randrange(101, 20002)
        centers = np.array([rng.uniform(-5.0, 5.0) for _ in range(rows)])[:, None]
        widths = np.array([rng.uniform(1e-3, 3.0) for _ in range(rows)])[:, None]
        # grids on the support, as pairing_tables samples, or a little past its ends
        reach = rng.choice((1.0, rng.uniform(0.5, 1.5)))
        lower = (centers - reach * widths)[:, 0]
        xs = np.empty((rows, count))
        pairing._grids(lower, (centers + reach * widths)[:, 0], np.arange(count), xs)
        u = (xs - centers) / widths
        for shape, reference in pairs:
            assert _same_bits(shape(u), reference(u))
        # scaled in place, as pairing_tables and TestFunction.values scale it
        scales = 1.0 / (widths * pairing.bump_shape_integral())
        with np.errstate(all="ignore"):
            scaled = pairing._bump(u.copy(), scales)
        assert _same_bits(scaled, _masked_bump_shape(u) * scales)


def test_shape_integral_is_pinned():
    assert pairing.bump_shape_integral() == 0.4439938161680794


def test_bump_values_and_support():
    phi = pairing.bump(0.5, 0.25, normalized=False)
    assert phi.support == (0.25, 0.75)
    assert phi.value(0.5) == pytest.approx(math.exp(-1.0))
    assert phi.value(0.75) == 0.0
    assert phi.value(2.0) == 0.0
    xs = np.linspace(0.0, 1.0, 101)
    assert np.all(phi.values(xs) >= 0.0)


def _pair(s, index, phi):
    """Pairing value and estimate of entry `index` with phi: a one-member, one-index table."""
    ((_, value, estimate),) = pairing.pairing_tables(s, pairing.plan_grids((phi,), (index,)))[0]
    return value, estimate


def _rule(ys, width, panels):
    """The two-grid Simpson rule pairing_tables applies to each row of samples."""
    weights = pairing._simpson_weights(ys.size)
    work = np.empty(ys.size)
    (value,), (estimate,) = pairing._two_grid_rule(ys[None, :], width, panels, weights, work)
    return value, estimate


def test_normalized_bump_integrates_to_one():
    phi = pairing.bump(0.0, 1.0)
    assert phi.integral() == 1.0
    value, estimate = _pair(smooth_sequence("1"), 1, phi)
    assert abs(value - 1.0) < 1e-6
    assert abs(value - 1.0) <= estimate + 1e-9


def test_raw_bump_integral():
    phi = pairing.bump(0.0, 2.0, normalized=False)
    assert phi.integral() == pytest.approx(2.0 * FROZEN_SHAPE_INTEGRAL)


def test_bump_width_must_be_positive():
    with pytest.raises(ValueError):
        pairing.bump(0.0, 0.0)
    with pytest.raises(ValueError):
        pairing.bump(0.0, -1.0)


def test_support_must_stay_inside_domain():
    with pytest.raises(ValueError):
        pairing.bump(0.0, 10.0, domain=DOM)
    pairing.bump(0.0, 1.0, domain=DOM)


def test_default_panel_stays_inside_a_domain_that_rounds_badly():
    domain = ex.DomainInterval(-1.88, 0.92)
    panel = pairing.default_panel(domain)
    for member in panel:
        lo, hi = member.support
        assert domain.lower <= lo and hi <= domain.upper
    spacing = domain.length / 9
    assert panel.members[-1].width == pytest.approx(spacing, rel=1e-15)
    assert [m.width for m in panel.members[:-1]] == [spacing] * 7
    assert [m.width for m in pairing.default_panel(DOM)] == [2.0 / 9] * 8


def test_panel_must_cover_domain():
    with pytest.raises(ValueError):
        pairing.Panel((pairing.bump(0.0, 0.05),), DOM)
    panel = pairing.default_panel(DOM)
    assert len(panel) == 8
    assert all(m.support[0] >= DOM.lower - 1e-12 for m in panel)
    assert all(m.support[1] <= DOM.upper + 1e-12 for m in panel)


def test_panel_to_dict():
    panel = pairing.Panel((pairing.bump(-0.5, 0.5), pairing.bump(0.5, 0.5)), DOM)
    d = panel.to_dict()
    assert d["domain"] == [-1.0, 1.0]
    assert len(d["members"]) == 2
    assert set(d["members"][0]) == {"center", "width", "normalized"}


def test_integrate_constant_is_exact():
    panels = pairing._panel_count(1.0, 1)
    value, estimate = _rule(np.ones(2 * panels + 1), 1.0, panels)
    assert value == pytest.approx(1.0, abs=1e-14)
    assert estimate <= 1e-14


def test_integrate_full_period_sine():
    panels = pairing._panel_count(2.0 * math.pi, 1)
    grid = np.empty((1, 2 * panels + 1))
    (xs,) = pairing._grids(np.array([0.0]), np.array([2.0 * math.pi]), np.arange(grid.size), grid)
    value, _ = _rule(np.sin(xs), 2.0 * math.pi, panels)
    assert abs(value) < 1e-8


def test_integrate_validation():
    # a width that rounds the support to a point is refused with the test function
    for width in (0.0, 1e-300):
        with pytest.raises(ValueError, match="must have positive length"):
            pairing.TestFunction(0.5, width)


def test_integrate_rejects_non_finite_samples():
    with pytest.raises(pairing.IntegrationError):
        _pair(smooth_sequence("0/(nu-1)"), 1, pairing.bump(0.0, 1.0))


def _two_grid_simpson(f, lower, upper, hint):
    """The rule sampled on two grids: n panels, then 2n, each read on its own."""
    width = upper - lower
    step = min(width / 50.0, 2.0 * math.pi / hint / 16.0)
    panels = int(math.ceil(width / step))
    panels += panels % 2

    def simpson(n):
        ys = f(np.linspace(lower, upper, n + 1))
        weights = np.ones(n + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float(np.sum(weights * ys) * ((upper - lower) / n) / 3.0)

    coarse, fine = simpson(panels), simpson(2 * panels)
    return fine, abs(fine - coarse)


def _recorded_grids(monkeypatch):
    """Every grid pairing_tables hands SmoothSequence.term_values, copied."""
    grids = []
    original = SmoothSequence.term_values

    def recorded(self, index, xs):
        grids.append(np.array(xs))
        return original(self, index, xs)

    monkeypatch.setattr(SmoothSequence, "term_values", recorded)
    return grids


@pytest.mark.parametrize("tail", ["cos(nu*x)", "cos(nu*x)^2", "nu/(2*cosh(nu*x)^2)", "x^3"])
@pytest.mark.parametrize("index", [1, 3, 16, 256])
def test_integrate_samples_its_integrand_once(tail, index, monkeypatch):
    s = smooth_sequence(tail)
    phi = pairing.bump(0.2, 0.7)

    def integrand(xs):
        return s.term_values(index, xs) * phi.values(xs)

    grids = _recorded_grids(monkeypatch)
    got = _pair(s, index, phi)
    monkeypatch.undo()
    ((nodes,),) = [grid.shape[1:] for grid in grids]
    assert nodes % 2 == 1
    # the fine grid's even nodes are the coarse grid, bit for bit
    assert got == _two_grid_simpson(integrand, *phi.support, index)


@pytest.mark.parametrize("lower, upper", [(-1.0, 0.7), (0.3, 1.9), (-2.2, 3.1)])
@pytest.mark.parametrize("hint", [1, 7, 64])
def test_integrate_samples_on_linspace(lower, upper, hint, monkeypatch):
    phi = pairing.bump(0.5 * (lower + upper), 0.5 * (upper - lower))
    grids = _recorded_grids(monkeypatch)
    got = _pair(smooth_sequence("exp(x)"), hint, phi)
    monkeypatch.undo()
    assert got == _two_grid_simpson(lambda xs: np.exp(xs) * phi.values(xs), *phi.support, hint)
    # every node, the last one included, where linspace puts it
    ((xs,),) = grids
    assert np.array_equal(xs, np.linspace(*phi.support, len(xs)))


def _reference_tables(s, members, schedule):
    """_two_grid_simpson per (index, member), or the IntegrationError message a
    non-finite sample should raise."""
    tables = []
    failures = []
    for k, phi in enumerate(members):
        table = []
        for index in schedule:
            finite = []

            def integrand(xs):
                ys = s.term_values(index, xs) * phi.values(xs)
                finite.append(bool(np.all(np.isfinite(ys))))
                return ys

            with np.errstate(all="ignore"):
                table.append((index, *_two_grid_simpson(integrand, *phi.support, index)))
            if not all(finite):
                failures.append((schedule.index(index), k, index, phi))
        tables.append(table)
    if failures:
        _, _, index, phi = min(failures, key=lambda failure: failure[:2])
        return (
            f"non-finite sample in the integrand at index {index}, against the "
            f"test function centered at {phi.center} with width {phi.width}"
        )
    return tables


def _mixed_members():
    """Three interleaved widths, so an index has several groups; the narrow ones fill chunks."""
    members = [pairing.bump(-3.2 + 0.8 * k, 0.3) for k in range(9)]
    members += [pairing.bump(c, 0.7) for c in (-2.0, 0.3, 2.6)]
    members += [pairing.bump(c, 1.3, normalized=False) for c in (-1.4, 1.4)]
    return sorted(members, key=lambda phi: phi.center)


def _nan_as_text(tables):
    """The tables with each nan written "nan", so that == matches nan with nan;
    every other float is still compared bit for bit."""
    if isinstance(tables, str):
        return tables
    return [[tuple("nan" if v != v else v for v in row) for row in table] for table in tables]


def test_pairing_tables_match_each_pairing_alone(rng, monkeypatch):
    members = _mixed_members()
    schedule = (1, 3, 16, 100, 256, 1024, 4096)
    blocks = []  # (index, rows, nodes) of each closure call
    original = SmoothSequence.term_values

    def recorded(self, index, xs):
        blocks.append((index, *np.shape(xs)))
        return original(self, index, xs)

    sequences = [SmoothSequence(random_expression(rng, allow_nu=True)) for _ in range(5)]
    sequences.append(smooth_sequence("cos(nu*x)*x", {3: "x^2", 16: "tanh(x)"}))
    sequences.append(smooth_sequence("(nu-1.738)^3*cos(x)"))
    sequences.append(smooth_sequence("1/(nu-100)"))
    # finite samples whose sum overflows on one row of a chunk of narrow members: (inf, nan)
    sequences.append(smooth_sequence("1e307*exp(-50*(x-0.8)^2)"))
    # at 256 the only non-finite sample is inf * 0 = nan, at the last member's upper end
    edge = members[-1].support[1]
    assert not any(phi.support[0] < edge < phi.support[1] for phi in members)
    sequences.append(smooth_sequence("x", {256: f"1/(x-{edge!r})"}))
    # non-finite in the one-row blocks longer than BLOCK_NODES only
    sequences.append(smooth_sequence("1/(nu-4096)"))
    outcomes = set()
    grids = pairing.plan_grids(members, schedule)
    for s in sequences:
        expected = _nan_as_text(_reference_tables(s, members, schedule))
        blocks.clear()
        monkeypatch.setattr(SmoothSequence, "term_values", recorded)
        if isinstance(expected, str):
            with pytest.raises(pairing.IntegrationError) as caught:
                pairing.pairing_tables(s, grids)
            assert str(caught.value) == expected
        else:
            # bit for bit, so == and not approx
            assert _nan_as_text(pairing.pairing_tables(s, grids)) == expected
        monkeypatch.undo()
        if isinstance(expected, str):
            outcomes.add(expected)
        else:
            outcomes.add(any("nan" in row for table in expected for row in table))
        # several groups at one index, and a group split into chunks of several rows
        groups = {(index, nodes) for index, _, nodes in blocks}
        assert len({nodes for index, _, nodes in blocks if index == 16}) == 3
        if blocks[-1][0] == schedule[-1]:
            assert any(rows == 1 and nodes > pairing.BLOCK_NODES for _, rows, nodes in blocks)
        if not isinstance(expected, str):
            assert len(groups) < len(blocks)
            assert any(rows > 1 for _, rows, nodes in blocks if nodes * 3 > pairing.BLOCK_NODES)
    # finite tables, tables with (inf, nan) rows, and the failures the edge cases expect
    assert {False, True} <= outcomes
    for index, phi in ((256, members[-1]), (4096, members[0])):
        assert (
            f"non-finite sample in the integrand at index {index}, against the "
            f"test function centered at {phi.center} with width {phi.width}"
        ) in outcomes


@pytest.mark.parametrize(
    "domain, lengths", [(DOM, 1), (ex.DomainInterval(0.0, 6.283185307179586), 3)]
)
def test_pairing_tables_count_panels_once_per_support_length(domain, lengths, monkeypatch):
    panel = pairing.default_panel(domain)
    # equal widths, yet on [0, 2*pi] upper - lower takes three values in the last bit
    assert len({phi.width for phi in panel}) == 1
    assert len({phi.support[1] - phi.support[0] for phi in panel}) == lengths
    s = smooth_sequence("cos(nu*x)")
    expected = _reference_tables(s, panel.members, DEFAULT_SCHEDULE)
    calls = []
    original = pairing._panel_count

    def counted(width, hint):
        calls.append((width, hint))
        return original(width, hint)

    monkeypatch.setattr(pairing, "_panel_count", counted)
    # bit for bit, so == and not approx
    assert pairing.pairing_tables(s, pairing.plan_grids(panel.members, DEFAULT_SCHEDULE)) == expected
    assert len(calls) == len(set(calls)) == lengths * len(DEFAULT_SCHEDULE)


def test_pairing_tables_refuse_an_index_before_the_start():
    s = smooth_sequence("cos(nu*x)", start_index=5)
    with pytest.raises(ValueError) as reference:
        _reference_tables(s, _mixed_members(), (4, 8))
    with pytest.raises(ValueError) as caught:
        pairing.pairing_tables(s, pairing.plan_grids(_mixed_members(), (4, 8)))
    assert str(caught.value) == str(reference.value) == "sequence starts at index 5, got 4"


def test_pairing_tables_refuse_a_grid_longer_than_the_cap(monkeypatch):
    members = _mixed_members()
    s = smooth_sequence("cos(nu*x)")
    widest = max(members, key=lambda phi: phi.width)
    length = widest.support[1] - widest.support[0]
    monkeypatch.setattr(pairing, "MAX_GRID_NODES", 2 * pairing._panel_count(length, 256) + 1)
    # a grid at the cap is sampled
    tables = pairing.pairing_tables(s, pairing.plan_grids(members, (1, 256)))
    assert [len(table) for table in tables] == [2] * 14
    grids = _recorded_grids(monkeypatch)
    with pytest.raises(pairing.IntegrationError) as caught:
        pairing.pairing_tables(s, pairing.plan_grids(members, (1, 257)))
    message = str(caught.value)
    assert message.startswith(
        f"the grid at index 257, against the test function centered at {widest.center} "
        f"with width {widest.width}, would have "
    )
    assert message.endswith(f"more than {pairing.MAX_GRID_NODES}")
    # the grid at index 257 is refused before any index is sampled, index 1 too
    assert grids == []


def test_an_overflowing_pairing_is_inf_and_nan_without_a_warning():
    # finite samples whose Simpson sums overflow; a RuntimeWarning would fail the test
    s = smooth_sequence("1e307")
    tables = pairing.pairing_tables(s, pairing.plan_grids((pairing.bump(0.0, 1.0),), (1, 2, 1024)))
    assert _nan_as_text(tables) == [[(index, math.inf, "nan") for index in (1, 2, 1024)]]


def test_pairing_tables_peak_memory_is_a_few_blocks():
    panel = pairing.default_panel(DOM)
    s = smooth_sequence("cos(nu*x)")
    # at index 4096 each member's grid, 9273 nodes, is a block of its own
    length = max(phi.support[1] - phi.support[0] for phi in panel)
    block_bytes = 8 * (2 * pairing._panel_count(length, 4096) + 1)
    grids = pairing.plan_grids(panel.members, (4096,))
    pairing.pairing_tables(s, grids)  # compiles the entry outside the trace
    tracemalloc.start()
    try:
        pairing.pairing_tables(s, grids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two work buffers, the nodes, the weights, and the entry's value and temporary
    assert peak < 7 * block_bytes


def test_pair_constant_sequence():
    phi = pairing.bump(0.0, 1.0)
    assert _pair(smooth_sequence("1"), 1, phi)[0] == pytest.approx(1.0, abs=1e-6)


def test_pair_oscillation_decays():
    phi = pairing.bump(0.0, 1.0, normalized=False)
    cos_seq = smooth_sequence("cos(nu*x)")
    assert abs(_pair(cos_seq, 4096, phi)[0]) < 1e-4
    assert abs(_pair(cos_seq, 64, phi)[0]) < 1e-4
    # the pairing at low frequency is visibly larger, the decay is real
    assert abs(_pair(cos_seq, 1, phi)[0]) > 1e-2


def test_pair_square_keeps_half_mass():
    phi = pairing.bump(0.0, 1.0)
    squared = apply_smooth(ex.parse("u^2", ("u",)), smooth_sequence("cos(nu*x)"), DOM)
    assert _pair(squared, 4096, phi)[0] == pytest.approx(0.5, abs=1e-3)


def test_pair_uses_exceptional_entries():
    phi = pairing.bump(0.0, 1.0)
    s = smooth_sequence("cos(nu*x)", {2: "1"})
    assert _pair(s, 2, phi)[0] == pytest.approx(1.0, abs=1e-6)


def test_pair_rejects_poles_inside_support():
    phi = pairing.bump(0.0, 0.5)
    s = SmoothSequence(ex.parse("1/x"))
    with pytest.raises(pairing.IntegrationError):
        _pair(s, 1, phi)


def test_pairing_linearity(rng):
    phi = pairing.bump(0.2, 0.7)
    s = smooth_sequence("cos(nu*x)", {3: "x"})
    t = smooth_sequence("x^2")
    for _ in range(10):
        a = round(rng.uniform(-2, 2), 3)
        b = round(rng.uniform(-2, 2), 3)
        nu = rng.randrange(1, 12)
        combo = seq_add(seq_mul(smooth_sequence(ex.Num(a)), s), seq_mul(smooth_sequence(ex.Num(b)), t))
        lhs = _pair(combo, nu, phi)[0]
        rhs = a * _pair(s, nu, phi)[0] + b * _pair(t, nu, phi)[0]
        assert abs(lhs - rhs) < 1e-8


def test_integration_by_parts():
    # <s', phi> = -<s, phi'> because phi vanishes at its support endpoints;
    # phi' spikes near the edges, so that side gets a fine step
    phi = pairing.bump(0.1, 0.8)
    for tail in ("sin(nu*x)", "x^2", "tanh(x)*cos(nu*x)"):
        s = smooth_sequence(tail)
        derived = seq_derive(s)
        for nu in (1, 3, 9):
            left, _ = _pair(derived, nu, phi)
            right, _ = _two_grid_simpson(
                lambda xs: s.term_values(nu, xs) * _derivative_values(phi, xs), *phi.support, 128
            )
            assert abs(left + right) < 1e-6


def test_error_estimates_are_honest(rng):
    tails = ("cos(nu*x)", "x^2", "1 + sin(nu*x)", "exp(0.5*x)", "nu*x")
    covered = 0
    total = 0
    for tail in tails:
        s = smooth_sequence(tail)
        for _ in range(8):
            center = rng.uniform(-0.3, 0.3)
            width = rng.uniform(0.3, 0.7)
            nu = rng.randrange(1, 32)
            phi = pairing.bump(center, width)
            value, estimate = _pair(s, nu, phi)
            reference = midpoint(
                lambda xs: s.term_values(nu, xs) * phi.values(xs),
                center - width,
                center + width,
                1 << 19,
            )
            total += 1
            if abs(value - reference) <= estimate + 1e-12:
                covered += 1
    assert covered >= 0.95 * total
