import numpy as np
import pytest

import branchlab.expr as ex
import branchlab.pairing as pairing
import branchlab.weaklimit as wl
from branchlab._report import all_passed
from branchlab.sequences import apply_smooth, seq_mul, smooth_sequence

DOM = ex.DomainInterval(-1.0, 1.0)
PHI = pairing.bump(0.0, 1.0)


def classify(s, panel, schedule=wl.DEFAULT_SCHEDULE, tol=wl.DEFAULT_TOL):
    """classify_membership at the sweep commands' default schedule and tolerance, unless given."""
    return wl.classify_membership(s, pairing.plan_grids(panel, schedule), tol)


def nosquare(base="cos(nu*x)"):
    """The nosquare demo as its command runs it by default, on this base if given."""
    panel, base = pairing.default_panel(DOM), smooth_sequence(base)
    grids = pairing.plan_grids(panel.members, wl.DEFAULT_SCHEDULE)
    return wl.nosquare_demo(DOM, grids, wl.DEFAULT_TOL, base)


def midpoint(f, lo, hi, n):
    h = (hi - lo) / n
    xs = lo + h * (np.arange(n) + 0.5)
    return float(np.sum(f(xs)) * h)


def test_oscillation_is_weak_null():
    ((_, verdict),) = classify(smooth_sequence("cos(nu*x)"), (PHI,)).per_test_function
    assert isinstance(verdict, wl.ConvergesTo)
    assert abs(verdict.value) < 1e-4


def test_square_converges_to_half():
    squared = apply_smooth(ex.parse("u^2", ("u",)), smooth_sequence("cos(nu*x)"), DOM)
    ((_, verdict),) = classify(squared, (PHI,)).per_test_function
    assert isinstance(verdict, wl.ConvergesTo)
    assert verdict.value == pytest.approx(0.5, abs=1e-3)


def test_constant_sequence_limit_matches_oracle():
    phi = pairing.bump(0.3, 0.5)
    ((_, verdict),) = classify(smooth_sequence("x"), (phi,)).per_test_function
    assert isinstance(verdict, wl.ConvergesTo)
    oracle = midpoint(lambda xs: xs * phi.values(xs), -0.2, 0.8, 1 << 19)
    assert verdict.value == pytest.approx(oracle, abs=1e-6)


def test_concentrating_square_diverges():
    tail = smooth_sequence("nu^2/(4*cosh(nu*x)^4)")
    ((_, verdict),) = classify(tail, (PHI,)).per_test_function
    assert isinstance(verdict, wl.Diverges)
    assert verdict.growth_exponent == pytest.approx(1.0, abs=0.1)
    assert verdict.fit_residual < 0.2


def test_x_free_oscillator_is_inconclusive():
    ((_, verdict),) = classify(smooth_sequence("sin(nu)"), (PHI,)).per_test_function
    assert isinstance(verdict, wl.Inconclusive)
    assert verdict.reason


@pytest.mark.parametrize(
    "tail, tol",
    [
        # a tolerance above the last spread once settled a growing table as weak-null
        ("nu^2", 1e300),
        # pairings that grow linearly but stay below the default tolerance
        ("x*nu/1e9", wl.DEFAULT_TOL),
    ],
)
def test_growth_is_tested_before_convergence(tail, tol):
    panel = pairing.default_panel(DOM)
    verdict = classify(smooth_sequence(tail), panel, tol=tol)
    assert verdict.classification is wl.Classification.DIVERGENT
    for _, member in verdict.per_test_function:
        assert isinstance(member, wl.Diverges)
        assert member.growth_exponent > 0.9


def _table(values):
    return [(2**k, value, 0.0) for k, value in enumerate(values)]


def test_slow_creep_still_settles():
    # monotone growth too slow to be a power law falls through to convergence
    creeping = _table([1.0 - 2.0 ** -(k + 10) for k in range(13)])
    verdict = wl._verdict_from_table(creeping, wl.DEFAULT_TOL)
    assert isinstance(verdict, wl.ConvergesTo)
    assert verdict.value == pytest.approx(1.0, abs=1e-6)
    unsettled = wl._verdict_from_table(creeping, 1e-12)
    assert isinstance(unsettled, wl.Inconclusive)
    assert unsettled.reason == "monotone growth without a stable power law"


def test_schedule_validation():
    with pytest.raises(ValueError):
        wl.validate_schedule((1, 2, 4, 8, 16))
    with pytest.raises(ValueError):
        wl.validate_schedule((1, 2, 4, 4, 8, 16))
    with pytest.raises(ValueError):
        wl.validate_schedule((0, 1, 2, 4, 8, 16))
    # an empty schedule is a short one, never a stand-in for the default
    for empty in ((), []):
        with pytest.raises(ValueError, match="at least 6"):
            wl.validate_schedule(empty)


def test_pairing_table_shape():
    schedule = (1, 2, 4, 8, 16, 32)
    grids = pairing.plan_grids((PHI,), schedule)
    (table,) = pairing.pairing_tables(smooth_sequence("cos(nu*x)"), grids)
    assert [row[0] for row in table] == list(schedule)
    for _, value, estimate in table:
        assert np.isfinite(value)
        assert estimate >= 0.0


@pytest.mark.parametrize(
    "tail,expected",
    [
        ("cos(nu*x)", wl.Classification.WEAK_NULL),
        ("cos(nu*x)^2", wl.Classification.CONVERGENT),
        ("0", wl.Classification.WEAK_NULL),
        ("nu^2/(4*cosh(nu*x)^4)", wl.Classification.DIVERGENT),
        ("sin(nu)", wl.Classification.MIXED),
    ],
)
def test_classification_table(tail, expected):
    panel = pairing.default_panel(DOM)
    verdict = classify(smooth_sequence(tail), panel)
    assert verdict.classification is expected


def test_weak_null_implies_convergent_everywhere():
    panel = pairing.default_panel(DOM)
    verdict = classify(smooth_sequence("cos(nu*x)"), panel)
    assert verdict.classification is wl.Classification.WEAK_NULL
    for _, member in verdict.per_test_function:
        assert isinstance(member, wl.ConvergesTo)
        assert abs(member.value) <= max(member.uncertainty, wl.DEFAULT_TOL)


def test_limit_scales_with_the_sequence():
    squared = apply_smooth(ex.parse("u^2", ("u",)), smooth_sequence("cos(nu*x)"), DOM)
    tripled = seq_mul(smooth_sequence("3"), squared)
    ((_, verdict),) = classify(tripled, (PHI,)).per_test_function
    assert isinstance(verdict, wl.ConvergesTo)
    assert verdict.value == pytest.approx(1.5, abs=3e-3)


def test_refining_the_schedule_preserves_verdicts():
    extended = wl.DEFAULT_SCHEDULE + (8192,)
    for tail in ("cos(nu*x)", "cos(nu*x)^2", "x^2"):
        s = smooth_sequence(tail)
        ((_, base),) = classify(s, (PHI,)).per_test_function
        ((_, refined),) = classify(s, (PHI,), extended).per_test_function
        assert isinstance(base, wl.ConvergesTo)
        assert isinstance(refined, wl.ConvergesTo)
        assert refined.value == pytest.approx(base.value, abs=1e-3)


def test_classify_stage_payload():
    panel = pairing.Panel((pairing.bump(-0.5, 0.5), pairing.bump(0.5, 0.5)), DOM)
    schedule = (1, 2, 4, 8, 16, 32)
    stage, verdict = wl.classify_stage(
        "demo-stage", smooth_sequence("cos(nu*x)"), pairing.plan_grids(panel, schedule), 1e-4
    )
    assert stage["name"] == "demo-stage"
    assert stage["sequence"] == {"tail": "cos(nu*x)"}
    assert stage["classification"] == verdict.classification.value
    assert stage["timing_s"] >= 0.0
    assert len(stage["pairings"]) == len(panel) * len(schedule)
    for row in stage["pairings"]:
        assert set(row) == {"nu", "center", "width", "value", "error_estimate"}


def test_nosquare_demo_default():
    report = nosquare()
    assert set(report) == {"parameters", "stages", "conclusion"}
    assert all_passed(report["stages"])
    names = [stage["name"] for stage in report["stages"]]
    assert names == ["classify-base", "classify-square", "square-limits-vs-half-mass"]
    assert report["stages"][0]["classification"] == "weak-null"
    assert report["stages"][1]["classification"] == "convergent"
    for entry in report["stages"][2]["entries"]:
        assert entry["deviation"] <= 1e-3
    assert "no multiplication" in report["conclusion"]


def test_nosquare_demo_with_sine_base():
    report = nosquare("sin(nu*x)")
    assert all_passed(report["stages"])
    assert report["stages"][0]["classification"] == "weak-null"
    assert report["stages"][1]["classification"] == "convergent"


def test_nosquare_demo_zero_base_draws_no_conclusion():
    report = nosquare("0")
    assert not all_passed(report["stages"])
    assert report["stages"][1]["classification"] == "weak-null"
    assert "no impossibility" in report["conclusion"]
