"""Quotient algebra gates, embeddings, equality, and the two demos."""

import math
import random
import time

import numpy as np
import pytest

import branchlab.expr as ex
from branchlab._report import Unknown, all_passed
from branchlab import algebra as alg
from branchlab import cli
from branchlab import ideals as idl
from branchlab.pairing import Panel, bump, default_panel, pairing_tables, plan_grids
from branchlab.sequences import admission, seq_derive, smooth_sequence
from branchlab.weaklimit import DEFAULT_SCHEDULE, DEFAULT_TOL, classify_membership

from conftest import CERTIFICATE

DOM = ex.DomainInterval(-1.0, 1.0)
DOM2PI = ex.DomainInterval(0.0, 2.0 * math.pi)
# the steep step whose derivative the delta representative is
STEP = "(1 + tanh(nu*x))/2"

# midpoint value of the bump profile integral, shared with the pairing tests
SHAPE_INTEGRAL = 0.4439938161680794


@pytest.fixture(scope="module")
def house():
    """The eventually-zero ideal, which the default algebra divides by."""
    return idl.EventuallyZero()


@pytest.fixture(scope="module")
def trig_ideal():
    return idl.generated_by(smooth_sequence("1 + sin(nu*x)"))


def test_derivation_follows_the_closure(house, trig_ideal):
    # the trig ideal passes the gate by certificate but its closure under
    # derivatives stays open, so derivation must not be offered
    assert isinstance(idl.off_diagonality(trig_ideal, DOM2PI, **CERTIFICATE), idl.OffDiagonal)
    assert not isinstance(idl.derivation_closure(trig_ideal, DOM2PI), idl.Closed)
    assert isinstance(idl.derivation_closure(house, DOM), idl.Closed)


def test_gf_gate_refuses_unit_ideal():
    code, report = cli.run([
        "gf", "mul", "--lhs=x", "--rhs=x", "--algebra=generated",
        "--generators=1 + sin(nu*x),1 + cos(nu*x)", "--domain=0,6.283185307179586",
    ])
    assert code == 1
    assert report["error"]["type"] == "AlgebraError"
    assert "off-diagonality gate" in report["error"]["message"]


@pytest.mark.parametrize("action, calls", [("mul", 0), ("equal", 0), ("derive", 1)])
def test_only_gf_derive_checks_the_derivation_closure(monkeypatch, action, calls):
    counted, closure = [], idl.derivation_closure

    def counting(ideal, domain):
        counted.append(ideal)
        return closure(ideal, domain)

    # cli reads the name from ideals when its handler runs
    for module in (alg, idl):
        monkeypatch.setattr(module, "derivation_closure", counting)
    operands = ["--lhs=x"] if action == "derive" else ["--lhs=x", "--rhs=x"]
    cli.run([
        "gf", action, *operands, "--algebra=generated",
        "--generators=1+sin(nu*x)", "--domain=0,6.283185307179586",
    ])
    assert len(counted) == calls


def test_gf_wraps_and_checks_safety():
    s = smooth_sequence("x^2")
    f = alg.gf(s, DOM)
    assert f is s
    assert f.signature() == "x^2|1"
    assert f.to_dict() == {"tail": "x^2"}
    with pytest.raises(alg.AlgebraError, match="denominator-safe"):
        alg.gf(smooth_sequence("1/x"), DOM)


def test_gf_derive_gates(house, trig_ideal):
    f = alg.gf(smooth_sequence("x^2"), DOM)
    assert alg.gf_derive(f, 0, house, DOM) is f
    assert alg.gf_derive(f, 1, house, DOM).signature() == "2*x|1"
    with pytest.raises(ValueError, match="nonnegative"):
        alg.gf_derive(f, -1, house, DOM)
    with pytest.raises(ValueError, match="nonnegative"):
        alg.gf_derive(f, 1.5, house, DOM)
    with pytest.raises(alg.AlgebraError, match="derivation-capable"):
        alg.gf_derive(alg.gf(smooth_sequence("x"), DOM2PI), 1, trig_ideal, DOM2PI)


def test_embedding_derivation_coherence(house):
    # the delta regularization is the exact symbolic derivative of the step,
    # and its quotient derivative is the step's second derivative
    delta = alg.gf(smooth_sequence(alg.DELTA_REPRESENTATIVE), DOM)
    step = smooth_sequence(STEP)
    assert seq_derive(step).signature() == delta.signature()
    first = seq_derive(seq_derive(step))
    assert alg.gf_derive(delta, 1, house, DOM).signature() == first.signature()


def test_delta_concentrates_at_probe_height():
    delta = smooth_sequence(alg.DELTA_REPRESENTATIVE)
    phi = bump(0.0, 0.8, normalized=True, domain=DOM)
    (((_, value, _),),) = pairing_tables(delta, plan_grids((phi,), (1024,)))
    assert value == pytest.approx(phi.value(0.0), abs=1e-3)


def test_heaviside_weak_limit_right_mass():
    step = smooth_sequence(STEP)
    for center, width in ((0.0, 0.8), (0.3, 0.5)):
        phi = bump(center, width, normalized=True, domain=DOM)
        ((_, verdict),) = classify_membership(
            step, plan_grids((phi,), DEFAULT_SCHEDULE), DEFAULT_TOL
        ).per_test_function
        payload = verdict.to_dict()
        assert payload["kind"] == "converges-to"
        lo, hi = 0.0, center + width
        panels = 2**15
        mids = np.linspace(lo, hi, panels, endpoint=False) + (hi - lo) / (2 * panels)
        oracle = float(np.sum(phi.values(mids)) * (hi - lo) / panels)
        assert payload["value"] == pytest.approx(oracle, abs=1e-3)


def test_delta_square_representative():
    delta = smooth_sequence(alg.DELTA_REPRESENTATIVE)
    squared = delta * delta
    expected = smooth_sequence(ex.simplify(ex.parse("nu^2/(4*cosh(nu*x)^4)")))
    assert squared.signature() == expected.signature()
    assert squared.signature() == "0.25*nu^2/cosh(nu*x)^4|1"


def test_smooth_mult_consistency_corpus(expression_corpus):
    # the product of two embedded smooth functions is the embedding of their
    # product: gf mul prints its normal form, gf equal finds the two equal, and
    # the printed product agrees on a grid with the product of the two factors
    pairs = [
        (expression_corpus[k], expression_corpus[k + 1]) for k in range(0, 94, 2)
    ]
    pairs += [
        (ex.x, ex.x),
        (ex.parse("sin(x)"), ex.parse("cos(x)")),
        (ex.parse("1"), expression_corpus[7]),
    ]
    xs = DOM.interior_grid(256)
    for psi, chi in pairs:
        lhs, rhs = ex.to_string(psi), ex.to_string(chi)
        product = ex.to_string(ex.simplify(psi * chi))
        code, report = cli.run(["gf", "mul", f"--lhs={lhs}", f"--rhs={rhs}"])
        assert code == 0
        assert report["stages"][0]["result"]["tail"] == product
        code, report = cli.run(["gf", "equal", f"--lhs=({lhs})*({rhs})", f"--rhs={product}"])
        assert code == 0
        assert report["stages"][0]["outcome"]["verdict"] == "equal"
        pointwise = ex.evaluate_on_grid(psi, 1, xs) * ex.evaluate_on_grid(chi, 1, xs)
        printed = ex.evaluate_on_grid(ex.parse(product), 1, xs)
        finite = np.isfinite(pointwise) & np.isfinite(printed)
        assert finite.any()
        assert np.max(np.abs(pointwise[finite] - printed[finite])) < 1e-12


def test_quotient_well_definedness(house, expression_corpus):
    # a representative and its finitely perturbed twin must stay equal under
    # sum, product, and derivation; this is what makes the quotient a ring
    safe = [
        e
        for e in expression_corpus
        if admission(smooth_sequence(e), DOM).status is ex.SafetyStatus.SAFE
    ]
    rng = random.Random(411)
    for _ in range(100):
        f_tail = safe[rng.randrange(len(safe))]
        g_tail = safe[rng.randrange(len(safe))]
        entry = safe[rng.randrange(len(safe))]
        index = rng.randint(1, 12)
        f = alg.gf(smooth_sequence(f_tail), DOM)
        perturbed = alg.gf(
            smooth_sequence(f_tail, {index: f_tail + entry}), DOM
        )
        g = alg.gf(smooth_sequence(g_tail), DOM)
        assert isinstance(alg.gf_equal(f, perturbed, house, DOM), alg.Equal)
        assert isinstance(alg.gf_equal(f * g, perturbed * g, house, DOM), alg.Equal)
        assert isinstance(
            alg.gf_equal(
                alg.gf_derive(f, 1, house, DOM), alg.gf_derive(perturbed, 1, house, DOM),
                house, DOM,
            ),
            alg.Equal,
        )


def test_gf_equal_decidable_cases(house):
    f = alg.gf(smooth_sequence("x^2"), DOM)
    perturbed = alg.gf(smooth_sequence("x^2", {4: "x^2 + sin(x)"}), DOM)
    verdict = alg.gf_equal(f, perturbed, house, DOM)
    assert isinstance(verdict, alg.Equal)
    assert verdict.to_dict()["verdict"] == "equal"

    ones = alg.gf(smooth_sequence("1"), DOM)
    zero = alg.gf(smooth_sequence("0"), DOM)
    assert isinstance(alg.gf_equal(ones, zero, house, DOM), alg.NotEqual)
    cos = alg.gf(smooth_sequence("cos(nu*x)"), DOM)
    assert isinstance(alg.gf_equal(cos, zero, house, DOM), alg.NotEqual)


def test_gf_equal_generated_ideal(trig_ideal):
    def gf(tail):
        return alg.gf(smooth_sequence(tail), DOM2PI)

    def equal(lhs):
        return alg.gf_equal(gf(lhs), gf("0"), trig_ideal, DOM2PI)

    assert isinstance(equal("(1 + sin(nu*x))*x"), alg.Equal)
    assert isinstance(equal("1"), alg.NotEqual)
    open_case = equal("nu*cos(nu*x)")
    assert isinstance(open_case, Unknown)
    assert "no factorization matched" in open_case.reason
    assert open_case.to_dict()["verdict"] == "unknown"


def _branching(reps=("cos(nu*x)", "0"), panel=None, schedule=DEFAULT_SCHEDULE):
    """The branching demo as the command runs it by default, with these changes."""
    reps = [smooth_sequence(tail) for tail in reps]
    panel = panel or default_panel(DOM)
    grids = plan_grids(panel.members, schedule)
    return alg.branching_demo(reps, "u^2", ex.parse("u^2", ("u",)), DOM, grids, DEFAULT_TOL)


def test_branching_demo_default():
    result = _branching()
    assert set(result) == {"parameters", "stages", "conclusion"}
    assert [s["name"] for s in result["stages"]] == [
        "classify-representatives",
        "apply-operation",
        "separation",
    ]
    assert all_passed(result["stages"])
    assert result["parameters"]["operation"] == "u^2"

    records = result["stages"][1]["records"]
    for row in records[0]["per_test_function"]:
        assert row["verdict"]["kind"] == "converges-to"
        assert row["verdict"]["value"] == pytest.approx(0.5, abs=1e-3)
    for row in records[1]["per_test_function"]:
        assert row["verdict"]["value"] == pytest.approx(0.0, abs=1e-6)

    separation = result["stages"][2]["records"][0]
    assert separation["separation"] == pytest.approx(0.5, abs=1e-3)
    assert separation["ratio"] >= alg.SEPARATION_FACTOR
    assert "no single quotient" in result["conclusion"]


def test_branching_demo_equal_squares_no_witness():
    result = _branching(("cos(nu*x)", "sin(nu*x)"))
    assert not all_passed(result["stages"])
    flags = {s["name"]: s["passed"] for s in result["stages"]}
    assert flags["classify-representatives"] is True
    assert flags["apply-operation"] is True
    assert flags["separation"] is False
    assert "no branching witnessed" in result["conclusion"]


def test_branching_demo_scaled_pair():
    result = _branching(("cos(nu*x)", "2*cos(nu*x)"))
    assert all_passed(result["stages"])
    records = result["stages"][1]["records"]
    for row in records[0]["per_test_function"]:
        assert row["verdict"]["value"] == pytest.approx(0.5, abs=1e-3)
    for row in records[1]["per_test_function"]:
        assert row["verdict"]["value"] == pytest.approx(2.0, abs=3e-3)


def test_branching_demo_needs_two_representatives():
    code, report = cli.run(["demo", "branching", "--reps=cos(nu*x)"])
    assert code == 1
    assert report["error"] == {
        "type": "ValueError",
        "message": "reps: expected at least two sequences, got 1",
    }


def test_branching_witness_stability():
    # the separation witness must survive a coarser panel and a longer tail
    coarse = _branching(panel=Panel(tuple(bump(-5 / 6 + k / 3, 1 / 6) for k in range(6)), DOM))
    assert all_passed(coarse["stages"])
    longer = _branching(schedule=tuple(2**k for k in range(14)))
    assert all_passed(longer["stages"])


def test_delta_square_demo_structure():
    started = time.perf_counter()
    schedule = cli.COMMAND_SETTINGS["demo delta-square"]["schedule"]
    grids, probe_grids = plan_grids(default_panel(DOM), schedule), plan_grids((alg.DELTA_PROBE,), schedule)
    result = alg.delta_square_demo(DOM, grids, DEFAULT_TOL, probe_grids)
    assert time.perf_counter() - started < 20.0

    assert set(result) == {"parameters", "stages", "conclusion"}
    assert [s["name"] for s in result["stages"]] == [
        "pairing-table",
        "growth-exponent",
        "panel-classification",
    ]
    assert all_passed(result["stages"])

    table = result["stages"][0]
    assert table["band"] == alg.DELTA_SQUARE_BAND
    for row in table["records"]:
        # closed form for the linear growth, written out independently
        closed = row["nu"] * math.exp(-1.0) / (3.0 * SHAPE_INTEGRAL)
        assert row["expected"] == pytest.approx(closed, rel=1e-12)
        assert abs(row["value"] - closed) <= alg.DELTA_SQUARE_BAND * closed

    exponent = result["stages"][1]["verdict"]["growth_exponent"]
    assert exponent == pytest.approx(1.0, abs=0.1)
    assert result["stages"][2]["classification"] == "divergent"
    assert "no weak limit" in result["conclusion"]
