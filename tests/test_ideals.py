"""Ideal membership evidence, unit witnesses, density certificates, closure."""

import math
import random
import time

import numpy as np
import pytest

import branchlab.expr as ex
from branchlab._report import all_passed
from branchlab import cli
from branchlab import ideals as idl
from branchlab.sequences import seq_derive, smooth_sequence

from conftest import generated_by, quotient, random_expression, value_at

DOM = ex.DomainInterval(0.0, 2.0 * math.pi)

# sampled infimum of (1 + sin(nu*x)) + (1 + cos(nu*x)) over the unit lattice;
# the analytic infimum is 2 - sqrt(2)
UNIT_BOUND = 0.5857864961087899

# where 1 + sin(x) hits zero on (0, 2*pi): the closed-form root 3*pi/2
WITNESS_X = 1.5 * math.pi


def zero_density(ideal, domain, cell_width=idl.DEFAULT_CELL_WIDTH, nu_max=idl.DEFAULT_INDEX_CAP):
    """The certificate at the command line's default resolution, unless given."""
    return idl.zero_density_certificate(ideal, domain, cell_width, nu_max)


def no_largest_ideal(*generators):
    """The demo at its command's defaults, on these generators if given."""
    generators = tuple(map(smooth_sequence, generators)) or idl.NO_LARGEST_IDEAL_GENERATORS
    return idl.no_largest_ideal_demo(
        idl.NO_LARGEST_IDEAL_DOMAIN, idl.DEFAULT_CELL_WIDTH, idl.DEFAULT_INDEX_CAP, *generators
    )


def ideal_pair():
    first = generated_by("1 + sin(nu*x)")
    second = generated_by("1 + cos(nu*x)")
    return first, second


def refactorization_residual(s, verdict, domain, trials=100):
    """Re-multiply the factorization at fresh points, independent of the
    package's own verification pass (different seed, different samples)."""
    rng = random.Random(555331)
    worst = 0.0
    for _ in range(trials):
        index = rng.randint(max(s.start_index, 1), 24)
        point = rng.uniform(domain.lower, domain.upper)
        total = sum(
            g.term_value(index, point) * t.term_value(index, point)
            for g, t in verdict.factorization
        )
        worst = max(worst, abs(s.term_value(index, point) - total))
    return worst


def assert_witness_holds(witness, s, generators):
    for g in generators:
        assert abs(g.term_value(witness.nu, witness.x)) < 1e-10
    assert abs(s.term_value(witness.nu, witness.x)) > 1e-6
    assert witness.sequence_value == s.term_value(witness.nu, witness.x)


# ---------------------------------------------------------------------------
# ideal construction


def test_generated_by_accepts_mixed_inputs():
    gens = smooth_sequence("x"), smooth_sequence("sin(x)"), smooth_sequence(ex.parse("nu*x"))
    ideal = idl.generated_by(*gens)
    assert ideal.generators == gens
    assert [g.signature() for g in ideal.generators] == ["x|1", "sin(x)|1", "nu*x|1"]


def test_finitely_generated_validation():
    with pytest.raises(ValueError, match="needs generators"):
        idl.FinitelyGenerated(())


def test_ideal_sum_deduplicates_and_drops_zero():
    left = generated_by("x", "0")
    right = generated_by("x", "sin(x)")
    merged = idl.ideal_sum(left, right)
    assert [g.signature() for g in merged.generators] == ["x|1", "sin(x)|1"]


def test_ideal_sum_rejects_total_collapse():
    with pytest.raises(ValueError, match="collapsed"):
        idl.ideal_sum(generated_by("0"), generated_by("x - x"))


# ---------------------------------------------------------------------------
# membership


def test_membership_with_cofactor():
    first, _ = ideal_pair()
    s = smooth_sequence("(1 + sin(nu*x))*x^2")
    verdict = idl.membership(s, first, DOM)
    assert isinstance(verdict, idl.InIdeal)
    ((generator, cofactor),) = verdict.factorization
    assert generator.signature() == "1 + sin(nu*x)|1"
    assert cofactor.signature() == "x^2|1"
    assert verdict.verification_residual == 0.0
    assert refactorization_residual(s, verdict, DOM) < 1e-10
    assert verdict.to_dict()["verdict"] == "in-ideal"


def test_membership_with_non_monic_generator():
    # generator and candidate share the scale factor; division must strip it
    ideal = generated_by("2 + 2*sin(nu*x)")
    s = smooth_sequence("(2 + 2*sin(nu*x))*x^2")
    verdict = idl.membership(s, ideal, DOM)
    assert isinstance(verdict, idl.InIdeal)
    assert refactorization_residual(s, verdict, DOM) < 1e-10


def test_membership_splits_over_two_generators():
    first, second = ideal_pair()
    combined = idl.ideal_sum(first, second)
    s = smooth_sequence("x*(1 + sin(nu*x)) + 3*(1 + cos(nu*x))")
    verdict = idl.membership(s, combined, DOM)
    assert isinstance(verdict, idl.InIdeal)
    cofactors = {g.signature(): t.signature() for g, t in verdict.factorization}
    assert cofactors == {"1 + sin(nu*x)|1": "x|1", "1 + cos(nu*x)|1": "3|1"}
    assert refactorization_residual(s, verdict, DOM) < 1e-10


def test_membership_witness_at_vanishing_point():
    first, _ = ideal_pair()
    one = smooth_sequence("1")
    verdict = idl.membership(one, first, DOM)
    assert isinstance(verdict, idl.NotInIdeal)
    witness = verdict.witness
    assert witness.nu == 1
    assert witness.x == pytest.approx(WITNESS_X, abs=1e-12)
    assert witness.x == pytest.approx(1.5 * math.pi, abs=1e-6)
    assert abs(1.0 + math.sin(witness.nu * witness.x)) < 1e-10
    assert witness.generator_values == (pytest.approx(0.0, abs=1e-10),)
    assert_witness_holds(witness, one, first.generators)


@pytest.mark.parametrize(
    "domain, reason",
    [
        (DOM, "no factorization matched and no vanishing-point witness found"),
    ],
)
def test_membership_unknown_reasons(domain, reason):
    # the generator's derivative vanishes wherever the generator does, so the
    # witness scan cannot separate them
    first, _ = ideal_pair()
    derivative = seq_derive(first.generators[0])
    verdict = idl.membership(derivative, first, domain)
    assert isinstance(verdict, idl.Unknown)
    assert verdict.reason == reason
    assert verdict.to_dict() == {"verdict": "unknown", "reason": reason}


def test_eventually_zero_membership_is_decided(expression_corpus):
    ideal = idl.EventuallyZero()
    for e in expression_corpus:
        cancelled = idl.membership(smooth_sequence(e - e), ideal, DOM)
        assert isinstance(cancelled, idl.InIdeal)
        assert cancelled.factorization == ()
        verdict = idl.membership(smooth_sequence(e), ideal, DOM)
        assert isinstance(verdict, (idl.InIdeal, idl.NotInIdeal))


def test_eventually_zero_membership_evidence():
    ideal = idl.EventuallyZero()
    bumped = smooth_sequence("0", {"3": "x^2"})
    verdict = idl.membership(bumped, ideal, DOM)
    assert isinstance(verdict, idl.InIdeal)
    assert verdict.factorization == ()

    outside = idl.membership(smooth_sequence("x - x + 1"), ideal, DOM)
    assert isinstance(outside, idl.NotInIdeal)
    assert outside.witness.sequence_value == pytest.approx(1.0, abs=1e-12)
    assert "does not normalize to zero" in outside.witness.note


# ---------------------------------------------------------------------------
# unit detection


def test_unit_detection_finds_bounded_combination():
    first, second = ideal_pair()
    combined = idl.ideal_sum(first, second)
    unit = idl.unit_detection(combined, DOM)
    assert unit is not None
    assert unit.combination == ((1, 0), (1, 1))
    assert unit.lower_bound == pytest.approx(UNIT_BOUND, abs=1e-12)
    assert unit.lower_bound == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-3)

    # the sampled bound can only sit above the analytic infimum 2 - sqrt(2)
    xs = np.linspace(DOM.lower, DOM.upper, 20001)
    dense_min = min(
        float(np.min(unit.sequence.term_values(index, xs)))
        for index in (1, 2, 3, 4, 6, 8, 12, 16)
    )
    assert 2.0 - math.sqrt(2.0) - 1e-12 <= dense_min <= unit.lower_bound + 1e-12


def test_unit_detection_constant_generator():
    unit = idl.unit_detection(generated_by("1"), DOM)
    assert unit is not None
    assert unit.combination == ((1, 0),)
    assert unit.lower_bound == 1.0
    assert unit.sequence.signature() == "1|1"


def test_unit_detection_none_for_oscillating_generator():
    first, _ = ideal_pair()
    assert idl.unit_detection(first, DOM) is None


# ---------------------------------------------------------------------------
# zero-density certificates


def test_zero_density_certificate_covers_domain():
    first, _ = ideal_pair()
    cert = zero_density(first, DOM)
    assert cert is not None
    assert len(cert.cells) == 126
    assert cert.cell_width == pytest.approx(DOM.length / 126, abs=1e-15)

    assert cert.cells[0].lower == DOM.lower
    assert cert.cells[-1].upper == pytest.approx(DOM.upper, abs=1e-12)
    for before, after in zip(cert.cells, cert.cells[1:]):
        assert after.lower == pytest.approx(before.upper, abs=1e-12)

    for cell in cert.cells:
        assert cell.lower <= cell.root <= cell.upper
        assert 1 <= cell.nu <= 200
        assert cell.residual < 1e-12
        # independent recheck of the stored root against the generator
        assert abs(1.0 + math.sin(cell.nu * cell.root)) < 1e-12
        # 1 + sin vanishes exactly at nu*x = 3*pi/2 (mod 2*pi)
        offset = math.remainder(cell.nu * cell.root - 1.5 * math.pi, 2.0 * math.pi)
        assert abs(offset) < 1e-6


def test_zero_density_roots_match_cosine_zeros():
    cert = zero_density(generated_by("cos(nu*x)"), DOM)
    assert cert is not None
    for cell in cert.cells:
        # simple zeros, so the residual bounds the phase offset directly
        assert cell.residual < 1e-12
        offset = math.remainder(cell.nu * cell.root - 0.5 * math.pi, math.pi)
        assert abs(offset) < 1e-10


@pytest.mark.parametrize("form", ["1+sin", "1-sin", "1+cos", "1-cos", "-2+2*sin", "3+3*cos"])
@pytest.mark.parametrize("k, b", [(1, 0.0), (2, 0.7), (3, 2.9)])
def test_closed_form_roots_lie_in_their_cells(form, k, b):
    generator = generated_by(f"{form}({k}*nu*x+{b})")
    tail = generator.generators[0].tail
    domain = ex.DomainInterval(-0.8, 2.2)
    cert = zero_density(generator, domain, cell_width=0.1, nu_max=100)
    assert cert is not None
    for cell in cert.cells:
        assert cell.lower <= cell.root <= cell.upper
        assert abs(value_at(tail, cell.nu, cell.root)) <= 1e-12
    # at each index every closed-form root lies on the grid's span and is a
    # root there; u = k*nu*x + b runs over k*nu*3/(2*pi) periods
    finder = idl._RootFinder(generator.generators[0])
    xs = np.linspace(domain.lower, domain.upper, 4000)
    for nu in (1, 7, 40):
        with np.errstate(all="ignore"):
            _, lo, hi = finder.brackets(nu, xs)
        assert len(lo) >= int(k * nu * domain.length / (2.0 * math.pi))
        assert (lo == hi).all() and (xs[0] <= lo).all() and (hi <= xs[-1]).all()
        for root in lo.tolist():
            assert abs(value_at(tail, nu, root)) <= 1e-12


def test_near_touching_generators_have_no_closed_form_root():
    # 1.000000001 + sin never vanishes; its two constants differ
    generator = generated_by("1.000000001 + sin(nu*x)")
    assert zero_density(generator, ex.DomainInterval(-1.0, 1.0)) is None


def test_a_sign_change_across_a_pole_is_no_root():
    # 1 - 1/(x + 0.3) changes sign at its pole -0.3 and vanishes at 0.7
    ideal = generated_by("1 - 1/(x + 0.3)")
    finder = idl._RootFinder(ideal.generators[0])
    with np.errstate(all="ignore"):
        ids, lo, hi = finder.brackets(1, np.linspace(-1.0, 1.0, 41))
        points, residuals = finder.roots(ids, np.ones(len(ids), int), lo, hi)
    assert points.tolist() == [pytest.approx(-0.3), pytest.approx(0.7)]
    assert not residuals[0] < idl.ROOT_RESIDUAL_TOL
    assert residuals[1] < 1e-15
    # the cell [-1, 0] holds only the pole, so there is no certificate
    assert zero_density(ideal, ex.DomainInterval(-1.0, 1.0), cell_width=1.0) is None
    verdict = idl.membership(smooth_sequence("1"), ideal, ex.DomainInterval(-1.0, 1.0))
    assert verdict.witness.x == pytest.approx(0.7, abs=1e-12)


def test_one_bisection_pass_serves_several_factors_and_entries():
    # index 1 is the exceptional entry x - 0.3, later indices x*sin(nu*x):
    # the cells' lanes bisect three factors of two entries in one pass
    generator = smooth_sequence("x*sin(nu*x)", {1: "x - 0.3"})
    cert = zero_density(
        idl.generated_by(generator), ex.DomainInterval(-1.0, 1.0), cell_width=0.25
    )
    assert {cell.nu for cell in cert.cells} >= {1, 2}
    for cell in cert.cells:
        assert cell.lower <= cell.root <= cell.upper
        assert abs(generator.term_value(cell.nu, cell.root)) < 1e-12
    assert [cell.root for cell in cert.cells if cell.nu == 1] == [pytest.approx(0.3, abs=1e-15)]


def test_the_generator_x_vanishes_at_zero():
    verdict = idl.membership(smooth_sequence("1"), generated_by("x"), ex.DomainInterval(-1.0, 1.0))
    assert (verdict.witness.nu, verdict.witness.x) == (1, 0.0)


def _defined_at(sequence, index, point):
    return ex._defined_values(sequence._entry(index), index, np.array([point]))[0]


def _pointwise_verification(s, factorization, domain):
    """The verification residual sample by sample, each entry as a one-point grid."""
    rng = random.Random(idl._VERIFICATION_SEED)
    indices = [i for i, _ in s.exceptional]
    for g, _ in factorization:
        indices.extend(i for i, _ in g.exceptional)
    worst = 0.0
    for k in range(idl.VERIFICATION_SAMPLES):
        if indices and k % 10 == 9:
            index = indices[(k // 10) % len(indices)]
        else:
            index = rng.randint(max(s.start_index, 1), idl.SCAN_NU_LIMIT)
        point = rng.uniform(domain.lower, domain.upper)
        total = 0.0
        for g, t in factorization:
            total += _defined_at(g, index, point) * _defined_at(t, index, point)
        residual = abs(_defined_at(s, index, point) - total)
        if math.isnan(residual):
            return math.inf
        worst = max(worst, residual)
    return worst


def _pointwise_witness(s, generators, domain):
    """The witness scan checking one screened root at a time."""
    xs = domain.interior_grid(idl.SCAN_GRID)
    finder = idl._RootFinder(generators[0])
    for index in sorted({*range(1, idl.SCAN_NU_LIMIT + 1), *(i for i, _ in s.exceptional)}):
        with np.errstate(all="ignore"):
            ids, lo, hi = (part[:64] for part in finder.brackets(index, xs))
            if not len(ids):
                continue
            points, residuals = finder.roots(ids, np.full(len(ids), index), lo, hi)
        for point, residual in zip(points.tolist(), residuals.tolist()):
            value = _defined_at(s, index, point)
            values = [_defined_at(g, index, point) for g in generators]
            if residual < idl.VANISH_TOL and abs(value) > idl.NONVANISH_TOL:
                if all(abs(v) < idl.VANISH_TOL for v in values):
                    return index, point, value, tuple(values)
    return None


def test_array_checks_equal_the_pointwise_loops(rng):
    domain = ex.DomainInterval(-1.0, 1.0)
    generators = ("sin(nu*x)", "x", "1+sin(nu*x)", "x^2-0.25", "sin(3*nu*x+0.5)", "tanh(nu*x)")
    verified, found = set(), set()
    for _ in range(60):
        e = random_expression(rng, depth=2, allow_nu=True)
        if rng.random() < 0.5:
            e = quotient(e, ex.x - ex.Num(round(rng.uniform(-0.9, 0.9), 1)))
        if rng.random() < 0.2:
            # undefined at every point of index 3
            e = quotient(e, ex.nu - ex.Num(3.0))
        ideal = generated_by(rng.choice(generators))
        g = ideal.generators[0]
        exceptional = {3: "x/(x-0.5)"} if rng.random() < 0.3 else {}
        s = smooth_sequence(g.tail * e, exceptional)
        factorization = idl._match_factorization(s, ideal)
        if factorization is not None:
            residual = idl._verify_factorization(s, factorization, domain)
            assert residual == _pointwise_verification(s, factorization, domain)
            verified.add(residual < idl.FACTORIZATION_TOL)
        t = smooth_sequence(e, exceptional)
        witness = idl._scan_for_witness(t, ideal.generators, domain)
        expected = _pointwise_witness(t, ideal.generators, domain)
        if witness is None:
            assert expected is None
        else:
            assert (witness.nu, witness.x, witness.sequence_value, witness.generator_values) == expected
        found.add(witness is not None)
    assert verified == found == {False, True}


@pytest.mark.parametrize(
    "tail, value", [("tanh(1/x)", -0.8546732406992827), ("1/x", -1.273239544735163)]
)
def test_a_witness_is_never_a_point_where_a_denominator_vanishes(tail, value):
    # at index 1 bisection lands exactly on the root x = 0 of sin(nu*x); there
    # tanh(1/0) is tanh(inf) = 1, finite, yet the entry is undefined because its
    # denominator x is zero, so the witness is the next root, at index 4
    verdict = idl.membership(
        smooth_sequence(tail), generated_by("sin(nu*x)"), ex.DomainInterval(-1.0, 1.0)
    )
    witness = verdict.witness
    assert (witness.nu, witness.x) == (4, -0.7853981633974481)
    assert witness.sequence_value == pytest.approx(value, rel=1e-15)
    assert witness.generator_values == (pytest.approx(-1.0106430996148606e-15, rel=1e-12),)


def test_zero_density_gives_up_when_indices_run_out():
    # nu = 1 alone roots only the cell around 3*pi/2
    first, _ = ideal_pair()
    assert zero_density(first, DOM, nu_max=1) is None


# ---------------------------------------------------------------------------
# off-diagonality


def test_off_diagonality_certificate_branch():
    first, _ = ideal_pair()
    verdict = idl.off_diagonality(first, DOM)
    assert isinstance(verdict, idl.OffDiagonal)
    assert isinstance(verdict.certificate, idl.ZeroDensityCertificate)
    assert verdict.to_dict()["verdict"] == "off-diagonal"


def test_off_diagonality_unit_branch():
    first, second = ideal_pair()
    combined = idl.ideal_sum(first, second)
    verdict = idl.off_diagonality(combined, DOM)
    assert isinstance(verdict, idl.ContainsUnit)
    assert verdict.lower_bound == pytest.approx(UNIT_BOUND, abs=1e-12)


def test_off_diagonality_structural_branch():
    verdict = idl.off_diagonality(idl.EventuallyZero(), DOM)
    assert isinstance(verdict, idl.OffDiagonal)
    payload = verdict.to_dict()["certificate"]
    assert payload["kind"] == "structural"
    assert "zero" in payload["statement"]


def test_off_diagonality_inconclusive_reasons():
    multi = generated_by("sin(nu*x)", "x")
    verdict = idl.off_diagonality(multi, DOM)
    assert isinstance(verdict, idl.OffDiagInconclusive)
    assert "single generators" in verdict.reason

    first, _ = ideal_pair()
    starved = idl.off_diagonality(first, DOM, nu_max=1)
    assert isinstance(starved, idl.OffDiagInconclusive)
    assert "uncovered cells" in starved.reason


# ---------------------------------------------------------------------------
# derivation closure


def test_derivation_closure_structural_and_factored():
    assert isinstance(idl.derivation_closure(idl.EventuallyZero(), DOM), idl.Closed)
    verdict = idl.derivation_closure(generated_by("exp(x)"), DOM)
    assert isinstance(verdict, idl.Closed)
    assert "factored over the generators" in verdict.note
    assert isinstance(idl.derivation_closure(generated_by("1"), DOM), idl.Closed)


def test_derivation_closure_detects_escape():
    ideal = generated_by("x")
    verdict = idl.derivation_closure(ideal, ex.DomainInterval(-1.0, 1.0))
    assert isinstance(verdict, idl.NotClosed)
    assert verdict.generator_position == 0
    assert verdict.order == 1
    assert verdict.witness.x == pytest.approx(0.0, abs=1e-10)
    assert_witness_holds(verdict.witness, smooth_sequence("1"), ideal.generators)


def test_derivation_closure_unknown_generator():
    first, _ = ideal_pair()
    verdict = idl.derivation_closure(first, DOM)
    assert isinstance(verdict, idl.Unknown)
    assert "generator 0 derivative order 1" in verdict.reason


# ---------------------------------------------------------------------------
# demo


def test_no_largest_ideal_demo_structure():
    started = time.perf_counter()
    result = no_largest_ideal()
    assert time.perf_counter() - started < 30.0

    assert set(result) == {"parameters", "stages", "conclusion"}
    assert [s["name"] for s in result["stages"]] == [
        "off-diagonality-first",
        "off-diagonality-second",
        "ideal-sum",
        "unit-witness",
    ]
    assert all(s["passed"] for s in result["stages"])
    assert all_passed(result["stages"])
    assert result["parameters"]["first_generator"] == "1 + sin(nu*x)"
    assert result["parameters"]["second_generator"] == "1 + cos(nu*x)"
    unit_stage = result["stages"][3]
    assert unit_stage["outcome"]["lower_bound"] == pytest.approx(UNIT_BOUND, abs=1e-12)
    assert "no largest admissible ideal" in result["conclusion"]


def test_no_largest_ideal_demo_phase_shift():
    result = no_largest_ideal("1 + sin(nu*x + 1)", "1 + cos(nu*x + 1)")
    assert all_passed(result["stages"])
    bound = result["stages"][3]["outcome"]["lower_bound"]
    assert bound == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-3)


def test_no_largest_ideal_demo_degenerate_pair():
    result = no_largest_ideal("1 + sin(nu*x)", "1 + sin(nu*x)")
    assert not all_passed(result["stages"])
    flags = {s["name"]: s["passed"] for s in result["stages"]}
    assert flags["ideal-sum"] is False
    assert flags["unit-witness"] is False
    assert "not applicable" in result["conclusion"]


def _refused_before_sampling(monkeypatch, name, value):
    """`ideal check` with the setting at value ends in one error naming it, before
    the generators are sampled: cli checks `cell` and `margin` where it reads them."""

    def no_sampling(*args, **kwargs):
        raise AssertionError(f"a generator was sampled before {name} was checked")

    monkeypatch.setattr(cli, "denominator_safety", no_sampling)
    monkeypatch.setattr(cli, "off_diagonality", no_sampling)
    argv = ["ideal", "check", "--generators=1+sin(nu*x)", "--domain=-1,1", f"--{name}={value}"]
    code, report = cli.run(argv)
    assert code == 1
    assert report["error"] == {
        "type": "ValueError",
        "message": f"{name} must be finite and positive, got {value!r}",
    }


@pytest.mark.parametrize("margin", [-1.0, 0.0, math.nan, math.inf])
def test_unit_detection_refuses_margin_outside_the_positive_reals(monkeypatch, margin):
    _refused_before_sampling(monkeypatch, "margin", margin)


@pytest.mark.parametrize("cell_width", [-0.05, 0.0, math.nan, math.inf])
def test_cell_width_outside_the_positive_reals_is_refused(monkeypatch, cell_width):
    _refused_before_sampling(monkeypatch, "cell", cell_width)
