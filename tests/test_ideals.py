"""Ideal membership evidence, unit witnesses, density certificates, closure."""

import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchlab.expr as ex
from branchlab._report import all_passed
from branchlab import cli
from branchlab import ideals as idl
from branchlab.sequences import seq_derive, smooth_sequence

from conftest import (
    CERTIFICATE, NO_DENSE_ZEROS, generated_by, quotient, random_expression, value_at,
)

DOM = ex.DomainInterval(0.0, 2.0 * math.pi)

# sampled infimum of (1 + sin(nu*x)) + (1 + cos(nu*x)) over the unit lattice;
# the analytic infimum is 2 - sqrt(2)
UNIT_BOUND = 0.5857864961087899

# where 1 + sin(x) hits zero on (0, 2*pi): the closed-form root 3*pi/2
WITNESS_X = 1.5 * math.pi


def zero_density(ideal, domain, cell_width=CERTIFICATE["cell_width"],
                 nu_max=CERTIFICATE["nu_max"]):
    """The certificate at the command line's default resolution, unless given."""
    return idl.zero_density_certificate(ideal, domain, cell_width, nu_max)


def off_diagonality(ideal, domain, **settings):
    """The verdict at `ideal check`'s default settings, unless given."""
    return idl.off_diagonality(ideal, domain, **(CERTIFICATE | settings))


def unit_detection(ideal, domain):
    """The unit search at `ideal check`'s default margin."""
    return idl.unit_detection(ideal, domain, CERTIFICATE["margin"])


def no_largest_ideal(*generators):
    """The demo at its command's defaults, on these generators if given."""
    generators = generators or ("1 + sin(nu*x)", "1 + cos(nu*x)")
    defaults = cli.COMMAND_SETTINGS["demo no-largest-ideal"]
    return idl.no_largest_ideal_demo(
        defaults["domain"], defaults["cell"], defaults["nu-max"], CERTIFICATE["margin"],
        *map(smooth_sequence, generators),
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
    # an ideal is generated by at least one sequence; cli refuses an empty list with its flag
    for argv in (
        ["ideal", "check", "--generators=,", "--domain=-1,1"],
        ["ideal", "check", "--generators=[]", "--domain=-1,1"],
        ["gf", "mul", "--lhs=x", "--rhs=x", "--algebra=generated", "--generators=[]"],
    ):
        code, report = cli.run(argv)
        assert code == 1
        assert report["error"] == {
            "type": "ValueError",
            "message": "generators: expected at least one sequence, got none",
        }


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
    unit = unit_detection(combined, DOM)
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
    unit = unit_detection(generated_by("1"), DOM)
    assert unit is not None
    assert unit.combination == ((1, 0),)
    assert unit.lower_bound == 1.0
    assert unit.sequence.signature() == "1|1"


def test_unit_detection_none_for_oscillating_generator():
    first, _ = ideal_pair()
    assert unit_detection(first, DOM) is None


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
    xs = np.linspace(domain.lower, domain.upper, 4000)
    finder = idl._RootFinder(generator.generators[0], (1.0, 40.0, xs[0], xs[-1]))
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
    finder = idl._RootFinder(ideal.generators[0], (1.0, 1.0, -1.0, 1.0))
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
    # index 1 is the exceptional entry x - 0.3, later indices x*sin(nu*x): the
    # witness scan's finder bisects three factors of two entries in one pass
    generator = smooth_sequence("x*sin(nu*x)", {1: "x - 0.3"})
    finder = idl._RootFinder(generator, (1.0, 2.0, -1.0, 1.0))
    xs = np.linspace(-1.0, 1.0, 41)
    with np.errstate(all="ignore"):
        brackets = [finder.brackets(index, xs) for index in (1, 2)]
        ids, lo, hi = (np.concatenate(parts) for parts in zip(*brackets))
        nus = np.repeat([1, 2], [len(part) for part, _, _ in brackets])
        points, residuals = finder.roots(ids, nus, lo, hi)
    assert set(ids.tolist()) == {0, 1, 2}
    for nu, point, residual in zip(nus.tolist(), points.tolist(), residuals.tolist()):
        assert abs(generator.term_value(nu, point)) < 1e-12 and residual < 1e-12
    assert points[nus == 1].tolist() == [pytest.approx(0.3, abs=1e-15)]


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
    """The witness scan checking one screened root at a time, sampling every root
    factor: over an unbounded box no factor's enclosure is proved."""
    xs = domain.interior_grid(idl.SCAN_GRID)
    finder = idl._RootFinder(generators[0], (-math.inf, math.inf, -math.inf, math.inf))
    for index in sorted({*range(1, idl.SCAN_NU_LIMIT + 1), *(i for i, _ in s.exceptional)}):
        if index < s.start_index or any(index < g.start_index for g in generators):
            continue
        factors = dict.fromkeys(idl._root_factors(generators[0]._entry(index)))
        assert len(finder._plan(index)) == len(factors)
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
    generators = (
        "sin(nu*x)", "x", "1+sin(nu*x)", "x^2-0.25", "sin(3*nu*x+0.5)", "tanh(nu*x)",
        # rootless: the scan's enclosure proves each one nonzero and samples none
        "2+sin(nu*x)", "-1.72+cos(nu*x+2.84)", "x+2", "cosh(x)",
    )
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


def _scan_box(domain):
    xs = domain.interior_grid(idl.SCAN_GRID)
    return xs, (1.0, float(idl.SCAN_NU_LIMIT), float(xs[0]), float(xs[-1]))


def test_a_factor_the_scan_drops_has_no_bracket_on_its_grid(rng):
    # sampled with its compiled closure at every scan index, a dropped factor
    # has no exact zero and no sign change on the grid
    dropped = 0
    for _ in range(400):
        e = random_expression(rng, depth=3, allow_nu=True)
        lower = round(rng.uniform(-3.0, 2.0), 2)
        xs, box = _scan_box(ex.DomainInterval(lower, lower + round(rng.uniform(0.2, 3.0), 2)))
        s = smooth_sequence(e)
        finder = idl._RootFinder(s, box)
        kept = {finder.pairs[fid][0] for fid, _ in finder._plan(1)}
        for factor in dict.fromkeys(idl._root_factors(s._entry(1))):
            if factor in kept:
                continue
            dropped += 1
            for index in range(1, idl.SCAN_NU_LIMIT + 1):
                values = ex.evaluate_on_grid(factor, index, xs)
                assert np.all(values != 0.0) and np.all(values[:-1] * values[1:] > 0.0), (
                    ex.to_string(factor), index,
                )
    assert dropped > 100


def test_a_factor_that_vanishes_on_the_grid_is_never_dropped():
    # exp(b*nu) - c with c the compiled exp(b) is 0 at index 1 on the whole grid;
    # where numpy's exp and the enclosure's math.exp differ in the last bit,
    # only the widening of each bound keeps the factor
    xs, box = _scan_box(ex.DomainInterval(-1.0, 1.0))
    for b in np.linspace(0.01, 3.0, 300).tolist():
        growth = ex.Call("exp", ex.Num(b) * ex.nu)
        s = smooth_sequence(growth - ex.Num(float(ex.evaluate_on_grid(growth, 1, xs)[0])))
        assert not ex.evaluate_on_grid(s._entry(1), 1, xs).any()
        finder = idl._RootFinder(s, box)
        assert len(finder._plan(1)) == 1, b


def _roots_passes(monkeypatch):
    """The lane indices of every _RootFinder.roots call, one list per call."""
    passes = []
    original = idl._RootFinder.roots

    def recorded(self, ids, nus, lo, hi):
        passes.append(nus.tolist())
        return original(self, ids, nus, lo, hi)

    monkeypatch.setattr(idl._RootFinder, "roots", recorded)
    return passes


def test_a_scan_that_finds_nothing_bisects_its_32_indices_in_six_passes(monkeypatch):
    passes = _roots_passes(monkeypatch)
    verdict = idl.derivation_closure(generated_by("cos(nu*x+0.3)^2"), ex.DomainInterval(-1.0, 2.0))
    assert "no vanishing-point witness found" in verdict.reason
    chunks = ((1, 2), (2, 3), (3, 5), (5, 9), (9, 17), (17, 33))
    assert [sorted(set(nus)) for nus in passes] == [list(range(*chunk)) for chunk in chunks]


def _scan_grid_factors(monkeypatch):
    """Every factor evaluated on the witness scan's grid, one entry per call."""
    sampled = []
    original = ex.evaluate_on_grid

    def recorded(e, nu_value, xs):
        if len(xs) == idl.SCAN_GRID:
            sampled.append(ex.to_string(e))
        return original(e, nu_value, xs)

    monkeypatch.setattr(ex, "evaluate_on_grid", recorded)
    return sampled


@pytest.mark.parametrize(
    "generator, domain, sampled, bisected",
    [
        # below -0.72 everywhere: no grid, no pass
        ("-1.72+cos(nu*x+2.84)", (-0.25, 2.75), set(), False),
        # its enclosure touches 0; its roots are in closed form, not on the grid
        ("1+sin(nu*x)", (-1.0, 1.0), set(), True),
        # x is positive on the domain; only the sin factor is sampled
        ("x*sin(3*nu*x)", (0.39, 3.39), {"sin(3*nu*x)"}, True),
    ],
)
def test_the_scan_samples_no_factor_its_enclosure_proves_nonzero(
    generator, domain, sampled, bisected, monkeypatch
):
    passes, grids = _roots_passes(monkeypatch), _scan_grid_factors(monkeypatch)
    idl.derivation_closure(generated_by(generator), ex.DomainInterval(*domain))
    assert set(grids) == sampled
    assert bool(passes) == bisected


@pytest.mark.parametrize("generator", ["x", "sin(nu*x)"])
@pytest.mark.parametrize("hit", [2, 3, 5, 9, 17])
def test_a_hit_on_a_chunk_boundary_is_the_pointwise_hit(generator, hit, monkeypatch):
    # zero entries before the hit index leave nothing to witness there; the
    # hit opens the chunk of indices hit .. 2 * hit - 2
    s = smooth_sequence("2 + x", {index: "0" for index in range(1, hit)})
    ideal = generated_by(generator)
    domain = ex.DomainInterval(-1.0, 1.0)
    passes = _roots_passes(monkeypatch)
    witness = idl._scan_for_witness(s, ideal.generators, domain)
    assert witness.nu == hit == passes[-1][0]
    assert sum(len(set(nus)) for nus in passes) == 2 * hit - 2
    expected = _pointwise_witness(s, ideal.generators, domain)
    assert (witness.nu, witness.x, witness.sequence_value, witness.generator_values) == expected


@pytest.mark.parametrize(
    "s, nu",
    [
        # an exceptional index above the scan limit is scanned after it
        (smooth_sequence("0", {40: "2 + x"}), 40),
        (smooth_sequence("2 + x", start_index=3), 3),
    ],
)
def test_exceptions_above_the_limit_and_late_starts_scan_as_pointwise(s, nu):
    ideal, domain = generated_by("sin(nu*x)"), ex.DomainInterval(-1.0, 1.0)
    witness = idl._scan_for_witness(s, ideal.generators, domain)
    expected = _pointwise_witness(s, ideal.generators, domain)
    assert (witness.nu, witness.x, witness.sequence_value, witness.generator_values) == expected
    assert witness.nu == nu


def test_zero_density_builds_no_array_over_the_indices():
    # alpha = nu/10^6 spaces the zeros of sin(nu*x/10^6) at most the cell width
    # apart from index ceil(pi/0.05 * 10^6) on; an array over the indices up to
    # it, or up to nu-max, would hold hundreds of megabytes
    tracemalloc.start()
    try:
        cert = zero_density(generated_by("sin(0.000001*nu*x)"), ex.DomainInterval(-1.0, 1.0),
                            nu_max=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {cell.nu for cell in cert.cells} == {math.ceil(math.pi / 0.05 / 1e-6)}
    assert max(cell.residual for cell in cert.cells) < idl.ROOT_RESIDUAL_TOL
    assert peak < 1 << 20


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


@settings(max_examples=150, deadline=None)
@given(
    fn=st.sampled_from(["sin", "cos"]),
    ratio=st.floats(0.0, 1.0),
    amplitude=st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),
    sign=st.sampled_from([-1.0, 1.0]),
    k=st.integers(1, 5),
    phase=st.floats(-3.0, 3.0),
    lower=st.floats(-2.0, 1.0),
    length=st.floats(0.5, 3.0),
    cell_width=st.floats(0.01, 0.5),
    spare=st.integers(0, 40),
)
def test_closed_form_cells_hold_their_roots(fn, ratio, amplitude, sign, k, phase, lower, length,
                                             cell_width, spare):
    """c + c'*sin|cos(k*nu*x + b) with |c| <= |c'|, at an index cap with k*nu_max*width >= 2*pi."""
    c = sign * ratio * abs(amplitude)
    tail = ex.Num(c) + ex.Num(amplitude) * ex.Call(fn, ex.Num(k) * ex.nu * ex.x + ex.Num(phase))
    domain = ex.DomainInterval(lower, lower + length)
    width = domain.length / math.ceil(domain.length / cell_width)
    nu_max = math.ceil(2.0 * math.pi / (k * width)) + spare
    cert = zero_density(generated_by(tail), domain, cell_width=cell_width, nu_max=nu_max)
    assert cert is not None
    (nu,) = {cell.nu for cell in cert.cells}
    assert nu <= nu_max
    assert cert.cells[0].lower == domain.lower
    assert cert.cells[-1].upper == pytest.approx(domain.upper, abs=1e-12)
    f = math.sin if fn == "sin" else math.cos
    for before, after in zip(cert.cells, cert.cells[1:]):
        assert after.lower == before.upper
    for cell in cert.cells:
        assert cell.lower <= cell.root <= cell.upper
        assert abs(c + amplitude * f(k * nu * cell.root + phase)) <= idl.ROOT_RESIDUAL_TOL


@pytest.mark.parametrize(
    "tail",
    [
        "sin(nu*x)+nu/100",  # c is no number; no entry has a zero from index 101 on
        "sin(nu*x^2)",  # u is not linear in x
        "sin(3*x)",  # alpha = 3 does not grow with the index
        "sin(100*x)",  # nor does alpha = 100, though its zeros, pi/100 apart, fill the cells
        "x*(0.5+sin(x/nu))",  # alpha = 1/nu is no polynomial in nu, and its zeros spread out
    ],
)
def test_a_generator_without_the_dense_form_gets_no_certificate(tail):
    ideal, domain = generated_by(tail), ex.DomainInterval(-1.0, 1.0)
    assert zero_density(ideal, domain, nu_max=10**6) is None
    verdict = off_diagonality(ideal, domain, nu_max=10**6)
    assert verdict.to_dict() == {"verdict": "inconclusive", "reason": NO_DENSE_ZEROS}


def test_a_factor_with_the_larger_constant_gets_no_certificate():
    # 1.5 + sin(nu*x) has no zero: the ideal holds a unit, and no certificate
    ideal, domain = generated_by("1.5+sin(nu*x)"), ex.DomainInterval(-1.0, 1.0)
    assert zero_density(ideal, domain, nu_max=10**6) is None
    assert isinstance(off_diagonality(ideal, domain), idl.ContainsUnit)


@pytest.mark.parametrize("tail, nu", [("sin(nu*x)/(nu-63)", None), ("sin(nu*x)/(nu-64)", 63)])
def test_a_root_where_the_entry_is_undefined_certifies_nothing(tail, nu):
    # the zeros of sin(nu*x) fit cells of 0.05 on [-1, 1] from index 63 on
    cert = zero_density(generated_by(tail), ex.DomainInterval(-1.0, 1.0))
    assert (cert and {cell.nu for cell in cert.cells}) == (nu and {nu})


@pytest.mark.parametrize(
    "exceptions, start, nu",
    [({}, 1, 63), ({63: "1", 64: "x"}, 1, 65), ({70: "1"}, 66, 66), ({}, 200, 200)],
)
def test_the_certificate_index_is_served_by_the_tail(exceptions, start, nu):
    # on [-1, 1] the zeros of sin(nu*x), pi/nu apart, fit cells of 0.05 from index 63 on;
    # the index skips the exceptions and starts no earlier than the sequence
    ideal = idl.generated_by(smooth_sequence("sin(nu*x)", exceptions, start))
    cert = zero_density(ideal, ex.DomainInterval(-1.0, 1.0))
    assert {cell.nu for cell in cert.cells} == {nu}
    assert zero_density(ideal, ex.DomainInterval(-1.0, 1.0), nu_max=nu - 1) is None


@pytest.mark.parametrize(
    "tail, factor, ratio, alpha, nu",
    [
        # the widest gap between the zeros of 0.5 - cos(u) is pi + 2*asin(0.5) =
        # 4*pi/3, which 3*nu*0.05 passes from nu = 28 on
        ("x*(0.5-cos(3*nu*x+1))^2", "0.5 - cos(3*nu*x + 1)", 0.5, "3*nu", 28),
        # pi is read as its value: pi*nu*0.05 passes 2*pi from nu = 40 on
        ("1+sin(pi*nu*x)", "1 + sin(pi*nu*x)", 1.0, "nu*pi", 40),
        # |alpha(nu)| >= nu^2 - 30, which passes pi/0.05 from nu = 93 on
        ("sin(nu^2*x-30*x)", "sin(nu^2*x - 30*x)", 0.0, "-30 + nu^2", 93),
        # a sum that carries a positive power is expanded: the same bound as above
        ("sin((nu^2-30)*x)", "sin((nu^2 - 30)*x)", 0.0, "-30*(1 - 0.03333333333333333*nu^2)", 93),
        # |(1+nu)^2| >= nu^2 - 3 passes pi/0.05 from nu = 66 on
        ("sin((nu+1)^2*x)", "sin((nu + 1)^2*x)", 0.0, "(1 + nu)^2", 66),
        # nu^2 cancels, so alpha = 2*nu + 1 has degree 1 and passes pi/0.05 from nu = 32 on
        ("sin(((nu+1)^2-nu^2)*x)", "sin(((nu + 1)^2 - nu^2)*x)", 0.0, "(1 + nu)^2 - nu^2", 32),
    ],
)
def test_the_certificate_names_its_factor_ratio_and_alpha(tail, factor, ratio, alpha, nu):
    cert = zero_density(generated_by(tail), ex.DomainInterval(-1.0, 1.0))
    payload = cert.to_dict()
    assert (payload["factor"], payload["ratio"], payload["alpha"]) == (factor, ratio, alpha)
    assert payload["cell_count"] == 40 and payload["nu_max"] == 200
    assert {cell["nu"] for cell in payload["cells"]} == {nu}


# ---------------------------------------------------------------------------
# off-diagonality


def test_off_diagonality_certificate_branch():
    first, _ = ideal_pair()
    verdict = off_diagonality(first, DOM)
    assert isinstance(verdict, idl.OffDiagonal)
    assert isinstance(verdict.certificate, idl.ZeroDensityCertificate)
    assert verdict.to_dict()["verdict"] == "off-diagonal"


def test_off_diagonality_unit_branch():
    first, second = ideal_pair()
    combined = idl.ideal_sum(first, second)
    verdict = off_diagonality(combined, DOM)
    assert isinstance(verdict, idl.ContainsUnit)
    assert verdict.lower_bound == pytest.approx(UNIT_BOUND, abs=1e-12)


def test_off_diagonality_structural_branch():
    verdict = off_diagonality(idl.EventuallyZero(), DOM)
    assert isinstance(verdict, idl.OffDiagonal)
    payload = verdict.to_dict()["certificate"]
    assert payload["kind"] == "structural"
    assert "zero" in payload["statement"]


def test_off_diagonality_inconclusive_reasons():
    multi = generated_by("sin(nu*x)", "x")
    verdict = off_diagonality(multi, DOM)
    assert isinstance(verdict, idl.OffDiagInconclusive)
    assert "single generators" in verdict.reason

    first, _ = ideal_pair()
    starved = off_diagonality(first, DOM, nu_max=1)
    assert isinstance(starved, idl.OffDiagInconclusive)
    assert starved.reason == NO_DENSE_ZEROS


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

    monkeypatch.setattr(cli, "admission", no_sampling)
    monkeypatch.setattr(idl, "off_diagonality", no_sampling)
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


