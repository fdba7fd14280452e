"""End-to-end gate. Each check prints one verdict line; run with -s to see them.

Every line reads "criterion N: PASS/FAIL - detail" and the assertion fires
after the line is printed, so a red run still shows the full scoreboard up to
the first failure.
"""

import math
import random
import time

import numpy as np
import pytest

import branchlab.expr as ex
from branchlab import algebra as alg
from branchlab import cli
from branchlab import ideals as idl
from branchlab.pairing import bump, pairing_tables, plan_grids
from branchlab.sequences import admission, seq_derive, smooth_sequence

from conftest import generated_by, value_at

DOM = ex.DomainInterval(-1.0, 1.0)
DOM2PI = ex.DomainInterval(0.0, 2.0 * math.pi)

# midpoint value of the bump profile integral, shared with the pairing tests
SHAPE_INTEGRAL = 0.4439938161680794

UNIT_LOWER_BOUND = 2.0 - math.sqrt(2.0)


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_oscillation_pairs_to_zero():
    started = time.perf_counter()
    code, report = cli.run(["limit", "--seq", "cos(nu*x)"])
    elapsed = time.perf_counter() - started
    stage = next(s for s in report["stages"] if s["name"] == "weak-limit")
    rows = [r for r in stage["pairings"] if r["nu"] == 4096]
    worst = max(abs(r["value"]) for r in rows) if rows else math.inf
    ok = (
        code == 0
        and stage["classification"] == "weak-null"
        and len(rows) == 8
        and worst < 1e-4
        and elapsed < 10.0
    )
    verdict(
        1,
        ok,
        f"classified {stage['classification']!r}, {len(rows)} pairings at index "
        f"4096 peak at {worst:.2e}, exit {code}, {elapsed:.1f}s",
    )


def test_square_of_weak_null_keeps_half_mass():
    started = time.perf_counter()
    code, report = cli.run(["demo", "nosquare"])
    elapsed = time.perf_counter() - started
    stage = next(s for s in report["stages"] if "entries" in s)
    entries = stage["entries"]
    deviations = [
        abs(e["verdict"]["value"] - e["expected_half_mass"]) for e in entries
    ]
    converged = all(e["verdict"]["kind"] == "converges-to" for e in entries)
    ok = (
        code == 0
        and len(entries) == 8
        and converged
        and max(deviations) <= 1e-3
        and all(e["expected_half_mass"] == 0.5 for e in entries)
        and "carries no multiplication" in report["conclusion"]
        and elapsed < 20.0
    )
    verdict(
        2,
        ok,
        f"{len(entries)} panel members within {max(deviations):.2e} of half "
        f"mass, exit {code}, {elapsed:.1f}s",
    )


def test_ideal_sum_reaches_a_unit():
    started = time.perf_counter()
    code, report = cli.run(["demo", "no-largest-ideal"])
    elapsed = time.perf_counter() - started
    stages = {s["name"]: s for s in report["stages"]}
    certs_ok = True
    for name in ("off-diagonality-first", "off-diagonality-second"):
        outcome = stages[name]["outcome"]
        cert = outcome["certificate"]
        certs_ok = certs_ok and (
            outcome["verdict"] == "off-diagonal"
            and cert["cell_count"] == 126
            and cert["nu_max"] == 200
            and cert["cell_width"] <= 0.05
            and cert["max_residual"] < 1e-12
        )
    unit = stages["unit-witness"]["outcome"]
    bound_gap = abs(unit["lower_bound"] - UNIT_LOWER_BOUND)
    ok = (
        code == 0
        and report["all_stages_passed"] is True
        and certs_ok
        and unit["sequence"]["tail"] == "2 + cos(nu*x) + sin(nu*x)"
        and bound_gap < 1e-3
        and elapsed < 30.0
    )
    verdict(
        3,
        ok,
        f"both factors certified off-diagonal (126 cells to index 200), sum "
        f"bounded below by {unit['lower_bound']:.6f} (gap {bound_gap:.1e}), "
        f"exit {code}, {elapsed:.1f}s",
    )


def test_embedded_products_match_pointwise_products(expression_corpus):
    pairs = [
        (expression_corpus[k], expression_corpus[k + 1]) for k in range(0, 94, 2)
    ]
    pairs += [
        (ex.x, ex.x),
        (ex.parse("sin(x)"), ex.parse("cos(x)")),
        (ex.parse("1"), expression_corpus[7]),
    ]
    xs = DOM.interior_grid(256)
    worst = 0.0
    all_passed = True
    for psi, chi in pairs:
        # gf mul prints the normal form of the product, gf equal finds the
        # product equal to it, and on a grid it is the product of the factors
        lhs, rhs = ex.to_string(psi), ex.to_string(chi)
        product = ex.to_string(ex.simplify(psi * chi))
        mul_code, mul = cli.run(["gf", "mul", f"--lhs={lhs}", f"--rhs={rhs}"])
        equal_code, equal = cli.run(
            ["gf", "equal", f"--lhs=({lhs})*({rhs})", f"--rhs={product}"]
        )
        pointwise = ex.evaluate_on_grid(psi, 1, xs) * ex.evaluate_on_grid(chi, 1, xs)
        printed = ex.evaluate_on_grid(ex.parse(product), 1, xs)
        finite = np.isfinite(pointwise) & np.isfinite(printed)
        residual = float(np.max(np.abs(pointwise - printed), where=finite, initial=0.0))
        worst = max(worst, residual)
        all_passed = all_passed and (
            mul_code == 0
            and mul["stages"][0]["result"]["tail"] == product
            and equal_code == 0
            and equal["stages"][0]["outcome"]["verdict"] == "equal"
            and residual < 1e-12
            and finite.any()
        )
    verdict(
        4,
        all_passed and len(pairs) == 50,
        f"{len(pairs)} embedded products collapse structurally, worst grid "
        f"residual {worst:.2e}",
    )


def test_impulse_embedding_is_coherent():
    delta = smooth_sequence(alg.DELTA_REPRESENTATIVE)
    step = smooth_sequence("(1 + tanh(nu*x))/2")
    phi = bump(0.0, 0.8, normalized=True, domain=DOM)
    (((_, value, _),),) = pairing_tables(delta, plan_grids((phi,), (1024,)))
    # normalized bump height at its center, from the frozen profile integral
    expected = math.exp(-1.0) / (0.8 * SHAPE_INTEGRAL)
    gap = abs(value - expected)
    derived = seq_derive(step).signature()
    ok = gap < 1e-3 and derived == delta.signature()
    verdict(
        5,
        ok,
        f"impulse pairing at index 1024 within {gap:.2e} of probe height, "
        f"step derivative is {derived!r}",
    )


def test_squared_impulse_grows_linearly():
    code, report = cli.run(["demo", "delta-square"])
    stages = {s["name"]: s for s in report["stages"]}
    records = stages["pairing-table"]["records"]
    worst_rel = 0.0
    for row in records:
        closed = row["nu"] * math.exp(-1.0) / (3.0 * SHAPE_INTEGRAL)
        worst_rel = max(worst_rel, abs(row["value"] - closed) / closed)
    exponent = stages["growth-exponent"]["verdict"]["growth_exponent"]
    classification = stages["panel-classification"]["classification"]
    ok = (
        code == 0
        and len(records) >= 8
        and worst_rel <= 0.05
        and abs(exponent - 1.0) <= 0.1
        and classification == "divergent"
    )
    verdict(
        6,
        ok,
        f"{len(records)} pairings within {worst_rel:.1%} of the linear law, "
        f"growth exponent {exponent:.3f}, classified {classification!r}",
    )


def test_equal_inputs_branch_under_squaring():
    code, report = cli.run(["demo", "branching"])
    stages = {s["name"]: s for s in report["stages"]}
    classify = stages["classify-representatives"]["records"]
    both_null = all(r["classification"] == "weak-null" for r in classify)
    squared = stages["apply-operation"]["records"]
    half_values = [p["verdict"]["value"] for p in squared[0]["per_test_function"]]
    zero_values = [p["verdict"]["value"] for p in squared[1]["per_test_function"]]
    half_gap = max(abs(v - 0.5) for v in half_values)
    zero_gap = max(abs(v) for v in zero_values)
    ratios = [r["ratio"] for r in stages["separation"]["records"]]
    ok = (
        code == 0
        and len(classify) == 2
        and both_null
        and half_gap <= 1e-3
        and zero_gap <= 1e-6
        and min(ratios) >= 100.0
        and all(r["separated"] is True for r in stages["separation"]["records"])
    )
    verdict(
        7,
        ok,
        f"two weak-null inputs square to limits 0.5 (within {half_gap:.1e}) "
        f"and 0 (within {zero_gap:.1e}), separation ratio {min(ratios):.1e}",
    )


def test_calculus_and_quotient_properties(expression_corpus):
    rng = random.Random(360285)

    # derivation laws, checked numerically on the shared corpus
    worst_law = 0.0
    for i, f in enumerate(expression_corpus):
        g = expression_corpus[(i + 37) % len(expression_corpus)]
        a = round(rng.uniform(-3, 3), 3)
        b = round(rng.uniform(-3, 3), 3)
        lin_l = ex.diff(ex.Num(a) * f + ex.Num(b) * g)
        lin_r = ex.Num(a) * ex.diff(f) + ex.Num(b) * ex.diff(g)
        prod_l = ex.diff(f * g)
        prod_r = ex.diff(f) * g + f * ex.diff(g)
        for _ in range(3):
            xv = rng.uniform(-1.0, 1.0)
            worst_law = max(
                worst_law,
                abs(value_at(lin_l, 1, xv) - value_at(lin_r, 1, xv)),
                abs(value_at(prod_l, 1, xv) - value_at(prod_r, 1, xv)),
            )
    laws_ok = worst_law < 1e-10

    # symbolic derivatives against central differences
    h = 1e-4
    fd_misses = 0
    for e in expression_corpus:
        d1 = ex.diff(e)
        d3 = ex.diff(e, 3)
        for _ in range(2):
            xv = rng.uniform(-1.0, 1.0)
            fd = (value_at(e, 1, xv + h) - value_at(e, 1, xv - h)) / (2 * h)
            sym = value_at(d1, 1, xv)
            third = abs(value_at(d3, 1, xv))
            tol = max(1.0, third / 6.0) * 2.0 * h * h + 1e-9 * (1 + abs(sym))
            if abs(fd - sym) > tol:
                fd_misses += 1

    # quotient well-definedness under finite perturbations, with every
    # equality verdict's evidence kept for the soundness sweep below
    house = idl.EventuallyZero()
    log = []

    def checked(s, ideal, domain):
        v = idl.membership(s, ideal, domain)
        log.append((s, ideal, domain, v))
        return v

    def record_equality(left, right):
        v = alg.gf_equal(left, right, house, DOM)
        if isinstance(v, (alg.Equal, alg.NotEqual)):
            log.append(
                (
                    left - right,
                    house,
                    DOM,
                    v.evidence,
                )
            )
        return v

    safe = [
        e
        for e in expression_corpus
        if admission(smooth_sequence(e), DOM).status is ex.SafetyStatus.SAFE
    ]
    quotient_trials = 0
    quotient_ok = True
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
        for left, right in (
            (f, perturbed),
            (f * g, perturbed * g),
            (alg.gf_derive(f, 1, house, DOM), alg.gf_derive(perturbed, 1, house, DOM)),
        ):
            quotient_ok = quotient_ok and isinstance(
                record_equality(left, right), alg.Equal
            )
        quotient_trials += 1

    # decisive membership verdicts of both kinds, over both ideal families
    trig = generated_by("1 + sin(nu*x)")
    checked(smooth_sequence("(1 + sin(nu*x))*x^2"), trig, DOM2PI)
    checked(
        smooth_sequence("(2 + 2*sin(nu*x))*x^2"),
        generated_by("2 + 2*sin(nu*x)"),
        DOM2PI,
    )
    checked(
        smooth_sequence("x*(1 + sin(nu*x)) + 3*(1 + cos(nu*x))"),
        idl.ideal_sum(trig, generated_by("1 + cos(nu*x)")),
        DOM2PI,
    )
    checked(smooth_sequence("1"), trig, DOM2PI)
    checked(smooth_sequence("0", {3: "x^2"}), house, DOM)
    checked(smooth_sequence("x - x + 1"), house, DOM)

    # soundness sweep: refute or re-derive every logged verdict from scratch
    in_count = 0
    not_count = 0
    worst_resid = 0.0
    sweep_ok = True
    for s, ideal, domain, v in log:
        lo, hi = domain.lower, domain.upper
        if isinstance(v, idl.InIdeal):
            in_count += 1
            # an empty factorization claims the tail vanishes identically, so
            # only the finitely many exceptional entries may be skipped
            skip = set(s.exceptional_map) if not v.factorization else set()
            for _ in range(12):
                index = rng.randint(s.start_index, s.start_index + 40)
                while index in skip:
                    index += 1
                xv = rng.uniform(lo, hi)
                total = sum(
                    gen.term_value(index, xv) * cof.term_value(index, xv)
                    for gen, cof in v.factorization
                )
                resid = abs(s.term_value(index, xv) - total)
                worst_resid = max(worst_resid, resid)
                sweep_ok = sweep_ok and resid < 1e-10
        elif isinstance(v, idl.NotInIdeal):
            not_count += 1
            w = v.witness
            sweep_ok = sweep_ok and all(
                abs(gv) < 1e-10 for gv in w.generator_values
            )
            sweep_ok = sweep_ok and abs(w.sequence_value) > 1e-6
            sweep_ok = sweep_ok and abs(
                s.term_value(w.nu, w.x) - w.sequence_value
            ) <= 1e-9 * (1 + abs(w.sequence_value))
            if isinstance(ideal, idl.FinitelyGenerated):
                sweep_ok = sweep_ok and all(
                    abs(gen.term_value(w.nu, w.x)) < 1e-10
                    for gen in ideal.generators
                )
        else:
            sweep_ok = False

    ok = laws_ok and fd_misses == 0 and quotient_ok and sweep_ok
    verdict(
        8,
        ok,
        f"derivation laws peak at {worst_law:.1e}, {fd_misses} finite-difference "
        f"misses, {quotient_trials} perturbation trials stayed equal, "
        f"{in_count}+{not_count} membership verdicts re-verified "
        f"(worst refactorization {worst_resid:.1e})",
    )


def test_demo_reports_are_reproducible():
    names = ("nosquare", "no-largest-ideal", "branching", "delta-square")
    mismatched = []
    for name in names:
        first_code, first = cli.run(["demo", name])
        second_code, second = cli.run(["demo", name])
        same = (
            first_code == 0
            and second_code == 0
            and cli.comparable_bytes(first) == cli.comparable_bytes(second)
        )
        if not same:
            mismatched.append(name)
    verdict(
        9,
        not mismatched,
        f"{len(names)} demos byte-identical across repeat runs"
        + (f", mismatches: {mismatched}" if mismatched else ""),
    )
