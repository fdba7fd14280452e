"""Quotient-algebra layer: generalized functions modulo a chosen ideal.

The ideal is the one outside choice that fixes the algebra.  A generalized
function is a representative sequence whose every entry is denominator-safe
on the domain; equality is membership of the difference, so it inherits the
three-valued character of membership, and derivation descends to the
quotient only when the ideal's derivation closure holds.  The two demos show
the branching of products: equal inputs whose squares have different weak
limits, and the squared delta, an algebra element with no weak limit at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ._report import Record, all_passed, stage
from .expr import SafetyStatus
from .ideals import Closed, InIdeal, NotInIdeal, derivation_closure, membership
from .pairing import bump, pairing_tables
from .sequences import admission, apply_smooth, seq_derive, smooth_sequence
from .weaklimit import Classification, Diverges, _verdict_from_table, classify_membership

SEPARATION_FACTOR = 100.0
DELTA_SQUARE_BAND = 0.05


class AlgebraError(ValueError):
    """Gate violation: inadmissible ideal or unsupported operation."""


def gf(representative, domain):
    """The representative, once it is admitted on the domain."""
    report = admission(representative, domain)
    if report.status is not SafetyStatus.SAFE:
        unsafe = f"representative is not denominator-safe on the domain: {report.to_dict()}"
        raise AlgebraError(unsafe)
    return representative


def gf_derive(f, order, ideal, domain):
    """Quotient derivation; only defined when the ideal's derivation closure holds."""
    if not isinstance(order, int) or order < 0:
        raise ValueError("derivation order must be a nonnegative integer")
    if order == 0:
        return f
    if not isinstance(derivation_closure(ideal, domain), Closed):
        raise AlgebraError(
            "algebra is not derivation-capable: the ideal's closure under "
            "entry-wise derivatives was not established, so derivation does "
            "not descend to the quotient"
        )
    return seq_derive(f, order)


@dataclass(frozen=True, slots=True)
class Equal(Record):
    tag = "equal"
    evidence: InIdeal


@dataclass(frozen=True, slots=True)
class NotEqual(Record):
    tag = "not-equal"
    evidence: NotInIdeal


def gf_equal(f, g, ideal, domain):
    """Equality modulo the ideal, decided by membership of the difference.

    An open membership question comes back as it is: membership's Unknown.
    """
    verdict = membership(f - g, ideal, domain)
    if isinstance(verdict, InIdeal):
        return Equal(verdict)
    if isinstance(verdict, NotInIdeal):
        return NotEqual(verdict)
    return verdict


# the derivative of the steep step (1 + tanh(nu*x))/2, so derivation coherence
# holds by construction
DELTA_REPRESENTATIVE = "nu/(2*cosh(nu*x)^2)"
# the test function demo delta-square pairs the squared delta against
DELTA_PROBE = bump(0.0, 1.0, normalized=True)


# ---------------------------------------------------------------------------
# demos


def branching_demo(representatives, operation, outer, domain, grids, tol):
    """Distinct distributional outcomes of one operation on equal inputs.

    Every representative is first classified as converging weakly to zero,
    so each one stands for the zero distribution.  Applying the operation
    term-wise then produces sequences with different weak limits; which
    limit the quotient algebra selects depends on which representatives the
    ideal identifies, and no choice is canonical.  The report echoes the
    operation's text as given; outer is that text parsed in u.
    """
    stages = []

    with stage("classify-representatives", stages) as entry:
        verdicts = [classify_membership(s, grids, tol) for s in representatives]
        entry["records"] = [
            {"sequence": s.to_dict(), **verdict.to_dict()}
            for s, verdict in zip(representatives, verdicts)
        ]
        all_null = all(v.classification is Classification.WEAK_NULL for v in verdicts)
        entry["passed"] = all_null

    with stage("apply-operation", stages) as entry:
        entry["operation"] = operation
        entry["records"], limits = [], []
        # convergent and weak-null both mean every member has a ConvergesTo
        converging = (Classification.CONVERGENT, Classification.WEAK_NULL)
        for k, s in enumerate(representatives):
            try:
                transformed = apply_smooth(outer, s, domain)
            except ValueError as err:
                raise ValueError(f"op on reps[{k}]: {err}") from None
            verdict = classify_membership(transformed, grids, tol)
            entry["records"].append({"sequence": transformed.to_dict(), **verdict.to_dict()})
            definite = verdict.classification in converging
            limits.append([v for _, v in verdict.per_test_function] if definite else None)
        all_definite = None not in limits
        entry["passed"] = all_definite

    with stage("separation", stages) as entry:
        entry["records"] = []
        for i, j in combinations(range(len(representatives)), 2):
            if limits[i] is None or limits[j] is None:
                entry["records"].append({"pair": [i, j], "separation": None, "ratio": None})
                continue
            gap = max(abs(a.value - b.value) for a, b in zip(limits[i], limits[j]))
            uncertainty = max(a.uncertainty + b.uncertainty for a, b in zip(limits[i], limits[j]))
            ratio = gap / max(uncertainty, 1e-15)
            entry["records"].append({
                "pair": [i, j], "separation": gap, "combined_uncertainty": uncertainty,
                "ratio": ratio, "separated": ratio >= SEPARATION_FACTOR,
            })
        witness_found = any(record.get("separated") for record in entry["records"])
        entry["passed"] = witness_found

    if all_passed(stages):
        conclusion = (
            "all representatives converge weakly to zero, yet the operation "
            "sends them to sequences with well-separated weak limits; the "
            "distributional outcome depends on the representative, so it "
            "depends on the ideal that decides which representatives are "
            "identified, and no single quotient fixes the product of "
            "singular objects"
        )
    elif not witness_found and all_null and all_definite:
        conclusion = (
            "the operation sent these representatives to sequences with "
            "matching weak limits; no branching witnessed for this choice"
        )
    else:
        conclusion = "expected pattern not reproduced; the demo is not applicable"

    return {
        "parameters": {
            "domain": domain.to_dict(),
            "operation": operation,
            "representatives": [s.to_dict() for s in representatives],
            "panel": [phi.to_dict() for phi in grids.members],
        },
        "stages": stages,
        "conclusion": conclusion,
    }


def delta_square_demo(domain, grids, tol, probe_grids):
    """The squared delta: a healthy algebra element with no weak limit.

    Pairings of the squared representative against the probe, the one member
    of probe_grids, grow linearly in the index, matching the closed-form
    first-order prediction index * probe(0) / 3 within DELTA_SQUARE_BAND, so
    the result cannot be identified with any distribution; the algebra still
    holds it as an ordinary element.  The panel of grids is classified too: it
    diverges wherever a member covers the origin.  A domain that does not
    contain the probe's support is refused before any pairing.
    """
    (probe,) = probe_grids.members
    lo, hi = probe.support
    if lo < domain.lower or hi > domain.upper:
        raise ValueError(
            f"demo delta-square pairs against the normalized bump on [{lo}, {hi}], "
            f"which the domain [{domain.lower}, {domain.upper}] does not contain"
        )
    delta = smooth_sequence(DELTA_REPRESENTATIVE)
    rep = delta * delta

    stages = []

    with stage("pairing-table", stages) as entry:
        table = pairing_tables(rep, probe_grids)[0]
        probe_height = probe.value(0.0)
        rows = []
        within_band = True
        for index, value, estimate in table:
            expected = index * probe_height / 3.0
            deviation = abs(value - expected) / abs(expected)
            within_band = within_band and deviation <= DELTA_SQUARE_BAND
            rows.append(
                {
                    "nu": index,
                    "center": probe.center,
                    "width": probe.width,
                    "value": value,
                    "error_estimate": estimate,
                    "expected": expected,
                    "relative_deviation": deviation,
                }
            )
        entry["records"] = rows
        entry["band"] = DELTA_SQUARE_BAND
        entry["passed"] = within_band

    with stage("growth-exponent", stages) as entry:
        verdict = _verdict_from_table(table, tol)
        entry["verdict"] = verdict.to_dict()
        entry["passed"] = (
            isinstance(verdict, Diverges) and abs(verdict.growth_exponent - 1.0) <= 0.1
        )

    with stage("panel-classification", stages) as entry:
        classified = classify_membership(rep, grids, tol)
        entry.update(classified.to_dict())
        entry["passed"] = classified.classification is Classification.DIVERGENT

    if all_passed(stages):
        conclusion = (
            "pairings of the squared delta grow like index * probe(0) / 3 "
            "with growth exponent 1 within 0.1; the square has no weak limit "
            "and represents no distribution, yet it is a first-class element "
            "of the quotient algebra"
        )
    else:
        conclusion = "expected pattern not reproduced; the demo is not applicable"

    return {
        "parameters": {
            "domain": domain.to_dict(),
            "probe": probe.to_dict(),
            "schedule": list(grids.schedule),
        },
        "stages": stages,
        "conclusion": conclusion,
    }
