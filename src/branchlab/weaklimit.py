"""Weak-limit evidence for sequences paired against test-function panels.

A verdict is computed per test function from the pairing values along a
geometric index schedule: divergence when the magnitudes grow monotonically
with a stable positive log-log slope, else convergence when the last three
pairings agree within tolerance (and their quadrature estimates are below
it), inconclusive otherwise.  Everything here is finite evidence at the
schedule's resolution, never a proof about the limit.

Each pairing is computed once: a classification keeps the per-member tables
its verdicts came from, and a report stage's `pairings` rows are exactly
those tables.  The tables come from `pairing.pairing_tables`, which pairs the
whole panel at each schedule index on one (member x node) block, with one
closure call per block, the index as a scalar, and at most
`pairing.BLOCK_NODES` nodes per block unless a single grid is longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._report import Record, Unknown, all_passed, stage
from .pairing import pairing_tables
from .sequences import seq_mul

DEFAULT_SCHEDULE = tuple(2 ** k for k in range(13))
DEFAULT_TOL = 1e-4

# a fitted log-log slope below this is creep toward a finite limit, not growth
MIN_GROWTH_EXPONENT = 0.2
MAX_FIT_RESIDUAL = 0.2


@dataclass(frozen=True, slots=True)
class ConvergesTo(Record):
    key = "kind"
    tag = "converges-to"
    value: float
    uncertainty: float


@dataclass(frozen=True, slots=True)
class Diverges(Record):
    key = "kind"
    tag = "diverges"
    growth_exponent: float
    fit_residual: float


class Inconclusive(Unknown):
    __slots__ = ()
    key = "kind"
    tag = "inconclusive"


def validate_schedule(schedule):
    """Refuse a schedule no verdict can be read from."""
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if len(schedule) < 6:
        raise ValueError("schedule needs at least 6 indices")
    if schedule[0] < 1:
        raise ValueError("schedule indices must be positive")


def _verdict_from_table(table, tol):
    """Growth is tested first, so no tolerance can settle a stable power law."""
    values = [v for _, v, _ in table]
    estimates = [e for _, _, e in table]
    window = [abs(v) for v in values[-6:]]
    growing = all(b > a for a, b in zip(window, window[1:])) and all(m > 0 for m in window)
    if growing:
        logs_n = np.log([index for index, _, _ in table[-6:]])
        logs_p = np.log(window)
        slope, intercept = np.polyfit(logs_n, logs_p, 1)
        residual = float(
            np.sqrt(np.mean((logs_p - (slope * logs_n + intercept)) ** 2))
        )
        if residual < MAX_FIT_RESIDUAL and slope > MIN_GROWTH_EXPONENT:
            return Diverges(float(slope), residual)
    last = values[-3:]
    spread = max(last) - min(last)
    if spread <= tol and max(estimates[-3:]) <= tol:
        return ConvergesTo(values[-1], max(spread, max(estimates[-3:])))
    if growing:
        return Inconclusive("monotone growth without a stable power law")
    return Inconclusive("pairings neither settle nor grow monotonically")


class Classification(str, Enum):
    CONVERGENT = "convergent"
    WEAK_NULL = "weak-null"
    DIVERGENT = "divergent"
    MIXED = "mixed"


@dataclass(frozen=True, slots=True)
class FunctionalVerdict(Record):
    per_test_function: tuple  # (TestFunction, LimitVerdict) pairs
    classification: Classification
    tables: tuple  # the pairing table behind each verdict, same order

    @property
    def definite(self):
        """Mixed is the one open classification: some member is inconclusive."""
        return self.classification is not Classification.MIXED

    def to_dict(self):
        return {
            "classification": self.classification.value,
            "per_test_function": [
                {**phi.to_dict(), "verdict": verdict.to_dict()}
                for phi, verdict in self.per_test_function
            ],
        }


def classify_membership(s, grids, tol):
    """Classify a sequence by its limit behaviour across the GridPlan's panel and schedule.

    weak-null additionally requires every limit to sit within its
    uncertainty (floored by the tolerance) of zero; weak-null therefore
    implies convergent by construction.
    """
    tables = tuple(pairing_tables(s, grids))
    verdicts = tuple(
        (phi, _verdict_from_table(table, tol)) for phi, table in zip(grids.members, tables)
    )
    kinds = [type(v) for _, v in verdicts]
    if any(k is Diverges for k in kinds):
        classification = Classification.DIVERGENT
    elif all(k is ConvergesTo for k in kinds):
        if all(
            abs(v.value) <= max(v.uncertainty, tol) for _, v in verdicts
        ):
            classification = Classification.WEAK_NULL
        else:
            classification = Classification.CONVERGENT
    else:
        classification = Classification.MIXED
    return FunctionalVerdict(verdicts, classification, tables)


def classify_stage(name, s, grids, tol):
    """Report stage for classify_membership, with the pairing rows it used."""
    with stage(name) as entry:
        verdict = classify_membership(s, grids, tol)
        entry["sequence"] = s.to_dict()
        entry.update(verdict.to_dict())
        entry["pairings"] = [
            {
                "nu": index,
                "center": phi.center,
                "width": phi.width,
                "value": value,
                "error_estimate": estimate,
            }
            for (phi, _), table in zip(verdict.per_test_function, verdict.tables)
            for index, value, estimate in table
        ]
    return entry, verdict


def nosquare_demo(domain, grids, tol, base):
    """Why identifying all weak-null sequences with zero breaks multiplication.

    The base sequence is weak-null, yet its entry-wise square has weak limit
    half the test-function mass.  Any multiplication on classes that sends
    every weak-null sequence to the zero class would force the square's class
    to be both zero and one-half, so no such multiplication exists.
    """
    square = seq_mul(base, base)

    base_stage, base_verdict = classify_stage("classify-base", base, grids, tol)
    base_stage["passed"] = base_verdict.classification is Classification.WEAK_NULL
    square_stage, square_verdict = classify_stage("classify-square", square, grids, tol)
    square_stage["passed"] = square_verdict.classification is Classification.CONVERGENT
    stages = [base_stage, square_stage]

    with stage("square-limits-vs-half-mass", stages) as half_stage:
        half_mass = []
        for phi, verdict in square_verdict.per_test_function:
            expected = 0.5 * phi.integral()
            entry = {
                "center": phi.center,
                "expected_half_mass": expected,
                "verdict": verdict.to_dict(),
            }
            if isinstance(verdict, ConvergesTo):
                entry["deviation"] = abs(verdict.value - expected)
            half_mass.append(entry)
        half_stage["entries"] = half_mass
        half_stage["passed"] = all(
            "deviation" in entry and entry["deviation"] <= 1e-3 for entry in half_mass
        )

    if all_passed(stages):
        conclusion = (
            "the base sequence is weak-null but its square settles at half the "
            "test-function mass on every panel member; a multiplication that "
            "identifies every weak-null sequence with zero would give the square "
            "two different values, so the naive quotient carries no multiplication"
        )
    else:
        conclusion = (
            "expected pattern not reproduced for this input; "
            "no impossibility conclusion is drawn"
        )

    return {
        "parameters": {
            "domain": domain.to_dict(),
            "schedule": list(grids.schedule),
            "tol": tol,
            "panel": {"members": [phi.to_dict() for phi in grids.members],
                      "domain": domain.to_dict()},
        },
        "stages": stages,
        "conclusion": conclusion,
    }
