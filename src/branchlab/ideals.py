"""Ideal specifications, membership evidence, and off-diagonality certificates.

Two ideal species are supported: the eventually-zero sequences (membership is
a decision procedure on the normal form) and finitely generated ideals, where
membership is a semi-decision.  InIdeal verdicts carry an explicit
factorization that is re-multiplied at random samples before being returned;
NotInIdeal verdicts carry a sample point where every generator vanishes to
within 1e-10 while the candidate stays above 1e-6, which is evidence against
any moderately bounded cofactor rather than a proof.  Everything else is
Unknown.

The off-diagonality question for an ideal -- does it meet the diagonal
constant sequences only in zero -- is answered positively by a zero-density
certificate (a root of some entry of the generator in every cell of the
domain, so a constant trapped in the ideal must vanish on a grid of the
certificate's resolution) and negatively by a unit witness (a small integer
combination of generators bounded away from zero, which makes the ideal
improper).  The two successful outcomes are mutually exclusive.
"""

from __future__ import annotations

import math
import random
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from ._numutil import refine_min_abs
from ._stage import stage
from .expr import DomainInterval, Num, from_sum_terms, simplify, sum_terms, to_string
from .sequences import (
    SmoothSequence,
    seq_derive,
    sequence_is_zero,
    smooth_sequence,
)

VANISH_TOL = 1e-10
NONVANISH_TOL = 1e-6
FACTORIZATION_TOL = 1e-10
DEFAULT_UNIT_MARGIN = 0.1
UNIT_LATTICE_NUS = (1, 2, 3, 4, 6, 8, 12, 16)
UNIT_LATTICE_X_COUNT = 8192
SCAN_NU_LIMIT = 32
VERIFICATION_SAMPLES = 100
_VERIFICATION_SEED = 20260815


# ---------------------------------------------------------------------------
# ideal species


@dataclass(frozen=True, slots=True)
class EventuallyZero:
    """Sequences with only finitely many nonzero entries."""

    def to_dict(self):
        return {"kind": "eventually-zero"}


@dataclass(frozen=True, slots=True)
class FinitelyGenerated:
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a finitely generated ideal needs generators")
        for g in self.generators:
            if not isinstance(g, SmoothSequence):
                raise TypeError("generators must be smooth sequences")

    def to_dict(self):
        return {
            "kind": "finitely-generated",
            "generators": [g.to_dict() for g in self.generators],
        }


def generated_by(*tails):
    """Finitely generated ideal from expressions, strings, or sequences."""
    gens = tuple(
        g if isinstance(g, SmoothSequence) else smooth_sequence(g) for g in tails
    )
    return FinitelyGenerated(gens)


def ideal_sum(first, second):
    """Ideal generated by the union of the generator lists, deduplicated."""
    for operand in (first, second):
        if not isinstance(operand, FinitelyGenerated):
            raise TypeError("ideal_sum operates on finitely generated ideals")
    seen = set()
    merged = []
    for g in first.generators + second.generators:
        if sequence_is_zero(g):
            continue
        key = g.signature()
        if key in seen:
            continue
        seen.add(key)
        merged.append(g)
    if not merged:
        raise ValueError("ideal sum collapsed to no nonzero generators")
    return FinitelyGenerated(tuple(merged))


# ---------------------------------------------------------------------------
# membership


@dataclass(frozen=True, slots=True)
class MembershipWitness:
    nu: int
    x: float
    sequence_value: float
    generator_values: tuple
    note: str = ""

    def to_dict(self):
        return {
            "nu": self.nu,
            "x": self.x,
            "sequence_value": self.sequence_value,
            "generator_values": list(self.generator_values),
            "note": self.note,
        }


@dataclass(frozen=True, slots=True)
class InIdeal:
    factorization: tuple  # (generator, cofactor sequence) pairs
    verification_residual: float = 0.0

    def to_dict(self):
        return {
            "verdict": "in-ideal",
            "factorization": [
                {"generator": g.to_dict(), "cofactor": t.to_dict()}
                for g, t in self.factorization
            ],
            "verification_residual": self.verification_residual,
        }


@dataclass(frozen=True, slots=True)
class NotInIdeal:
    witness: MembershipWitness

    def to_dict(self):
        return {"verdict": "not-in-ideal", "witness": self.witness.to_dict()}


@dataclass(frozen=True, slots=True)
class MembershipUnknown:
    reason: str = ""

    def to_dict(self):
        return {"verdict": "unknown", "reason": self.reason}


def _divide_term(coefficient, mono, gen_terms):
    """Divide one canonical term by a generator tail; None when it fails.

    Single-term generators divide factor by factor; multi-term generators
    must appear as an atomic sum base.  Division never introduces a
    denominator the original term did not already carry.
    """
    if len(gen_terms) == 1:
        gen_coefficient, gen_mono = gen_terms[0]
        factors = dict(mono)
        for base, gexp in gen_mono:
            have = factors.get(base, 0)
            new = have - gexp
            if new < 0 and have >= 0:
                return None
            if new == 0:
                factors.pop(base, None)
            else:
                factors[base] = new
        return (coefficient / gen_coefficient, ex._monomial(factors))
    lead, base = ex.atomic_factor(from_sum_terms(gen_terms))
    factors = dict(mono)
    have = factors.get(base, 0)
    if have < 1:
        return None
    if have == 1:
        factors.pop(base)
    else:
        factors[base] = have - 1
    return (coefficient / lead, ex._monomial(factors))


def _proportional(remainder, gen_terms):
    """Scalar lambda with remainder == lambda * gen_terms, else None."""
    if len(remainder) != len(gen_terms):
        return None
    remainder_map = {mono: c for c, mono in remainder}
    scale = None
    for gc, gmono in gen_terms:
        c = remainder_map.get(gmono)
        if c is None:
            return None
        ratio = c / gc
        if scale is None:
            scale = ratio
        elif not math.isclose(scale, ratio, rel_tol=1e-12, abs_tol=0.0):
            return None
    return scale


def _match_factorization(s, ideal):
    """Structural factorization of the tail over the generators, or None."""
    s_terms = sum_terms(s.tail)
    gen_decompositions = []
    for g in ideal.generators:
        decomposition = sum_terms(g.tail)
        if not decomposition:
            return None
        gen_decompositions.append(decomposition)
    assigned = [[] for _ in ideal.generators]
    remainder = []
    for c, mono in s_terms:
        for gi, gd in enumerate(gen_decompositions):
            quotient = _divide_term(c, mono, gd)
            if quotient is not None:
                assigned[gi].append(quotient)
                break
        else:
            remainder.append((c, mono))
    if remainder:
        for gi, gd in enumerate(gen_decompositions):
            scale = _proportional(remainder, gd)
            if scale is not None:
                assigned[gi].append((scale, ()))
                remainder = []
                break
    if remainder:
        return None
    cofactors = []
    for terms in assigned:
        cofactors.append(SmoothSequence(from_sum_terms(terms)))
    return tuple(zip(ideal.generators, cofactors))


def _verify_factorization(s, factorization, domain):
    """Max |s - sum(g*t)| over random samples; exercises exceptional entries."""
    rng = random.Random(_VERIFICATION_SEED)
    lo = domain.lower if domain is not None else -1.0
    hi = domain.upper if domain is not None else 1.0
    indices = [i for i, _ in s.exceptional]
    for g, _ in factorization:
        indices.extend(i for i, _ in g.exceptional)
    worst = 0.0
    for k in range(VERIFICATION_SAMPLES):
        if indices and k % 10 == 9:
            index = indices[(k // 10) % len(indices)]
        else:
            index = rng.randint(max(s.start_index, 1), SCAN_NU_LIMIT)
        point = rng.uniform(lo, hi)
        try:
            total = 0.0
            for g, t in factorization:
                total += g.term_value(index, point) * t.term_value(index, point)
            residual = abs(s.term_value(index, point) - total)
        except ex.EvalError:
            return math.inf
        worst = max(worst, residual)
    return worst


def _local_minima(values, threshold):
    """Indices of interior local minima of |values| below the threshold."""
    magnitude = np.abs(values)
    inner = magnitude[1:-1]
    mask = (inner <= magnitude[:-2]) & (inner <= magnitude[2:]) & (inner < threshold)
    return (np.nonzero(mask)[0] + 1).tolist()


def _scan_for_witness(s, generators, domain, nu_limit=SCAN_NU_LIMIT, grid=2048):
    """Sample point where all generators nearly vanish but s does not."""
    xs = domain.interior_grid(grid)
    indices = list(range(1, nu_limit + 1))
    for index, _ in s.exceptional:
        if index not in indices:
            indices.append(index)
    for index in indices:
        if index < s.start_index:
            continue
        if any(index < g.start_index for g in generators):
            continue
        stacked = np.stack([g.term_values(index, xs) for g in generators])
        if not np.all(np.isfinite(stacked)):
            continue
        worst = np.max(np.abs(stacked), axis=0)

        with ExitStack() as held:
            probes = [held.enter_context(g.probe(index)) for g in generators]

            def combined(point):
                return max(abs(p(point)) for p in probes)

            probe = probes[0] if len(probes) == 1 else combined
            for k in _local_minima(worst, 0.05)[:64]:
                lo, hi = float(xs[k - 1]), float(xs[k + 1])
                point, _ = refine_min_abs(probe, lo, hi)
                residual = combined(point)
                if residual < VANISH_TOL:
                    value = s.term_value(index, point)
                    if abs(value) > NONVANISH_TOL:
                        return MembershipWitness(
                            index,
                            point,
                            value,
                            tuple(p(point) for p in probes),
                            note="all generators vanish to tolerance at this point",
                        )
    return None


def _eventually_zero_witness(s, domain):
    dom = domain or DomainInterval(-1.0, 1.0)
    xs = dom.interior_grid(256)
    best = (1, float(xs[0]), 0.0)
    for index in range(1, 9):
        values = s.term_values(index, xs)
        finite = np.where(np.isfinite(values), np.abs(values), -1.0)
        k = int(np.argmax(finite))
        if finite[k] > best[2]:
            best = (index, float(xs[k]), float(finite[k]))
    return MembershipWitness(
        best[0],
        best[1],
        best[2],
        (),
        note="tail does not normalize to zero; largest sampled entry shown",
    )


def membership(s, ideal, domain=None):
    """Membership evidence for a sequence in an ideal.

    Eventually-zero ideals are decided structurally (never Unknown).  For
    finitely generated ideals the verdict is a semi-decision: a verified
    factorization, a vanishing-point witness, or Unknown.
    """
    if isinstance(ideal, EventuallyZero):
        if ex.is_zero(s.tail):
            return InIdeal(factorization=())
        return NotInIdeal(_eventually_zero_witness(s, domain))
    if not isinstance(ideal, FinitelyGenerated):
        raise TypeError("unsupported ideal specification")

    factorization = _match_factorization(s, ideal)
    if factorization is not None:
        residual = _verify_factorization(s, factorization, domain)
        if residual < FACTORIZATION_TOL:
            return InIdeal(factorization, residual)

    if domain is not None:
        witness = _scan_for_witness(s, ideal.generators, domain)
        if witness is not None:
            return NotInIdeal(witness)
        return MembershipUnknown(
            "no factorization matched and no vanishing-point witness found"
        )
    return MembershipUnknown("no factorization matched; no domain given to scan")


# ---------------------------------------------------------------------------
# unit detection


@dataclass(frozen=True, slots=True)
class UnitWitness:
    sequence: SmoothSequence
    lower_bound: float
    combination: tuple  # (coefficient, generator position) pairs

    def to_dict(self):
        return {
            "sequence": self.sequence.to_dict(),
            "lower_bound": self.lower_bound,
            "combination": [list(pair) for pair in self.combination],
        }


def _candidate_combinations(generator_count, bound):
    for magnitude in range(1, bound + 1):
        for c in (magnitude, -magnitude):
            for i in range(generator_count):
                yield ((c, i),)
    pairs = []
    for i in range(generator_count):
        for j in range(i + 1, generator_count):
            for c1 in range(-bound, bound + 1):
                for c2 in range(-bound, bound + 1):
                    if c1 == 0 or c2 == 0:
                        continue
                    pairs.append((abs(c1) + abs(c2), c1, c2, i, j))
    for _, c1, c2, i, j in sorted(pairs):
        yield ((c1, i), (c2, j))


def unit_detection(ideal, domain, coefficient_bound=3, margin=DEFAULT_UNIT_MARGIN):
    """Search small integer combinations of generators for a positive floor.

    Returns a witness whose sampled infimum over the (nu, x) lattice is at
    least the margin, or None.  The infimum is a sampled lower bound, not an
    exact one; the lattice is dense enough that the quadratic sampling error
    stays well below the margin for the index range used.
    """
    if not isinstance(ideal, FinitelyGenerated):
        raise TypeError("unit detection requires a finitely generated ideal")
    xs = domain.interior_grid(UNIT_LATTICE_X_COUNT)
    generators = ideal.generators
    cache = {}

    def values(gi, index):
        key = (gi, index)
        if key not in cache:
            cache[key] = generators[gi].term_values(index, xs)
        return cache[key]

    for combination in _candidate_combinations(len(generators), coefficient_bound):
        lowest = math.inf
        feasible = True
        for index in UNIT_LATTICE_NUS:
            if any(index < generators[gi].start_index for _, gi in combination):
                feasible = False
                break
            combined = sum(c * values(gi, index) for c, gi in combination)
            if not np.all(np.isfinite(combined)):
                feasible = False
                break
            lowest = min(lowest, float(np.min(combined)))
            if lowest < margin:
                feasible = False
                break
        if feasible and lowest >= margin:
            witness = None
            for c, gi in combination:
                scaled = smooth_sequence(
                    simplify(Num(float(c)) * generators[gi].tail)
                )
                witness = scaled if witness is None else witness + scaled
            return UnitWitness(witness, lowest, combination)
    return None


# ---------------------------------------------------------------------------
# zero-density certificates


@dataclass(frozen=True, slots=True)
class CertificateCell:
    lower: float
    upper: float
    nu: int
    root: float
    residual: float

    def to_dict(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "nu": self.nu,
            "root": self.root,
            "residual": self.residual,
        }


@dataclass(frozen=True, slots=True)
class ZeroDensityCertificate:
    domain: DomainInterval
    cell_width: float
    nu_max: int
    cells: tuple

    def to_dict(self):
        return {
            "domain": [self.domain.lower, self.domain.upper],
            "cell_width": self.cell_width,
            "nu_max": self.nu_max,
            "cell_count": len(self.cells),
            "max_residual": max((c.residual for c in self.cells), default=0.0),
            "cells": [c.to_dict() for c in self.cells],
        }


def zero_density_certificate(
    ideal, domain, cell_width=0.05, nu_max=200, residual_tol=1e-8
):
    """Root of some generator entry in every cell of the domain, or None.

    A constant sequence lying in the ideal must vanish at every certified
    root, so its zeros are at least cell-width dense; the certificate is the
    finite form of that argument at this resolution.
    """
    if not isinstance(ideal, FinitelyGenerated) or len(ideal.generators) != 1:
        raise TypeError("zero-density certificates require a single generator")
    generator = ideal.generators[0]
    cell_count = max(1, int(math.ceil(domain.length / cell_width)))
    actual_width = domain.length / cell_count
    edges = [domain.lower + actual_width * k for k in range(cell_count + 1)]
    filled = {}

    for index in range(max(1, generator.start_index), nu_max + 1):
        if len(filled) == cell_count:
            break
        step = min(actual_width / 8.0, 2.0 * math.pi / (8.0 * index))
        count = int(math.ceil(domain.length / step)) + 1
        xs = np.linspace(domain.lower, domain.upper, count)
        values = generator.term_values(index, xs)
        if not np.all(np.isfinite(values)):
            continue

        with generator.probe(index) as scalar:
            for cell in range(cell_count):
                if cell in filled:
                    continue
                lo, hi = edges[cell], edges[cell + 1]
                inside = np.nonzero((xs >= lo) & (xs <= hi))[0]
                if len(inside) < 3:
                    continue
                segment = values[inside]
                k = int(np.argmin(np.abs(segment)))
                if abs(segment[k]) > 0.1:
                    continue
                left = float(xs[inside[max(k - 1, 0)]])
                right = float(xs[inside[min(k + 1, len(inside) - 1)]])
                point, residual = refine_min_abs(scalar, left, right)
                if residual < residual_tol and lo <= point <= hi:
                    filled[cell] = CertificateCell(lo, hi, index, point, residual)

    if len(filled) != cell_count:
        return None
    cells = tuple(filled[k] for k in sorted(filled))
    return ZeroDensityCertificate(domain, actual_width, nu_max, cells)


# ---------------------------------------------------------------------------
# off-diagonality


@dataclass(frozen=True, slots=True)
class StructuralProof:
    statement: str

    def to_dict(self):
        return {"kind": "structural", "statement": self.statement}


@dataclass(frozen=True, slots=True)
class OffDiagonal:
    certificate: object

    def to_dict(self):
        return {"verdict": "off-diagonal", "certificate": self.certificate.to_dict()}


@dataclass(frozen=True, slots=True)
class ContainsUnit:
    witness: SmoothSequence
    lower_bound: float

    def to_dict(self):
        return {
            "verdict": "contains-unit",
            "witness": self.witness.to_dict(),
            "lower_bound": self.lower_bound,
        }


@dataclass(frozen=True, slots=True)
class OffDiagInconclusive:
    reason: str = ""

    def to_dict(self):
        return {"verdict": "inconclusive", "reason": self.reason}


def off_diagonality(
    ideal,
    domain,
    cell_width=0.05,
    nu_max=200,
    coefficient_bound=3,
    margin=DEFAULT_UNIT_MARGIN,
):
    """Does the ideal meet the diagonal constant sequences only in zero?

    Contains-unit and off-diagonal are mutually exclusive outcomes: a
    generator combination bounded away from zero has no roots to certify,
    and certified dense roots cap any combination's infimum at zero.
    """
    if isinstance(ideal, EventuallyZero):
        return OffDiagonal(
            StructuralProof(
                "an eventually-zero sequence with constant entries is zero from "
                "some index on, hence identically zero; only the zero function "
                "embeds into the ideal"
            )
        )
    unit = unit_detection(ideal, domain, coefficient_bound, margin)
    if unit is not None:
        return ContainsUnit(unit.sequence, unit.lower_bound)
    if len(ideal.generators) == 1:
        certificate = zero_density_certificate(ideal, domain, cell_width, nu_max)
        if certificate is not None:
            return OffDiagonal(certificate)
        return OffDiagInconclusive(
            "no unit found and the zero-density search left uncovered cells"
        )
    return OffDiagInconclusive(
        "no unit found; zero-density certification only covers single generators"
    )


# ---------------------------------------------------------------------------
# derivation closure


@dataclass(frozen=True, slots=True)
class Closed:
    note: str = ""

    def to_dict(self):
        return {"verdict": "closed", "note": self.note}


@dataclass(frozen=True, slots=True)
class NotClosed:
    generator_position: int
    order: int
    witness: MembershipWitness

    def to_dict(self):
        return {
            "verdict": "not-closed",
            "generator_position": self.generator_position,
            "order": self.order,
            "witness": self.witness.to_dict(),
        }


@dataclass(frozen=True, slots=True)
class ClosureUnknown:
    reason: str = ""

    def to_dict(self):
        return {"verdict": "unknown", "reason": self.reason}


def derivation_closure(ideal, order=1, domain=None):
    """Is the ideal stable under entry-wise derivatives up to the order?

    Eventually-zero ideals are structurally stable.  For finitely generated
    ideals each generator derivative goes through membership; one NotInIdeal
    settles the question, anything Unknown keeps it open.
    """
    if not isinstance(order, int) or order < 1:
        raise ValueError("derivation order must be a positive integer")
    if isinstance(ideal, EventuallyZero):
        return Closed("derivatives of finitely supported sequences stay finitely supported")
    unknown_reason = None
    for position, generator in enumerate(ideal.generators):
        for p in range(1, order + 1):
            verdict = membership(seq_derive(generator, p), ideal, domain)
            if isinstance(verdict, NotInIdeal):
                return NotClosed(position, p, verdict.witness)
            if isinstance(verdict, MembershipUnknown):
                unknown_reason = (
                    f"membership of generator {position} derivative order {p}: "
                    f"{verdict.reason}"
                )
    if unknown_reason is not None:
        return ClosureUnknown(unknown_reason)
    return Closed("every generator derivative factored over the generators")


# ---------------------------------------------------------------------------
# demo


def no_largest_ideal_demo(
    domain=None,
    first_generator="1 + sin(nu*x)",
    second_generator="1 + cos(nu*x)",
    cell_width=0.05,
    nu_max=200,
):
    """Two separately admissible ideals whose sum is improper.

    Each principal ideal gets a zero-density certificate, so each one meets
    the diagonal constants only in zero.  Their sum, however, contains a
    combination of the generators bounded away from zero -- a unit -- so no
    admissible ideal can contain both, and no largest admissible ideal
    exists.
    """
    domain = domain or DomainInterval(0.0, 2.0 * math.pi)
    first = generated_by(first_generator)
    second = generated_by(second_generator)

    stages = []

    for name, ideal in (
        ("off-diagonality-first", first),
        ("off-diagonality-second", second),
    ):
        with stage(name, stages) as entry:
            verdict = off_diagonality(ideal, domain, cell_width, nu_max)
            payload = verdict.to_dict()
            if isinstance(verdict, OffDiagonal) and isinstance(
                verdict.certificate, ZeroDensityCertificate
            ):
                summary = dict(payload["certificate"])
                summary["cells"] = summary["cells"][:4] + (
                    ["..."] if len(summary["cells"]) > 4 else []
                )
                payload = {"verdict": payload["verdict"], "certificate": summary}
            entry["ideal"] = ideal.to_dict()
            entry["outcome"] = payload
            entry["passed"] = isinstance(verdict, OffDiagonal)

    with stage("ideal-sum", stages) as entry:
        try:
            combined = ideal_sum(first, second)
            entry["outcome"] = combined.to_dict()
            entry["passed"] = len(combined.generators) == 2
        except ValueError as err:
            combined = first
            entry["outcome"] = {"error": str(err)}
            entry["passed"] = False

    with stage("unit-witness", stages) as entry:
        unit = unit_detection(combined, domain)
        entry["outcome"] = unit.to_dict() if unit else {"witness": None}
        entry["passed"] = unit is not None

    all_passed = all(entry["passed"] for entry in stages)
    if all_passed:
        conclusion = (
            "both ideals admit zero-density certificates, yet their sum contains "
            f"a combination bounded below by {unit.lower_bound:.6f} > 0; the sum "
            "is improper, so no admissible ideal contains both and there is no "
            "largest admissible ideal"
        )
    else:
        conclusion = (
            "expected pattern not reproduced for these generators; "
            "the demo is not applicable"
        )

    return {
        "demo": "no-largest-ideal",
        "parameters": {
            "domain": [domain.lower, domain.upper],
            "first_generator": to_string(simplify(first.generators[0].tail)),
            "second_generator": to_string(simplify(second.generators[0].tail)),
            "cell_width": cell_width,
            "nu_max": nu_max,
        },
        "stages": stages,
        "all_stages_passed": all_passed,
        "conclusion": conclusion,
    }
