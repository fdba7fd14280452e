"""Ideal specifications, membership evidence, and off-diagonality certificates.

Two ideal species are supported: the eventually-zero sequences (membership is
a decision procedure on the normal form) and finitely generated ideals, where
membership is a semi-decision.  InIdeal verdicts carry an explicit
factorization that is re-multiplied at random samples before being returned;
NotInIdeal verdicts carry a root of the first generator where every generator
is below 1e-10 while the candidate stays above 1e-6, which is evidence against
any moderately bounded cofactor rather than a proof.  Everything else is
Unknown.  Both checks evaluate each entry in one array call per index and
hold to one rule: an entry is defined at a point only when its value is
finite and none of its denominators is zero there (``expr._defined_values``).
A factorization with an undefined sample is not verified, and a witness is
never a point where an entry is undefined.

The off-diagonality question for an ideal -- does it meet the diagonal
constant sequences only in zero -- is answered positively by a zero-density
certificate (a root of some entry of the generator in every cell of the
domain, so a constant trapped in the ideal must vanish on a grid of the
certificate's resolution) and negatively by a unit witness (a small integer
combination of generators bounded away from zero, which makes the ideal
improper).  The two successful outcomes are mutually exclusive.

Certificates and witnesses share one root finder.  At index nu a root is an
exact zero on a grid, or a sign change between adjacent grid points, of a
root factor (a * part of a product, never a / part; the base of a positive
power; the operand of a negation), or a closed-form root of a factor
c +- c*sin|cos(u) with u linear in x.  A certificate brackets every cell
first and bisects all its brackets in one lane-wise pass; each root must
leave the entry below 1e-8, which rules out a sign change across a pole.  A
near-zero minimum with neither, such as that of 1.000000001 + sin, is no root.
The witness scan brackets index by index and bisects the brackets of 1, 1,
2, 4, 8, ... consecutive indices in one pass.  Bisection is lane-wise and
each lane carries its own index, so a root is the same whichever lanes share
its pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from ._numutil import bisect_lanes
from ._report import Record, Unknown, all_passed, stage
from .expr import DomainInterval, Num, simplify, to_string
from .pairing import MAX_GRID_NODES, WORK_BUDGET
from .sequences import (
    SmoothSequence,
    seq_derive,
    sequence_is_zero,
    smooth_sequence,
)

VANISH_TOL = 1e-10
NONVANISH_TOL = 1e-6
FACTORIZATION_TOL = 1e-10
ROOT_RESIDUAL_TOL = 1e-8
UNIT_COEFFICIENT_BOUND = 3
UNIT_LATTICE_NUS = (1, 2, 3, 4, 6, 8, 12, 16)
UNIT_LATTICE_X_COUNT = 8192
SCAN_NU_LIMIT = 32
SCAN_GRID = 2048
VERIFICATION_SAMPLES = 100
_VERIFICATION_SEED = 20260815


def _scan_plan(domain, cell_width, nu_max):
    """The certificate's cell count on the domain and its grid size at each
    index from 1 to nu_max, or to WORK_BUDGET // 9 + 1 if that is smaller.  Its
    first grid has at least 8 nodes a cell and one more, so a count whose grid
    would pass MAX_GRID_NODES is refused before anything is sampled."""
    cells, most = domain.length / cell_width, (MAX_GRID_NODES - 1) // 8
    if cells > most:
        raise ValueError(
            f"cell width must be finite and positive and leave at most {most} cells "
            f"on the domain, got {cell_width!r} ({cells:.6g} cells)"
        )
    cell_count = max(1, math.ceil(cells))
    # every grid has at least 9 nodes, so the indices past WORK_BUDGET // 9 need not be summed
    indices = np.arange(1, min(nu_max, WORK_BUDGET // 9 + 1) + 1)
    step = np.minimum(domain.length / cell_count / 8.0, 2.0 * math.pi / (8.0 * indices))
    sizes = np.ceil(domain.length / step).astype(int) + 1
    return cell_count, sizes


# ---------------------------------------------------------------------------
# ideal species


@dataclass(frozen=True, slots=True)
class EventuallyZero(Record):
    """Sequences with only finitely many nonzero entries."""

    key = "kind"
    tag = "eventually-zero"


@dataclass(frozen=True, slots=True)
class FinitelyGenerated(Record):
    """At least one generator: cli refuses an empty list, and ideal_sum an empty union."""

    key = "kind"
    tag = "finitely-generated"
    generators: tuple


def generated_by(*generators):
    """Finitely generated ideal from sequences."""
    return FinitelyGenerated(generators)


def ideal_sum(first, second):
    """Ideal generated by the union of the generator lists, deduplicated."""
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
class MembershipWitness(Record):
    nu: int
    x: float
    sequence_value: float
    generator_values: tuple
    note: str = ""


@dataclass(frozen=True, slots=True)
class InIdeal(Record):
    tag = "in-ideal"
    factorization: tuple  # (generator, cofactor sequence) pairs
    verification_residual: float = 0.0

    def to_dict(self):
        return {
            self.key: self.tag,
            "factorization": [
                {"generator": g.to_dict(), "cofactor": t.to_dict()}
                for g, t in self.factorization
            ],
            "verification_residual": self.verification_residual,
        }


@dataclass(frozen=True, slots=True)
class NotInIdeal(Record):
    tag = "not-in-ideal"
    witness: MembershipWitness


def _divide_term(coefficient, mono, gen_terms):
    """Divide one term of a term map by a generator tail's map; None when it fails.

    Single-term generators divide factor by factor; multi-term generators
    must appear as an atomic sum base.  Division never introduces a
    denominator the original term did not already carry.
    """
    lead, gen_mono = ex._as_single_term(gen_terms)
    factors = dict(mono)
    for base, gexp in gen_mono:
        have = factors.get(base, 0)
        new = have - gexp
        if new < 0 and (have >= 0 or len(gen_terms) > 1):
            return None
        if new == 0:
            factors.pop(base, None)
        else:
            factors[base] = new
    return coefficient / lead, ex._monomial(factors)


def _proportional(remainder, gen_terms):
    """Scalar lambda with remainder == lambda * gen_terms, both term maps, else None."""
    if len(remainder) != len(gen_terms):
        return None
    scale = None
    for gmono, gc in ex._ordered_terms(gen_terms):
        c = remainder.get(gmono)
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
    gen_maps = [ex._terms(g.tail) for g in ideal.generators]
    if not all(gen_maps):
        return None
    assigned = [{} for _ in gen_maps]  # per generator, the cofactor's term map
    remainder = {}
    for mono, c in ex._terms(s.tail).items():
        for quotients, gen_terms in zip(assigned, gen_maps):
            quotient = _divide_term(c, mono, gen_terms)
            if quotient is not None:
                qc, qmono = quotient
                quotients[qmono] = quotients.get(qmono, 0.0) + qc
                break
        else:
            remainder[mono] = c
    if remainder:
        for quotients, gen_terms in zip(assigned, gen_maps):
            scale = _proportional(remainder, gen_terms)
            if scale is not None:
                quotients[()] = quotients.get((), 0.0) + scale
                break
        else:
            return None
    cofactors = [SmoothSequence(ex._from_terms(terms)) for terms in assigned]
    return tuple(zip(ideal.generators, cofactors))


def _defined(sequence, index, points):
    """Entry values at the points, nan where the entry is undefined."""
    return ex._defined_values(sequence._entry(index), index, points)


def _verify_factorization(s, factorization, domain):
    """Max |s - sum(g*t)| over random samples, inf if an entry is undefined at
    one; exercises exceptional entries.  Every sampled index is one at which
    s, each generator and each cofactor is defined."""
    rng = random.Random(_VERIFICATION_SEED)
    start = max(q.start_index for pair in [(s,), *factorization] for q in pair)
    indices = [i for i, _ in s.exceptional if i >= start]
    for g, _ in factorization:
        indices.extend(i for i, _ in g.exceptional if i >= start)
    samples = {}  # index -> positions of its samples
    points = []
    for k in range(VERIFICATION_SAMPLES):
        if indices and k % 10 == 9:
            index = indices[(k // 10) % len(indices)]
        else:
            index = rng.randint(start, max(start, SCAN_NU_LIMIT))
        samples.setdefault(index, []).append(k)
        points.append(rng.uniform(domain.lower, domain.upper))
    points = np.array(points)
    residuals = np.empty(len(points))
    for index, positions in samples.items():
        at = points[positions]
        total = 0.0
        for g, t in factorization:
            total = total + _defined(g, index, at) * _defined(t, index, at)
        residuals[positions] = np.abs(_defined(s, index, at) - total)
    # nan marks an undefined entry, and no residual is then verified
    return math.inf if np.isnan(residuals).any() else float(np.max(residuals))


def _root_factors(e):
    """Root factors of e, taken apart recursively (see the module docstring)."""
    match e:
        case ex.Mul(parts):
            return [f for op, part in parts if op == "*" for f in _root_factors(part)]
        case ex.Pow(base, k) if k > 0:
            return _root_factors(base)
        case ex.Neg(a):
            return _root_factors(a)
    return [e]


def _touching(factor):
    """Compiled (u, du/dx) and the phase when factor is c +- c*sin|cos(u) with u
    linear in x, else None; such a factor vanishes where u = phase + 2*pi*m."""
    terms = ex._terms(factor)
    constant = terms.get(())
    if constant is None or len(terms) != 2:
        return None
    ((mono, c),) = [(mono, c) for mono, c in terms.items() if mono]
    match mono:
        case ((ex.Call("sin" | "cos" as fn, u), 1),) if abs(c) == abs(constant):
            if ex.is_zero(ex.diff(du := ex.diff(u))):
                level = -constant / c  # where sin|cos(u) = +-1
                phase = (level if fn == "sin" else 1.0 - level) * 0.5 * math.pi
                return ex._compiled(u), ex._compiled(du), phase
    return None


class _RootFinder:
    """Root brackets of one sequence's entries, index by index, on a grid of x,
    and their roots with |entry| there (see the module docstring).  Run it
    under an error state that ignores everything."""

    def __init__(self, sequence):
        self.sequence = sequence
        self.plans = {}  # id(entry) -> [(factor id, closed form or None)]
        self.pairs = []  # factor id -> (factor, entry)

    def _plan(self, index):
        entry = self.sequence._entry(index)
        plan = self.plans.get(id(entry))
        if plan is None:
            plan = self.plans[id(entry)] = []
            for factor in dict.fromkeys(_root_factors(entry)):
                plan.append((len(self.pairs), _touching(factor)))
                self.pairs.append((factor, entry))
        return plan

    def brackets(self, index, xs):
        """(factor ids, lo, hi) of the root brackets at index, ordered by lo;
        a closed-form root or an exact zero is the bracket [root, root]."""
        parts = []
        for fid, form in self._plan(index):
            if form is None:
                values = ex.evaluate_on_grid(self.pairs[fid][0], index, xs)
                zero = values == 0.0
                k = np.flatnonzero(zero | np.append(values[:-1] * values[1:] < 0.0, False))
                lo, hi = xs[k], xs[np.where(zero[k], k, k + 1)]
            else:
                # each grid interval takes the first root above its smaller u
                # if it lies inside; a zero or non-finite slope leaves none
                u, du, phase = form
                slope, offset = du(np.float64(index), 0.0), u(np.float64(index), 0.0)
                ends = slope * xs + offset
                low = np.minimum(ends[:-1], ends[1:])
                roots = (phase + math.tau * np.ceil((low - phase) / math.tau) - offset) / slope
                lo = hi = roots[(xs[:-1] <= roots) & (roots < xs[1:])]
            parts.append((np.full(len(lo), fid), lo, hi))
        ids, lo, hi = (np.concatenate(arrays) for arrays in zip(*parts))
        order = np.argsort(lo, kind="stable")
        return ids[order], lo[order], hi[order]

    def roots(self, ids, nus, lo, hi):
        """(points, |entry| at the points): each bracket bisected at its own index."""
        factors, entries = zip(*self.pairs)
        points = bisect_lanes(ex._on_lanes(factors, ids, nus.astype(float)), lo, hi)
        return points, np.abs(ex._on_lanes(entries, ids, nus.astype(float))(points))


def _scan_for_witness(s, generators, domain):
    """Root of the first generator where every generator vanishes but s does not.

    Each scan index is bracketed on its own and keeps its first 64 brackets;
    the brackets of a chunk of 1, 1, 2, 4, 8, ... consecutive indices are
    bisected in one pass.  The chunk's indices are then screened in order,
    so the hit is the one an index-by-index scan finds, and a hit at the
    m-th index has bisected the brackets of fewer than 2m indices.
    """
    xs = domain.interior_grid(SCAN_GRID)
    start = max(s.start_index, *(g.start_index for g in generators))
    indices = sorted({*range(1, SCAN_NU_LIMIT + 1), *(index for index, _ in s.exceptional)})
    indices = [index for index in indices if index >= start]
    finder = _RootFinder(generators[0])
    done = 0
    with np.errstate(all="ignore"):
        while done < len(indices):
            chunk = indices[done : 2 * done or 1]
            done += len(chunk)
            brackets = [[part[:64] for part in finder.brackets(index, xs)] for index in chunk]
            ids, lo, hi = (np.concatenate(parts) for parts in zip(*brackets))
            if not len(ids):
                continue
            counts = [len(part) for part, _, _ in brackets]
            roots, residuals = finder.roots(ids, np.repeat(chunk, counts), lo, hi)
            ends = np.cumsum(counts)
            for index, first, end in zip(chunk, ends - counts, ends):
                if first == end:
                    continue
                # lane values screen the roots; the entries' values on the points decide
                points = roots[first:end]
                values = _defined(s, index, points)
                screened = (residuals[first:end] < VANISH_TOL) & (np.abs(values) > NONVANISH_TOL)
                points, values = points[screened], values[screened]
                vanishing = np.array([_defined(g, index, points) for g in generators])
                hits = np.flatnonzero((np.abs(vanishing) < VANISH_TOL).all(axis=0))
                if len(hits):
                    k = hits[0]
                    return MembershipWitness(
                        index,
                        points[k].item(),
                        values[k].item(),
                        tuple(vanishing[:, k].tolist()),
                        note="all generators vanish to tolerance at this point",
                    )
    return None


def _eventually_zero_witness(s, domain):
    xs = domain.interior_grid(256)
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


def membership(s, ideal, domain):
    """Membership evidence for a sequence in an ideal.

    Eventually-zero ideals are decided structurally (never Unknown).  For
    finitely generated ideals the verdict is a semi-decision: a verified
    factorization, a vanishing-point witness, or Unknown.
    """
    if isinstance(ideal, EventuallyZero):
        if ex.is_zero(s.tail):
            return InIdeal(factorization=())
        return NotInIdeal(_eventually_zero_witness(s, domain))

    factorization = _match_factorization(s, ideal)
    if factorization is not None:
        residual = _verify_factorization(s, factorization, domain)
        if residual < FACTORIZATION_TOL:
            return InIdeal(factorization, residual)

    witness = _scan_for_witness(s, ideal.generators, domain)
    if witness is not None:
        return NotInIdeal(witness)
    return Unknown("no factorization matched and no vanishing-point witness found")


# ---------------------------------------------------------------------------
# unit detection


@dataclass(frozen=True, slots=True)
class UnitWitness(Record):
    sequence: SmoothSequence
    lower_bound: float
    combination: tuple  # (coefficient, generator position) pairs


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


def unit_detection(ideal, domain, margin):
    """Search small integer combinations of generators for a positive floor.

    Returns a witness whose sampled infimum over the (nu, x) lattice is at
    least the margin, or None.  The infimum is a sampled lower bound, not an
    exact one; the lattice is dense enough that the quadratic sampling error
    stays well below the margin for the index range used.
    """
    xs = domain.interior_grid(UNIT_LATTICE_X_COUNT)
    generators = ideal.generators
    cache = {}

    def values(gi, index):
        key = (gi, index)
        if key not in cache:
            cache[key] = generators[gi].term_values(index, xs)
        return cache[key]

    for combination in _candidate_combinations(len(generators), UNIT_COEFFICIENT_BOUND):
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
class CertificateCell(Record):
    lower: float
    upper: float
    nu: int
    root: float
    residual: float


@dataclass(frozen=True, slots=True)
class ZeroDensityCertificate(Record):
    domain: DomainInterval
    cell_width: float
    nu_max: int
    cells: tuple

    def to_dict(self):
        return Record.to_dict(self) | {
            "cell_count": len(self.cells),
            "max_residual": max((c.residual for c in self.cells), default=0.0),
        }


def zero_density_certificate(ideal, domain, cell_width, nu_max):
    """Root of the single generator's entries in every cell of the domain, or None.

    A constant sequence lying in the ideal must vanish at every certified
    root, so its zeros are at least cell-width dense; the certificate is the
    finite form of that argument at this resolution.
    """
    cell_count, sizes = _scan_plan(domain, cell_width, nu_max)
    generator = ideal.generators[0]
    actual_width = domain.length / cell_count
    edges = domain.lower + actual_width * np.arange(cell_count + 1)
    finder = _RootFinder(generator)
    # the bracket each cell took: its factor, its index (0 for none) and its ends
    cell_ids, cell_nus = np.zeros((2, cell_count), int)
    cell_lo, cell_hi = np.zeros((2, cell_count))

    xs = np.empty(0)
    with np.errstate(all="ignore"):
        for index in range(max(1, generator.start_index), nu_max + 1):
            open_cells = cell_nus == 0
            if not open_cells.any():
                break
            # the step never grows with the index, so each grid size is built once
            if len(xs) != sizes[index - 1]:
                xs = np.linspace(domain.lower, domain.upper, sizes[index - 1])
            ids, lo, hi = finder.brackets(index, xs)
            # a bracket is a candidate for the cell holding lo and for the one
            # holding hi, which differ for a root on an edge; np.unique keeps
            # each open cell's first candidate
            pick = np.concatenate((np.arange(len(lo)), np.arange(len(lo))))
            cell = np.concatenate((np.searchsorted(edges, lo, "right"), np.searchsorted(edges, hi)))
            cell = np.minimum(np.maximum(cell - 1, 0), cell_count - 1)
            inside = (edges[cell] <= lo[pick]) & (hi[pick] <= edges[cell + 1]) & open_cells[cell]
            cells, first = np.unique(cell[inside], return_index=True)
            chosen = pick[np.flatnonzero(inside)[first]]
            cell_ids[cells], cell_nus[cells] = ids[chosen], index
            cell_lo[cells], cell_hi[cells] = lo[chosen], hi[chosen]
        if not cell_nus.all():
            return None
        roots, residuals = finder.roots(cell_ids, cell_nus, cell_lo, cell_hi)
    if not (residuals < ROOT_RESIDUAL_TOL).all():
        return None
    bounds = edges[:-1].tolist(), edges[1:].tolist(), cell_nus.tolist()
    cells = tuple(map(CertificateCell, *bounds, roots.tolist(), residuals.tolist()))
    return ZeroDensityCertificate(domain, actual_width, nu_max, cells)


# ---------------------------------------------------------------------------
# off-diagonality


@dataclass(frozen=True, slots=True)
class StructuralProof(Record):
    key = "kind"
    tag = "structural"
    statement: str


@dataclass(frozen=True, slots=True)
class OffDiagonal(Record):
    tag = "off-diagonal"
    certificate: object


@dataclass(frozen=True, slots=True)
class ContainsUnit(Record):
    tag = "contains-unit"
    witness: SmoothSequence
    lower_bound: float


class OffDiagInconclusive(Unknown):
    __slots__ = ()
    tag = "inconclusive"


def off_diagonality(ideal, domain, cell_width, nu_max, margin):
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
    unit = unit_detection(ideal, domain, margin)
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
class Closed(Record):
    tag = "closed"
    note: str = ""


@dataclass(frozen=True, slots=True)
class NotClosed(Record):
    tag = "not-closed"
    generator_position: int
    order: int
    witness: MembershipWitness


def derivation_closure(ideal, domain):
    """Is the ideal stable under the entry-wise first derivative?

    Eventually-zero ideals are structurally stable.  For finitely generated
    ideals each generator derivative goes through membership; one NotInIdeal
    settles the question, anything Unknown keeps it open.
    """
    if isinstance(ideal, EventuallyZero):
        return Closed("derivatives of finitely supported sequences stay finitely supported")
    unknown_reason = None
    for position, generator in enumerate(ideal.generators):
        verdict = membership(seq_derive(generator), ideal, domain)
        if isinstance(verdict, NotInIdeal):
            return NotClosed(position, 1, verdict.witness)
        if not verdict.definite:
            unknown_reason = (
                f"membership of generator {position} derivative order 1: {verdict.reason}"
            )
    if unknown_reason is not None:
        return Unknown(unknown_reason)
    return Closed("every generator derivative factored over the generators")


# ---------------------------------------------------------------------------
# demo


def no_largest_ideal_demo(domain, cell_width, nu_max, margin, first_generator, second_generator):
    """Two separately admissible ideals whose sum is improper.

    Each principal ideal gets a zero-density certificate, so each one meets
    the diagonal constants only in zero.  Their sum, however, contains a
    combination of the generators bounded away from zero -- a unit -- so no
    admissible ideal can contain both, and no largest admissible ideal
    exists.
    """
    first = generated_by(first_generator)
    second = generated_by(second_generator)

    stages = []

    for name, ideal in (
        ("off-diagonality-first", first),
        ("off-diagonality-second", second),
    ):
        with stage(name, stages) as entry:
            verdict = off_diagonality(ideal, domain, cell_width, nu_max, margin)
            payload = verdict.to_dict()
            if isinstance(verdict, OffDiagonal) and isinstance(
                verdict.certificate, ZeroDensityCertificate
            ):
                cells = payload["certificate"]["cells"]
                payload["certificate"]["cells"] = cells[:4] + (["..."] if len(cells) > 4 else [])
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
        unit = unit_detection(combined, domain, margin)
        entry["outcome"] = unit.to_dict() if unit else {"witness": None}
        entry["passed"] = unit is not None

    if all_passed(stages):
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
        "parameters": {
            "domain": domain.to_dict(),
            "first_generator": to_string(simplify(first.generators[0].tail)),
            "second_generator": to_string(simplify(second.generators[0].tail)),
            "cell_width": cell_width,
            "nu_max": nu_max,
        },
        "stages": stages,
        "conclusion": conclusion,
    }
