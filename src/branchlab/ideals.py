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

Off-diagonality -- does the ideal meet the diagonal constant sequences only
in zero -- is refuted by a unit witness (a small integer combination of
generators bounded away from zero) and proved from the form of a single
generator: a root factor c + c'*sin|cos(alpha(nu)*x + beta) of its tail,
numbers |c| <= |c'|, alpha a polynomial in nu of degree at least 1, has
zeros at most 2*pi/|alpha(nu)| apart, so the zeros of all entries are dense
and a constant in the ideal vanishes.  Closed-form roots at one index in
every cell witness the proof; any other ideal is inconclusive.

Membership witnesses are roots at index nu: an exact zero on a grid or a
sign change between adjacent grid points of a root factor (a * part of a
product, never a / part; the base of a positive power; the operand of a
negation), or a closed-form root of c +- c*sin|cos(u) with u linear in x;
the near-zero minimum of 1.000000001 + sin is no root, and a factor whose
enclosure over the scanned indices and the grid's span keeps one sign, as
2 + sin(nu*x) does, is not sampled.  The brackets of 1, 1, 2, 4, 8, ...
consecutive indices are bisected in one lane-wise pass, each lane at its
own index, so a root does not depend on its pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from ._numutil import bisect_lanes
from ._report import Record, Unknown, all_passed, stage
from .expr import DomainInterval, Num, simplify, to_string
from .pairing import MAX_GRID_NODES
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
# the highest degree in nu to which a power of a sum is expanded
_EXPANDED_DEGREE = 64
_VERIFICATION_SEED = 20260815


def _cell_count(domain, cell_width):
    """The certificate's cell count on the domain, refused above (MAX_GRID_NODES - 1) // 8."""
    cells, most = domain.length / cell_width, (MAX_GRID_NODES - 1) // 8
    if cells > most:
        raise ValueError(
            f"cell width must be finite and positive and leave at most {most} cells "
            f"on the domain, got {cell_width!r} ({cells:.6g} cells)"
        )
    return max(1, math.ceil(cells))


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


def _nu_coefficients(e):
    """{degree: coefficient} of e as a polynomial in nu, pi read as its value and a
    sum that carries a positive power expanded up to degree _EXPANDED_DEGREE, or None."""
    coefficients = {}
    for mono, c in ex._terms(e).items():
        product = {0: c}
        for base, k in mono:
            if base is ex.pi:
                factor = {0: ex._power(math.pi, k)}
            elif base is ex.nu and k > 0:
                factor = {k: 1.0}
            elif isinstance(base, ex.Add) and k > 0:
                inner = _nu_coefficients(base)
                if inner is None or k * max(inner) > _EXPANDED_DEGREE:
                    return None
                factor = {0: 1.0}
                for _ in range(k):
                    factor = _times(factor, inner)
            else:
                return None
            product = _times(product, factor)
        for k, c in product.items():
            coefficients[k] = coefficients.get(k, 0.0) + c
    return coefficients


def _times(p, q):
    """The product of two polynomials given as {degree: coefficient}."""
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0.0) + a * b
    return out


def _nu_polynomial(e):
    """(|coefficient of nu^d|, sum of the other |coefficients|) of e as a polynomial
    in nu of degree d >= 1 with finite coefficients (``_nu_coefficients``), or None.
    A coefficient that cancels to 0 does not count toward the degree."""
    coefficients = _nu_coefficients(e)
    if coefficients is None or not all(map(math.isfinite, coefficients.values())):
        return None
    magnitudes = {k: abs(c) for k, c in coefficients.items() if c != 0.0}
    degree = max(magnitudes, default=0)
    return None if degree < 1 else (magnitudes.pop(degree), sum(magnitudes.values()))


class _Wave(NamedTuple):
    """A root factor c + c'*sin|cos(u), numbers |c| <= |c'| != 0, u linear in x with alpha =
    du/dx; u and alpha compiled.  Its roots are where u is a phase (one if |c| = |c'|, else
    two) plus 2*pi*m, at most pi + 2*asin(ratio) apart in u.  growth is _nu_polynomial(alpha):
    for nu >= 1, |alpha(nu)| >= lead*nu - rest, so the zeros of all entries are dense."""

    factor: ex.Expr
    ratio: float  # |c/c'|
    alpha: ex.Expr
    u: Callable
    du: Callable
    phases: tuple
    growth: tuple | None

    def first_roots(self, index, edges):
        """At index, per interval between consecutive edges, the x where u first reaches
        a root at or above its smaller end; a zero or non-finite slope leaves no finite x."""
        slope, offset = self.du(np.float64(index), 0.0), self.u(np.float64(index), 0.0)
        ends = slope * edges + offset
        low = np.minimum(ends[:-1], ends[1:])
        first = [phase + math.tau * np.ceil((low - phase) / math.tau) for phase in self.phases]
        return (np.min(first, axis=0) - offset) / slope


def _wave(factor):
    """The factor as a _Wave, or None."""
    terms = ex._terms(factor)
    constant = terms.get((), 0.0)
    # besides the constant, one term: c' times the first power of sin|cos(u)
    match [(mono, c) for mono, c in terms.items() if mono]:
        case [(((ex.Call("sin" | "cos" as fn, u), 1),), c)] if abs(constant) <= abs(c) < math.inf:
            if ex.is_zero(ex.diff(alpha := ex.diff(u))):
                level = -constant / c  # the value sin|cos(u) takes at a root
                first = math.asin(level) if fn == "sin" else math.acos(level)
                second = math.pi - first if fn == "sin" else -first
                phases = (first,) if abs(level) == 1.0 else (first, second)
                compiled = ex._compiled(u), ex._compiled(alpha)
                return _Wave(factor, abs(level), alpha, *compiled, phases, _nu_polynomial(alpha))
    return None


class _RootFinder:
    """Root brackets of one sequence's entries, index by index, on a grid of x,
    and their roots with |entry| there (see the module docstring).  Run it
    under an error state that ignores everything.

    box is (nu_lo, nu_hi, x_lo, x_hi), holding every index and grid point
    it is asked about.  A root factor whose enclosure over the box
    (``expr._enclose``) lies above 0 or below 0 is proved to have no zero and
    no sign change on any such grid, so it is not sampled."""

    def __init__(self, sequence, box):
        self.sequence = sequence
        self.box = box
        self.plans = {}  # id(entry) -> [(factor id, touching _Wave or None)]
        self.pairs = []  # factor id -> (factor, entry)

    def _plan(self, index):
        entry = self.sequence._entry(index)
        plan = self.plans.get(id(entry))
        if plan is None:
            plan = self.plans[id(entry)] = []
            for factor in dict.fromkeys(_root_factors(entry)):
                lo, hi = ex._enclose(factor, self.box)
                if lo > 0.0 or hi < 0.0:
                    continue  # of one sign on the box: no bracket to find
                wave = _wave(factor)
                plan.append((len(self.pairs), wave if wave and len(wave.phases) == 1 else None))
                self.pairs.append((factor, entry))
        return plan

    def brackets(self, index, xs):
        """(factor ids, lo, hi) of the root brackets at index, ordered by lo;
        a closed-form root or an exact zero is the bracket [root, root]."""
        parts = [(np.zeros(0, int), xs[:0], xs[:0])]  # empty arrays once no factor is left
        for fid, form in self._plan(index):
            if form is None:
                values = ex.evaluate_on_grid(self.pairs[fid][0], index, xs)
                zero = values == 0.0
                k = np.flatnonzero(zero | np.append(values[:-1] * values[1:] < 0.0, False))
                lo, hi = xs[k], xs[np.where(zero[k], k, k + 1)]
            else:
                # each grid interval takes its first root if it lies inside
                roots = form.first_roots(index, xs)
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
    m-th index has bisected the brackets of fewer than 2m indices.  The
    finder's box runs from the first to the last scanned index and from the
    first to the last grid point, so a root factor its enclosure proves
    nonzero there is never sampled, and a chunk left without brackets is
    not bisected.
    """
    xs = domain.interior_grid(SCAN_GRID)
    start = max(s.start_index, *(g.start_index for g in generators))
    indices = sorted({*range(1, SCAN_NU_LIMIT + 1), *(index for index, _ in s.exceptional)})
    indices = [index for index in indices if index >= start]
    if not indices:
        return None
    box = (float(indices[0]), float(indices[-1]), float(xs[0]), float(xs[-1]))
    finder = _RootFinder(generators[0], box)
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
    factor: str  # the tail's root factor c + c'*sin|cos(u) with dense zeros
    ratio: float  # |c/c'|
    alpha: str  # du/dx, a polynomial in nu
    cells: tuple

    def to_dict(self):
        return Record.to_dict(self) | {
            "cell_count": len(self.cells),
            "max_residual": max((c.residual for c in self.cells), default=0.0),
        }


def zero_density_certificate(ideal, domain, cell_width, nu_max):
    """Roots of the single generator at one index in every cell of the domain, or None.

    The structural proof is a root factor of the tail that is a _Wave with
    growth.  The cells witness it at the first served index nu* past the bound
    from which |alpha| * width passes the widest gap in u, each at its first
    root, with the entry below ROOT_RESIDUAL_TOL there.  None when the tail has no such
    factor, nu* passes nu_max or a root misses the tolerance.
    """
    cell_count, generator = _cell_count(domain, cell_width), ideal.generators[0]
    waves = map(_wave, dict.fromkeys(_root_factors(generator.tail)))
    wave = next((wave for wave in waves if wave is not None and wave.growth), None)
    if wave is None:
        return None
    (lead, rest), width = wave.growth, domain.length / cell_count
    bound = (rest + (math.pi + 2.0 * math.asin(wave.ratio)) / width) / lead
    exceptions = {index for index, _ in generator.exceptional}
    first = max(generator.start_index, math.ceil(min(bound, nu_max + 1)))
    nu = min(set(range(first, first + len(exceptions) + 1)) - exceptions)
    edges = domain.lower + width * np.arange(cell_count + 1)
    with np.errstate(all="ignore"):
        # a root that rounding put past its cell's edge is moved back onto it
        roots = np.clip(wave.first_roots(nu, edges), edges[:-1], edges[1:])
        residuals = np.abs(ex._defined_values(generator.tail, nu, roots))
    if nu > nu_max or not (residuals < ROOT_RESIDUAL_TOL).all():
        return None
    bounds = edges[:-1].tolist(), edges[1:].tolist(), [nu] * cell_count
    cells = tuple(map(CertificateCell, *bounds, roots.tolist(), residuals.tolist()))
    return ZeroDensityCertificate(domain, width, nu_max, to_string(wave.factor), wave.ratio,
                                  to_string(wave.alpha), cells)


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
            "no unit found and no root factor of the generator is c + c'*sin|cos(alpha*x "
            "+ beta) with numbers |c| <= |c'| and alpha a polynomial in nu of degree at "
            "least 1 whose closed-form roots fill every cell at an index up to nu-max"
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

    Each principal ideal gets a structural proof with its zero-density
    certificate, so each one meets the diagonal constants only in zero.
    Their sum, however, contains a combination of the generators bounded
    away from zero -- a unit -- so no admissible ideal can contain both, and
    no largest admissible ideal exists.
    """
    first, second = generated_by(first_generator), generated_by(second_generator)
    stages = []
    for name, ideal in (("off-diagonality-first", first), ("off-diagonality-second", second)):
        with stage(name, stages) as entry:
            verdict = off_diagonality(ideal, domain, cell_width, nu_max, margin)
            entry["ideal"], entry["outcome"] = ideal.to_dict(), verdict.to_dict()
            entry["passed"] = isinstance(verdict, OffDiagonal)
            if entry["passed"]:
                cells = entry["outcome"]["certificate"]["cells"]
                cells[4:] = ["..."] if len(cells) > 4 else []

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
