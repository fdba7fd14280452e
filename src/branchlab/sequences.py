"""Sequences of smooth functions indexed by a positive integer.

A sequence is a closed-form tail expression in x and nu together with a
finite table of exceptional entries (expressions in x only).  Arithmetic,
term-wise differentiation and composition with a one-variable operation all
act entry by entry, so the tail and each exceptional entry are
transformed independently and renormalized.

A sequence is admitted on a domain (``admission``) when every entry it has
is denominator-safe there: the tail at the first 64 indices it serves, from
the start on and past the exceptional indices, and each exception at its own
index.  Each denominator is proved by an interval enclosure first and sampled
only when that fails, with the verdicts of sampling alone.  ``ideal check``
records each generator's admission, ``gf`` and ``span independence`` refuse
an operand that is not admitted, and ``apply_smooth`` a composition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import expr as ex
from ._report import Record
from .expr import Expr, Num, simplify, substitute, to_string

RANK_THRESHOLD = 1e-8
SAMPLE_NUS = (1, 2, 3, 4, 5, 6, 7, 8)
DEFAULT_X_COUNT = 16


def _coerce_expr(value):
    return ex.parse(value) if isinstance(value, str) else value


@dataclass(frozen=True, slots=True)
class SmoothSequence(Record):
    """Tail expression plus finitely many exceptional entries.

    The tail is in x and nu, each entry in x alone at an index from the start
    on, and the start is at least 1.  Every builder keeps this: cli checks each
    literal where it reads it, and the operations here build from such parts.
    """

    tail: Expr
    exceptional: tuple = ()
    start_index: int = 1

    @property
    def exceptional_map(self):
        return dict(self.exceptional)

    def term(self, index):
        """Symbolic entry at the given index, as an expression in x."""
        return simplify(substitute(self._entry(index), "nu", Num(float(index))))

    def term_values(self, index, xs):
        """Vectorized entry values at the given index over an x grid."""
        return ex.evaluate_on_grid(self._entry(index), index, xs)

    def term_value(self, index, x_value):
        """Entry value at one point: a one-point grid."""
        return float(self.term_values(index, [x_value])[0])

    def _entry(self, index):
        """The exceptional entry at an index from the start on, else the tail."""
        if index < self.start_index:
            raise ValueError(
                f"sequence starts at index {self.start_index}, got {index}"
            )
        return self.exceptional_map.get(index, self.tail)

    def signature(self):
        """Canonical identity string, used for deduplication."""
        parts = [to_string(simplify(self.tail)), str(self.start_index)]
        for index, entry in sorted(self.exceptional):
            parts.append(f"{index}:{to_string(simplify(entry))}")
        return "|".join(parts)

    def __add__(self, other):
        return seq_add(self, other)

    def __mul__(self, other):
        return seq_mul(self, other)

    def __sub__(self, other):
        return seq_sub(self, other)

    def to_dict(self):
        out = {"tail": to_string(self.tail)}
        if self.exceptional:
            out["exceptions"] = {
                str(index): to_string(entry) for index, entry in sorted(self.exceptional)
            }
        if self.start_index != 1:
            out["start"] = self.start_index
        return out


def smooth_sequence(tail, exceptional=None, start_index=1):
    """Build a sequence from expressions or strings; exception keys may be strings."""
    entries = [(int(index), _coerce_expr(entry)) for index, entry in (exceptional or {}).items()]
    entries.sort(key=lambda pair: pair[0])
    return SmoothSequence(_coerce_expr(tail), tuple(entries), start_index)


def sequence_is_zero(s):
    """True when every entry normalizes to the literal 0."""
    if simplify(s.tail) != Num(0.0):
        return False
    return all(simplify(entry) == Num(0.0) for _, entry in s.exceptional)


def _combine(s, t, op):
    start = max(s.start_index, t.start_index)
    tail = simplify(op(s.tail, t.tail))
    indices = {i for i, _ in s.exceptional} | {i for i, _ in t.exceptional}
    entries = []
    for index in sorted(indices):
        if index < start:
            continue
        entries.append((index, simplify(op(s.term(index), t.term(index)))))
    return SmoothSequence(tail, tuple(entries), start)


def seq_add(s, t):
    """Entry-wise sum."""
    return _combine(s, t, lambda a, b: a + b)


def seq_mul(s, t):
    """Entry-wise product."""
    return _combine(s, t, lambda a, b: a * b)


def seq_sub(s, t):
    """Entry-wise difference."""
    # must subtract (a "-" term of an Add), not scale-then-add: negating via
    # Num(-1)* turns a multi-term tail into an atomic factor and equal tails
    # stop cancelling
    return _combine(s, t, lambda a, b: a - b)


def seq_derive(s, order=1):
    """Entry-wise derivative in x; the index variable is a constant."""
    tail = ex.diff(s.tail, order)
    entries = tuple((index, ex.diff(entry, order)) for index, entry in s.exceptional)
    return SmoothSequence(tail, entries, s.start_index)


def admission(s, domain):
    """The DenominatorSafety record of s on the domain; s is admitted when it is safe.

    The tail is sampled at the first SAFETY_NU_SAMPLES indices it serves: from
    the start on, past the exceptional indices.  Each exceptional entry is
    sampled at its own index, as one lattice row.  The first entry that is not
    safe decides, the tail first and then the exceptions by index; a safe
    record counts the denominators of every entry.
    """
    exceptions, first, samples = s.exceptional_map, s.start_index, ex.SAFETY_NU_SAMPLES
    served = [n for n in range(first, first + samples + len(exceptions)) if n not in exceptions]
    rows = [(s.tail, served[:samples])]
    rows += [(entry, [index]) for index, entry in s.exceptional]
    total = 0
    for entry, nus in rows:
        report = ex.denominator_safety(entry, domain, np.array(nus, dtype=float))
        if report.status is not ex.SafetyStatus.SAFE:
            return report
        total += report.denominator_count
    return replace(report, denominator_count=total)


def apply_smooth(outer, s, domain):
    """Compose a one-variable operation with every entry of s.

    The operation is an expression in the placeholder u; it is substituted
    symbolically.  The composed sequence must be admitted on the domain.
    """
    entries = tuple((index, simplify(substitute(outer, "u", e))) for index, e in s.exceptional)
    composed = SmoothSequence(simplify(substitute(outer, "u", s.tail)), entries, s.start_index)
    report = admission(composed, domain)
    if report.status is not ex.SafetyStatus.SAFE:
        raise ValueError(
            f"composition is not denominator-safe on the domain: {report.status.value} "
            f"(witness_nu {report.witness_nu}, witness_x {report.witness_x})"
        )
    return composed


# ---------------------------------------------------------------------------
# independence certificates


class SpanStatus(str, Enum):
    TRIVIAL_INTERSECTION = "trivial-intersection"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class IndependenceCertificate(Record):
    status: SpanStatus
    rank: int
    basis_size: int
    singular_values: tuple


def independence_certificate(basis, xs):
    """Full-column-rank test for a basis sampled at SAMPLE_NUS and the points xs.

    A full-rank matrix certifies that the basis is linearly independent, so
    two sub-spans whose concatenated bases pass have trivial intersection.
    Rank deficiency on a sample is never a dependence proof, hence
    inconclusive.
    """
    if len(SAMPLE_NUS) * len(xs) < len(basis) + 8:
        raise ValueError("grid must provide at least basis size + 8 sample pairs")
    # row (n, x) of column s, filled in place: no per-index or per-column copies
    samples = np.empty((len(SAMPLE_NUS), len(xs), len(basis)))
    for column, s in enumerate(basis):
        for row, n in enumerate(SAMPLE_NUS):
            samples[row, :, column] = s.term_values(n, xs)
    matrix = samples.reshape(-1, len(basis))
    if not np.all(np.isfinite(matrix)):
        raise ValueError("non-finite sample in the evaluation matrix")
    singular = np.linalg.svd(matrix, compute_uv=False)
    largest = float(singular[0]) if len(singular) else 0.0
    if largest == 0.0:
        rank = 0
    else:
        rank = int(np.sum(singular > RANK_THRESHOLD * largest))
    status = (
        SpanStatus.TRIVIAL_INTERSECTION
        if rank == len(basis)
        else SpanStatus.INCONCLUSIVE
    )
    return IndependenceCertificate(
        status, rank, len(basis), tuple(float(v) for v in singular)
    )
