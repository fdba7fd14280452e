"""Sequences of smooth functions indexed by a positive integer.

A sequence is a closed-form tail expression in x and nu together with a
finite table of exceptional entries (expressions in x only).  Arithmetic,
scaling, term-wise differentiation and composition with a one-variable
operation all act entry by entry, so the tail and each exceptional entry are
transformed independently and renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import expr as ex
from .expr import Expr, Num, simplify, substitute, to_string

RANK_THRESHOLD = 1e-8


def _coerce_expr(value):
    if isinstance(value, str):
        return ex.parse(value)
    return ex.as_expr(value)


@dataclass(frozen=True, slots=True)
class SmoothSequence:
    """Tail expression plus finitely many exceptional entries."""

    tail: Expr
    exceptional: tuple = ()
    start_index: int = 1

    def __post_init__(self):
        names = ex.variables(self.tail)
        if not names <= {"x", "nu"}:
            raise ValueError("sequence tails may only use x and nu")
        if type(self.start_index) is not int or self.start_index < 1:  # bool is no index
            raise ValueError("start index must be a positive integer")
        for index, entry in self.exceptional:
            if not isinstance(index, int) or index < self.start_index:
                raise ValueError("exceptional indices must be integers >= start index")
            if not ex.variables(entry) <= {"x"}:
                raise ValueError("exceptional entries may only use x")

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
        return ex.evaluate(self._entry(index), index, x_value)

    def probe(self, index):
        """Context manager yielding x -> term_value(index, x), set up once."""
        return ex._probe(self._entry(index), index)

    def _entry(self, index):
        """The exceptional entry at a checked index, else the tail."""
        if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
            raise ValueError("sequence index must be an integer")
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
    tail_expr = _coerce_expr(tail)
    entries = []
    for index, entry in (exceptional or {}).items():
        entries.append((int(index), _coerce_expr(entry)))
    entries.sort(key=lambda pair: pair[0])
    for previous, current in zip(entries, entries[1:]):
        if previous[0] == current[0]:
            raise ValueError(f"duplicate exceptional index {current[0]}")
    return SmoothSequence(tail_expr, tuple(entries), start_index)


def diagonal(psi):
    """Constant sequence whose every entry is the given x-only expression."""
    body = _coerce_expr(psi)
    if "nu" in ex.variables(body):
        raise ValueError("diagonal sequences must not mention nu")
    return SmoothSequence(simplify(body))


def zero_sequence():
    return SmoothSequence(Num(0.0))


def sequence_is_zero(s):
    """True when every entry normalizes to the literal 0."""
    if simplify(s.tail) != Num(0.0):
        return False
    return all(simplify(entry) == Num(0.0) for _, entry in s.exceptional)


def is_eventually_zero(s):
    """True when all but finitely many entries normalize to 0."""
    return simplify(s.tail) == Num(0.0)


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


def seq_scale(c, s):
    """Scale every entry by the real constant c."""
    c = float(c)
    tail = simplify(Num(c) * s.tail)
    entries = tuple(
        (index, simplify(Num(c) * entry)) for index, entry in s.exceptional
    )
    return SmoothSequence(tail, entries, s.start_index)


def seq_sub(s, t):
    """Entry-wise difference."""
    # must go through Sub, not scale-then-add: negating via Num(-1)* turns a
    # multi-term tail into an atomic factor and equal tails stop cancelling
    return _combine(s, t, lambda a, b: a - b)


def seq_derive(s, order=1):
    """Entry-wise derivative in x; the index variable is a constant."""
    tail = ex.diff(s.tail, order)
    entries = tuple((index, ex.diff(entry, order)) for index, entry in s.exceptional)
    return SmoothSequence(tail, entries, s.start_index)


def apply_smooth(outer, s, domain=None):
    """Compose a one-variable operation with every entry of s.

    The operation body uses the placeholder u; it is substituted symbolically.
    When a domain is given and the composition introduces denominators, the
    result must pass the denominator-safety check.
    """
    if isinstance(outer, str):
        outer = ex.parse_operation(outer)
    names = ex.variables(outer)
    if not names <= {"u"}:
        raise ValueError("operation bodies may only use the placeholder u")
    tail = simplify(substitute(outer, "u", s.tail))
    entries = tuple(
        (index, simplify(substitute(outer, "u", entry)))
        for index, entry in s.exceptional
    )
    result = SmoothSequence(tail, entries, s.start_index)
    if domain is not None:
        report = ex.denominator_safety(tail, domain)
        if report.status is not ex.SafetyStatus.SAFE:
            raise ValueError(
                f"composition is not denominator-safe on the domain: {report.status.value}"
            )
    return result


# ---------------------------------------------------------------------------
# finite spans and independence certificates


@dataclass(frozen=True, slots=True)
class FiniteSpan:
    basis: tuple

    def __post_init__(self):
        if not self.basis:
            raise ValueError("a span needs at least one basis sequence")
        for s in self.basis:
            if not isinstance(s, SmoothSequence):
                raise TypeError("span bases must be smooth sequences")


def span(*sequences):
    return FiniteSpan(tuple(sequences))


def concat_spans(a, b):
    return FiniteSpan(a.basis + b.basis)


@dataclass(frozen=True, slots=True)
class SampleGrid:
    """Cartesian (nu, x) sampling lattice."""

    nus: tuple
    xs: tuple

    def __post_init__(self):
        if not self.nus or not self.xs:
            raise ValueError("sample grid must be non-empty")
        if any((not isinstance(n, int)) or n < 1 for n in self.nus):
            raise ValueError("grid indices must be positive integers")

    @property
    def size(self):
        return len(self.nus) * len(self.xs)

    @classmethod
    def for_domain(cls, domain, nus=(1, 2, 3, 4, 5, 6, 7, 8), x_count=16):
        xs = tuple(float(v) for v in domain.interior_grid(x_count))
        return cls(tuple(nus), xs)


class SpanStatus(str, Enum):
    TRIVIAL_INTERSECTION = "trivial-intersection"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class IndependenceCertificate:
    status: SpanStatus
    rank: int
    basis_size: int
    singular_values: tuple

    def to_dict(self):
        return {
            "status": self.status.value,
            "rank": self.rank,
            "basis_size": self.basis_size,
            "singular_values": list(self.singular_values),
        }


def independence_certificate(the_span, grid):
    """Full-column-rank test for the sampled evaluations of a basis.

    A full-rank matrix certifies that the basis is linearly independent, so
    two sub-spans whose concatenated bases pass have trivial intersection.
    Rank deficiency on a sample is never a dependence proof, hence
    inconclusive.
    """
    basis = the_span.basis
    if grid.size < len(basis) + 8:
        raise ValueError("grid must provide at least basis size + 8 sample pairs")
    points = [(n, x) for n in grid.nus for x in grid.xs]
    if len(set(points)) < 2:
        raise ValueError("degenerate grid: all sample points identical")
    xs = np.asarray(grid.xs, dtype=float)
    columns = []
    for s in basis:
        stacked = np.concatenate([s.term_values(n, xs) for n in grid.nus])
        columns.append(stacked)
    matrix = np.column_stack(columns)
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
