import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import branchlab.expr as ex
from branchlab import cli
from branchlab.ideals import EventuallyZero, InIdeal, NotInIdeal, membership
from branchlab.sequences import (
    DEFAULT_X_COUNT,
    SAMPLE_NUS,
    SmoothSequence,
    SpanStatus,
    admission,
    apply_smooth,
    independence_certificate,
    seq_add,
    seq_derive,
    seq_mul,
    seq_sub,
    sequence_is_zero,
    smooth_sequence,
)

from conftest import SAFETY_LATTICE, free_variables, gauss_rank

DOM = ex.DomainInterval(-1.0, 1.0)


@given(
    index=st.integers(min_value=1, max_value=40),
    exc_index=st.integers(min_value=1, max_value=40),
    coeff=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_term_dispatch(index, exc_index, coeff):
    s = smooth_sequence("nu*x", {exc_index: ex.Num(coeff) * ex.x})
    got = s.term_value(index, 0.7)
    assert s.term_values(index, np.array([0.7]))[0] == got
    if index == exc_index:
        assert got == pytest.approx(coeff * 0.7, abs=1e-12)
    else:
        assert got == pytest.approx(index * 0.7, abs=1e-12)


def test_term_returns_x_only_expression():
    s = smooth_sequence("cos(nu*x)", {2: "x^2"})
    assert s.term(3) == ex.parse("cos(3*x)")
    assert s.term(2) == ex.parse("x^2")
    assert free_variables(s.term(7)) == {"x"}


def test_index_validation():
    s = smooth_sequence("nu*x", start_index=2)
    with pytest.raises(ValueError):
        s.term(1)
    with pytest.raises(ValueError):
        s.term_values(1, np.array([0.7]))


def test_tail_variables_restricted():
    with pytest.raises(ValueError):
        smooth_sequence("y + x")


def test_exceptional_keys_sorted_numerically():
    s = smooth_sequence("x", {"10": "1", "3": "2"})
    assert [index for index, _ in s.exceptional] == [3, 10]
    assert s.to_dict() == {"tail": "x", "exceptions": {"3": "2", "10": "1"}}


def test_to_dict_shapes():
    assert smooth_sequence("cos(nu*x)").to_dict() == {"tail": "cos(nu*x)"}
    assert smooth_sequence("x", start_index=4).to_dict() == {
        "tail": "x",
        "start": 4,
    }


def _pool():
    return [
        smooth_sequence("cos(nu*x)"),
        smooth_sequence("1 + sin(nu*x)", {3: "x^2"}),
        smooth_sequence("x^2/(1 + nu)", {1: "1", 5: "tanh(x)"}),
        smooth_sequence("exp(0.3*x)"),
        smooth_sequence("nu*x", {2: "0"}),
    ]


def test_ring_axioms_sampled(rng):
    pool = _pool()
    checks = 0
    while checks < 100:
        s, t, r = (rng.choice(pool) for _ in range(3))
        nu = rng.randrange(1, 9)
        x = rng.uniform(-1.0, 1.0)
        sv, tv, rv = (q.term_value(nu, x) for q in (s, t, r))

        assoc = seq_add(seq_add(s, t), r).term_value(nu, x)
        assert abs(assoc - (sv + tv + rv)) < 1e-10
        comm = seq_mul(s, t).term_value(nu, x)
        assert abs(comm - seq_mul(t, s).term_value(nu, x)) < 1e-10
        distrib = seq_mul(s, seq_add(t, r)).term_value(nu, x)
        assert abs(distrib - (sv * tv + sv * rv)) < 1e-9
        checks += 1


def test_scale_and_sub():
    s = smooth_sequence("cos(nu*x)", {2: "x"})
    scaled = seq_mul(smooth_sequence("3"), s)
    assert scaled.term_value(4, 0.5) == pytest.approx(3 * math.cos(2.0))
    assert scaled.term_value(2, 0.5) == pytest.approx(1.5)
    diff = seq_sub(s, s)
    assert sequence_is_zero(diff)


def test_eventually_zero_predicates():
    finite = smooth_sequence("0", {2: "x^2", 7: "1"})
    assert isinstance(membership(finite, EventuallyZero(), DOM), InIdeal)
    assert not sequence_is_zero(finite)
    assert sequence_is_zero(smooth_sequence("0"))
    oscillating = smooth_sequence("cos(nu*x)")
    assert isinstance(membership(oscillating, EventuallyZero(), DOM), NotInIdeal)


def test_seq_derive_leibniz(rng):
    s = smooth_sequence("cos(nu*x)", {3: "x^2"})
    t = smooth_sequence("1 + sin(nu*x)", {3: "tanh(x)"})
    lhs = seq_derive(seq_mul(s, t))
    rhs = seq_add(
        seq_mul(seq_derive(s), t), seq_mul(s, seq_derive(t))
    )
    for _ in range(30):
        nu = rng.randrange(1, 9)
        x = rng.uniform(-1.0, 1.0)
        assert abs(lhs.term_value(nu, x) - rhs.term_value(nu, x)) < 1e-10


def test_seq_derive_orders():
    s = smooth_sequence("sin(nu*x)")
    second = seq_derive(s, 2)
    # d^2/dx^2 sin(nu x) = -nu^2 sin(nu x)
    assert second.term_value(3, 0.4) == pytest.approx(-9 * math.sin(1.2))


def test_diagonal_is_a_morphism():
    a, b = "1 + x^2", "cos(x)"
    prod = seq_mul(smooth_sequence(a), smooth_sequence(b))
    assert prod.signature() == smooth_sequence(f"({a})*({b})").signature()
    total = seq_add(smooth_sequence(a), smooth_sequence(b))
    assert total.signature() == smooth_sequence(f"({a}) + ({b})").signature()


def test_apply_smooth_square():
    squared = apply_smooth(ex.parse("u^2", ("u",)), smooth_sequence("cos(nu*x)", {2: "x"}), DOM)
    assert squared.term_value(5, 0.3) == pytest.approx(math.cos(1.5) ** 2)
    assert squared.term(2) == ex.parse("x^2")


def test_apply_smooth_constant_image():
    lifted = apply_smooth(ex.parse("exp(u)", ("u",)), smooth_sequence("0"), DOM)
    assert lifted.signature() == smooth_sequence("1").signature()


def test_apply_smooth_rejects_unsafe_composition():
    with pytest.raises(ValueError):
        apply_smooth(ex.parse("1/u", ("u",)), smooth_sequence("x"), DOM)


def test_admission_of_a_plain_tail_is_its_denominator_safety():
    for text in ("1/(2+sin(nu*x))", "1/x", "1/(nu-3)", "x^2"):
        tail = ex.parse(text)
        report = admission(smooth_sequence(tail), DOM)
        assert report == ex.denominator_safety(tail, DOM, SAFETY_LATTICE)


def test_admission_samples_the_tail_only_at_the_indices_it_serves(monkeypatch):
    # the tail's pole at index 2 lies before the start, or under an exception
    late = admission(smooth_sequence("x/(nu-2)", start_index=3), DOM)
    assert late.status is ex.SafetyStatus.SAFE
    covered = admission(smooth_sequence("x/(nu-2)", {2: "x"}), DOM)
    assert covered.status is ex.SafetyStatus.SAFE
    # the tail's first 64 indices from the start, past the exception: 3..66 without 5
    tail_nus = []
    original = ex.denominator_safety

    def recording(e, domain, nus):
        tail_nus.append(nus.tolist())
        return original(e, domain, nus)

    monkeypatch.setattr(ex, "denominator_safety", recording)
    admission(smooth_sequence("1/(2+x)", {5: "1/(3+x)"}, start_index=3), DOM)
    assert tail_nus == [[n for n in range(3, 68) if n != 5], [5.0]]


def test_admission_checks_each_exception_at_its_own_index():
    report = admission(smooth_sequence("1/(3+x)", {2: "1/(4+x)", 7: "1/x"}), DOM)
    assert report.status is ex.SafetyStatus.UNSAFE and report.witness_nu == 7
    # the tail decides before any exception; a safe record counts every entry's denominators
    tail_first = admission(smooth_sequence("1/(nu-9)", {2: "1/x"}), DOM)
    assert tail_first.witness_nu == 9
    safe = admission(smooth_sequence("1/(3+x)", {2: "1/(4+x)/(5+x)"}), DOM)
    assert safe.status is ex.SafetyStatus.SAFE and safe.denominator_count == 3


def test_apply_smooth_admits_the_composed_exceptions():
    # cos(nu*x)/2 stays above -1, its entry x - 1 at index 2 does not
    rep = smooth_sequence("cos(nu*x)/2", {2: "x-1"})
    with pytest.raises(ValueError, match="witness_nu 2,"):
        apply_smooth(ex.parse("1/(1+u)", ("u",)), rep, DOM)


def test_apply_smooth_rejects_foreign_variables():
    # an operation is read in u alone, and its error names the flag
    code, report = cli.run(["demo", "branching", "--op=u + x"])
    assert code == 1
    assert report["error"] == {
        "type": "ParseError",
        "message": "op: unknown identifier 'x' (offset 4)",
    }


XS = DOM.interior_grid(DEFAULT_X_COUNT)


def _evaluation_matrix(basis, xs):
    return np.column_stack(
        [np.concatenate([s.term_values(n, xs) for n in SAMPLE_NUS]) for s in basis]
    )


def test_independence_certified_for_mixed_span():
    basis = [smooth_sequence("cos(nu*x)"), smooth_sequence("sin(nu*x)"), smooth_sequence("1")]
    cert = independence_certificate(basis, XS)
    assert cert.status is SpanStatus.TRIVIAL_INTERSECTION
    assert cert.rank == 3
    assert gauss_rank(_evaluation_matrix(basis, XS)) == 3


def test_dependent_span_is_inconclusive():
    basis = [smooth_sequence("cos(nu*x)"), smooth_sequence("2*cos(nu*x)")]
    cert = independence_certificate(basis, XS)
    assert cert.status is SpanStatus.INCONCLUSIVE
    assert cert.rank == 1
    assert gauss_rank(_evaluation_matrix(basis, XS)) == 1


def test_diagonal_pair_independent():
    cert = independence_certificate([smooth_sequence("1"), smooth_sequence("x")], XS)
    assert cert.status is SpanStatus.TRIVIAL_INTERSECTION
    assert cert.rank == 2


def test_grid_must_cover_basis():
    # one point at each of the 8 indices is 8 samples, fewer than basis size + 8
    with pytest.raises(ValueError):
        independence_certificate([smooth_sequence("cos(nu*x)")], np.array([0.1]))


def test_non_finite_samples_rejected():
    basis = [SmoothSequence(ex.parse("1/x"))]
    with pytest.raises(ValueError):
        independence_certificate(basis, np.linspace(-1.0, 1.0, 9))
