import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import branchlab as bl
import branchlab.expr as ex

from conftest import gauss_rank

DOM = ex.DomainInterval(-1.0, 1.0)


@given(
    index=st.integers(min_value=1, max_value=40),
    exc_index=st.integers(min_value=1, max_value=40),
    coeff=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_term_dispatch(index, exc_index, coeff):
    s = bl.smooth_sequence("nu*x", {exc_index: ex.Mul(ex.Num(coeff), ex.x)})
    got = s.term_value(index, 0.7)
    with s.probe(index) as probe:
        assert probe(0.7) == got
    if index == exc_index:
        assert got == pytest.approx(coeff * 0.7, abs=1e-12)
    else:
        assert got == pytest.approx(index * 0.7, abs=1e-12)


def test_term_returns_x_only_expression():
    s = bl.smooth_sequence("cos(nu*x)", {2: "x^2"})
    assert s.term(3) == ex.parse("cos(3*x)")
    assert s.term(2) == ex.parse("x^2")
    assert ex.variables(s.term(7)) <= {"x"}


def test_index_validation():
    s = bl.smooth_sequence("nu*x", start_index=2)
    with pytest.raises(ValueError):
        s.term(1)
    with pytest.raises(ValueError):
        s.term_value(True, 0.0)
    with pytest.raises(ValueError):
        s.probe(1)
    with pytest.raises(ValueError):
        bl.smooth_sequence("x", start_index=0)
    with pytest.raises(ValueError):
        bl.smooth_sequence("x", {1: "x"}, start_index=2)
    with pytest.raises(ValueError):
        bl.smooth_sequence("x", start_index=True)


def test_tail_variables_restricted():
    with pytest.raises(ValueError):
        bl.smooth_sequence("y + x")
    with pytest.raises(ValueError):
        bl.smooth_sequence("x", {2: "nu*x"})


def test_duplicate_exceptional_index_rejected():
    with pytest.raises(ValueError):
        bl.smooth_sequence("x", {"3": "x", 3: "x^2"})


def test_exceptional_keys_sorted_numerically():
    s = bl.smooth_sequence("x", {"10": "1", "3": "2"})
    assert [index for index, _ in s.exceptional] == [3, 10]
    assert s.to_dict() == {"tail": "x", "exceptions": {"3": "2", "10": "1"}}


def test_to_dict_shapes():
    assert bl.smooth_sequence("cos(nu*x)").to_dict() == {"tail": "cos(nu*x)"}
    assert bl.smooth_sequence("x", start_index=4).to_dict() == {
        "tail": "x",
        "start": 4,
    }


def _pool():
    return [
        bl.smooth_sequence("cos(nu*x)"),
        bl.smooth_sequence("1 + sin(nu*x)", {3: "x^2"}),
        bl.smooth_sequence("x^2/(1 + nu)", {1: "1", 5: "tanh(x)"}),
        bl.diagonal("exp(0.3*x)"),
        bl.smooth_sequence("nu*x", {2: "0"}),
    ]


def test_ring_axioms_sampled(rng):
    pool = _pool()
    checks = 0
    while checks < 100:
        s, t, r = (rng.choice(pool) for _ in range(3))
        nu = rng.randrange(1, 9)
        x = rng.uniform(-1.0, 1.0)
        sv, tv, rv = (q.term_value(nu, x) for q in (s, t, r))

        assoc = bl.seq_add(bl.seq_add(s, t), r).term_value(nu, x)
        assert abs(assoc - (sv + tv + rv)) < 1e-10
        comm = bl.seq_mul(s, t).term_value(nu, x)
        assert abs(comm - bl.seq_mul(t, s).term_value(nu, x)) < 1e-10
        distrib = bl.seq_mul(s, bl.seq_add(t, r)).term_value(nu, x)
        assert abs(distrib - (sv * tv + sv * rv)) < 1e-9
        checks += 1


def test_scale_and_sub():
    s = bl.smooth_sequence("cos(nu*x)", {2: "x"})
    scaled = bl.seq_scale(3.0, s)
    assert scaled.term_value(4, 0.5) == pytest.approx(3 * math.cos(2.0))
    assert scaled.term_value(2, 0.5) == pytest.approx(1.5)
    diff = bl.seq_sub(s, s)
    assert bl.sequence_is_zero(diff)


def test_eventually_zero_predicates():
    finite = bl.smooth_sequence("0", {2: "x^2", 7: "1"})
    assert bl.is_eventually_zero(finite)
    assert not bl.sequence_is_zero(finite)
    assert bl.sequence_is_zero(bl.zero_sequence())
    assert not bl.is_eventually_zero(bl.smooth_sequence("cos(nu*x)"))


def test_seq_derive_leibniz(rng):
    s = bl.smooth_sequence("cos(nu*x)", {3: "x^2"})
    t = bl.smooth_sequence("1 + sin(nu*x)", {3: "tanh(x)"})
    lhs = bl.seq_derive(bl.seq_mul(s, t))
    rhs = bl.seq_add(
        bl.seq_mul(bl.seq_derive(s), t), bl.seq_mul(s, bl.seq_derive(t))
    )
    for _ in range(30):
        nu = rng.randrange(1, 9)
        x = rng.uniform(-1.0, 1.0)
        assert abs(lhs.term_value(nu, x) - rhs.term_value(nu, x)) < 1e-10


def test_seq_derive_orders():
    s = bl.smooth_sequence("sin(nu*x)")
    second = bl.seq_derive(s, 2)
    # d^2/dx^2 sin(nu x) = -nu^2 sin(nu x)
    assert second.term_value(3, 0.4) == pytest.approx(-9 * math.sin(1.2))


def test_diagonal_is_a_morphism():
    a, b = "1 + x^2", "cos(x)"
    prod = bl.seq_mul(bl.diagonal(a), bl.diagonal(b))
    assert prod.signature() == bl.diagonal(f"({a})*({b})").signature()
    total = bl.seq_add(bl.diagonal(a), bl.diagonal(b))
    assert total.signature() == bl.diagonal(f"({a}) + ({b})").signature()


def test_diagonal_rejects_nu():
    with pytest.raises(ValueError):
        bl.diagonal("nu*x")


def test_apply_smooth_square():
    squared = bl.apply_smooth("u^2", bl.smooth_sequence("cos(nu*x)", {2: "x"}))
    assert squared.term_value(5, 0.3) == pytest.approx(math.cos(1.5) ** 2)
    assert squared.term(2) == ex.parse("x^2")


def test_apply_smooth_constant_image():
    lifted = bl.apply_smooth("exp(u)", bl.zero_sequence())
    assert lifted.signature() == bl.diagonal("1").signature()


def test_apply_smooth_rejects_unsafe_composition():
    with pytest.raises(ValueError):
        bl.apply_smooth("1/u", bl.smooth_sequence("x"), domain=DOM)


def test_apply_smooth_rejects_foreign_variables():
    with pytest.raises(ValueError):
        bl.apply_smooth("u + x", bl.smooth_sequence("cos(nu*x)"))


def _evaluation_matrix(basis, grid):
    xs = np.asarray(grid.xs, dtype=float)
    return np.column_stack(
        [np.concatenate([s.term_values(n, xs) for n in grid.nus]) for s in basis]
    )


def test_independence_certified_for_mixed_span():
    first = bl.span(bl.smooth_sequence("cos(nu*x)"))
    second = bl.span(bl.smooth_sequence("sin(nu*x)"), bl.diagonal("1"))
    joined = bl.concat_spans(first, second)
    grid = bl.SampleGrid.for_domain(DOM)
    cert = bl.independence_certificate(joined, grid)
    assert cert.status is bl.SpanStatus.TRIVIAL_INTERSECTION
    assert cert.rank == 3
    assert gauss_rank(_evaluation_matrix(joined.basis, grid)) == 3


def test_dependent_span_is_inconclusive():
    s = bl.smooth_sequence("cos(nu*x)")
    joined = bl.concat_spans(bl.span(s), bl.span(bl.seq_scale(2.0, s)))
    grid = bl.SampleGrid.for_domain(DOM)
    cert = bl.independence_certificate(joined, grid)
    assert cert.status is bl.SpanStatus.INCONCLUSIVE
    assert cert.rank == 1
    assert gauss_rank(_evaluation_matrix(joined.basis, grid)) == 1


def test_diagonal_pair_independent():
    joined = bl.concat_spans(
        bl.span(bl.diagonal("1")), bl.span(bl.diagonal("x"))
    )
    cert = bl.independence_certificate(joined, bl.SampleGrid.for_domain(DOM))
    assert cert.status is bl.SpanStatus.TRIVIAL_INTERSECTION
    assert cert.rank == 2


def test_grid_must_cover_basis():
    joined = bl.span(bl.smooth_sequence("cos(nu*x)"))
    with pytest.raises(ValueError):
        bl.independence_certificate(joined, bl.SampleGrid((1,), (0.1, 0.2)))


def test_degenerate_grid_rejected():
    joined = bl.span(bl.smooth_sequence("cos(nu*x)"))
    grid = bl.SampleGrid((1,) * 10, (0.5,))
    with pytest.raises(ValueError):
        bl.independence_certificate(joined, grid)


def test_non_finite_samples_rejected():
    joined = bl.span(bl.SmoothSequence(ex.parse("1/x")))
    grid = bl.SampleGrid((1,), tuple(np.linspace(-1.0, 1.0, 9)))
    with pytest.raises(ValueError):
        bl.independence_certificate(joined, grid)


def test_sample_grid_validation():
    with pytest.raises(ValueError):
        bl.SampleGrid((), (0.1,))
    with pytest.raises(ValueError):
        bl.SampleGrid((0,), (0.1,))
    grid = bl.SampleGrid.for_domain(DOM, x_count=5)
    assert len(grid.xs) == 5
    assert grid.size == 40
