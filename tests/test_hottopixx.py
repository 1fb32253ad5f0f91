import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conered import build_model_h, model_h_lp, postprocess_method_c, solve_model_h
from conered.errors import BadRank, DegenerateDiagonal
from conered.hottopixx import audit_model_h, write_model_lp

from oracles import simplex_model_h


def test_variable_count_small():
    model = build_model_h(np.ones((2, 2)), 1)
    assert model.var_count == 8  # 4 entries of X plus a 2x2 epigraph block


def test_variable_and_constraint_census():
    a = np.random.default_rng(0).random((4, 10))
    model = build_model_h(a, 3)
    assert model.var_count == 140
    assert model.constraint_counts == {
        "epigraph": 80,
        "trace": 1,
        "nonneg": 100,
        "coupling": 100,
        "diag_bound": 10,
    }


def test_lp_encoding_shapes():
    a = np.random.default_rng(1).random((3, 4))
    model = build_model_h(a, 2)
    prob = model_h_lp(model, with_names=True)
    m, q = 4, 3
    # columns: X, T, then slack blocks; rows: two epigraph sides,
    # coupling for i != j, one trace row
    assert prob.a_eq.shape[0] == 2 * q * m + m * (m - 1) + 1
    assert prob.c[: m * m].sum() == 0.0
    assert prob.c[m * m : m * m + q * m].sum() == q * m
    assert np.all(np.isfinite(prob.ub[: m * m]))
    assert prob.names is not None
    assert "x_1_1" in prob.names


def test_identity_is_optimal_at_full_rank():
    a = np.random.default_rng(2).random((3, 3))
    a /= np.abs(a).sum(axis=0)
    model = build_model_h(a, 3)
    sol = solve_model_h(model)
    assert sol.objective == pytest.approx(0.0, abs=1e-8)
    audit = audit_model_h(model, sol.x_matrix)
    assert audit["ok"]


def test_interior_column_weights():
    a = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    expected = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])
    for solve in (solve_model_h, simplex_model_h):
        sol = solve(build_model_h(a, 2))
        assert np.allclose(sol.x_matrix, expected, atol=1e-6)
        assert sol.objective == pytest.approx(0.0, abs=1e-7)


def test_duplicate_pure_columns_keep_invariants():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    model = build_model_h(a, 2)
    sol = solve_model_h(model)
    assert sol.objective == pytest.approx(0.0, abs=1e-7)
    audit = audit_model_h(model, sol.x_matrix)
    assert audit["ok"]
    assert np.trace(sol.x_matrix) == pytest.approx(2.0, abs=1e-7)


def test_solvers_agree():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = int(rng.integers(3, 6))
        q = int(rng.integers(2, 4))
        a = rng.random((q, m))
        a /= np.abs(a).sum(axis=0)
        r = int(rng.integers(1, m))
        model = build_model_h(a, r)
        ipm = solve_model_h(model)
        simplex = simplex_model_h(model)
        assert ipm.objective == pytest.approx(simplex.objective, abs=1e-7)
        for sol in (ipm, simplex):
            assert audit_model_h(model, sol.x_matrix)["ok"]


def test_audit_flags_violations():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = build_model_h(a, 1)
    bad = np.array([[1.5, 0.0], [0.0, -0.2]])
    audit = audit_model_h(model, bad)
    assert not audit["ok"]
    assert audit["diag_bound"] >= 0.5
    assert audit["nonneg"] >= 0.2


def test_rank_validation():
    with pytest.raises(BadRank):
        build_model_h(np.ones((2, 3)), 0)
    with pytest.raises(BadRank):
        build_model_h(np.ones((2, 3)), 4)


def test_method_c_clean_diagonal():
    a = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    x = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])
    k = postprocess_method_c(a, x, 2)
    assert list(k.indices) == [0, 1]


def test_method_c_duplicate_columns_tie_to_lower_index():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    x = np.diag([0.5, 0.5, 1.0])
    k = postprocess_method_c(a, x, 2)
    # seeds are columns 0 (tie winner) and 2; both groups centre on
    # themselves, and the duplicate member keeps the seed column
    assert list(k.indices) == [0, 2]


def test_method_c_needs_positive_diagonal():
    a = np.random.default_rng(5).random((2, 3))
    with pytest.raises(DegenerateDiagonal):
        postprocess_method_c(a, np.zeros((3, 3)), 2)


def test_method_c_centroid_pick():
    # group {0, 2}: centroid sits nearer column 0 than column 2
    a = np.array([[1.0, 0.0, 0.9], [0.0, 1.0, 0.1]])
    x = np.array([[0.9, 0.0, 0.8], [0.0, 1.0, 0.0], [0.0, 0.0, 0.1]])
    k = postprocess_method_c(a, x, 2)
    assert 1 in k
    assert len(k) == 2


def test_lp_dump(tmp_path):
    model = build_model_h(np.random.default_rng(6).random((2, 3)), 2)
    path = tmp_path / "model.lp"
    write_model_lp(model, str(path))
    text = path.read_text()
    assert "Minimize" in text
    assert "x_1_1" in text


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_solution_always_passes_audit(case_seed):
    rng = np.random.default_rng(case_seed)
    m = int(rng.integers(2, 5))
    q = int(rng.integers(2, 4))
    a = rng.random((q, m))
    a /= np.abs(a).sum(axis=0)
    r = int(rng.integers(1, m + 1))
    model = build_model_h(a, r)
    sol = solve_model_h(model)
    assert audit_model_h(model, sol.x_matrix)["ok"]
