from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import conered.hottopixx as hottopixx
from conered import (
    HsiMatrix,
    RedicConfig,
    assemble,
    build_model_h,
    model_h_lp,
    postprocess_method_c,
    random_separable,
    redic,
    solve_model_h,
)
from conered.errors import BadRank, DegenerateDiagonal
from conered.hottopixx import _block_stage, _ModelHKkt, audit_model_h, write_model_lp
from conered.lp import _assembled_stage, _kkt_matrix, _NewtonSolver, _Unassembled, solve_lp_ipm

from oracles import model_h_lp_loop, simplex_model_h


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


@pytest.mark.parametrize("m", [1, 2, 5, 39])
def test_lp_matches_loop_reference(m):
    model = build_model_h(np.random.default_rng(m).random((3, m)), 1)
    prob = model_h_lp(model, with_names=True)
    ref = model_h_lp_loop(model, with_names=True)
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(prob.a_eq, attr), getattr(ref.a_eq, attr)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for attr in ("c", "b_eq", "ub"):
        assert np.array_equal(getattr(prob, attr), getattr(ref, attr))
    assert prob.names == ref.names


def _kkt_parts(a, d, reg=1e-12):
    a_eq = model_h_lp(build_model_h(a, 4)).a_eq
    at = sp.csc_matrix(a_eq.T)
    return a_eq, at, _kkt_matrix(a_eq, at, d, reg)


def _model_h_chain(a, a_eq, at, d, kkt, reg=1e-12):
    # the chain solve_model_h gives solve_lp_ipm: the block solve, then the
    # KKT, both refined against the unassembled KKT
    unassembled = _Unassembled(a_eq, at)
    stage = partial(_block_stage, a, unassembled, d, reg)
    return _NewtonSolver(
        [stage, partial(_assembled_stage, lambda: kkt)], partial(unassembled.residual, d + reg, reg)
    )


def test_block_solve_matches_dense_solve_over_twenty_decades():
    # the instance of lp's refined-solve test: theta spans 1e-10 ... 1e10
    rng = np.random.default_rng(83)
    a = rng.random((4, 39))
    nv = model_h_lp(build_model_h(a, 4)).c.size
    d = 10.0 ** rng.uniform(-10.0, 10.0, nv)
    a_eq, at, kkt = _kkt_parts(a, d)
    b = rng.standard_normal(kkt.shape[0])
    solver = _model_h_chain(a, a_eq, at, d, kkt)
    x = solver.solve(b)
    assert not solver.fell_back
    assert _Unassembled(a_eq, at).residual(d + 1e-12, 1e-12, x, b)[1] <= 1e-13
    r = b - kkt @ x
    knorm = abs(kkt).sum(axis=1).max()
    assert np.abs(r).max() / (knorm * np.abs(x).max() + np.abs(b).max()) <= 1e-13


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
def test_block_solve_without_a_factor_uses_the_assembled_kkt():
    # a negative weight on s+ (theta_s+ = -1, theta_t = theta_s- = 1) makes
    # psi = -1/2, and small X weights leave every U_j indefinite: it has no
    # Cholesky factor
    rng = np.random.default_rng(84)
    a = rng.random((3, 6))
    nv = model_h_lp(build_model_h(a, 4)).c.size
    d = np.ones(nv)
    d[:36] = 1e6
    d[54:72] = -1.0
    a_eq, at, kkt = _kkt_parts(a, d)
    b = rng.standard_normal(kkt.shape[0])
    with pytest.raises(np.linalg.LinAlgError):
        _ModelHKkt(a, a_eq, at, d, 1e-12)
    solver = _model_h_chain(a, a_eq, at, d, kkt)
    assert solver.fell_back
    x = solver.solve(b)
    assert np.allclose(x, np.linalg.solve(kkt.toarray(), b), rtol=1e-10, atol=1e-12)


def test_block_solve_keeps_iterations_and_fallbacks_on_extract_instance(monkeypatch):
    # perfbench extract-lp, seed 1, input 0: its two LPs take 26 and 29
    # iterations, as they do on the assembled KKT alone
    inst = random_separable(d=50, n=1000, r=4, seed=3)
    perm = np.random.default_rng(np.random.SeedSequence([1, 1, 0])).permutation(1000)
    a = assemble(inst, 0.5).values[:, perm]
    calls = []

    def recording(prob, *args, **kwargs):
        res = solve_lp_ipm(prob, *args, **kwargs)
        calls.append((prob, res))
        return res

    monkeypatch.setattr(hottopixx, "solve_lp_ipm", recording)
    redic(HsiMatrix(a), RedicConfig(r=4, lam=4, tau=2, p=30))
    assert [res.iterations for _, res in calls] == [26, 29]
    for prob, res in calls:
        assembled = solve_lp_ipm(prob)
        assert res.fallbacks <= 1
        assert assembled.fallbacks == 0
        assert res.iterations == assembled.iterations
        assert res.objective == pytest.approx(assembled.objective, rel=1e-9)
