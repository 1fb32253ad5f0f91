from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from conered.errors import DimensionMismatch, MaxIterations
from conered.hottopixx import build_model_h, model_h_lp
from conered.lp import (
    _REFINE_ACCEPT,
    _REFINE_TARGET,
    STATUS_OPTIMAL,
    LpProblem,
    _assembled_stage,
    _backward_error,
    _kkt_matrix,
    _NewtonSolver,
    _Unassembled,
    solve_lp_ipm,
    write_lp_text,
)

from oracles import STATUS_INFEASIBLE, solve_lp_simplex


def _tiny_problem():
    # min x1 + 2 x2  s.t.  x1 + x2 = 1,  0 <= x <= 1: optimum at x = (1, 0)
    return LpProblem(
        c=np.array([1.0, 2.0]),
        a_eq=sp.csr_matrix(np.array([[1.0, 1.0]])),
        b_eq=np.array([1.0]),
        ub=np.array([1.0, 1.0]),
    )


def test_ipm_tiny():
    res = solve_lp_ipm(_tiny_problem())
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-8)


def test_simplex_tiny():
    res = solve_lp_simplex(_tiny_problem())
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-12)


def test_upper_bound_becomes_active():
    # pushing mass onto the cheap variable stops at its bound
    prob = LpProblem(
        c=np.array([1.0, 3.0]),
        a_eq=sp.csr_matrix(np.array([[1.0, 1.0]])),
        b_eq=np.array([1.5]),
        ub=np.array([1.0, np.inf]),
    )
    for solver in (solve_lp_ipm, solve_lp_simplex):
        res = solver(prob)
        assert res.status == STATUS_OPTIMAL
        assert np.allclose(res.x, [1.0, 0.5], atol=1e-8)


def test_simplex_detects_infeasible():
    prob = LpProblem(
        c=np.array([1.0]),
        a_eq=sp.csr_matrix(np.array([[1.0], [1.0]])),
        b_eq=np.array([1.0, 2.0]),
        ub=np.array([np.inf]),
    )
    res = solve_lp_simplex(prob)
    assert res.status == STATUS_INFEASIBLE


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        LpProblem(
            c=np.array([1.0]),
            a_eq=sp.csr_matrix(np.array([[1.0, 2.0]])),
            b_eq=np.array([1.0]),
            ub=np.array([1.0, 1.0]),
        )


def test_rejects_nonpositive_upper_bound():
    with pytest.raises(ValueError):
        LpProblem(
            c=np.array([1.0]),
            a_eq=sp.csr_matrix(np.array([[1.0]])),
            b_eq=np.array([1.0]),
            ub=np.array([0.0]),
        )


def _random_bounded_problem(rng, neq=None, nv=None):
    """Random equality-form LP that is feasible and bounded by construction.

    Feasibility: b is the image of an interior point. Boundedness: every
    variable carries a finite upper bound.
    """
    nv = nv or int(rng.integers(3, 9))
    neq = neq or int(rng.integers(1, min(nv, 4) + 1))
    a = rng.normal(size=(neq, nv))
    ub = rng.uniform(0.5, 3.0, size=nv)
    x0 = rng.uniform(0.05, 0.95, size=nv) * ub
    b = a @ x0
    c = rng.normal(size=nv)
    return LpProblem(c=c, a_eq=sp.csr_matrix(a), b_eq=b, ub=ub)


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_solvers_agree_on_random_bounded_problems(case_seed):
    rng = np.random.default_rng(case_seed)
    prob = _random_bounded_problem(rng)
    ipm = solve_lp_ipm(prob)
    simplex = solve_lp_simplex(prob)
    assert ipm.status == STATUS_OPTIMAL
    assert simplex.status == STATUS_OPTIMAL
    assert ipm.objective == pytest.approx(simplex.objective, abs=1e-7)
    for res in (ipm, simplex):
        assert np.all(res.x >= -1e-9)
        assert np.all(res.x <= prob.ub + 1e-8)
        assert np.allclose(prob.a_eq @ res.x, prob.b_eq, atol=1e-7)


def test_iteration_limit_is_reported():
    prob = _random_bounded_problem(np.random.default_rng(77))
    res = solve_lp_ipm(prob, max_iter=1)
    assert res.status == "iteration-limit"


def test_simplex_iteration_cap():
    prob = _random_bounded_problem(np.random.default_rng(78), neq=3, nv=8)
    with pytest.raises(MaxIterations):
        solve_lp_simplex(prob, max_iter=1)


def test_lp_text_export(tmp_path):
    prob = LpProblem(
        c=np.array([1.0, 2.0]),
        a_eq=sp.csr_matrix(np.array([[1.0, 1.0]])),
        b_eq=np.array([1.0]),
        ub=np.array([1.0, np.inf]),
        names=["alpha", "beta"],
    )
    path = tmp_path / "prob.lp"
    write_lp_text(prob, str(path))
    text = path.read_text()
    assert "Minimize" in text
    assert "Subject To" in text
    assert "alpha" in text and "beta" in text
    assert "Bounds" in text
    assert text.rstrip().endswith("End")


def _kkt(a_eq, d, reg=1e-12):
    a = sp.csr_matrix(a_eq)
    return _kkt_matrix(a, sp.csc_matrix(a.T), d, reg)


def _normwise_residual(kkt, x, b):
    r = b - kkt @ x
    knorm = abs(kkt).sum(axis=1).max()
    return np.abs(r).max() / (knorm * np.abs(x).max() + np.abs(b).max())


def _assembled_residual(kkt, x, rhs):
    r = rhs - kkt @ x
    return r, _backward_error(r, abs(kkt) @ np.abs(x) + np.abs(rhs))


def _assembled_chain(kkt):
    # the chain solve_lp_ipm runs without a first stage, refined against the
    # assembled matrix, since some of these matrices are not KKTs
    return _NewtonSolver([partial(_assembled_stage, lambda: kkt)], partial(_assembled_residual, kkt))


def test_refined_pivoted_lu_solve_matches_dense_solve():
    rng = np.random.default_rng(83)
    prob = model_h_lp(build_model_h(rng.random((4, 39)), 4))
    nv = prob.c.size
    d = 10.0 ** rng.uniform(-10.0, 10.0, nv)
    kkt = _kkt(prob.a_eq, d)
    b = rng.standard_normal(kkt.shape[0])
    solver = _assembled_chain(kkt)
    x = solver.solve(b)
    assert not solver.fell_back
    omega = _assembled_residual(kkt, x, b)[1]
    assert omega <= 1e-13
    dense = np.linalg.solve(kkt.toarray(), b)
    assert _normwise_residual(kkt, x, b) <= 1e-13
    assert _normwise_residual(kkt, dense, b) <= 1e-13


@pytest.mark.parametrize("d0", [0.0, 1e-310])
def test_kkt_with_vanishing_diagonal_is_solved(d0):
    # a zero or subnormal diagonal entry: the pivoted LU takes the
    # off-diagonal 1 as its pivot instead
    kkt = _kkt(sp.csr_matrix([[1.0, 1.0]]), np.array([d0, 1.0]), reg=0.0)
    b = np.array([1.0, 2.0, 3.0])
    solver = _assembled_chain(kkt)
    x = solver.solve(b)
    assert not solver.fell_back
    assert np.allclose(x, np.linalg.solve(kkt.toarray(), b), rtol=1e-14, atol=0.0)


def test_singular_diagonal_factorization_uses_pivoted_lu():
    # a factorization on the diagonal meets an exactly singular pivot here;
    # the pivoted LU (and the matrix, with determinant -2e40) does not
    kkt = sp.csc_matrix(np.array([[2.0, 2.0, 1e20], [2.0, 2.0, 0.0], [1e20, 0.0, 1e-300]]))
    b = np.array([1.0, 2.0, 3.0])
    solver = _assembled_chain(kkt)
    x = solver.solve(b)
    assert not solver.fell_back
    assert _assembled_residual(kkt, x, b)[1] <= _REFINE_TARGET
    assert np.allclose(x, np.linalg.solve(kkt.toarray(), b), rtol=1e-14, atol=0.0)


def test_unassembled_residual_matches_the_assembled_kkt_with_a_negative_diagonal():
    # the instance of hottopixx's no-factor test: D has entries of both signs,
    # and the scale is |K||x| + |b| with |K|'s diagonal |D + reg|
    rng = np.random.default_rng(84)
    a_eq = model_h_lp(build_model_h(rng.random((3, 6)), 4)).a_eq
    d = np.ones(a_eq.shape[1])
    d[:36] = 1e6
    d[54:72] = -1.0
    kkt = _kkt(a_eq, d)
    x = rng.standard_normal(kkt.shape[0])
    b = rng.standard_normal(kkt.shape[0])
    r, omega = _Unassembled(a_eq, sp.csc_matrix(a_eq.T)).residual(d + 1e-12, 1e-12, x, b)
    r_kkt, omega_kkt = _assembled_residual(kkt, x, b)
    scale = abs(kkt) @ np.abs(x) + np.abs(b)
    assert np.all(np.abs(r - r_kkt) <= 4.0 * _REFINE_TARGET * scale)
    assert omega == pytest.approx(omega_kkt, rel=1e-12)


def test_chain_refines_a_perturbed_stage_against_the_unperturbed_kkt():
    # a stage that factors K + 1e-8 diag(-I, +I), as a regularized stage
    # would, answers to about 1e-5; the chain's residual is K's, so
    # refinement brings it to the target without the next stage
    rng = np.random.default_rng(83)
    a_eq = model_h_lp(build_model_h(rng.random((4, 39)), 4)).a_eq
    neq, nv = a_eq.shape
    d = 10.0 ** rng.uniform(-4.0, 4.0, nv)
    kkt = _kkt(a_eq, d)
    perturbed = splu((kkt + sp.diags(np.repeat([-1e-8, 1e-8], [nv, neq]))).tocsc())
    residual = partial(_Unassembled(a_eq, sp.csc_matrix(a_eq.T)).residual, d + 1e-12, 1e-12)
    b = rng.standard_normal(kkt.shape[0])
    assert residual(perturbed.solve(b), b)[1] > _REFINE_ACCEPT
    solver = _NewtonSolver([lambda: perturbed.solve, partial(_assembled_stage, lambda: kkt)], residual)
    x = solver.solve(b)
    assert not solver.fell_back
    assert residual(x, b)[1] <= _REFINE_TARGET
    dense = np.linalg.solve(kkt.toarray(), b)
    assert np.abs(x - dense).max() <= 1e-11 * np.abs(dense).max()


def _fake_stage(value, log):
    # a stage whose solve returns `value` everywhere
    def factor():
        log.append(("factor", value))

        def solve(rhs):
            log.append(("solve", value))
            return np.full(rhs.shape, value)

        return solve

    return factor


def _fake_residual(omegas):
    # the backward error omegas[v] for an answer equal to v everywhere, and
    # inf for any other answer (such as a refinement step's sum)
    return lambda x, rhs: (np.zeros_like(rhs), omegas.get(float(x[0]), np.inf))


def _failing_stage(log):
    def factor():
        log.append(("factor", None))
        raise RuntimeError("matrix is exactly singular")

    return factor


def test_chain_without_a_stage_that_factors_raises():
    log = []
    with pytest.raises(RuntimeError):
        _NewtonSolver([_failing_stage(log), _failing_stage(log)], _fake_residual({}))
    assert log == [("factor", None)] * 2


def test_chain_keeps_its_stage_when_the_next_cannot_factor():
    log = []
    solver = _NewtonSolver([_fake_stage(1.0, log), _failing_stage(log)], _fake_residual({1.0: 1e-6}))
    assert solver.solve(np.zeros(2)).tolist() == [1.0, 1.0]
    assert not solver.fell_back
    assert log[-1] == ("factor", None)
    del log[:]
    assert solver.solve(np.zeros(2)).tolist() == [1.0, 1.0]
    assert not solver.fell_back
    assert log and set(log) == {("solve", 1.0)}


@pytest.mark.parametrize("later_omega", [1e-6, 1e-8])
def test_chain_keeps_the_better_answer_but_moves_to_the_next_stage(later_omega):
    # both stages stall above _REFINE_ACCEPT; the later one is worse or tied
    log = []
    solver = _NewtonSolver(
        [_fake_stage(1.0, log), _fake_stage(2.0, log)], _fake_residual({1.0: 1e-8, 2.0: later_omega})
    )
    assert solver.solve(np.zeros(2)).tolist() == [1.0, 1.0]
    assert solver.fell_back
    assert ("solve", 2.0) in log
    del log[:]
    assert solver.solve(np.zeros(2)).tolist() == [2.0, 2.0]
    assert log and set(log) == {("solve", 2.0)}
