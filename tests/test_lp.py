from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from conered.errors import DimensionMismatch, MaxIterations, NumericalBreakdown
from conered.hottopixx import build_model_h, model_h_lp
from conered.lp import (
    _REFINE_TARGET,
    STATUS_OPTIMAL,
    LpProblem,
    _backward_error,
    _refine,
    _Unassembled,
    solve_lp_ipm,
    write_lp_text,
)

from oracles import STATUS_INFEASIBLE, assembled_stage, kkt_matrix, solve_lp_simplex


def _tiny_problem():
    # min x1 + 2 x2  s.t.  x1 + x2 = 1,  0 <= x <= 1: optimum at x = (1, 0)
    return LpProblem(
        c=np.array([1.0, 2.0]),
        a_eq=sp.csr_matrix(np.array([[1.0, 1.0]])),
        b_eq=np.array([1.0]),
        ub=np.array([1.0, 1.0]),
    )


def test_ipm_tiny():
    res = solve_lp_ipm(_tiny_problem(), assembled_stage)
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
    for solver in (partial(solve_lp_ipm, stage=assembled_stage), solve_lp_simplex):
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
    ipm = solve_lp_ipm(prob, assembled_stage)
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
    res = solve_lp_ipm(prob, assembled_stage, max_iter=1)
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
    return kkt_matrix(a, sp.csc_matrix(a.T), d, reg)


def _normwise_residual(kkt, x, b):
    r = b - kkt @ x
    knorm = abs(kkt).sum(axis=1).max()
    return np.abs(r).max() / (knorm * np.abs(x).max() + np.abs(b).max())


def _assembled_residual(kkt, x, rhs):
    r = rhs - kkt @ x
    return r, _backward_error(r, abs(kkt) @ np.abs(x) + np.abs(rhs))


def _refined_pivoted_lu(kkt, b):
    # SuperLU's pivoted LU of the given matrix (as the oracle's assembled
    # stage factors a KKT), refined against that matrix, since some of these
    # matrices are not KKTs
    return _refine(splu(kkt).solve, partial(_assembled_residual, kkt), b)[0]


def test_refined_pivoted_lu_solve_matches_dense_solve():
    rng = np.random.default_rng(83)
    prob = model_h_lp(build_model_h(rng.random((4, 39)), 4))
    nv = prob.c.size
    d = 10.0 ** rng.uniform(-10.0, 10.0, nv)
    kkt = _kkt(prob.a_eq, d)
    b = rng.standard_normal(kkt.shape[0])
    x = _refined_pivoted_lu(kkt, b)
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
    x = _refined_pivoted_lu(kkt, b)
    assert np.allclose(x, np.linalg.solve(kkt.toarray(), b), rtol=1e-14, atol=0.0)


def test_singular_diagonal_factorization_uses_pivoted_lu():
    # a factorization on the diagonal meets an exactly singular pivot here;
    # the pivoted LU (and the matrix, with determinant -2e40) does not
    kkt = sp.csc_matrix(np.array([[2.0, 2.0, 1e20], [2.0, 2.0, 0.0], [1e20, 0.0, 1e-300]]))
    b = np.array([1.0, 2.0, 3.0])
    x = _refined_pivoted_lu(kkt, b)
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
    # would, answers to about 1e-5; refinement against K's own residual
    # brings it to the target
    rng = np.random.default_rng(83)
    a_eq = model_h_lp(build_model_h(rng.random((4, 39)), 4)).a_eq
    neq, nv = a_eq.shape
    d = 10.0 ** rng.uniform(-4.0, 4.0, nv)
    kkt = _kkt(a_eq, d)
    perturbed = splu((kkt + sp.diags(np.repeat([-1e-8, 1e-8], [nv, neq]))).tocsc())
    unassembled = _Unassembled(a_eq, sp.csc_matrix(a_eq.T))
    residual = partial(unassembled.residual, d + 1e-12, 1e-12)
    b = rng.standard_normal(kkt.shape[0])
    assert residual(perturbed.solve(b), b)[1] > 1024.0 * _REFINE_TARGET
    x, omega = _refine(perturbed.solve, residual, b)
    assert omega == residual(x, b)[1] <= _REFINE_TARGET
    dense = np.linalg.solve(kkt.toarray(), b)
    assert np.abs(x - dense).max() <= 1e-11 * np.abs(dense).max()


def test_stalled_refinement_returns_its_answer():
    # a solve that returns 0.4 of the answer: each refinement step cuts the
    # error by only 0.6, so refinement stops at once, far above
    # _REFINE_TARGET, and the answer is returned with its error instead of
    # raising, for the IPM to take as an inexact direction
    rng = np.random.default_rng(87)
    kkt = _kkt(sp.csr_matrix(rng.standard_normal((3, 6))), 10.0 ** rng.uniform(-2.0, 2.0, 6))
    exact = splu(kkt).solve
    b = rng.standard_normal(kkt.shape[0])
    residual = partial(_assembled_residual, kkt)
    x, omega = _refine(lambda rhs: 0.4 * exact(rhs), residual, b)
    assert np.array_equal(x, 0.4 * exact(b))
    assert omega == residual(x, b)[1] > 1e6 * _REFINE_TARGET


def test_stage_that_never_factors_raises_a_named_breakdown():
    # the error names the LP's size, the iteration and the regularization
    def singular(kkt, d_inv, reg):
        raise np.linalg.LinAlgError("singular")

    with pytest.raises(NumericalBreakdown) as info:
        solve_lp_ipm(_tiny_problem(), singular)
    assert str(info.value) == "the 1 x 2 LP's Newton stage cannot factor at iteration 1, at reg 1e-12"
