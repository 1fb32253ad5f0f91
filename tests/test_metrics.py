import itertools
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conered import (
    IndexSet,
    assemble,
    dict_distance,
    dr,
    mrsa_score,
    random_separable,
    reconstruction_error,
    rho,
    theorem1_check,
)
from conered import metrics
from conered.errors import KSmallerThanR, TooManyColumns
from conered.lp import STATUS_OPTIMAL, _assembled_stage, _kkt_matrix, _NewtonSolver, _Unassembled, solve_lp_ipm
from conered.metrics import _sign_pattern_stage, abundance_maxima, sign_pattern_lp

from oracles import assignment_enumerate, rho_grid, sign_pattern_lp_stacked


def test_rho_identity():
    assert rho(np.eye(4)) == pytest.approx(1.0, abs=1e-9)


def test_rho_duplicate_columns_is_zero():
    w = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert rho(w) <= 1e-9


def test_rho_hand_case():
    w = np.array([[1.0, 0.5], [0.0, 0.5]])
    assert rho(w) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_rho_matches_grid_search():
    rng = np.random.default_rng(31)
    for r in (2, 3):
        for _ in range(3):
            w = rng.random((4, r))
            w /= np.abs(w).sum(axis=0)
            assert rho(w) <= rho_grid(w, 300_000) + 1e-9
            assert rho(w) == pytest.approx(rho_grid(w, 300_000), abs=2e-3)


def _rho_all_patterns(w):
    """rho as the minimum over every one of the 2^r sign patterns."""
    best = np.inf
    for signs in itertools.product((1.0, -1.0), repeat=w.shape[1]):
        res = solve_lp_ipm(sign_pattern_lp(w * np.asarray(signs)[None, :]))
        assert res.status == STATUS_OPTIMAL
        best = min(best, res.objective)
    return max(best, 0.0)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_rho_half_enumeration_matches_full(r):
    # ||W(-x)||_1 = ||Wx||_1, so fixing the first sign loses no minimum
    rng = np.random.default_rng(40 + r)
    for _ in range(2):
        w = rng.standard_normal((r + 3, r))
        assert rho(w) == pytest.approx(_rho_all_patterns(w), rel=0.0, abs=1e-12)


def test_rho_rejects_large_r():
    with pytest.raises(TooManyColumns):
        rho(np.random.default_rng(0).random((20, 13)))


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_rho_bounded_by_one_for_normalized_columns(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    r = int(rng.integers(1, 5))
    w = rng.random((d, r)) + 0.01
    w /= np.abs(w).sum(axis=0)
    value = rho(w)
    assert value <= 1.0 + 1e-9
    assert value >= -1e-12


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_rho_positive_iff_independent(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    r = int(rng.integers(2, min(d, 4) + 1))
    w = rng.random((d, r)) + 0.05
    w /= np.abs(w).sum(axis=0)
    smin = np.linalg.svd(w, compute_uv=False)[-1]
    if smin > 1e-6:
        assert rho(w) > 0.0
    if rng.random() < 0.5:
        # force dependence and watch rho collapse
        w[:, -1] = w[:, 0]
        assert rho(w) <= 1e-8


def _patterns(w):
    """W times each of its 2^(r-1) sign patterns with a positive first entry."""
    for signs in itertools.product((1.0, -1.0), repeat=w.shape[1] - 1):
        yield w * np.asarray((1.0, *signs))[None, :]


def test_sign_pattern_lp_matches_stacked_reference():
    w = np.random.default_rng(41).standard_normal((20, 7))
    w[[0, 3, 3, 19], [0, 2, 6, 4]] = 0.0  # exact zeros are left out
    for ws in _patterns(w):
        prob, ref = sign_pattern_lp(ws), sign_pattern_lp_stacked(ws)
        for attr in ("indptr", "indices", "data"):
            got, want = getattr(prob.a_eq, attr), getattr(ref.a_eq, attr)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for attr in ("c", "b_eq", "ub"):
            assert np.array_equal(getattr(prob, attr), getattr(ref, attr))


def _sign_pattern_chain(ws, d, reg=1e-12):
    # the chain rho gives solve_lp_ipm: the sign-pattern stage, then the KKT,
    # both refined against the unassembled KKT
    a_eq = sign_pattern_lp(ws).a_eq
    at = sp.csc_matrix(a_eq.T)
    kkt = _kkt_matrix(a_eq, at, d, reg)
    unassembled = _Unassembled(a_eq, at)
    stage = partial(_sign_pattern_stage, ws, unassembled, d, reg)
    residual = partial(unassembled.residual, d + reg, reg)
    return _NewtonSolver([stage, partial(_assembled_stage, lambda: kkt)], residual), unassembled, kkt


def test_sign_pattern_stage_matches_dense_solve_over_twenty_decades():
    rng = np.random.default_rng(85)
    ws = rng.standard_normal((50, 7))
    for _ in range(5):
        d = 10.0 ** rng.uniform(-10.0, 10.0, 7 + 3 * 50)
        solver, unassembled, kkt = _sign_pattern_chain(ws, d)
        b = rng.standard_normal(kkt.shape[0])
        x = solver.solve(b)
        assert not solver.fell_back
        assert unassembled.residual(d + 1e-12, 1e-12, x, b)[1] <= 1e-13
        r = b - kkt @ x
        knorm = abs(kkt).sum(axis=1).max()
        assert np.abs(r).max() / (knorm * np.abs(x).max() + np.abs(b).max()) <= 1e-13


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
def test_sign_pattern_stage_without_a_factor_uses_the_assembled_kkt():
    # a negative weight on y has no square root, so N has no Cholesky factor
    rng = np.random.default_rng(86)
    ws = rng.standard_normal((6, 3))
    d = np.ones(3 + 3 * 6)
    d[:3] = -1.0
    solver, unassembled, kkt = _sign_pattern_chain(ws, d)
    with pytest.raises(np.linalg.LinAlgError):
        _sign_pattern_stage(ws, unassembled, d, 1e-12)
    assert solver.fell_back
    b = rng.standard_normal(kkt.shape[0])
    x = solver.solve(b)
    assert np.allclose(x, np.linalg.solve(kkt.toarray(), b), rtol=1e-10, atol=1e-12)


def test_sign_pattern_stage_keeps_iterations_on_rho_instance(monkeypatch):
    # perfbench rho-patterns, seed 1: 64 LPs and 747 iterations, as on the
    # assembled KKT alone
    w = random_separable(d=50, n=7, r=7, seed=np.random.SeedSequence([1, 3]), noise_norm=0.0).w
    calls = []

    def recording(prob, *args, **kwargs):
        res = solve_lp_ipm(prob, *args, **kwargs)
        calls.append((prob, res))
        return res

    monkeypatch.setattr(metrics, "solve_lp_ipm", recording)
    rho(w)
    assert len(calls) == 64
    assert sum(res.iterations for _, res in calls) == 747
    for prob, res in calls:
        assembled = solve_lp_ipm(prob)
        assert res.fallbacks == 0
        assert res.iterations == assembled.iterations
        assert res.objective == pytest.approx(assembled.objective, rel=1e-12)


def test_reconstruction_error_self_representation():
    a = np.random.default_rng(32).random((3, 7))
    assert reconstruction_error(a, IndexSet.from_iterable(range(7))) <= 1e-12


def test_reconstruction_error_hand_case():
    assert reconstruction_error(np.eye(2), IndexSet.from_iterable([0])) == pytest.approx(0.5)


def test_reconstruction_error_below_threshold_for_dr_outputs():
    rng = np.random.default_rng(33)
    for _ in range(5):
        inst = random_separable(5, 25, 3, seed=int(rng.integers(1 << 30)))
        a = assemble(inst, float(rng.random()))
        k = dr(a)
        assert reconstruction_error(a, k) < 1e-8


def test_dict_distance_zero_at_pure_indices():
    inst = random_separable(6, 20, 3, seed=34)
    a = assemble(inst, 0.0)
    s = IndexSet.from_iterable(inst.pure_indices)
    assert dict_distance(a, s, inst.w, metric="l1") <= 1e-12
    assert dict_distance(a, s, inst.w, metric="mrsa") <= 1e-6


def test_dict_distance_single_index():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    w = np.array([[0.5], [0.25], [0.25]])
    expected = np.abs(w[:, 0] - a[:, 1]).sum()
    got = dict_distance(a, IndexSet.from_iterable([1]), w, metric="l1")
    assert got == pytest.approx(expected, abs=1e-12)


def test_dict_distance_monotone_in_the_index_set():
    rng = np.random.default_rng(35)
    inst = random_separable(5, 30, 3, seed=36)
    a = assemble(inst, 0.4)
    for metric in ("l1", "mrsa"):
        nested = rng.permutation(30)
        vals = [
            dict_distance(a, IndexSet.from_iterable(nested[:size]), inst.w, metric=metric)
            for size in (3, 6, 12, 24, 30)
        ]
        assert all(b <= a_ + 1e-12 for a_, b in zip(vals, vals[1:]))


def test_mrsa_score_identical():
    w = np.random.default_rng(37).random((5, 4))
    out = mrsa_score(w, w)
    assert out.score == 0.0
    assert np.array_equal(out.sigma, np.arange(4))
    assert np.array_equal(out.per_col, np.zeros(4))


def test_mrsa_score_recovers_permutation():
    w = np.random.default_rng(38).random((6, 4))
    pi = np.array([2, 0, 3, 1])
    out = mrsa_score(w, w[:, pi])
    assert out.score == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(out.sigma, pi)


def test_mrsa_score_matches_enumeration():
    rng = np.random.default_rng(39)
    for _ in range(10):
        w_ref = rng.random((5, 4))
        w_est = rng.random((5, 4))
        out = mrsa_score(w_ref, w_est)
        from conered import mrsa

        cost = np.array(
            [[mrsa(w_ref[:, i], w_est[:, j]) for j in range(4)] for i in range(4)]
        )
        expected_sigma, expected_total = assignment_enumerate(cost)
        assert np.array_equal(out.sigma, expected_sigma)
        assert out.score == pytest.approx(100.0 * expected_total / 4.0, abs=1e-9)


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_mrsa_score_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 5))
    w_ref = rng.random((4, r)) + 0.01
    w_est = rng.random((4, r)) + 0.01
    pi = rng.permutation(r)
    assert mrsa_score(w_ref, w_est[:, pi]).score == pytest.approx(
        mrsa_score(w_ref, w_est).score, abs=1e-9
    )


def test_abundance_maxima_reads_h():
    h = np.array([[1.0, 0.2, 0.0], [0.0, 0.8, 1.0]])
    mu = abundance_maxima(h, IndexSet.from_iterable([1, 2]))
    assert np.allclose(mu, [0.2, 1.0])


def test_theorem_noiseless():
    inst = random_separable(6, 25, 3, seed=40)
    a = assemble(inst, 0.0)
    report = theorem1_check(inst, 0.0, dr(a))
    assert report.epsilon == 0.0
    assert report.satisfied
    assert np.array_equal(report.per_j_l1, np.zeros(3))
    assert np.unique(report.chosen).size == 3


def test_theorem_under_the_noise_hypothesis():
    inst = random_separable(8, 30, 3, seed=41)
    a0 = assemble(inst, 0.0)
    rho_w = rho(inst.w)
    nu = rho_w / 10.0
    a = assemble(inst, nu)
    report = theorem1_check(inst, nu, dr(a))
    assert report.hypothesis_holds
    assert report.satisfied
    assert report.epsilon == pytest.approx(nu, abs=1e-12)
    assert report.bound == pytest.approx((9.0 / rho_w + 1.0) * nu, rel=1e-9)


def test_theorem_reports_outside_hypothesis():
    inst = random_separable(8, 30, 3, seed=42)
    nu = 10.0 * rho(inst.w)
    report = theorem1_check(inst, nu, dr(assemble(inst, nu)))
    assert not report.hypothesis_holds


def test_theorem_needs_enough_columns():
    inst = random_separable(6, 20, 3, seed=43)
    with pytest.raises(KSmallerThanR):
        theorem1_check(inst, 0.0, IndexSet.from_iterable([0, 1]))
