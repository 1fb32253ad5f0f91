import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conered import cone_membership, nnls_solve

from oracles import nnls_enumerate


def test_clamps_negative_coordinates():
    res = nnls_solve(np.eye(3), np.array([1.0, -2.0, 3.0]))
    assert np.allclose(res.x, [1.0, 0.0, 3.0], atol=1e-14)
    assert res.residual_norm == pytest.approx(2.0, abs=1e-14)


def test_exact_membership_gives_tiny_residual():
    rng = np.random.default_rng(11)
    b = rng.random((6, 4))
    x0 = rng.random(4)
    res = nnls_solve(b, b @ x0)
    assert res.residual_norm <= 1e-10


def test_two_column_kkt_case():
    # gradient at the optimum vanishes on the support {2} and is
    # nonnegative on the bound-active coordinate 1
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    y = np.array([0.0, 1.0])
    res = nnls_solve(b, y)
    ex, eres = nnls_enumerate(b, y)
    assert np.allclose(res.x, ex, atol=1e-12)
    assert res.residual_norm == pytest.approx(eres, abs=1e-12)
    assert np.allclose(res.x, [0.0, 0.5], atol=1e-12)
    assert res.residual_norm == pytest.approx(np.sqrt(0.5), abs=1e-14)


def test_empty_dictionary():
    res = nnls_solve(np.zeros((3, 0)), np.array([1.0, 2.0, 2.0]))
    assert res.x.size == 0
    assert res.residual_norm == pytest.approx(3.0)


def test_zero_target():
    res = nnls_solve(np.random.default_rng(0).random((4, 3)), np.zeros(4))
    assert np.array_equal(res.x, np.zeros(3))
    assert res.residual_norm == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_matches_enumeration_and_kkt(case_seed):
    rng = np.random.default_rng(case_seed)
    d = int(rng.integers(1, 6))
    m = int(rng.integers(1, 6))
    b = rng.normal(size=(d, m))
    y = rng.normal(size=d)
    res = nnls_solve(b, y)
    _, eres = nnls_enumerate(b, y)
    assert res.residual_norm <= eres + 1e-9
    assert res.residual_norm >= eres - 1e-9
    assert res.x.min() >= 0.0
    grad = b.T @ (b @ res.x - y)
    # stationarity on the support, dual feasibility off it
    assert np.all(grad >= -1e-7)
    assert abs(grad @ res.x) <= 1e-7 * (1.0 + abs(res.residual_norm))


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-4])
def test_matches_enumeration_at_small_scale(scale):
    # Criterion 6 on data multiplied by ``scale``. The residual scales with
    # the data, so the gap is taken relative to the scale; the gradient
    # scales as scale**2, and a stop test not scaled with it quits early.
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        b = scale * rng.normal(size=(d, m))
        y = scale * rng.normal(size=d)
        _, exact = nnls_enumerate(b, y)
        worst = max(worst, abs(nnls_solve(b, y).residual_norm - exact) / scale)
    assert worst <= 1e-9


def test_membership_exact_conic_combination():
    rng = np.random.default_rng(5)
    basis = rng.random((5, 2))
    target = 0.3 * basis[:, 0] + 0.7 * basis[:, 1]
    member, res = cone_membership(basis, target)
    assert member
    assert res.residual_norm < 1e-10


def test_membership_orthogonal_target():
    member, res = cone_membership(np.eye(2)[:, :1], np.array([0.0, 1.0]))
    assert not member
    assert res.residual_norm == pytest.approx(1.0)


def test_membership_threshold_is_strict():
    basis = np.array([[1.0], [0.0]])
    target = np.array([1.0, 1e-9])
    member, res = cone_membership(basis, target, eps_feas=1e-8)
    assert member
    assert res.residual_norm == pytest.approx(1e-9, rel=1e-6)
    member2, _ = cone_membership(basis, target, eps_feas=1e-9)
    assert not member2


def test_duplicate_columns_are_fine():
    b = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = nnls_solve(b, np.array([2.0, 4.0]))
    assert res.residual_norm <= 1e-12
