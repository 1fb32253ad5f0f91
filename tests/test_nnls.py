import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lstsq

import conered
import conered.reduction
from conered import (
    IndexSet,
    InputFormatError,
    assemble,
    cone_membership,
    dr,
    drs,
    nnls_solve,
    random_separable,
    reduce_dimension,
    verify_gamma,
)
from conered.errors import BadParameter, MaxIterations, NonFiniteInput, NumericalBreakdown
from conered.nnls import _lstsq_gelsy

from oracles import nnls_enumerate, nnls_lstsq_reference

# An N(0, 1) draw (criterion-6 style, d, m <= 5) on which Lawson-Hanson
# without the step-6 guard cycles until MaxIterations.
CYCLING_B = np.array([
    [-0.7391541067300216, -2.2878479598665473, 1.1980712039539168],
    [-0.1317892918583899, 0.23701653350802993, -0.11703397602258027],
])
CYCLING_Y = np.array([0.013128131730432561, 0.8547139160982621])


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


@pytest.mark.parametrize("eps_feas", [math.nan, 0.0, -1.0, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda a, e: cone_membership(a[:, 1:], a[:, 0], eps_feas=e),
        lambda a, e: dr(a, eps_feas=e),
        lambda a, e: drs(a, 5, eps_feas=e),
        lambda a, e: verify_gamma(a, IndexSet(np.arange(10)), eps_feas=e),
    ],
    ids=["cone_membership", "dr", "drs", "verify_gamma"],
)
def test_eps_feas_must_be_positive_and_finite(call, eps_feas):
    # unchecked, NaN, 0 and -1 read every column as outside the cone (drs
    # keeps all 200 columns) and inf reads every one inside (drs keeps 1)
    a = reduce_dimension(assemble(random_separable(20, 200, 3, seed=7), 0.1).values, 3)
    with pytest.raises(BadParameter):
        call(a, eps_feas)


def test_duplicate_columns_are_fine():
    b = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = nnls_solve(b, np.array([2.0, 4.0]))
    assert res.residual_norm <= 1e-12


def _assert_same_result(res, ref):
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.residual_norm == ref.residual_norm
    assert res.iterations == ref.iterations


@pytest.mark.parametrize("shape", [(5, 3), (4, 4), (2, 5), (5, 1), (1, 3)])
def test_gelsy_helper_matches_scipy_lstsq(shape):
    rng = np.random.default_rng(sum(shape))
    for trial in range(50):
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3)
        if trial % 3 == 0 and shape[1] > 1:
            a[:, -1] = a[:, 0]
        y = rng.normal(size=shape[0])
        a_before, y_before = a.copy(), y.copy()
        z = _lstsq_gelsy(a, y)
        expected = lstsq(a, y, lapack_driver="gelsy")[0]
        assert z.shape == expected.shape == (shape[1],)
        assert z.tobytes() == expected.tobytes()
        assert np.array_equal(a, a_before) and np.array_equal(y, y_before)


@st.composite
def _nnls_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["normal", "duplicate", "low_rank"]))
    b = rng.normal(size=(d, m))
    if kind == "duplicate" and m > 1:
        i, j = rng.choice(m, size=2, replace=False)
        b[:, i] = b[:, j]
    elif kind == "low_rank":
        rank = int(rng.integers(1, min(d, m) + 1))
        b = rng.normal(size=(d, rank)) @ rng.normal(size=(rank, m))
    y = rng.normal(size=d)
    if draw(st.booleans()):
        y = b @ np.abs(rng.normal(size=m))
    scale = 10.0 ** draw(st.integers(-8, 2))
    return scale * b, scale * y


@given(_nnls_problems())
@settings(max_examples=300, deadline=None)
def test_bit_identical_to_lstsq_reference(problem):
    b, y = problem
    try:
        ref = nnls_lstsq_reference(b, y)
    except MaxIterations:
        # The only outcome the step-6 guard changes: cycling becomes a solution.
        res = nnls_solve(b, y)
        _, exact = nnls_enumerate(b, y)
        assert abs(res.residual_norm - exact) <= 1e-9 * max(1.0, np.linalg.norm(y))
        return
    _assert_same_result(nnls_solve(b, y), ref)


def test_drs_membership_tests_bit_identical_to_lstsq_reference(monkeypatch):
    inst = random_separable(d=30, n=600, r=5, seed=np.random.SeedSequence([4, 2]))
    ap = reduce_dimension(assemble(inst, 0.1), 5)
    calls = []

    def checked(dictionary, target, eps_feas=1e-8):
        member, res = cone_membership(dictionary, target, eps_feas)
        _assert_same_result(res, nnls_lstsq_reference(dictionary, target))
        calls.append(res.iterations)
        return member, res

    monkeypatch.setattr(conered.reduction, "cone_membership", checked)
    drs(ap, 6)
    assert len(calls) > 500
    assert max(calls) > 1


def test_cycling_reproducer_solved_by_step6_guard():
    with pytest.raises(MaxIterations):
        nnls_lstsq_reference(CYCLING_B, CYCLING_Y)
    res = nnls_solve(CYCLING_B, CYCLING_Y)
    ex, exact = nnls_enumerate(CYCLING_B, CYCLING_Y)
    assert np.allclose(res.x, [0.0, 63.27889162, 120.84892012], rtol=1e-8, atol=0.0)
    assert np.allclose(res.x, ex, rtol=1e-9, atol=0.0)
    assert abs(res.residual_norm - exact) <= 1e-9


def test_formerly_cycling_draws_match_enumeration():
    rng = np.random.default_rng(1)
    formerly_cycling = 0
    for _ in range(12_000):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        b = rng.normal(size=(d, m))
        y = rng.normal(size=d)
        try:
            nnls_lstsq_reference(b, y)
        except MaxIterations:
            formerly_cycling += 1
            _, exact = nnls_enumerate(b, y)
            assert abs(nnls_solve(b, y).residual_norm - exact) <= 1e-9
    assert formerly_cycling >= 3


@pytest.mark.parametrize(
    "b, y, name",
    [
        (np.array([[np.nan, 1.0], [0.0, 1.0]]), np.array([1.0, 1.0]), "dictionary"),
        (np.array([[1.0, 1.0], [0.0, -np.inf]]), np.array([1.0, 1.0]), "dictionary"),
        (np.eye(2), np.array([np.inf, 1.0]), "target"),
        (np.eye(2), np.array([1.0, np.nan]), "target"),
        (np.zeros((2, 2)), np.array([np.inf, 0.0]), "target"),
        (np.zeros((2, 0)), np.array([np.nan, 1.0]), "target"),
    ],
)
def test_non_finite_input_is_named(b, y, name):
    with pytest.raises(NonFiniteInput, match=name) as info:
        nnls_solve(b, y)
    assert isinstance(info.value, InputFormatError)


def test_infinite_target_is_not_reported_as_outside_the_cone():
    with pytest.raises(NonFiniteInput, match="target"):
        cone_membership(np.eye(2), np.array([np.inf, 1.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_norms_are_solved_by_power_of_two_scaling():
    # ||B||_F * ||y||_2 overflows: the loop used to stop at once with x = 0
    res = nnls_solve(1e200 * np.eye(2), [1e200, 1e200])
    assert res.x.tolist() == [1.0, 1.0]
    assert res.residual_norm == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("eb, ey", [(600, 600), (700, 650), (1000, 100), (100, 1000)])
def test_overflowing_scale_gives_the_scaled_solution(eb, ey):
    # largest entries in [1/2, 1), so the guard's powers of two are eb and ey
    rng = np.random.default_rng(eb + ey)
    b = rng.standard_normal((5, 4))
    y = rng.standard_normal(5)
    b = np.ldexp(b, -int(np.frexp(np.abs(b).max())[1]))
    y = np.ldexp(y, -int(np.frexp(np.abs(y).max())[1]))
    ref = nnls_solve(b, y)
    res = nnls_solve(np.ldexp(b, eb), np.ldexp(y, ey))
    assert np.array_equal(res.x, np.ldexp(ref.x, ey - eb))
    assert res.residual_norm == np.ldexp(ref.residual_norm, ey)
    assert res.iterations == ref.iterations


@pytest.mark.parametrize("e", [-700, -1000])
def test_underflowing_scale_gives_the_unscaled_solution(e):
    # ||B||_F * ||y||_2 underflows to 0: the loop used to stop at once with
    # x = 0 and residual 0, so every target read as a cone member
    rng = np.random.default_rng(3)
    for _ in range(200):
        b = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        ref = nnls_solve(b, y)
        res = nnls_solve(np.ldexp(b, e), np.ldexp(y, e))
        assert np.array_equal(res.x, ref.x)
        assert res.iterations == ref.iterations
        assert res.residual_norm > 0.0 or ref.residual_norm == 0.0


@pytest.mark.parametrize(
    "b, y, residual", [(np.zeros((2, 2)), [3.0, 4.0], 5.0), (1e-300 * np.eye(2), [0.0, 0.0], 0.0)]
)
def test_zero_dictionary_or_target_returns_zero(b, y, residual):
    res = nnls_solve(b, y)
    assert res.x.tolist() == [0.0, 0.0]
    assert res.residual_norm == residual
    assert res.iterations == 0


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("shape", [(2, 2), (2, 0)], ids=["zero", "empty"])
@pytest.mark.parametrize("y", [[1e-300, 0.0], [1e200, 1e200]], ids=["tiny", "huge"])
def test_zero_or_empty_dictionary_residual_is_the_target_norm(shape, y):
    # squaring the entries of y underflows to 0 or overflows to inf
    res = nnls_solve(np.zeros(shape), y)
    assert res.x.size == shape[1] and not res.x.any()
    assert res.residual_norm == pytest.approx(math.hypot(*y), rel=1e-15, abs=0.0)
    assert res.iterations == 0


def test_tiny_target_is_outside_a_zero_dictionary_cone():
    assert not cone_membership(np.zeros((2, 2)), np.array([1e-300, 0.0]), eps_feas=1e-320)[0]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_solution_beyond_float64_raises():
    with pytest.raises(NumericalBreakdown):
        nnls_solve(1e-200 * np.eye(2), [1e200, 1e200])


# Peak RSS each adds on import: scipy.optimize about 16.5 MB, scipy.spatial
# 6.9 MB, scipy.sparse.csgraph 0.8 MB. No import path may pull one in.
@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.spatial", "scipy.sparse.csgraph"])
def test_import_leaves_module_out(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(conered.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, conered; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
