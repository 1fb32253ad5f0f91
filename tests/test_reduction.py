import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conered import (
    HsiMatrix,
    IndexSet,
    assemble,
    dr,
    drs,
    random_separable,
    reduce_dimension,
    verify_gamma,
)
from conered.nnls import cone_membership

from oracles import nnls_enumerate


def test_interior_column_removed():
    a = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    assert list(dr(a).to_one_based()) == [1, 2]


def test_duplicate_keeps_later_column():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert list(dr(a).to_one_based()) == [2, 3]


def test_noiseless_separable_keeps_exactly_the_pure_columns():
    rng = np.random.default_rng(21)
    w = rng.random((3, 3))
    h = np.concatenate([np.eye(3), rng.dirichlet(np.ones(3), size=5).T], axis=1)
    perm = rng.permutation(8)
    a = (w @ h)[:, perm]
    pure = sorted(int(np.flatnonzero(perm == j)[0]) for j in range(3))
    k = dr(a)
    assert list(k.indices) == pure
    # every removed column really is a conic combination of the kept ones
    for j in range(8):
        if j not in k:
            _, res = nnls_enumerate(a[:, k.indices], a[:, j])
            assert res < 1e-8


def test_single_column_is_kept():
    k = dr(np.array([[2.0], [1.0]]))
    assert list(k.indices) == [0]


def test_drs_single_group_equals_dr():
    a = np.random.default_rng(22).random((3, 12))
    assert np.array_equal(drs(a, 1, seed=0).indices, dr(a).indices)


def test_drs_four_columns_any_partition():
    a = np.array([[1.0, 0.0, 0.5, 0.25], [0.0, 1.0, 0.5, 0.75]])
    for seed in range(8):
        assert list(drs(a, 2, seed=seed).to_one_based()) == [1, 2]


def test_gamma_full_set():
    a = np.random.default_rng(27).random((3, 6))
    report = verify_gamma(a, IndexSet.from_iterable(range(6)))
    assert report.in_gamma


def test_gamma_missing_generator():
    a = np.eye(2)
    report = verify_gamma(a, IndexSet.from_iterable([0]))
    assert not report.in_gamma
    assert report.witness == 1


def test_gamma_flags_redundant_member():
    a = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    report = verify_gamma(a, IndexSet.from_iterable([0, 1, 2]))
    assert report.in_gamma
    assert not report.minimal
    assert report.witness == 2


def test_dr_output_verifies_on_matrix_kind():
    m = HsiMatrix(np.random.default_rng(28).random((3, 9)))
    k = dr(m)
    report = verify_gamma(m, k)
    assert report.in_gamma and report.minimal


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_dr_output_is_in_gamma_and_minimal(case_seed):
    rng = np.random.default_rng(case_seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(2, 9))
    a = rng.random((d, n))
    if rng.random() < 0.5:
        # plant redundancy: replace a column by a conic combination
        j = int(rng.integers(n))
        coeffs = rng.random(n) * (rng.random(n) < 0.5)
        coeffs[j] = 0.0
        candidate = a @ coeffs
        if np.abs(candidate).sum() > 1e-6:
            a[:, j] = candidate
    k = dr(a)
    report = verify_gamma(a, k)
    assert report.in_gamma
    assert report.minimal


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_drs_equals_cone_of_dr(case_seed):
    """Split runs may keep a different index set, but it generates the
    same cone: every dr-kept column is inside the drs cone and vice versa."""
    rng = np.random.default_rng(case_seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(4, 12))
    p = int(rng.integers(2, 5))
    a = rng.random((d, n))
    k1 = dr(a)
    k2 = drs(a, p, seed=case_seed)
    for j in k1:
        member, _ = cone_membership(a[:, k2.indices], a[:, j])
        assert member
    for j in k2:
        member, _ = cone_membership(a[:, k1.indices], a[:, j])
        assert member


def test_wide_image_slice_member_found_by_nnls():
    # 100 x 10000 at nu = 0.1: drs drops column 7366, which lies deep inside
    # cone(A'(K)). An NNLS stop test that ignored the data scale (column
    # norms near 0.1) ended at residual 2.4e-8 and put it outside.
    inst = random_separable(100, 10000, 5, seed=np.random.SeedSequence([10, 2]))
    ap = reduce_dimension(assemble(inst, 0.1).values, 5)
    k = drs(ap, 30)
    assert 7366 not in k
    dk, target = ap[:, k.indices], ap[:, 7366]
    # Referee without NNLS: a simplex vertex of {x >= 0 : A'(K) x = a'_7366},
    # re-solved by least squares on its support.
    lp = linprog(np.zeros(len(k)), A_eq=dk, b_eq=target, bounds=(0, None), method="highs-ds")
    assert lp.status == 0
    support = np.flatnonzero(lp.x > 0)
    coef, *_ = np.linalg.lstsq(dk[:, support], target, rcond=None)
    assert coef.min() > 0.0
    assert np.linalg.norm(dk[:, support] @ coef - target) <= 1e-12 * np.linalg.norm(target)
    member, _ = cone_membership(dk, target)
    assert member
