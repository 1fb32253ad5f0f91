import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conered import IndexSet, Partition, kmeans_partition
from conered.clustering import _kmeanspp_init, _lloyd

from oracles import kmeans_inertia


def test_single_group():
    a = np.random.default_rng(0).random((3, 8))
    part = kmeans_partition(a, 1, seed=0)
    assert part.p == 1
    assert list(part.groups[0].indices) == list(range(8))


def test_singletons():
    a = np.random.default_rng(1).random((3, 6))
    part = kmeans_partition(a, 6, seed=0)
    assert part.p == 6
    assert all(len(g) == 1 for g in part.groups)


def test_two_separated_blobs():
    rng = np.random.default_rng(2)
    left = rng.normal(0.0, 0.05, size=(2, 20))
    right = rng.normal(50.0, 0.05, size=(2, 20))
    a = np.concatenate([left, right], axis=1)
    part = kmeans_partition(a, 2, seed=3)
    sets = [set(g.indices.tolist()) for g in part.groups]
    assert {frozenset(s) for s in sets} == {
        frozenset(range(20)),
        frozenset(range(20, 40)),
    }


def test_partition_validates_coverage():
    with pytest.raises(ValueError):
        Partition(n=3, groups=(IndexSet.from_iterable([0, 1]),))
    with pytest.raises(ValueError):
        Partition(
            n=3,
            groups=(
                IndexSet.from_iterable([0, 1]),
                IndexSet.from_iterable([1, 2]),
            ),
        )


def test_p_reduced_to_distinct_columns():
    a = np.array([[1.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
    with pytest.warns(UserWarning):
        part = kmeans_partition(a, 3, seed=0)
    assert part.p == 2


def test_rejects_nonpositive_p():
    with pytest.raises(ValueError):
        kmeans_partition(np.ones((2, 4)), 0, seed=0)


def test_same_seed_same_partition():
    a = np.random.default_rng(4).random((3, 30))
    one = kmeans_partition(a, 4, seed=9)
    two = kmeans_partition(a, 4, seed=9)
    assert one.p == two.p
    for g1, g2 in zip(one.groups, two.groups):
        assert np.array_equal(g1.indices, g2.indices)


def test_inertia_history_non_increasing():
    rng = np.random.default_rng(5)
    points = rng.random((40, 3))
    centers = _kmeanspp_init(points, 5, np.random.default_rng(6))
    labels, _ = _lloyd(points, centers.copy())
    # the inertia after k iterations, for each k until the labels settle
    history, previous = [], None
    for k in range(1, 101):
        labels_k, _ = _lloyd(points, centers.copy(), max_iter=k)
        if np.array_equal(labels_k, previous):
            break
        history.append(kmeans_inertia(points.T, labels_k))
        previous = labels_k
    assert len(history) > 1
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    assert kmeans_inertia(points.T, labels) == pytest.approx(history[-1], abs=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_output_is_always_a_partition(case_seed):
    rng = np.random.default_rng(case_seed)
    d = int(rng.integers(1, 5))
    n = int(rng.integers(2, 15))
    p = int(rng.integers(1, n + 1))
    a = rng.normal(size=(d, n))
    part = kmeans_partition(a, p, seed=case_seed)
    # Partition.__post_init__ enforces exact coverage; p can only shrink
    assert part.n == n
    assert part.p <= p
    assert all(len(g) >= 1 for g in part.groups)
