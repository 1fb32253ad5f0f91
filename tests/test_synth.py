import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conered import HsiMatrix, assemble, derive_whv, l1_normalize_columns, random_separable
from conered.errors import BadParameter, DuplicateMatch, ZeroNoise
from conered.synth import (
    SynthInstance,
    matrix_l1_norm,
    project_columns_to_simplex,
    read_sidecar,
    simplex_constrained_lstsq,
    write_sidecar,
)

from oracles import simplex_lstsq_enumerate


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_random_instances_satisfy_invariants(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 12))
    r = int(rng.integers(1, min(d, 5) + 1))
    n = int(rng.integers(r, 40))
    inst = random_separable(d, n, r, seed=seed)
    assert inst.w.shape == (d, r)
    assert np.all(inst.w >= 0)
    assert np.allclose(np.abs(inst.w).sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(inst.h.sum(axis=0), 1.0, atol=1e-10)
    assert np.array_equal(inst.h[:, inst.pure_indices], np.eye(r))
    assert matrix_l1_norm(inst.v) == pytest.approx(1.0, abs=1e-12)


def test_noiseless_assembly():
    inst = random_separable(6, 20, 3, seed=1)
    a = assemble(inst, 0.0)
    assert np.array_equal(a.values, inst.w @ inst.h)


def test_assembly_scales_noise_to_requested_norm():
    inst = random_separable(6, 20, 3, seed=2)
    a = assemble(inst, 0.5)
    noise = a.values - inst.w @ inst.h
    assert matrix_l1_norm(noise) == pytest.approx(0.5, abs=1e-12)


def test_assembly_rejects_negative_nu():
    inst = random_separable(4, 10, 2, seed=3)
    with pytest.raises(ValueError):
        assemble(inst, -0.1)


@pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
def test_noise_arguments_must_be_nonnegative_and_finite(bad):
    inst = random_separable(4, 10, 2, seed=3)
    with pytest.raises(BadParameter):
        assemble(inst, bad)
    with pytest.raises(BadParameter):
        random_separable(4, 10, 2, seed=3, noise_norm=bad)


def test_assembly_needs_noise_direction():
    inst = random_separable(4, 10, 2, seed=4, noise_norm=0.0)
    assert np.array_equal(assemble(inst, 0.0).values, inst.w @ inst.h)
    with pytest.raises(ZeroNoise):
        assemble(inst, 0.3)


def test_pure_columns_are_exact_copies_of_w():
    inst = random_separable(8, 30, 4, seed=5)
    a = assemble(inst, 0.0)
    assert np.array_equal(a.values[:, inst.pure_indices], inst.w)


def test_same_seed_reproduces_instance():
    one = random_separable(5, 15, 3, seed=11)
    two = random_separable(5, 15, 3, seed=11)
    assert np.array_equal(one.w, two.w)
    assert np.array_equal(one.h, two.h)
    assert np.array_equal(one.v, two.v)
    assert np.array_equal(one.pure_indices, two.pure_indices)


def test_instance_validation_rejects_bad_h():
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    h = np.array([[0.9, 0.0], [0.0, 1.0]])  # first column not stochastic
    with pytest.raises(ValueError):
        SynthInstance(w=w, h=h, v=np.zeros((2, 2)), pure_indices=np.array([0, 1]), nu=0.0)


def test_projection_lands_on_simplex():
    rng = np.random.default_rng(6)
    y = rng.normal(size=(4, 30))
    p = project_columns_to_simplex(y)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)


def test_projection_fixes_simplex_points():
    rng = np.random.default_rng(7)
    y = rng.dirichlet(np.ones(5), size=8).T
    assert np.allclose(project_columns_to_simplex(y), y, atol=1e-12)


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_projection_satisfies_variational_inequality(seed):
    # p is the Euclidean projection iff (y - p) . (z - p) <= 0 for all
    # z in the simplex
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    y = rng.normal(size=(m, 1)) * 3
    p = project_columns_to_simplex(y)[:, 0]
    for _ in range(20):
        z = rng.dirichlet(np.ones(m))
        assert (y[:, 0] - p) @ (z - p) <= 1e-10


def test_constrained_lstsq_matches_face_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(2, 5))
        w = rng.random((d, r))
        b = rng.random((d, 1))
        h = simplex_constrained_lstsq(w, b, tol=1e-10)
        _, best = simplex_lstsq_enumerate(w, b[:, 0])
        achieved = float(np.linalg.norm(w @ h[:, 0] - b[:, 0]))
        assert achieved <= best + 1e-6
        assert h[:, 0].min() >= -1e-12
        assert h[:, 0].sum() == pytest.approx(1.0, abs=1e-10)


def test_derive_recovers_exact_separable_input():
    inst = random_separable(6, 25, 3, seed=9)
    a_real = HsiMatrix(inst.w @ inst.h)
    derived = derive_whv(a_real, inst.w)
    assert np.array_equal(np.sort(derived.pure_indices), np.sort(inst.pure_indices))
    assert matrix_l1_norm(derived.v) <= 1e-6
    assert np.allclose(derived.w @ derived.h, a_real.values, atol=1e-6)


def test_derive_matches_the_exact_column_after_a_near_duplicate():
    # Column 5 is 1e-11 from the reference and column 6 equals it. Their
    # cosines with it both round to 1, so an angle taken as the arccos of
    # the cosine reads 0 for both and cannot tell them apart.
    rng = np.random.default_rng(0)
    a_real = rng.uniform(0.1, 1.0, size=(20, 40))
    w_ident = l1_normalize_columns(rng.uniform(0.1, 1.0, size=(20, 2)))
    a_real[:, 5] = w_ident[:, 0] + 1e-11 * rng.standard_normal(20)
    a_real[:, 6] = w_ident[:, 0]
    assert derive_whv(a_real, w_ident).pure_indices[0] == 6


def test_derive_rejects_duplicate_matches():
    rng = np.random.default_rng(10)
    a_real = rng.random((5, 12))
    w_ident = np.tile(a_real[:, [3]], (1, 3))
    with pytest.raises(DuplicateMatch):
        derive_whv(a_real, w_ident)


def test_derive_identity_consistency():
    # V = A - WH holds by construction, bit for bit
    rng = np.random.default_rng(12)
    a_real = rng.random((4, 10))
    w_ident = a_real[:, [0, 4]] + 0.01 * rng.random((4, 2))
    derived = derive_whv(a_real, w_ident)
    from conered import l1_normalize_columns

    normalized = l1_normalize_columns(a_real)
    assert np.array_equal(derived.v, normalized - derived.w @ derived.h)
    assert derived.nu == pytest.approx(matrix_l1_norm(derived.v), abs=0.0)


def test_derived_nu_round_trips_to_real_image():
    rng = np.random.default_rng(13)
    a_real = rng.random((4, 10))
    w_ident = a_real[:, [0, 4]] + 0.01 * rng.random((4, 2))
    derived = derive_whv(a_real, w_ident)
    from conered import l1_normalize_columns

    rebuilt = assemble(derived, derived.nu)
    assert np.allclose(rebuilt.values, l1_normalize_columns(a_real), atol=1e-12)


def test_sidecar_round_trip(tmp_path):
    inst = random_separable(5, 12, 2, seed=14)
    path = tmp_path / "inst.meta"
    write_sidecar(str(path), inst, seed=14, nu=0.25)
    back = read_sidecar(str(path))
    assert back["d"] == 5 and back["n"] == 12 and back["r"] == 2
    assert back["seed"] == 14
    assert back["nu"] == 0.25
    assert back["noise_norm"] == 1.0
    assert set(back["pure_indices"].indices.tolist()) == set(
        inst.pure_indices.tolist()
    )
