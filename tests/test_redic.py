import dataclasses
import importlib

import numpy as np
import pytest

from conered import (
    HsiMatrix,
    RedicConfig,
    align_columns,
    assemble,
    mrsa_score,
    random_separable,
    redic,
)
from conered.core import mrsa_cost
from conered.errors import (
    BadParameter,
    ConfigError,
    InsufficientColumns,
    KSmallerThanR,
    NumericalBreakdown,
    RankTooLarge,
)

from oracles import assignment_enumerate


def test_noiseless_recovery_is_exact():
    inst = random_separable(10, 50, 3, seed=50)
    a = assemble(inst, 0.0)
    est = redic(a, RedicConfig(r=3, p=5, seed=0))
    score = mrsa_score(HsiMatrix(inst.w), HsiMatrix(est.w_hat))
    assert score.score <= 1e-8
    # each estimated column is one of the true W columns, bit for bit
    matched = est.w_hat[:, score.sigma]
    assert np.array_equal(np.sort(matched, axis=1), np.sort(inst.w, axis=1))


def test_tau_one_returns_first_repetition():
    inst = random_separable(8, 40, 3, seed=51)
    est = redic(assemble(inst, 0.1), RedicConfig(r=3, p=4, seed=1))
    assert len(est.per_rep) == 1
    # the mean of one repetition is that repetition, bit for bit
    assert (est.w_hat.shape, est.w_hat.dtype) == (est.per_rep[0].shape, est.per_rep[0].dtype)
    assert est.w_hat.tobytes() == est.per_rep[0].tobytes()
    assert est.selected_indices[0].shape == (3,)


def test_lambda_zero_collapses_repetitions():
    inst = random_separable(8, 40, 3, seed=52)
    a = assemble(inst, 0.2)
    est = redic(a, RedicConfig(r=3, p=4, seed=2, tau=3))
    assert len(est.per_rep) == 3
    for rep in est.per_rep[1:]:
        assert np.array_equal(rep, est.per_rep[0])
    assert np.allclose(est.w_hat, est.per_rep[0], atol=1e-15)


def test_estimates_are_input_columns():
    inst = random_separable(8, 40, 3, seed=53)
    a = assemble(inst, 0.3)
    est = redic(a, RedicConfig(r=3, p=4, seed=3, lam=2, tau=2))
    for rep, sel in zip(est.per_rep, est.selected_indices):
        assert np.array_equal(rep, a.values[:, sel])


def test_same_seed_same_output():
    inst = random_separable(8, 40, 3, seed=54)
    a = assemble(inst, 0.25)
    cfg = RedicConfig(r=3, p=4, seed=7, lam=3, tau=2)
    one = redic(a, cfg)
    two = redic(a, cfg)
    assert np.array_equal(one.w_hat, two.w_hat)
    for s1, s2 in zip(one.selected_indices, two.selected_indices):
        assert np.array_equal(s1, s2)


def test_different_seeds_vary_augmentation():
    inst = random_separable(8, 60, 3, seed=55)
    a = assemble(inst, 0.4)
    sels = set()
    for seed in range(8):
        est = redic(a, RedicConfig(r=3, p=4, seed=seed, lam=4, tau=1))
        sels.add(tuple(sorted(est.selected_indices[0].tolist())))
    assert len(sels) >= 1  # selection itself may be stable; draws must not crash


def test_augmentation_draws_cover_the_outside_set():
    # frequency of each outside column over many seeded draws stays
    # within a loose uniform band
    inst = random_separable(6, 30, 3, seed=56)
    a = assemble(inst, 0.5)
    from conered import drs
    from conered.dimred import reduce_dimension

    ap = reduce_dimension(a.values, 3)
    k = drs(ap, 4, seed=np.random.SeedSequence(0).spawn(1)[0])
    outside = np.setdiff1d(np.arange(30), k.indices)
    counts = {int(j): 0 for j in outside}
    draws = 0
    for seed in range(300):
        root = np.random.SeedSequence(seed)
        streams = root.spawn(2)
        rng = np.random.default_rng(streams[1])
        for j in rng.choice(outside, size=2, replace=False):
            counts[int(j)] += 1
            draws += 1
    expected = draws / outside.size
    assert min(counts.values()) > 0.3 * expected
    assert max(counts.values()) < 3.0 * expected


def test_align_columns_identity():
    c = np.random.default_rng(57).random((5, 4))
    assert np.array_equal(align_columns(c, c), c)


def test_align_columns_reversal():
    c = np.random.default_rng(58).random((5, 4))
    assert np.array_equal(align_columns(c, c[:, ::-1]), c)


def test_align_matches_enumeration():
    rng = np.random.default_rng(59)
    for _ in range(10):
        c = rng.random((6, 4))
        w = rng.random((6, 4))
        aligned = align_columns(c, w)
        cost = mrsa_cost(c, w)
        sigma, _ = assignment_enumerate(cost)
        manual = np.empty_like(w)
        manual[:, sigma] = w
        assert np.array_equal(aligned, manual)


def test_rank_larger_than_input_rejected():
    a = np.random.default_rng(60).random((4, 10))
    with pytest.raises(RankTooLarge):
        redic(a, RedicConfig(r=5, p=2, seed=0))


def test_augmentation_needs_spare_columns():
    inst = random_separable(5, 10, 3, seed=61)
    a = assemble(inst, 0.0)
    with pytest.raises(InsufficientColumns):
        redic(a, RedicConfig(r=3, p=2, seed=0, lam=9))


def test_reduction_below_rank_names_the_reduction():
    # a rank-2 image keeps 2 columns; the LP needs r = 3 of them
    rng = np.random.default_rng(5)
    a = rng.random((6, 2)) @ rng.dirichlet(np.ones(2), size=30).T
    with pytest.raises(KSmallerThanR, match=r"\|K\| = 2 .* lam = 0 .* r = 3"):
        redic(a, RedicConfig(r=3))
    assert len(redic(a, RedicConfig(r=3, lam=1)).selected_indices[0]) == 3


def test_model_hook_sees_each_repetition():
    inst = random_separable(6, 30, 3, seed=62)
    a = assemble(inst, 0.2)
    seen = []
    redic(
        a,
        RedicConfig(r=3, p=3, seed=4, lam=1, tau=3),
        model_hook=lambda j, model: seen.append((j, model.m)),
    )
    assert [j for j, _ in seen] == [0, 1, 2]
    assert all(m >= 3 for _, m in seen)


def test_config_validation():
    with pytest.raises(ValueError):
        RedicConfig(r=0)
    with pytest.raises(ValueError):
        RedicConfig(r=2, tau=0)
    with pytest.raises(ValueError):
        RedicConfig(r=2, lam=-1)
    with pytest.raises(ValueError):
        RedicConfig(r=2, p=0)


def test_config_rejects_negative_seed():
    with pytest.raises(BadParameter):
        RedicConfig(r=2, seed=-1)


@pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan"), float("inf")])
def test_config_rejects_bad_eps_feas(eps):
    with pytest.raises(ConfigError):
        RedicConfig(r=2, eps_feas=eps)


def test_noisy_run_stays_close():
    inst = random_separable(10, 60, 3, seed=63)
    a = assemble(inst, 0.05)
    est = redic(a, RedicConfig(r=3, p=5, seed=5, lam=2, tau=3))
    score = mrsa_score(HsiMatrix(inst.w), HsiMatrix(est.w_hat))
    assert score.score < 15.0


def test_violating_lp_solution_is_rejected(monkeypatch):
    module = importlib.import_module("conered.redic")
    real = module.solve_model_h

    def violating(model, **kwargs):
        sol = real(model, **kwargs)
        x = sol.x_matrix.copy()
        x[0, 1] = x[0, 0] + 1e-3  # X(i, j) above X(i, i)
        return dataclasses.replace(sol, x_matrix=x)

    monkeypatch.setattr(module, "solve_model_h", violating)
    inst = random_separable(6, 30, 3, seed=63)
    with pytest.raises(NumericalBreakdown, match="coupling by 0.001"):
        redic(assemble(inst, 0.2), RedicConfig(r=3, p=3, seed=5))
