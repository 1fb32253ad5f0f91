"""The three workloads: seeded inputs, the timed entry call, and output checks.

Every op is ``core.load_matrix`` of one of the workload's input files followed
by the workload's entry call. Calls go through module attributes looked up at call
time, so a traced run sees them through the wrappers in ``spans``.

Each workload also gives ``err_x100``, an error of its output against the
instance's ground truth (lower is better, never 0 on these inputs):

- extract-lp: ``mrsa_score`` of ``w_hat`` against the true W (x100 scale);
  the run reports the median over its inputs.
- reduce-wide: 100 * the mean MRSA from each true endmember to its nearest
  retained column, over the same with every column kept
  (``dict_distance(..., "mrsa")``). It is 100 when K keeps, for every
  endmember, the closest column of the whole image.
- rho-patterns: 100 * rho / ub, where ub is the smallest ||Wx||_1 / ||x||_1
  over seeded random x. The exact rho is the minimum over all x, so a value
  closer to 100 means the solver missed the minimum.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from conered import HsiMatrix, IndexSet, RedicConfig, assemble, random_separable

CORE = importlib.import_module("conered.core")
DIMRED = importlib.import_module("conered.dimred")
REDUCTION = importlib.import_module("conered.reduction")
REDIC = importlib.import_module("conered.redic")
METRICS = importlib.import_module("conered.metrics")


@dataclass(frozen=True)
class Instance:
    """One generated input: the matrix written to disk, plus ground truth."""

    a: np.ndarray
    truth: dict


@dataclass(frozen=True)
class Workload:
    """``generate(seed, i)`` makes input i of ``inputs``; ops cycle through them."""

    name: str
    params: dict
    inputs: int
    generate: Callable[[int, int], Instance]
    entry: Callable[[HsiMatrix], object]
    check: Callable[[Instance, object], list[str]]
    err_x100: Callable[[Instance, object], float]

    def op(self, path: str):
        """One op: load the input file, then make the entry call."""
        return self.entry(CORE.load_matrix(path))


def _stream(seed: int, *keys: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *keys])


# ---------------------------------------------------------------- extract-lp
# A fresh random instance per seed moves |K| between about 26 and 43, and the
# LP time grows roughly as m^5 in the model size m = |K| + lam, so op time
# would vary 2.5x between seeds. The seed therefore permutes the columns of one
# fixed instance (the ROADMAP baseline, random_separable seed 3, |K| = 35):
# the cone's extreme rays, hence |K| and the LP size, do not depend on column
# order, while the k-means groups, the sweep order and the augmentation draws
# all change with the seed. The LP iteration count still depends on the draws
# (25 to 31 per solve), so a run cycles through three permutations.

EXTRACT = {"d": 50, "n": 1000, "r": 4, "nu": 0.5, "instance_seed": 3, "lam": 4, "tau": 2, "p": 30}
EXTRACT_CFG = RedicConfig(r=EXTRACT["r"], lam=EXTRACT["lam"], tau=EXTRACT["tau"], p=EXTRACT["p"])


def _extract_generate(seed: int, i: int) -> Instance:
    p = EXTRACT
    inst = random_separable(d=p["d"], n=p["n"], r=p["r"], seed=p["instance_seed"])
    a = assemble(inst, p["nu"]).values
    perm = np.random.default_rng(_stream(seed, 1, i)).permutation(p["n"])
    return Instance(a=np.ascontiguousarray(a[:, perm]), truth={"w": inst.w})


def _extract_entry(a: HsiMatrix):
    return REDIC.redic(a, EXTRACT_CFG)


def _extract_check(inst: Instance, est) -> list[str]:
    a = inst.a
    d, n = a.shape
    r, tau = EXTRACT["r"], EXTRACT["tau"]
    if len(est.selected_indices) != tau or len(est.per_rep) != tau:
        return [f"expected {tau} repetitions, got {len(est.selected_indices)}"]
    picked = []
    for j, sel in enumerate(est.selected_indices):
        sel = np.asarray(sel)
        if sel.shape != (r,) or not np.issubdtype(sel.dtype, np.integer):
            return [f"rep {j}: picks {sel!r} are not {r} integers"]
        if sel.min() < 0 or sel.max() >= n:
            return [f"rep {j}: picks {sel.tolist()} out of range [0, {n})"]
        if np.unique(sel).size != r:
            return [f"rep {j}: picks {sel.tolist()} are not distinct"]
        if not np.array_equal(est.per_rep[j], a[:, sel]):
            return [f"rep {j}: per_rep is not the picked image columns"]
        picked.append(a[:, sel])
    mean = np.mean(picked, axis=0)
    if est.w_hat.shape != (d, r) or not np.allclose(est.w_hat, mean, rtol=1e-12, atol=0.0):
        return ["w_hat is not the mean of the aligned picked columns"]
    return []


def _extract_err(inst: Instance, est) -> float:
    return METRICS.mrsa_score(HsiMatrix(inst.truth["w"]), HsiMatrix(est.w_hat)).score


# --------------------------------------------------------------- reduce-wide

REDUCE = {"d": 100, "n": 10000, "r": 5, "nu": 0.1, "p": 30}


def _reduce_generate(seed: int, i: int) -> Instance:
    p = REDUCE
    inst = random_separable(d=p["d"], n=p["n"], r=p["r"], seed=_stream(seed, 2))
    return Instance(a=assemble(inst, p["nu"]).values, truth={"w": inst.w})


def _reduce_entry(a: HsiMatrix):
    ap = DIMRED.reduce_dimension(a, REDUCE["r"])
    return ap, REDUCTION.drs(ap, REDUCE["p"])


def _reduce_check(inst: Instance, out) -> list[str]:
    ap, k = out
    ap = ap.values
    r = REDUCE["r"]
    if ap.shape != (r, inst.a.shape[1]) or not np.all(np.isfinite(ap)):
        return [f"A' has shape {ap.shape} or non-finite entries"]
    # A' = S_r V_r' exactly when its rows are orthogonal with norms s_1..s_r
    # and A A'^T / s^2 has orthonormal columns (the top-r left singular vectors).
    s = np.linalg.svd(inst.a, compute_uv=False)[:r]
    gram = ap @ ap.T
    u = inst.a @ ap.T / s**2
    if not np.allclose(gram, np.diag(s**2), rtol=0.0, atol=1e-9 * s[0] ** 2):
        return ["A' rows are not orthogonal with the top singular values as norms"]
    if not np.allclose(u.T @ u, np.eye(r), rtol=0.0, atol=1e-8):
        return ["A' is not the projection on the top-r left singular vectors"]
    rep = REDUCTION.verify_gamma(ap, k)
    if not (rep.in_gamma and rep.minimal):
        return [f"verify_gamma: in_gamma={rep.in_gamma} minimal={rep.minimal} witness={rep.witness}"]
    return []


def _reduce_err(inst: Instance, out) -> float:
    _, k = out
    every = IndexSet(np.arange(inst.a.shape[1]))
    kept = METRICS.dict_distance(inst.a, k, inst.truth["w"], metric="mrsa")
    return 100.0 * kept / METRICS.dict_distance(inst.a, every, inst.truth["w"], metric="mrsa")


# -------------------------------------------------------------- rho-patterns

RHO = {"d": 50, "r": 7, "bound_samples": 65536}


def _rho_generate(seed: int, i: int) -> Instance:
    p = RHO
    inst = random_separable(d=p["d"], n=p["r"], r=p["r"], seed=_stream(seed, 3), noise_norm=0.0)
    w = inst.w
    rng = np.random.default_rng(_stream(seed, 4))
    ub = np.inf
    for _ in range(p["bound_samples"] // 8192):
        x = rng.standard_normal((p["r"], 8192))
        ub = min(ub, float((np.abs(w @ x).sum(axis=0) / np.abs(x).sum(axis=0)).min()))
    return Instance(a=w, truth={"ub": ub})


def _rho_entry(w: HsiMatrix):
    return METRICS.rho(w)


def _rho_check(inst: Instance, value) -> list[str]:
    ub = inst.truth["ub"]
    if not (np.isfinite(value) and 0.0 <= value <= ub * (1.0 + 1e-9)):
        return [f"rho = {value!r} outside [0, {ub!r}]"]
    return []


def _rho_err(inst: Instance, value) -> float:
    return 100.0 * value / inst.truth["ub"]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("extract-lp", EXTRACT, 3, _extract_generate, _extract_entry, _extract_check, _extract_err),
        Workload("reduce-wide", REDUCE, 1, _reduce_generate, _reduce_entry, _reduce_check, _reduce_err),
        Workload("rho-patterns", RHO, 1, _rho_generate, _rho_entry, _rho_check, _rho_err),
    ]
}
