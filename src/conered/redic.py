"""End-to-end endmember extraction with data reduction and averaging.

The pipeline compresses the image to r rows (top-r SVD), shrinks the column
dictionary with split redundancy removal, then solves the self-dictionary
LP on the retained columns. Repetitions re-solve on the retained set plus a
fresh random draw of lam extra columns; their estimates are permutation
aligned against the running mean and averaged. All randomness flows from
one seed through split substreams, so results do not depend on tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import solve_assignment
from .core import as_values, mrsa_cost
from .dimred import reduce_dimension
from .errors import (
    BadParameter,
    BadRank,
    InsufficientColumns,
    KSmallerThanR,
    NumericalBreakdown,
    RankTooLarge,
)
from .hottopixx import (
    audit_model_h,
    build_model_h,
    postprocess_method_c,
    solve_model_h,
)
from .reduction import drs

__all__ = [
    "RedicConfig",
    "EndmemberEstimate",
    "redic",
    "align_columns",
]


_AUDIT_FAMILIES = ("nonneg", "coupling", "diag_bound", "trace")


@dataclass(frozen=True)
class RedicConfig:
    """Pipeline knobs: target count r, augmentation size lam, repetitions
    tau, k-means group count p, the RNG seed, and the cone-membership
    threshold eps_feas of the redundancy sweep."""

    r: int
    lam: int = 0
    tau: int = 1
    p: int = 30
    seed: int = 0
    eps_feas: float = 1e-8

    def __post_init__(self):
        if self.r < 1:
            raise BadRank(f"r must be >= 1, got {self.r}")
        if self.lam < 0:
            raise BadParameter(f"lam must be >= 0, got {self.lam}")
        if self.tau < 1:
            raise BadParameter(f"tau must be >= 1, got {self.tau}")
        if self.p < 1:
            raise BadParameter(f"p must be >= 1, got {self.p}")
        if self.seed < 0:
            raise BadParameter(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.eps_feas) and self.eps_feas > 0):
            raise BadParameter(f"eps_feas must be a positive finite number, got {self.eps_feas}")


@dataclass(frozen=True)
class EndmemberEstimate:
    """w_hat is the average of the aligned per-repetition estimates; every
    per_rep column is an exact column of the input image, and
    selected_indices[j][k] names the image column behind per_rep[j][:, k]."""

    w_hat: np.ndarray
    per_rep: tuple[np.ndarray, ...]
    selected_indices: tuple[np.ndarray, ...]


def align_columns(c, w) -> np.ndarray:
    """Permute the columns of ``w`` to best match ``c`` under total MRSA."""
    wm = as_values(w)
    return wm[:, np.argsort(_alignment(as_values(c), wm))]


def _alignment(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sigma pairing w[:, k] with c[:, sigma[k]] at the least total MRSA.

    Its inverse, ``np.argsort(sigma)``, is the column order of ``w`` that
    puts the match of c[:, i] in position i.
    """
    return solve_assignment(mrsa_cost(c, w))


def redic(a, cfg: RedicConfig, model_hook=None) -> EndmemberEstimate:
    """Run the full pipeline on a band-by-pixel matrix.

    ``model_hook``, when given, is called as hook(rep_index, model) with
    each repetition's LP model before it is solved (used for LP export).
    Every LP solution is audited against the model's constraints before
    method C reads it; a violation over ``hottopixx.TOL_LP`` raises
    NumericalBreakdown.
    """
    arr = as_values(a)
    d, n = arr.shape
    if cfg.r > min(d, n):
        raise RankTooLarge(f"r = {cfg.r} exceeds min(d, n) = {min(d, n)}")

    root = np.random.SeedSequence(cfg.seed)
    streams = root.spawn(cfg.tau + 1)

    ap = reduce_dimension(arr, cfg.r)
    k = drs(ap, cfg.p, eps_feas=cfg.eps_feas, seed=streams[0])
    outside = np.setdiff1d(np.arange(n, dtype=np.int64), k.indices)
    if cfg.lam > outside.size:
        raise InsufficientColumns(
            f"lam = {cfg.lam} exceeds the {outside.size} columns outside K"
        )
    if len(k) + cfg.lam < cfg.r:
        raise KSmallerThanR(
            f"the reduction kept |K| = {len(k)} columns; with lam = {cfg.lam} "
            f"that leaves fewer than r = {cfg.r} columns for the LP"
        )

    reps: list[np.ndarray] = []
    sels: list[np.ndarray] = []
    for j in range(cfg.tau):
        rng = np.random.default_rng(streams[j + 1])
        extra = rng.choice(outside, size=cfg.lam, replace=False)
        sub = np.unique(np.concatenate([k.indices, extra]))
        model = build_model_h(ap[:, sub], cfg.r)
        if model_hook is not None:
            model_hook(j, model)
        sol = solve_model_h(model)
        audit = audit_model_h(model, sol.x_matrix)
        if not audit["ok"]:
            family = max(_AUDIT_FAMILIES, key=audit.get)
            raise NumericalBreakdown(
                f"repetition {j}: the LP solution violates {family} "
                f"by {audit[family]:.3g}"
            )
        local = postprocess_method_c(ap[:, sub], sol, cfg.r)
        orig = sub[local.indices]
        if reps:
            orig = orig[np.argsort(_alignment(np.mean(reps, axis=0), arr[:, orig]))]
        reps.append(arr[:, orig])
        sels.append(orig)

    w_hat = np.mean(reps, axis=0)
    return EndmemberEstimate(
        w_hat=w_hat,
        per_rep=tuple(reps),
        selected_indices=tuple(sels),
    )
