"""Evaluation metrics and the robustness-theorem validators.

``rho`` is the conditioning quantity min_{||x||_1 = 1} ||W x||_1, computed
exactly by enumerating the 2^(r-1) sign patterns of x with a positive first
entry and solving one small LP per pattern (hence the hard cap r <= 12).
The remaining functions measure how well a retained column set or an
estimated endmember matrix matches a reference, and ``theorem1_check``
audits the near-separable recovery guarantee on a synthetic instance: if
the noise level stays below rho/9, some column of every retained set K in
Gamma(A) is within (9/rho + 1) * eps of each true endmember in L1 norm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assignment import min_cost_matching, solve_assignment
from .core import IndexSet, as_values, mrsa, mrsa_cost
from .errors import (
    DimensionMismatch,
    KSmallerThanR,
    MaxIterations,
    TooManyColumns,
)
from .lp import STATUS_OPTIMAL, LpProblem, solve_lp_ipm
from .nnls import nnls_solve
from .synth import SynthInstance, assemble, matrix_l1_norm

MRSA_SCALE = 100.0


def rho(w, tol: float = 1e-10) -> float:
    """Exact min_{||x||_1 = 1} ||W x||_1 via sign-pattern LPs.

    For each sign pattern s the substitution x = diag(s) y with y >= 0,
    sum(y) = 1 turns the restriction onto that orthant face into the LP
    min 1't s.t. -t <= W diag(s) y <= t, 1'y = 1. Since ||W(-x)||_1 =
    ||W x||_1, the patterns s and -s give the same minimum, so only the
    2^(r-1) patterns with s_1 = +1 are solved; their minimum is rho.
    Raises TooManyColumns for r > 12.
    """
    wm = as_values(w)
    d, r = wm.shape
    if r > 12:
        raise TooManyColumns(f"sign-pattern enumeration is capped at r = 12, got {r}")
    best = np.inf
    for signs in itertools.product((1.0, -1.0), repeat=r - 1):
        prob = sign_pattern_lp(wm * np.asarray((1.0, *signs))[None, :])
        res = solve_lp_ipm(prob, tol=tol)
        if res.status != STATUS_OPTIMAL:
            raise MaxIterations("sign-pattern LP did not converge")
        best = min(best, res.objective)
    return float(max(best, 0.0))


def sign_pattern_lp(ws: np.ndarray) -> LpProblem:
    """min 1't s.t. -t <= Ws y <= t, 1'y = 1, y >= 0 in equality form.

    ``ws`` is W with its columns multiplied by one sign pattern. Variables:
    y (r), t (d), then the slacks of the two epigraph families (d each).
    """
    d, r = ws.shape
    nv = r + 3 * d
    eye_d = sp.identity(d, format="coo")
    zero_d = sp.coo_matrix((d, d))
    ones_row = sp.coo_matrix(
        (np.ones(r), (np.zeros(r, dtype=np.int64), np.arange(r))), shape=(1, nv)
    )
    a_eq = sp.vstack(
        [
            sp.hstack([sp.coo_matrix(ws), -eye_d, eye_d, zero_d], format="coo"),
            sp.hstack([sp.coo_matrix(-ws), -eye_d, zero_d, eye_d], format="coo"),
            ones_row,
        ],
        format="csr",
    )
    b_eq = np.concatenate([np.zeros(2 * d), [1.0]])
    c = np.zeros(nv)
    c[r : r + d] = 1.0
    return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, ub=np.full(nv, np.inf))


def reconstruction_error(ap, k: IndexSet) -> float:
    """Root mean square NNLS residual of all columns against A'(:, K).

    Matches the pipeline's self-reconstruction report: with A' of shape
    r x n the value is sqrt((1/(r n)) * sum_i ||A'(:,K) x_i - a'_i||_2^2).
    """
    arr = as_values(ap)
    k.validate_for(arr.shape[1])
    rdim, n = arr.shape
    dictionary = arr[:, k.indices]
    in_set = np.zeros(n, dtype=bool)
    in_set[k.indices] = True
    total = 0.0
    for j in range(n):
        if in_set[j]:
            continue  # a retained column reconstructs itself exactly
        res = nnls_solve(dictionary, arr[:, j])
        total += res.residual_norm**2
    return float(np.sqrt(total / (rdim * n)))


def dict_distance(a, s: IndexSet, w, metric: str = "l1") -> float:
    """Mean distance from each reference endmember to its nearest column in S.

    ``metric`` is "l1" or "mrsa"; angular values are reported on the x100
    scale.
    """
    arr = as_values(a)
    wm = as_values(w)
    s.validate_for(arr.shape[1])
    if len(s) == 0:
        raise KSmallerThanR("the candidate set is empty")
    if arr.shape[0] != wm.shape[0]:
        raise DimensionMismatch("band counts differ")
    cols = arr[:, s.indices]
    total = 0.0
    for j in range(wm.shape[1]):
        if metric == "l1":
            dists = np.abs(cols - wm[:, j : j + 1]).sum(axis=0)
            total += float(dists.min())
        elif metric == "mrsa":
            total += MRSA_SCALE * min(
                mrsa(wm[:, j], cols[:, t]) for t in range(cols.shape[1])
            )
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return total / wm.shape[1]


@dataclass(frozen=True)
class MrsaScore:
    """Best-assignment mean MRSA (x100) between reference and estimate."""

    score: float
    per_col: np.ndarray
    sigma: np.ndarray


def mrsa_score(w_ref, w_est) -> MrsaScore:
    """Match estimate columns to reference columns, then average the angles.

    sigma[j] is the reference column paired with estimate column j, chosen
    to minimize the total angle (lexicographically smallest on ties);
    per_col and score are on the x100 scale.
    """
    ref = as_values(w_ref)
    est = as_values(w_est)
    if ref.shape != est.shape:
        raise DimensionMismatch(f"shapes differ: {ref.shape} vs {est.shape}")
    r = ref.shape[1]
    cost = mrsa_cost(ref, est)
    sigma = solve_assignment(cost)
    per = MRSA_SCALE * cost[sigma, np.arange(r)]
    return MrsaScore(score=float(per.mean()), per_col=per, sigma=sigma)


def abundance_maxima(h, k: IndexSet) -> np.ndarray:
    """mu(j) = max_{i in K} H(j, i): the purest retained pixel per endmember."""
    hm = as_values(h)
    k.validate_for(hm.shape[1])
    if len(k) == 0:
        raise KSmallerThanR("the candidate set is empty")
    return hm[:, k.indices].max(axis=1)


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the near-separable recovery bound on one instance.

    ``chosen`` holds r distinct retained column indices (one per endmember,
    minimum-total-L1 matching); ``satisfied`` says each matched distance is
    below ``bound`` = (9/rho + 1) * epsilon, strictly for positive noise and
    as exact zeros in the noiseless case.
    """

    rho: float
    epsilon: float
    hypothesis_holds: bool
    chosen: np.ndarray
    per_j_l1: np.ndarray
    bound: float
    satisfied: bool


def theorem1_check(inst: SynthInstance, nu: float, k: IndexSet) -> TheoremReport:
    if len(k) < inst.r:
        raise KSmallerThanR(f"|K| = {len(k)} is smaller than r = {inst.r}")
    a = assemble(inst, nu).values
    k.validate_for(a.shape[1])
    eps = matrix_l1_norm(a - inst.w @ inst.h)
    rho_val = rho(inst.w)
    hypothesis = bool(eps < rho_val / 9.0)
    cols = a[:, k.indices]
    cost = np.abs(inst.w[:, :, None] - cols[:, None, :]).sum(axis=0)
    row_to_col = min_cost_matching(cost)
    per_j = cost[np.arange(inst.r), row_to_col]
    chosen = k.indices[row_to_col]
    bound = (9.0 / rho_val + 1.0) * eps if rho_val > 0 else np.inf
    if eps == 0.0:
        satisfied = bool(np.all(per_j == 0.0))
    else:
        satisfied = bool(np.all(per_j < bound))
    return TheoremReport(
        rho=rho_val,
        epsilon=float(eps),
        hypothesis_holds=hypothesis,
        chosen=chosen,
        per_j_l1=per_j,
        bound=float(bound),
        satisfied=satisfied,
    )
