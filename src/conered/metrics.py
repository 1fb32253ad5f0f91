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
from functools import partial

import numpy as np
import scipy.sparse as sp

from .assignment import min_cost_matching, solve_assignment
from .core import IndexSet, as_values, l1_cost, mrsa_cost
from .errors import (
    DimensionMismatch,
    KSmallerThanR,
    MaxIterations,
    TooManyColumns,
)
from .lp import STATUS_OPTIMAL, LpProblem, _epigraph_closed_form, _trace_bordered, solve_lp_ipm
from .nnls import nnls_solve
from .synth import SynthInstance, assemble, matrix_l1_norm

MRSA_SCALE = 100.0


def rho(w) -> float:
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
        ws = wm * np.asarray((1.0, *signs))[None, :]
        res = solve_lp_ipm(sign_pattern_lp(ws), _first_stage=partial(_sign_pattern_stage, ws))
        if res.status != STATUS_OPTIMAL:
            raise MaxIterations("sign-pattern LP did not converge")
        best = min(best, res.objective)
    return float(max(best, 0.0))


def sign_pattern_lp(ws: np.ndarray) -> LpProblem:
    """min 1't s.t. -t <= Ws y <= t, 1'y = 1, y >= 0 in equality form.

    ``ws`` is W with its columns multiplied by one sign pattern. Variables:
    y (r), t (d), then the slacks s1, s2 of the two epigraph families (d
    each). Rows: E1 = Ws y - t + s1 = 0, E2 = -Ws y - t + s2 = 0 (d each),
    then the trace row 1'y = 1. The CSR arrays are built directly; exact
    zeros of ``ws`` are left out.
    """
    d, r = ws.shape
    nv = r + 3 * d
    # row i of E1 and of E2: the r entries of y, then t_i, then s1_i or s2_i
    ones, band = np.ones((d, 1)), np.arange(d)[:, None]
    y_cols = np.broadcast_to(np.arange(r), (d, r))
    vals = np.vstack([np.hstack([ws, -ones, ones]), np.hstack([-ws, -ones, ones])])
    cols = np.vstack([
        np.hstack([y_cols, r + band, r + d + band]),
        np.hstack([y_cols, r + band, r + 2 * d + band]),
    ])
    keep = vals != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1)), [keep.sum() + r]])
    a_eq = sp.csr_matrix(
        (
            np.concatenate([vals[keep], np.ones(r)]),
            np.concatenate([cols[keep], np.arange(r)]).astype(np.int32),
            indptr.astype(np.int32),
        ),
        shape=(2 * d + 1, nv),
    )
    b_eq = np.concatenate([np.zeros(2 * d), [1.0]])
    c = np.zeros(nv)
    c[r : r + d] = 1.0
    return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, ub=np.full(nv, np.inf))


def _sign_pattern_stage(ws: np.ndarray, kkt, d_inv: np.ndarray, reg: float):
    """The first stage of ``lp``'s Newton-solve chain for ``sign_pattern_lp(ws)``.

    With theta = 1 / (D + reg), each band's t/s1/s2 triple and its rows E1,
    E2 eliminate in closed form (``lp._epigraph_closed_form``, with
    c = theta_t, a = theta_s1 + reg and b = theta_s2 + reg). That leaves the
    r x r matrix N = D_y + Ws' diag(h) Ws on the step in y, h = kappa / det,
    bordered by the trace row (``lp._trace_bordered``, with N's square root
    [sqrt(h) Ws; diag(sqrt(D_y))]). Each band's five unknowns then come from
    their own closed forms, whose coefficients (det, 2c + a, 2c + b, ...)
    are sums and products of positive terms: the generic theta (A'dy - f)
    would cancel where a weight is large. That is O(d r^2) per iteration and
    no sparse factorization.

    Raises numpy's LinAlgError when the factor is singular (or D is
    indefinite), so the chain falls back to the assembled KKT. Returns the
    solve, which the chain refines; ``kkt`` is not read.
    """
    d, r = ws.shape
    diag = d_inv + reg
    theta = 1.0 / diag
    c, th_1, th_2 = theta[r : r + d], theta[r + d : r + 2 * d], theta[r + 2 * d :]
    a, b = th_1 + reg, th_2 + reg
    det, kappa = _epigraph_closed_form(c, th_1, th_2, reg)
    root = np.vstack([np.sqrt(kappa / det)[:, None] * ws, np.diag(np.sqrt(diag[:r]))])
    n_solve = _trace_bordered(root, reg)

    def solve(rhs: np.ndarray) -> np.ndarray:
        f_y = rhs[:r]
        f_t, f_1, f_2, g_1, g_2 = (rhs[r + k * d : r + (k + 1) * d] for k in range(5))
        q_1, q_2 = g_1 + th_1 * f_1, g_2 + th_2 * f_2
        # N dx_y - dy_trace 1 = Ws'e - f_y, and 1'dx_y + reg dy_trace = rhs[-1]
        e = ((2.0 * c + b) * q_1 - (2.0 * c + a) * q_2 + c * (th_1 - th_2) * f_t) / det
        dx_y, dy_trace = n_solve(ws.T @ e - f_y, rhs[-1])
        w_dx = ws @ dx_y
        g_1, g_2, q_1, q_2 = g_1 - w_dx, g_2 + w_dx, q_1 - w_dx, q_2 + w_dx
        # each band's dx_t, dx_s1, dx_s2 and its E1, E2 multipliers, with
        # Ws dx_y now moved into g and q
        n_1 = (c + b) * g_1 - c * (q_2 + b * f_t)
        n_2 = (c + a) * g_2 - c * (q_1 + a * f_t)
        return np.concatenate([
            dx_y,
            -c * (a * b * f_t + b * q_1 + a * q_2) / det,
            th_1 * (n_1 - (c * b + reg * (c + b)) * f_1) / det,
            th_2 * (n_2 - (c * a + reg * (c + a)) * f_2) / det,
            (n_1 + (c + b) * th_1 * f_1) / det,
            (n_2 + (c + a) * th_2 * f_2) / det,
            [dy_trace],
        ])

    return solve


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
    if metric == "l1":
        nearest = l1_cost(wm, arr[:, s.indices]).min(axis=1)
    elif metric == "mrsa":
        nearest = MRSA_SCALE * mrsa_cost(wm, arr[:, s.indices]).min(axis=1)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return float(nearest.sum()) / wm.shape[1]


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
    sigma, per, score = _assigned_score(mrsa_cost(ref, est), MRSA_SCALE)
    return MrsaScore(score=score, per_col=per, sigma=sigma)


def _assigned_score(cost: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(sigma, per_col, score) of the best assignment on a square cost.

    sigma[j] is the row paired with column j (see ``solve_assignment``),
    per_col[j] = scale * cost[sigma[j], j] and score is their mean.
    """
    sigma = solve_assignment(cost)
    per = scale * cost[sigma, np.arange(cost.shape[1])]
    return sigma, per, float(per.mean())


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
    cost = l1_cost(inst.w, a[:, k.indices])
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
