"""Slow reference implementations used to cross-check the fast code paths.

Everything here trades speed for being obviously correct: exhaustive
enumeration, dense grids, textbook iterations, a dense simplex. Nothing in
src/ may import from this module.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import lstsq as _lstsq

from conered.errors import DimensionMismatch, MaxIterations, NumericalBreakdown
from conered.hottopixx import LpSolution, ModelH, model_h_lp
from conered.lp import STATUS_OPTIMAL, LpProblem, LpResult
from conered.nnls import NnlsResult

STATUS_INFEASIBLE = "infeasible"


def nnls_enumerate(b: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Global NNLS optimum by trying every support set.

    The minimizer of ||Bx - y|| over x >= 0 is attained on some support S
    with the unconstrained least-squares solution restricted to S, so the
    best feasible candidate over all 2^m subsets is the exact optimum.
    """
    b = np.asarray(b, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = b.shape[1]
    best_x = np.zeros(m)
    best_res = float(np.linalg.norm(y))
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            cols = list(support)
            sol, *_ = np.linalg.lstsq(b[:, cols], y, rcond=None)
            if sol.min() < -1e-12:
                continue
            x = np.zeros(m)
            x[cols] = np.maximum(sol, 0.0)
            res = float(np.linalg.norm(b @ x - y))
            if res < best_res - 0.0:
                best_res = res
                best_x = x
    return best_x, best_res


def nnls_lstsq_reference(b_mat, y) -> NnlsResult:
    """The Lawson-Hanson NNLS solver as it was when every subproblem went
    through ``scipy.linalg.lstsq(..., lapack_driver="gelsy")``, kept verbatim
    so tests can require ``nnls_solve`` to return the same bytes.

    Solve min ||B x - y||_2 subject to x >= 0.

    On return x >= 0 exactly, x solves the least-squares problem on its
    support, and off the support every gradient entry of B'(Bx - y) is
    >= -16 * eps * ||B||_F * ||y||_2. ``iterations`` counts least-squares
    subproblem solves; more than 10 * (number of columns) raise MaxIterations.
    """
    B = np.asarray(b_mat, dtype=np.float64)
    if B.ndim != 2:
        raise DimensionMismatch("dictionary must be a 2-d array")
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    d, m = B.shape
    if yv.size != d:
        raise DimensionMismatch(f"target length {yv.size} does not match {d} rows")
    max_solves = 10 * max(m, 1)

    x = np.zeros(m)
    if m == 0:
        return NnlsResult(x=x, residual_norm=float(np.linalg.norm(yv)), iterations=0)

    tol = 16.0 * np.finfo(np.float64).eps * np.linalg.norm(B) * np.linalg.norm(yv)
    passive = np.zeros(m, dtype=bool)
    w = B.T @ yv
    solves = 0
    while True:
        active = ~passive
        if not active.any():
            break
        wa = w[active]
        if wa.max() <= tol:
            break
        enter = np.flatnonzero(active)[int(np.argmax(wa))]
        passive[enter] = True
        while True:
            cols = np.flatnonzero(passive)
            if solves >= max_solves:
                raise MaxIterations(
                    f"nnls exceeded {max_solves} least-squares solves"
                )
            z, *_ = _lstsq(B[:, cols], yv, lapack_driver="gelsy")
            solves += 1
            if z.min() > 0.0:
                x = np.zeros(m)
                x[cols] = z
                break
            bad = z <= 0.0
            xb = x[cols][bad]
            diff = xb - z[bad]
            safe = diff > 0.0
            ratios = np.where(safe, xb / np.where(safe, diff, 1.0), 0.0)
            alpha = float(ratios.min())
            xc = x[cols] + alpha * (z - x[cols])
            xc[bad & (np.abs(xc) <= 1e-300)] = 0.0
            jmin = int(np.flatnonzero(bad)[int(np.argmin(ratios))])
            xc[jmin] = 0.0
            x = np.zeros(m)
            x[cols] = np.maximum(xc, 0.0)
            passive = x > 0.0
        w = B.T @ (yv - B @ x)
    residual = float(np.linalg.norm(B @ x - yv))
    return NnlsResult(x=x, residual_norm=residual, iterations=solves)


def jacobi_svd(a: np.ndarray, sweeps: int = 60, tol: float = 1e-14):
    """One-sided Jacobi SVD: returns (u, sigma, v) with sigma descending.

    Rotates column pairs of a working copy until all pairs are orthogonal;
    column norms are then the singular values. Independent of any LAPACK
    driver, so it can vouch for the fast path.
    """
    a = np.asarray(a, dtype=np.float64)
    transposed = a.shape[0] < a.shape[1]
    work = (a.T if transposed else a).copy()
    n = work.shape[1]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                alpha = float(work[:, i] @ work[:, i])
                beta = float(work[:, j] @ work[:, j])
                gamma = float(work[:, i] @ work[:, j])
                if abs(gamma) <= tol * np.sqrt(alpha * beta) or gamma == 0.0:
                    continue
                off = max(off, abs(gamma))
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                gi = work[:, i].copy()
                work[:, i] = c * gi - s * work[:, j]
                work[:, j] = s * gi + c * work[:, j]
                vi = v[:, i].copy()
                v[:, i] = c * vi - s * v[:, j]
                v[:, j] = s * vi + c * v[:, j]
        if off == 0.0:
            break
    sigma = np.linalg.norm(work, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = np.zeros_like(work)
    for k, idx in enumerate(order):
        if sigma[k] > 0:
            u[:, k] = work[:, idx] / sigma[k]
    v = v[:, order]
    if transposed:
        return v, sigma, u
    return u, sigma, v


def assignment_enumerate(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Lexicographically smallest optimal permutation by full enumeration.

    sigma[j] is the row matched to column j; total cost is
    sum_j cost[sigma[j], j]. permutations() yields in lexicographic order,
    so the first one within tolerance of the minimum is the lex-smallest.
    """
    cost = np.asarray(cost, dtype=np.float64)
    r = cost.shape[0]
    perms = list(itertools.permutations(range(r)))
    totals = [float(sum(cost[p[j], j] for j in range(r))) for p in perms]
    best_total = min(totals)
    tol = 1e-12 * (1.0 + abs(best_total))
    for perm, total in zip(perms, totals):
        if total <= best_total + tol:
            return np.array(perm, dtype=np.int64), best_total
    raise AssertionError("unreachable")


def simplex_lstsq_enumerate(w: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact min ||W h - a||_2 over the probability simplex, via faces.

    The optimum lies on some face {h : h_S > 0, sum h_S = 1}; on each face
    the KKT system is linear, so enumerating all nonempty supports and
    keeping the best feasible stationary point is exact.
    """
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    r = w.shape[1]
    best_h = None
    best_obj = np.inf
    for size in range(1, r + 1):
        for support in itertools.combinations(range(r), size):
            cols = list(support)
            ws = w[:, cols]
            g = ws.T @ ws
            k = len(cols)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = g
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.concatenate([ws.T @ a, [1.0]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            hs = sol[:k]
            if hs.min() < -1e-10:
                continue
            hs = np.maximum(hs, 0.0)
            total = hs.sum()
            if total <= 0:
                continue
            hs = hs / total
            h = np.zeros(r)
            h[cols] = hs
            obj = float(np.linalg.norm(w @ h - a))
            if obj < best_obj:
                best_obj = obj
                best_h = h
    assert best_h is not None
    return best_h, best_obj


def _l1_sphere_grid_2(npoints: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, npoints)
    quarter = np.stack([t, 1.0 - t])
    return np.concatenate(
        [
            quarter,
            quarter * np.array([[1.0], [-1.0]]),
            quarter * np.array([[-1.0], [1.0]]),
            -quarter,
        ],
        axis=1,
    )


def _l1_sphere_grid_3(m: int) -> np.ndarray:
    # ||W(-x)||_1 = ||Wx||_1, so half the sphere (leading sign fixed to +)
    # covers every value; the saved budget buys a denser lattice.
    pts = []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            k = m - i - j
            pts.append((i / m, j / m, k / m))
    base = np.array(pts).T
    signs = np.array(
        [s for s in itertools.product([1.0, -1.0], repeat=3) if s[0] > 0]
    ).T
    blocks = [base * signs[:, s : s + 1] for s in range(signs.shape[1])]
    return np.concatenate(blocks, axis=1)


def rho_grid(w: np.ndarray, total_points: int = 1_000_000) -> float:
    """min ||W x||_1 over a dense grid of the unit L1 sphere (r = 2 or 3)."""
    w = np.asarray(w, dtype=np.float64)
    r = w.shape[1]
    if r == 2:
        pts = _l1_sphere_grid_2(max(2, total_points // 4))
    elif r == 3:
        m = 2
        while (m + 1) * (m + 2) * 2 < total_points:
            m += 1
        pts = _l1_sphere_grid_3(m)
    else:
        raise ValueError("grid oracle only covers r in {2, 3}")
    vals = np.abs(w @ pts).sum(axis=0)
    return float(vals.min())


def mrsa_naive(a: np.ndarray, b: np.ndarray) -> float:
    """Straight arccos formula, no numerical hardening."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ac = a - a.mean()
    bc = b - b.mean()
    cosang = float(ac @ bc / (np.linalg.norm(ac) * np.linalg.norm(bc)))
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)) / np.pi)


def kmeans_inertia(x: np.ndarray, labels: np.ndarray) -> float:
    """Within-cluster sum of squared distances to the cluster means."""
    x = np.asarray(x, dtype=np.float64)
    total = 0.0
    for g in np.unique(labels):
        pts = x[:, labels == g]
        c = pts.mean(axis=1, keepdims=True)
        total += float(((pts - c) ** 2).sum())
    return total


def solve_lp_simplex(
    prob: LpProblem, tol: float = 1e-9, max_iter: int = 200_000
) -> LpResult:
    """Dense two-phase simplex with Bland's rule.

    Upper bounds become explicit slack rows, so this path is meant for small
    instances. The optimal basis is re-solved against the original data at
    the end, which makes the returned vertex exact to machine precision.
    """
    A0 = prob.a_eq.toarray()
    neq, nv = A0.shape
    bd = np.isfinite(prob.ub)
    nb = int(bd.sum())
    m = neq + nb
    n = nv + nb
    A = np.zeros((m, n))
    A[:neq, :nv] = A0
    if nb:
        rows = np.arange(neq, m)
        A[rows, np.flatnonzero(bd)] = 1.0
        A[rows, nv + np.arange(nb)] = 1.0
    b = np.concatenate([prob.b_eq, prob.ub[bd]])
    c = np.concatenate([prob.c, np.zeros(nb)])

    flip = b < 0.0
    A[flip] *= -1.0
    b = np.abs(b)

    # phase 1: artificial basis
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    iters = _bland(T, basis, cost1, allowed=n + m, tol=tol, max_iter=max_iter)
    if float(cost1[basis] @ T[:, -1]) > 1e-7 * (1.0 + float(np.abs(b).max(initial=0.0))):
        return LpResult(
            x=np.full(nv, np.nan),
            objective=np.nan,
            status=STATUS_INFEASIBLE,
            iterations=iters,
            gap=np.nan,
        )

    # drive leftover artificials out of the basis, dropping redundant rows
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] < n:
            continue
        pivots = np.flatnonzero(np.abs(T[i, :n]) > tol)
        if pivots.size:
            _pivot(T, i, int(pivots[0]))
            basis[i] = int(pivots[0])
        else:
            keep[i] = False
    if not keep.all():
        T = T[keep]
        basis = [bi for bi, k in zip(basis, keep) if k]

    iters += _bland(T, basis, c, allowed=n, tol=tol, max_iter=max_iter - iters)

    # polish the vertex against the original data
    x = np.zeros(n)
    cols = np.array(basis, dtype=np.int64)
    Ab = A[keep][:, cols] if not keep.all() else A[:, cols]
    bb = b[keep] if not keep.all() else b
    try:
        xb = np.linalg.solve(Ab, bb)
    except np.linalg.LinAlgError:
        xb = T[:, -1]
    x[cols] = xb
    xv = x[:nv]
    return LpResult(
        x=xv,
        objective=float(prob.c @ xv),
        status=STATUS_OPTIMAL,
        iterations=iters,
        gap=0.0,
    )


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _bland(T, basis, cost, allowed, tol, max_iter) -> int:
    """Bland-rule pivoting over tableau ``T`` (mutated in place)."""
    it = 0
    while True:
        lam = cost[basis] @ T[:, :allowed]
        reduced = cost[:allowed] - lam
        basic = set(basis)
        entering = -1
        for j in np.flatnonzero(reduced < -tol):
            if int(j) not in basic:
                entering = int(j)
                break
        if entering < 0:
            return it
        if it >= max_iter:
            raise MaxIterations(f"simplex exceeded {max_iter} pivots")
        col = T[:, entering]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            raise NumericalBreakdown("LP is unbounded along an entering column")
        ratios = T[rows, -1] / col[rows]
        rmin = ratios.min()
        ties = rows[ratios <= rmin + tol * (1.0 + abs(rmin))]
        leave = min(ties, key=lambda i: basis[i])
        _pivot(T, int(leave), entering)
        basis[int(leave)] = entering
        it += 1


def simplex_model_h(model: ModelH) -> LpSolution:
    """Solve the Hottopixx model at a vertex with the dense simplex."""
    res = solve_lp_simplex(model_h_lp(model))
    if res.status != STATUS_OPTIMAL:
        raise NumericalBreakdown(f"LP solve ended with status {res.status}")
    m = model.m
    return LpSolution(
        x_matrix=res.x[: m * m].reshape((m, m), order="F").copy(),
        objective=res.objective,
        status=res.status,
        gap=res.gap,
        iterations=res.iterations,
    )
