"""Self-dictionary column selection via the Hottopixx linear program.

Given a dictionary matrix A (q x m) and a target count r, the model asks for
a coefficient matrix X that reconstructs A from its own columns:

    min ||A - A X||_1  (entrywise)
    s.t. sum_i X(i,i) = r,  0 <= X(i,j) <= X(i,i) <= 1

The absolute values are lifted into an epigraph matrix T with
-T <= A - A X <= T and objective 1'T1, giving a plain LP. Selection then
reads r representative columns off the solved X (method C): take the r
largest diagonal entries as seeds, group every column with the seed that
explains it best, and return each group's most central member.

``solve_model_h`` runs ``lp``'s interior-point method on the standard form
of ``model_h_lp``, with a Newton-solve stage that uses the model's structure
(``_ModelHKkt``): X's columns are independent blocks joined only by diag(X)
and the trace row, so each iteration factors one q x q matrix per column and
one m x m Schur complement on diag(X), and no sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .core import IndexSet, as_values
from .errors import BadRank, DegenerateDiagonal, MaxIterations
from .lp import STATUS_OPTIMAL, LpProblem, _epigraph_closed_form, _trace_bordered, solve_lp_ipm, write_lp_text

# Feasibility tolerance for a solved X: the bound ``audit_model_h`` holds
# every LP solution to.
TOL_LP = 1e-7


@dataclass(frozen=True)
class ModelH:
    """The LP data for one dictionary: A (q x m) and the target count r."""

    a: np.ndarray
    r: int

    @property
    def m(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class LpSolution:
    """Solved model: X, the attained objective 1'T1, and the solver status."""

    x_matrix: np.ndarray
    objective: float
    status: str
    gap: float
    iterations: int


def build_model_h(a, r: int) -> ModelH:
    arr = as_values(a)
    if r < 1 or r > arr.shape[1]:
        raise BadRank(f"need 1 <= r <= {arr.shape[1]}, got {r}")
    return ModelH(a=arr.copy(), r=r)


def model_h_lp(model: ModelH, with_names: bool = False) -> LpProblem:
    """Assemble the standard-form LP (equalities plus slacks and bounds).

    Variable layout: X column-major (m^2), then T column-major (q*m), then
    slacks for the two epigraph families and the coupling rows.
    """
    a = model.a
    q, m = a.shape
    nx = m * m
    nt = q * m
    ncp = m * (m - 1)
    nv = nx + nt + 2 * nt + ncp

    eye_t = sp.identity(nt, format="coo")
    ax_block = sp.kron(sp.identity(m, format="coo"), sp.coo_matrix(a))

    # rows 0..nt-1:        AX + T - s_plus = A      (A - AX <= T)
    # rows nt..2nt-1:      AX - T + s_minus = A     (AX - A <= T)
    # rows 2nt..+ncp-1:    X(i,j) - X(i,i) + s_c = 0  for i != j
    # last row:            sum_i X(i,i) = r
    upper = sp.hstack(
        [ax_block, eye_t, -sp.identity(nt), sp.coo_matrix((nt, nt + ncp))],
        format="coo",
    )
    lower = sp.hstack(
        [ax_block, -eye_t, sp.coo_matrix((nt, nt)), sp.identity(nt), sp.coo_matrix((nt, ncp))],
        format="coo",
    )

    # coupling rows run over the pairs (i, j), i != j, column j outermost
    jj, ii = np.nonzero(~np.eye(m, dtype=bool))
    rows_c = np.repeat(np.arange(ncp), 3)
    cols_c = np.column_stack([ii + jj * m, ii * (m + 1), nx + 3 * nt + np.arange(ncp)]).ravel()
    vals_c = np.tile([1.0, -1.0, 1.0], ncp)
    coupling = sp.coo_matrix((vals_c, (rows_c, cols_c)), shape=(ncp, nv))

    diag_cols = np.arange(m) * (m + 1)
    trace = sp.coo_matrix(
        (np.ones(m), (np.zeros(m, dtype=np.int64), diag_cols)), shape=(1, nv)
    )

    a_eq = sp.vstack([upper, lower, coupling, trace], format="csr")
    b_eq = np.concatenate(
        [a.ravel(order="F"), a.ravel(order="F"), np.zeros(ncp), [float(model.r)]]
    )
    c = np.zeros(nv)
    c[nx : nx + nt] = 1.0
    ub = np.full(nv, np.inf)
    ub[:nx] = 1.0

    names = None
    if with_names:
        names = (
            [f"x_{i}_{j}" for j in range(m) for i in range(m)]
            + [f"t_{u}_{j}" for j in range(m) for u in range(q)]
            + [f"sp_{u}_{j}" for j in range(m) for u in range(q)]
            + [f"sm_{u}_{j}" for j in range(m) for u in range(q)]
            + [f"sc_{i}_{j}" for i, j in zip(ii.tolist(), jj.tolist())]
        )
    return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, ub=ub, names=names)


def solve_model_h(model: ModelH) -> LpSolution:
    """Solve the model with the interior-point method (``lp.solve_lp_ipm``).

    Raises MaxIterations when the solver stops at its iteration cap.
    """
    res = solve_lp_ipm(model_h_lp(model), partial(_block_stage, model.a))
    if res.status != STATUS_OPTIMAL:
        raise MaxIterations("LP solve hit its iteration limit before converging")
    m = model.m
    x_matrix = res.x[: m * m].reshape((m, m), order="F").copy()
    return LpSolution(
        x_matrix=x_matrix,
        objective=res.objective,
        status=res.status,
        gap=res.gap,
        iterations=res.iterations,
    )


def _block_stage(a_dict, kkt, d_inv, reg):
    """``lp``'s Newton-solve stage for Model H.

    ``kkt`` is the LP's ``lp._Unassembled`` matrix. Returns
    ``_ModelHKkt``'s solve, which ``lp`` refines.
    """
    return _ModelHKkt(a_dict, kkt.a, kkt.at, d_inv, reg)._solve_once


class _ModelHKkt:
    """Newton solves for ``model_h_lp``'s KKT system, block by block.

    The system is ``lp``'s augmented form

        [ -(D + reg I)   A' ] [dx]   [f ]
        [      A      reg I ] [dy] = [rp]

    with theta = 1 / (D + reg). Every variable except p = diag(X) is
    eliminated by dx = theta (A'dy - f), which leaves M = A_o theta A_o' +
    reg I on the rows. M is block diagonal over the columns j of X: block j
    holds the q E+ rows, the q E- rows and the m - 1 coupling rows of column
    j. Only p and the trace row join the blocks. Within block j:

    - The coupling rows eliminate in closed form, leaving the weight
      omega = theta_x (theta_sc + reg) / (theta_x + theta_sc + reg) on each
      off-diagonal X(i, j).
    - In the basis E+ + E-, E+ - E-, each epigraph row's t/s+/s- pair
      eliminates in closed form. That leaves one q x q matrix
      U_j = 2 A diag(omega_j) A' + diag(psi_j), with psi = 2 det / kappa
      from ``lp._epigraph_closed_form``.

    Both closed forms are sums and products of positive terms, so neither
    cancels when theta spans twenty orders of magnitude. dp then solves the
    m x m Schur complement S = D_p + sum_j P_j' M_j^-1 P_j, where P_j holds
    p's columns on block j's rows, bordered by the trace row
    (``lp._trace_bordered``). The Cholesky factors of U_j (batched over j)
    and of S come from the QR factorization of a square root of each,
    U = B'B, which is not formed; a Cholesky of the formed matrix breaks
    down near convergence, where its condition number passes 1 / eps. That
    costs O(m^2 q^2 + m^3 q) per iteration, with no sparse factorization (a
    block-angular Newton solve as in Gondzio & Grothey, Comput. Optim. Appl.
    2009).

    The constructor factors, and raises numpy's LinAlgError when a factor
    is singular; ``lp`` refines ``_solve_once``.
    """

    def __init__(self, a_dict: np.ndarray, a_eq, at, d_inv: np.ndarray, reg: float):
        self.a, self.a_eq, self.at = a_dict, a_eq, at
        self.reg = reg
        self.d = d_inv + reg
        self.theta = 1.0 / self.d
        m = a_dict.shape[1]
        self.p = np.arange(m) * (m + 1)  # the columns of diag(X)
        self.off = ~np.eye(m, dtype=bool)
        self._factor()

    def _factor(self) -> None:
        a, th, reg, off = self.a, self.theta, self.reg, self.off
        q, m = a.shape
        nx, nt = m * m, q * m
        # Block j's variables as rows j of (m, q) and (m, m) arrays; the
        # diagonal slot of the (m, m) ones is p's, so it is zero here.
        self.th_x = np.where(off, th[:nx].reshape(m, m), 0.0)
        th_t, th_sp, th_sm = (th[nx + k * nt : nx + (k + 1) * nt].reshape(m, q) for k in (0, 1, 2))
        th_c = np.zeros((m, m))
        th_c[off] = th[nx + 3 * nt :]
        c = self.th_x + th_c + reg
        self.inv_c = np.where(off, 1.0 / c, 0.0)
        omega = self.th_x * (th_c + reg) * self.inv_c
        det, self.kappa = _epigraph_closed_form(th_t, th_sp, th_sm, reg)
        psi = 2.0 * det / self.kappa
        self.delta = th_sp - th_sm
        # U_j = B_j'B_j for B_j = [sqrt(2 omega_j) A'; diag(sqrt(psi_j))]: the
        # R of B_j's QR is U_j's Cholesky factor up to the signs of its rows
        b = np.concatenate(
            [np.sqrt(2.0 * omega)[:, :, None] * a.T, np.sqrt(psi)[:, :, None] * np.eye(q)], axis=1
        )
        self.u_lower = np.linalg.qr(b, mode="r").transpose(0, 2, 1)
        if not np.all(np.abs(self.u_lower[:, np.arange(q), np.arange(q)]) > 0.0):
            raise np.linalg.LinAlgError("a block's triangular factor is singular")
        # P_j' M_j^-1 P_j = 2 (A Phi_j)' U_j^-1 (A Phi_j) + diag(1 / c_j) off j,
        # so S = 2 W'W + diag(D_p + sum_j 1 / c_j) with W_j = L_j^-1 A Phi_j
        phi = self.th_x * self.inv_c
        phi[~off] = 1.0
        w = _forward_substitute(self.u_lower, a * phi[:, None, :]).reshape(m * q, m)
        s_diag = self.d[self.p] + self.inv_c.sum(axis=0)
        s_root = np.concatenate([np.sqrt(2.0) * w, np.diag(np.sqrt(s_diag))])
        self.s_solve = _trace_bordered(s_root, reg)

    def _solve_blocks(self, r_p, r_m, r_c):
        """M z = r on the block rows: E+ and E- as (m, q), coupling as (m, m)."""
        corr = (self.th_x * (r_c * self.inv_c)) @ self.a.T
        diff = r_p - r_m
        rho = r_p + r_m - 2.0 * corr - self.delta * diff / self.kappa
        s = _back_substitute(self.u_lower, _forward_substitute(self.u_lower, rho[:, :, None]))[:, :, 0]
        d = (2.0 * diff - self.delta * s) / self.kappa
        z_c = (r_c - self.th_x * (s @ self.a)) * self.inv_c
        return 0.5 * (s + d), 0.5 * (s - d), z_c

    def _solve_once(self, rhs: np.ndarray) -> np.ndarray:
        a, off = self.a, self.off
        q, m = a.shape
        nv, nt = self.d.size, q * m
        f, rp = rhs[:nv], rhs[nv:]
        tf = self.theta * f
        tf[self.p] = 0.0
        g = rp + self.a_eq @ tf
        g_p, g_m = g[:nt].reshape(m, q), g[nt : 2 * nt].reshape(m, q)
        g_c = np.zeros((m, m))
        g_c[off] = g[2 * nt : -1]
        z_p, z_m, z_c = self._solve_blocks(g_p, g_m, g_c)
        h = ((z_p + z_m) * a.T).sum(axis=1) - z_c.sum(axis=0) - f[self.p]
        dp, dy_trace = self.s_solve(h, g[-1])
        a_dp = a.T * dp[:, None]
        y_p, y_m, y_c = self._solve_blocks(g_p - a_dp, g_m - a_dp, g_c + np.where(off, dp, 0.0))
        dy = np.concatenate([y_p.ravel(), y_m.ravel(), y_c[off], [dy_trace]])
        dx = self.theta * (self.at @ dy - f)
        dx[self.p] = dp
        return np.concatenate([dx, dy])


def _forward_substitute(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L_j z_j = b_j for every j: ``lower`` is (m, q, q), b is (m, q, k).

    Substitution vectorized over the blocks. An LU solve of U_j itself can
    meet an exact zero pivot when U_j's condition number passes 1 / eps; this
    cannot, since L_j's diagonal is checked nonzero and finite.
    """
    z = b.copy()
    for i in range(z.shape[1]):
        if i:
            z[:, i] -= (lower[:, i : i + 1, :i] @ z[:, :i])[:, 0]
        z[:, i] /= lower[:, i, i, None]
    return z


def _back_substitute(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L_j' z_j = b_j for every j, with arguments as in ``_forward_substitute``."""
    z = b.copy()
    q = z.shape[1]
    for i in reversed(range(q)):
        if i < q - 1:
            z[:, i] -= (lower[:, i + 1 :, i][:, None, :] @ z[:, i + 1 :])[:, 0]
        z[:, i] /= lower[:, i, i, None]
    return z


def audit_model_h(model: ModelH, x_matrix: np.ndarray) -> dict:
    """Check a candidate X against the model constraints, solver-free.

    Returns per-family worst violations plus the recomputed entrywise
    objective; ``ok`` is True when every violation is within ``TOL_LP``
    (the trace's relative to max(1, r)).
    """
    x = np.asarray(x_matrix, dtype=np.float64)
    m = model.m
    if x.shape != (m, m):
        raise BadRank(f"X must be {m}x{m}, got {x.shape}")
    diag = np.diag(x)
    report = {
        "nonneg": float(max(0.0, -(x.min()))),
        "coupling": float(max(0.0, (x - diag[:, None]).max())),
        "diag_bound": float(max(0.0, (diag - 1.0).max())),
        "trace": float(abs(diag.sum() - model.r)),
        "objective": float(np.abs(model.a - model.a @ x).sum()),
    }
    report["ok"] = (
        report["nonneg"] <= TOL_LP
        and report["coupling"] <= TOL_LP
        and report["diag_bound"] <= TOL_LP
        and report["trace"] <= TOL_LP * max(1.0, float(model.r))
    )
    return report


def postprocess_method_c(a, solution, r: int) -> IndexSet:
    """Pick r representative column indices from a solved X.

    Seeds are the r largest diagonal entries (ties to the lowest index); a
    seed always belongs to its own group, every other column joins the seed
    i maximizing X(i, j) (ties to the lowest seed); each group contributes
    the member closest in L2 to the group's centroid of A-columns (ties to
    the lowest index). Raises DegenerateDiagonal when fewer than r diagonal
    entries are positive.
    """
    arr = as_values(a)
    x = solution.x_matrix if isinstance(solution, LpSolution) else np.asarray(solution, dtype=np.float64)
    m = arr.shape[1]
    if x.shape != (m, m):
        raise BadRank(f"X must be {m}x{m}, got {x.shape}")
    if r < 1 or r > m:
        raise BadRank(f"need 1 <= r <= {m}, got {r}")
    diag = np.diag(x).copy()
    if int((diag > 0.0).sum()) < r:
        raise DegenerateDiagonal(
            f"only {(diag > 0.0).sum()} positive diagonal entries, need {r}"
        )
    # argsort on (-diag, index) gives largest-first with lowest-index ties
    seeds = np.lexsort((np.arange(m), -diag))[:r]
    seeds = np.sort(seeds)

    members: dict[int, list[int]] = {int(s): [] for s in seeds}
    seed_set = set(int(s) for s in seeds)
    for j in range(m):
        if j in seed_set:
            members[j].append(j)
            continue
        weights = x[seeds, j]
        owner = int(seeds[int(np.argmax(weights))])
        members[owner].append(j)

    chosen = []
    for s in sorted(members):
        group = members[s]
        cols = arr[:, group]
        centroid = cols.mean(axis=1, keepdims=True)
        dist = np.linalg.norm(cols - centroid, axis=0)
        chosen.append(group[int(np.argmin(dist))])
    return IndexSet(np.sort(np.asarray(chosen, dtype=np.int64)))


def write_model_lp(model: ModelH, path: str) -> None:
    """Export the model's LP in plain-text LP format for external checks."""
    write_lp_text(model_h_lp(model, with_names=True), path, name="hottopixx")
