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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import IndexSet, as_values
from .errors import BadRank, DegenerateDiagonal, MaxIterations
from .lp import STATUS_OPTIMAL, LpProblem, solve_lp_ipm, write_lp_text

# Feasibility tolerance for a solved X: the default of ``audit_model_h``
# and the bound ``redic`` holds every LP solution to.
TOL_LP = 1e-7


@dataclass(frozen=True)
class ModelH:
    """The LP data for one dictionary: A (q x m) and the target count r."""

    a: np.ndarray
    r: int

    @property
    def m(self) -> int:
        return self.a.shape[1]

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def var_count(self) -> int:
        """Model variables: the m^2 entries of X plus the q*m entries of T."""
        return self.m * self.m + self.rows * self.m

    @property
    def constraint_counts(self) -> dict[str, int]:
        """Constraint census by family (epigraph pairs, trace, bounds)."""
        q, m = self.a.shape
        return {
            "epigraph": 2 * q * m,
            "trace": 1,
            "nonneg": m * m,
            "coupling": m * m,
            "diag_bound": m,
        }

    @property
    def constraint_count(self) -> int:
        return sum(self.constraint_counts.values())


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

    pairs = [(i, j) for j in range(m) for i in range(m) if i != j]
    rows_c = np.repeat(np.arange(ncp), 3)
    cols_c = np.empty(3 * ncp, dtype=np.int64)
    vals_c = np.empty(3 * ncp)
    for k, (i, j) in enumerate(pairs):
        cols_c[3 * k] = i + j * m
        vals_c[3 * k] = 1.0
        cols_c[3 * k + 1] = i + i * m
        vals_c[3 * k + 1] = -1.0
        cols_c[3 * k + 2] = nx + 3 * nt + k
        vals_c[3 * k + 2] = 1.0
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
            + [f"sc_{i}_{j}" for (i, j) in pairs]
        )
    return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, ub=ub, names=names)


def solve_model_h(model: ModelH) -> LpSolution:
    """Solve the model with the interior-point method (``lp.solve_lp_ipm``).

    Raises MaxIterations when the solver stops at its iteration cap.
    """
    res = solve_lp_ipm(model_h_lp(model))
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


def audit_model_h(model: ModelH, x_matrix: np.ndarray, tol: float = TOL_LP) -> dict:
    """Check a candidate X against the model constraints, solver-free.

    Returns per-family worst violations plus the recomputed entrywise
    objective; ``ok`` is True when every violation is within ``tol``.
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
        report["nonneg"] <= tol
        and report["coupling"] <= tol
        and report["diag_bound"] <= tol
        and report["trace"] <= tol * max(1.0, float(model.r))
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
