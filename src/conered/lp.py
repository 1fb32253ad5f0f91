"""Linear programs in equality standard form with upper bounds.

    min c'x   s.t.   A x = b,   0 <= x <= u   (u may be +inf per entry)

``solve_lp_ipm`` is a primal-dual Mehrotra predictor-corrector
interior-point method. Its Newton systems are solved on the sparse augmented
form

    [ -(D + reg I)   A' ] [dx]   [rhat]
    [      A      reg I ] [dy] = [ rp ]

which is symmetric quasi-definite: such a matrix has a stable LDL'-type
factorization under any symmetric permutation (Vanderbei 1995). SuperLU
therefore factors it on its diagonal, in symmetric mode under a minimum-degree
order of A + A', which keeps the fill about ten times below a partially
pivoted LU. Every solve is refined against the unfactored matrix until its
componentwise backward error is a few machine epsilons (Arioli, Demmel & Duff
1989). A partially pivoted LU, also refined, takes over for the rest of the
iteration when the diagonal factorization reports the matrix singular or when
refinement stalls above ``_REFINE_ACCEPT``; this happens near convergence,
where D spans twenty orders of magnitude. ``LpResult.fallbacks`` counts the
iterations in which it did. The solver is deterministic.

A caller that knows its problem's structure can pass its own Newton solver
through the private ``_kkt_solver`` keyword: ``hottopixx`` solves Model H's
system block by block and hands an iteration to the assembled KKT above
when its own refinement stalls, so the same acceptance rule holds on both
paths, and ``fallbacks`` then counts those hand-overs.

``write_lp_text`` exports a problem in the plain-text LP file format, so an
external solver can check it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DimensionMismatch, NumericalBreakdown

STATUS_OPTIMAL = "optimal"
STATUS_ITERATION_LIMIT = "iteration-limit"

_EPS = float(np.finfo(np.float64).eps)
# Refinement stops at this componentwise backward error ...
_REFINE_TARGET = 4.0 * _EPS
# ... and a solve that stalls above this one is redone on a pivoted LU.
_REFINE_ACCEPT = 4096.0 * _EPS
_SYMMETRIC_LU = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    options=dict(SymmetricMode=True),
)


@dataclass
class LpProblem:
    c: np.ndarray
    a_eq: sp.spmatrix
    b_eq: np.ndarray
    ub: np.ndarray
    names: list[str] | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64).reshape(-1)
        self.b_eq = np.asarray(self.b_eq, dtype=np.float64).reshape(-1)
        self.ub = np.asarray(self.ub, dtype=np.float64).reshape(-1)
        self.a_eq = sp.csr_matrix(self.a_eq, dtype=np.float64)
        neq, nv = self.a_eq.shape
        if self.c.size != nv or self.ub.size != nv or self.b_eq.size != neq:
            raise DimensionMismatch("LP dimensions are inconsistent")
        if np.any(self.ub <= 0.0):
            raise ValueError("upper bounds must be positive (or +inf)")


@dataclass
class LpResult:
    x: np.ndarray
    objective: float
    status: str
    iterations: int
    gap: float
    # Iterations in which the first-choice Newton solve stalled or could not
    # be factored, and a fallback SuperLU factorization took over.
    fallbacks: int = 0


def _assembled_kkt(a, at, d_inv, reg: float) -> "_KktSolver":
    return _KktSolver(_kkt_matrix(a, at, d_inv, reg))


def solve_lp_ipm(
    prob: LpProblem, tol: float = 1e-10, max_iter: int = 200, *, _kkt_solver=_assembled_kkt
) -> LpResult:
    """Mehrotra predictor-corrector interior-point solve.

    Converges when the scaled primal/dual residuals and the relative duality
    gap all drop below ``tol``. Raises NumericalBreakdown on non-finite
    iterates or an unfactorable Newton system.

    ``_kkt_solver(a, at, d_inv, reg)`` builds each iteration's Newton solver
    (an object with ``solve(rhs)`` and ``fell_back``); it raises RuntimeError
    when the system cannot be factored at that ``reg``. ``hottopixx`` passes
    one that exploits Model H's block structure.
    """
    A = sp.csr_matrix(prob.a_eq)
    AT = sp.csc_matrix(A.T)
    c = prob.c
    b = prob.b_eq
    ub = prob.ub
    neq, nv = A.shape
    bd = np.isfinite(ub)
    nb = int(bd.sum())
    ubf = ub[bd]

    x = np.where(bd, np.minimum(1.0, ub * 0.5), 1.0)
    w = ubf - x[bd]
    y = np.zeros(neq)
    z = np.ones(nv)
    q = np.ones(nb)

    bnorm = 1.0 + float(np.linalg.norm(b, np.inf)) if neq else 1.0
    cnorm = 1.0 + float(np.linalg.norm(c, np.inf))
    unorm = 1.0 + (float(np.linalg.norm(ubf, np.inf)) if nb else 0.0)

    status = STATUS_ITERATION_LIMIT
    it = 0
    fallbacks = 0
    relgap = np.inf
    for it in range(1, max_iter + 1):
        qf = np.zeros(nv)
        qf[bd] = q
        rp = b - A @ x
        ru = ubf - x[bd] - w
        rd = c - AT @ y - z + qf
        gap = float(x @ z + (w @ q if nb else 0.0))
        mu = gap / (nv + nb)
        pobj = float(c @ x)
        dobj = float(b @ y - (ubf @ q if nb else 0.0))
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj))
        rpn = float(np.linalg.norm(rp, np.inf)) / bnorm if neq else 0.0
        rdn = float(np.linalg.norm(rd, np.inf)) / cnorm
        run = (float(np.linalg.norm(ru, np.inf)) / unorm) if nb else 0.0
        if max(rpn, rdn, run, relgap) <= tol:
            status = STATUS_OPTIMAL
            break

        d_inv = z / x
        if nb:
            d_inv = d_inv.copy()
            d_inv[bd] += q / w

        solver = None
        reg = 1e-12
        while solver is None:
            try:
                solver = _kkt_solver(A, AT, d_inv, reg)
            except RuntimeError:
                reg *= 1e4
                if reg > 1e-2:
                    raise NumericalBreakdown("KKT system is singular") from None

        def newton(rxz, rwq):
            rhat = rd - rxz / x
            if nb:
                rhat = rhat.copy()
                rhat[bd] += (rwq - q * ru) / w
            sol = solver.solve(np.concatenate([rhat, rp]))
            dx = sol[:nv]
            dy = sol[nv:]
            dz = (rxz - z * dx) / x
            dw = ru - dx[bd]
            dq = (rwq - q * dw) / w if nb else np.zeros(0)
            return dx, dy, dz, dw, dq

        def max_step(v, dv):
            neg = dv < 0.0
            if not neg.any():
                return 1.0
            return min(1.0, float((v[neg] / -dv[neg]).min()))

        # predictor
        dxa, dya, dza, dwa, dqa = newton(-x * z, -(w * q) if nb else np.zeros(0))
        ap = min(max_step(x, dxa), max_step(w, dwa) if nb else 1.0)
        ad = min(max_step(z, dza), max_step(q, dqa) if nb else 1.0)
        mu_aff = (
            float((x + ap * dxa) @ (z + ad * dza))
            + (float((w + ap * dwa) @ (q + ad * dqa)) if nb else 0.0)
        ) / (nv + nb)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector (total direction)
        dx, dy, dz, dw, dq = newton(
            sigma * mu - x * z - dxa * dza,
            (sigma * mu - w * q - dwa * dqa) if nb else np.zeros(0),
        )
        ap = 0.9995 * min(max_step(x, dx), max_step(w, dw) if nb else 1.0)
        ad = 0.9995 * min(max_step(z, dz), max_step(q, dq) if nb else 1.0)
        ap = min(1.0, ap)
        ad = min(1.0, ad)
        fallbacks += solver.fell_back

        x = x + ap * dx
        w = w + ap * dw
        y = y + ad * dy
        z = z + ad * dz
        q = q + ad * dq
        if not (
            np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(z))
        ):
            raise NumericalBreakdown("interior-point iterate became non-finite")

    return LpResult(
        x=x,
        objective=float(prob.c @ x),
        status=status,
        iterations=it,
        gap=relgap,
        fallbacks=fallbacks,
    )


def _kkt_matrix(a, at, d_inv, reg: float) -> sp.csc_matrix:
    """The augmented matrix [[-(D + reg I), A'], [A, reg I]] in CSC form."""
    return sp.bmat(
        [
            [sp.diags(-(d_inv + reg)), at],
            [a, sp.diags(np.full(a.shape[0], reg))],
        ],
        format="csc",
    )


class _KktSolver:
    """Refined solves with one KKT matrix, factored on its diagonal if possible.

    The constructor raises RuntimeError when the pivoted LU is singular too.
    """

    def __init__(self, kkt: sp.csc_matrix):
        self.kkt = kkt
        self.abs_kkt = abs(kkt)
        try:
            self.lu = splu(kkt, **_SYMMETRIC_LU)
            self.pivoted = False
        except RuntimeError:  # no nonzero pivot left in some column
            self.lu = splu(kkt)
            self.pivoted = True

    @property
    def fell_back(self) -> bool:
        """True once the pivoted LU has taken over from the diagonal one."""
        return self.pivoted

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.refined_solve(rhs)[0]

    def refined_solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """The solution and its componentwise backward error."""
        x, omega = _refine(self.lu.solve, self._residual, rhs)
        if omega > _REFINE_ACCEPT and not self.pivoted:
            try:
                self.lu = splu(self.kkt)
            except RuntimeError:
                return x, omega
            self.pivoted = True
            x_piv, omega_piv = _refine(self.lu.solve, self._residual, rhs)
            if omega_piv < omega:
                x, omega = x_piv, omega_piv
        return x, omega

    def _residual(self, x, rhs):
        r = rhs - self.kkt @ x
        return r, _backward_error(r, self.abs_kkt @ np.abs(x) + np.abs(rhs))


def _refine(solve, residual, rhs):
    """Solve, then refine while each step at least halves the error.

    ``residual(x, rhs)`` returns the residual against the unfactored matrix
    and its componentwise backward error. Returns x and that error.
    """
    x = solve(rhs)
    r, omega = residual(x, rhs)
    while _REFINE_TARGET < omega < np.inf:
        x_new = x + solve(r)
        r_new, omega_new = residual(x_new, rhs)
        if not omega_new <= 0.5 * omega:
            break
        x, r, omega = x_new, r_new, omega_new
    return x, omega


def _backward_error(r: np.ndarray, scale: np.ndarray) -> float:
    """Componentwise backward error max |r| / (|K||x| + |b|), given that scale.

    A row with zero scale has zero residual. A non-finite x gives inf.
    """
    ratio = np.divide(np.abs(r), scale, out=np.zeros_like(r), where=scale != 0.0)
    omega = float(ratio.max(initial=0.0))
    return omega if np.isfinite(omega) else np.inf


def write_lp_text(prob: LpProblem, path: str, name: str = "problem") -> None:
    """Write the problem in the plain-text LP file format.

    Equality rows appear under Subject To, finite upper bounds under Bounds;
    the implicit lower bound of every variable is 0, matching the format's
    default.
    """
    names = prob.names or [f"v{i}" for i in range(prob.c.size)]
    if len(names) != prob.c.size:
        raise DimensionMismatch("one name per variable is required")
    a = sp.csr_matrix(prob.a_eq)
    lines = [f"\\ {name}", "Minimize", " obj: " + _lincomb(prob.c, names, skip_zero=True)]
    lines.append("Subject To")
    for i in range(a.shape[0]):
        start, end = a.indptr[i], a.indptr[i + 1]
        expr = _lincomb(a.data[start:end], [names[j] for j in a.indices[start:end]])
        lines.append(f" e{i}: {expr} = {_num(prob.b_eq[i])}")
    lines.append("Bounds")
    for j in np.flatnonzero(np.isfinite(prob.ub)):
        lines.append(f" 0 <= {names[j]} <= {_num(prob.ub[j])}")
    lines.append("End")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _num(v: float) -> str:
    return repr(float(v))


def _lincomb(coefs, names, skip_zero: bool = False) -> str:
    parts = []
    for coef, nm in zip(coefs, names):
        if skip_zero and coef == 0.0:
            continue
        if not parts:
            parts.append(f"{_num(coef)} {nm}")
        elif coef < 0:
            parts.append(f"- {_num(-coef)} {nm}")
        else:
            parts.append(f"+ {_num(coef)} {nm}")
    return " ".join(parts) if parts else "0 " + names[0]
