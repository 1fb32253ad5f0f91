"""Linear programs in equality standard form with upper bounds.

    min c'x   s.t.   A x = b,   0 <= x <= u   (u may be +inf per entry)

``solve_lp_ipm`` is a primal-dual Mehrotra predictor-corrector
interior-point method. Its Newton systems are solved on the sparse augmented
form

    [ -(D + reg I)   A' ] [dx]   [rhat]
    [      A      reg I ] [dy] = [ rp ]

which is symmetric quasi-definite: such a matrix has a stable LDL'-type
factorization under any symmetric permutation (Vanderbei 1995). Each
iteration's solves go through one chain of stages (``_NewtonSolver``), each a
way to factor the system. The first stage that factors serves, and every
solve is refined against the unfactored matrix until its componentwise
backward error is a few machine epsilons (Arioli, Demmel & Duff 1989). A
solve whose refinement stalls above ``_REFINE_ACCEPT`` is redone by the next
stage, which serves the rest of the iteration; this happens near
convergence, where D spans twenty orders of magnitude. The chain ends with
two stages on the assembled matrix: SuperLU on its diagonal, in symmetric
mode under a minimum-degree order of A + A' (about ten times less fill than
a partially pivoted LU), then a partially pivoted LU. A caller that knows its
problem's structure heads the chain with its own stage through the private
``_first_stage`` keyword: ``hottopixx`` does for Model H, and ``metrics`` for
``rho``'s sign-pattern LPs. Such a stage refines against the unassembled
matrix (``_Unassembled``), and the epigraph rows that both LPs share
eliminate by one closed form (``_epigraph_closed_form``).
``LpResult.fallbacks`` counts the iterations served by a stage after the
first. The solver is deterministic.

``write_lp_text`` exports a problem in the plain-text LP file format, so an
external solver can check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DimensionMismatch, NumericalBreakdown

STATUS_OPTIMAL = "optimal"
STATUS_ITERATION_LIMIT = "iteration-limit"

_EPS = float(np.finfo(np.float64).eps)
# Refinement stops at this componentwise backward error ...
_REFINE_TARGET = 4.0 * _EPS
# ... and a solve that stalls above this one is redone by the next stage.
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
    # Iterations in which the first Newton-solve stage stalled or could not
    # factor, and a later stage took over.
    fallbacks: int = 0


def solve_lp_ipm(
    prob: LpProblem, tol: float = 1e-10, max_iter: int = 200, *, _first_stage=None
) -> LpResult:
    """Mehrotra predictor-corrector interior-point solve.

    Converges when the scaled primal/dual residuals and the relative duality
    gap all drop below ``tol``. Raises NumericalBreakdown on non-finite
    iterates or an unfactorable Newton system.

    ``_first_stage(kkt, d_inv, reg)``, when given, heads each iteration's
    chain of Newton-solve stages (``_NewtonSolver``), before the assembled
    KKT; ``kkt`` is the LP's ``_Unassembled`` matrix. ``hottopixx`` and
    ``metrics.rho`` pass stages that exploit their LPs' structure.
    """
    A = sp.csr_matrix(prob.a_eq)
    AT = sp.csc_matrix(A.T)
    unassembled = _Unassembled(A, AT) if _first_stage else None
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
            first = [partial(_first_stage, unassembled, d_inv, reg)] if _first_stage else []
            try:
                solver = _NewtonSolver(first + _kkt_stages(partial(_kkt_matrix, A, AT, d_inv, reg)))
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


def _kkt_stages(build_kkt) -> list:
    """The chain's last two stages: the assembled KKT factored on its
    diagonal (``_SYMMETRIC_LU``), then by a partially pivoted LU.

    ``build_kkt()`` returns the matrix; it runs at most once, on first use.
    """

    @cache
    def built():
        kkt = build_kkt()
        return kkt, abs(kkt)

    def factor(options):
        kkt, abs_kkt = built()
        return splu(kkt, **options).solve, partial(_kkt_residual, kkt, abs_kkt)

    return [partial(factor, _SYMMETRIC_LU), partial(factor, {})]


def _kkt_residual(kkt, abs_kkt, x, rhs):
    r = rhs - kkt @ x
    return r, _backward_error(r, abs_kkt @ np.abs(x) + np.abs(rhs))


class _Unassembled:
    """One LP's augmented matrix [[-diag, A'], [A, reg I]], never assembled.

    |A| and |A'| are built once per LP; a first stage refines its solves
    with ``residual``, where ``diag`` is D + reg, the iteration's diagonal.
    """

    def __init__(self, a, at):
        self.a, self.at = a, at
        self.abs_a, self.abs_at = abs(a), abs(at)

    def residual(self, diag: np.ndarray, reg: float, x: np.ndarray, rhs: np.ndarray):
        """The residual rhs - K x and its componentwise backward error."""
        nv = diag.size
        dx, dy = x[:nv], x[nv:]
        kx = np.concatenate([self.at @ dy - diag * dx, self.a @ dx + reg * dy])
        abs_dx, abs_dy = np.abs(dx), np.abs(dy)
        scale = np.concatenate(
            [self.abs_at @ abs_dy + diag * abs_dx, self.abs_a @ abs_dx + reg * abs_dy]
        )
        r = rhs - kx
        return r, _backward_error(r, scale + np.abs(rhs))


def _epigraph_closed_form(th_t, th_1, th_2, reg: float):
    """(det, kappa) for one band's pair of L1 epigraph rows.

    The rows are  (W x)_i - A_i -+ t_i +- s_i = 0: both hold t_i, each its
    own slack. Eliminating t_i and the slacks (weights th = 1 / (D + reg))
    leaves on the pair the 2 x 2 matrix [[c + a, +-c], [+-c, c + b]], with
    c = th_t, a = th_1 + reg and b = th_2 + reg. Its determinant is
    det = c (a + b) + a b, and the weight it leaves on W's rows is
    kappa / det, with kappa = 4 c + a + b. Both are sums and products of
    positive terms, so neither cancels when th spans twenty decades.
    """
    sigma = th_1 + th_2 + 2.0 * reg
    det = sigma * th_t + (th_1 + reg) * (th_2 + reg)
    return det, 4.0 * th_t + sigma


class _NewtonSolver:
    """One iteration's Newton solves, served by a chain of stages.

    A stage is a callable returning a ``(solve, residual)`` pair:
    ``solve(rhs)`` applies a factorization, and ``residual(x, rhs)`` returns
    the residual against the unfactored system and its componentwise backward
    error. A stage raises RuntimeError or numpy's LinAlgError when it cannot
    factor. The first stage that factors serves; the constructor raises
    RuntimeError when none does. Every solve is refined. One whose backward
    error stays above ``_REFINE_ACCEPT`` is redone by the next stage that
    factors, which serves the rest of the iteration, and the answer with the
    smaller error is kept (the earlier one on a tie). ``fell_back`` is True
    once a stage after the first serves.
    """

    def __init__(self, stages):
        self._stages = enumerate(stages)
        self._serving = self._next_stage()
        if self._serving is None:
            raise RuntimeError("no stage can factor the Newton system")

    def _next_stage(self):
        for index, stage in self._stages:
            try:
                pair = stage()
            except (RuntimeError, np.linalg.LinAlgError):
                continue
            self.fell_back = index > 0
            return pair
        return None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, omega = _refine(*self._serving, rhs)
        while omega > _REFINE_ACCEPT:
            pair = self._next_stage()
            if pair is None:
                break
            self._serving = pair
            x_next, omega_next = _refine(*pair, rhs)
            if omega_next < omega:
                x, omega = x_next, omega_next
        return x


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
