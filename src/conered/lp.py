"""Linear programs in equality standard form with upper bounds.

    min c'x   s.t.   A x = b,   0 <= x <= u   (u may be +inf per entry)

``solve_lp_ipm`` is a primal-dual Mehrotra predictor-corrector
interior-point method. Its Newton systems are solved on the sparse augmented
form

    [ -(D + reg I)   A' ] [dx]   [rhat]
    [      A      reg I ] [dy] = [ rp ]

The caller supplies the stage that factors this system, one that knows its
LP's structure: ``hottopixx`` does for Model H, and ``metrics`` for
``rho``'s sign-pattern LPs. Each iteration factors it once, at reg, and
refines every solve against the LP's one unassembled matrix at reg
(``_Unassembled``) until its componentwise backward error is a few machine
epsilons (Arioli, Demmel & Duff 1989) or stops halving. A solve that stalls
above that, which happens near convergence where D spans twenty orders of
magnitude, is taken as an inexact Newton direction (Gondzio 2012). Both
LPs' epigraph rows eliminate by one closed form (``_epigraph_closed_form``),
and one solve (``_trace_bordered``) borders both reduced matrices with the
trace row. The solver is deterministic.

``write_lp_text`` exports a problem in the plain-text LP file format, so an
external solver can check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve

from .errors import DimensionMismatch, NumericalBreakdown

STATUS_OPTIMAL = "optimal"
STATUS_ITERATION_LIMIT = "iteration-limit"

_EPS = float(np.finfo(np.float64).eps)
_TOL = 1e-10  # convergence: scaled residuals and relative gap all below this
# Refinement stops at this componentwise backward error.
_REFINE_TARGET = 4.0 * _EPS
# The regularization of every Newton system.
_REG = 1e-12


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


def solve_lp_ipm(prob: LpProblem, stage, max_iter: int = 200) -> LpResult:
    """Mehrotra predictor-corrector interior-point solve.

    Converges when the scaled primal/dual residuals and the relative duality
    gap all drop below ``_TOL``. Raises NumericalBreakdown on non-finite
    iterates, or when ``stage`` cannot factor the Newton system. LPs without
    finite upper bounds run the same code, on empty bound terms.

    ``stage(kkt, d_inv, reg)`` factors the Newton system and returns its
    ``solve(rhs)``, or raises RuntimeError or numpy's LinAlgError; ``kkt`` is
    the LP's ``_Unassembled`` matrix, whose residual refines every solve;
    the refined solve is taken whatever its backward error.
    ``hottopixx`` and ``metrics.rho`` pass stages that exploit their LPs'
    structure.
    """
    A = sp.csr_matrix(prob.a_eq)
    AT = sp.csc_matrix(A.T)
    unassembled = _Unassembled(A, AT)
    c, b, ub = prob.c, prob.b_eq, prob.ub
    neq, nv = A.shape
    bd = np.isfinite(ub)
    nb = int(bd.sum())
    ubf = ub[bd]

    x = np.where(bd, np.minimum(1.0, ub * 0.5), 1.0)
    w = ubf - x[bd]
    y = np.zeros(neq)
    z = np.ones(nv)
    q = np.ones(nb)

    bnorm = 1.0 + _max_abs(b)
    cnorm = 1.0 + _max_abs(c)
    unorm = 1.0 + _max_abs(ubf)

    status = STATUS_ITERATION_LIMIT
    it = 0
    relgap = np.inf
    for it in range(1, max_iter + 1):
        qf = np.zeros(nv)
        qf[bd] = q
        rp = b - A @ x
        ru = ubf - x[bd] - w
        rd = c - AT @ y - z + qf
        gap = float(x @ z + w @ q)
        mu = gap / (nv + nb)
        pobj = float(c @ x)
        dobj = float(b @ y - ubf @ q)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj))
        rpn = _max_abs(rp) / bnorm
        rdn = _max_abs(rd) / cnorm
        run = _max_abs(ru) / unorm
        if max(rpn, rdn, run, relgap) <= _TOL:
            status = STATUS_OPTIMAL
            break

        d_inv = z / x
        d_inv[bd] += q / w

        try:
            solve = stage(unassembled, d_inv, _REG)
        except (RuntimeError, np.linalg.LinAlgError):
            raise NumericalBreakdown(
                f"the {neq} x {nv} LP's Newton stage cannot factor at iteration {it}, at reg {_REG:g}"
            ) from None
        residual = partial(unassembled.residual, d_inv + _REG, _REG)

        def newton(rxz, rwq):
            rhat = rd - rxz / x
            rhat[bd] += (rwq - q * ru) / w
            sol = _refine(solve, residual, np.concatenate([rhat, rp]))[0]
            dx, dy = sol[:nv], sol[nv:]
            dz = (rxz - z * dx) / x
            dw = ru - dx[bd]
            dq = (rwq - q * dw) / w
            return dx, dy, dz, dw, dq

        def max_step(v, dv):
            neg = dv < 0.0
            if not neg.any():
                return 1.0
            return min(1.0, float((v[neg] / -dv[neg]).min()))

        # predictor
        dxa, dya, dza, dwa, dqa = newton(-x * z, -(w * q))
        ap = min(max_step(x, dxa), max_step(w, dwa))
        ad = min(max_step(z, dza), max_step(q, dqa))
        mu_aff = (
            float((x + ap * dxa) @ (z + ad * dza)) + float((w + ap * dwa) @ (q + ad * dqa))
        ) / (nv + nb)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector (total direction)
        dx, dy, dz, dw, dq = newton(
            sigma * mu - x * z - dxa * dza,
            sigma * mu - w * q - dwa * dqa,
        )
        ap = 0.9995 * min(max_step(x, dx), max_step(w, dw))
        ad = 0.9995 * min(max_step(z, dz), max_step(q, dq))

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
    )


def _max_abs(v: np.ndarray) -> float:
    """The largest |v_i|, and 0 for an empty v."""
    return float(np.abs(v).max(initial=0.0))


class _Unassembled:
    """One LP's augmented matrix [[-diag, A'], [A, reg I]], never assembled.

    |A| and |A'| are built once per LP. ``residual``, with ``diag`` the
    iteration's D + reg, is the one measure every solve is refined against.
    """

    def __init__(self, a, at):
        self.a, self.at = a, at
        self.abs_a, self.abs_at = abs(a), abs(at)

    def residual(self, diag: np.ndarray, reg: float, x: np.ndarray, rhs: np.ndarray):
        """The residual rhs - K x and its componentwise backward error, on
        the scale |K||x| + |rhs| whatever the sign of ``diag``."""
        nv = diag.size
        dx, dy = x[:nv], x[nv:]
        kx = np.concatenate([self.at @ dy - diag * dx, self.a @ dx + reg * dy])
        abs_dx, abs_dy = np.abs(dx), np.abs(dy)
        scale = np.concatenate(
            [self.abs_at @ abs_dy + np.abs(diag) * abs_dx, self.abs_a @ abs_dx + reg * abs_dy]
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


def _trace_bordered(root: np.ndarray, reg: float):
    """``solve(h, g)`` -> (dx, t) with N dx - t 1 = h and 1'dx + reg t = g.

    Both structured stages border their N = root' root with the trace row.
    N's Cholesky factor is the R of root's QR (near convergence N's
    condition number passes 1 / eps, so N is not formed); numpy's
    LinAlgError is raised when that factor is singular.
    """
    upper = np.linalg.qr(root, mode="r")
    if not np.all(np.abs(np.diag(upper)) > 0.0):
        raise np.linalg.LinAlgError("the bordered matrix's triangular factor is singular")
    factor = (upper, False)
    v = cho_solve(factor, np.ones(upper.shape[0]), check_finite=False)
    v_sum = float(v.sum()) + reg

    def solve(h: np.ndarray, g: float):
        u = cho_solve(factor, h, check_finite=False)
        t = (g - u.sum()) / v_sum
        return u + v * t, t

    return solve


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
