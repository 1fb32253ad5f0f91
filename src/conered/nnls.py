"""Nonnegative least squares and conic-membership testing.

The solver is the Lawson-Hanson active-set method with deterministic index
selection: the entering variable is the one with the most negative gradient,
ties broken by lowest index. Inner least-squares subproblems go through
LAPACK's gelsy (QR with column pivoting), which returns a minimum-norm
solution when the passive set is rank deficient.

The stop test is derived from the data, not set by the caller. Every
gradient entry b_j'(y - Bx) is at most ||B||_F * ||y||_2 in size, since the
residual never grows past ||y||_2; the loop ends when no entry exceeds that
bound times 16 * eps (machine epsilon). Rescaling B or y rescales the test
with them, so small-norm data is solved as exactly as unit-norm data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lstsq as _lstsq

from .core import as_values
from .errors import DimensionMismatch, MaxIterations


@dataclass(frozen=True)
class NnlsResult:
    """Solution of min_{x >= 0} ||B x - y||_2."""

    x: np.ndarray
    residual_norm: float
    iterations: int


def nnls_solve(b_mat, y) -> NnlsResult:
    """Solve min ||B x - y||_2 subject to x >= 0.

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


def cone_membership(dictionary, target, eps_feas: float = 1e-8) -> tuple[bool, NnlsResult]:
    """Test whether ``target`` lies in the cone of the dictionary columns.

    Membership means the NNLS residual is strictly below ``eps_feas``. The
    NnlsResult is returned alongside so callers can reuse the residual.
    """
    res = nnls_solve(as_values(dictionary), target)
    return res.residual_norm < eps_feas, res
