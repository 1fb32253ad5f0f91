"""Nonnegative least squares and conic-membership testing.

The solver is the Lawson-Hanson active-set method with deterministic index
selection: the entering variable is the one with the most negative gradient,
ties broken by lowest index. Inner least-squares subproblems call LAPACK's
dgelsy (QR with column pivoting) directly, which returns a minimum-norm
solution when the passive set is rank deficient. The call is the one
``scipy.linalg.lstsq(..., lapack_driver="gelsy")`` makes (cond = eps, the
workspace size LAPACK asks for, a zero-padded right-hand side when there
are more columns than rows), without its validation and dispatch, which
cost about four times the solve itself on the few-row problems of a
reduction sweep. The workspace size is cached per (rows, cols) shape.

The stop test is derived from the data, not set by the caller. Every
gradient entry b_j'(y - Bx) is at most ||B||_F * ||y||_2 in size, since the
residual never grows past ||y||_2; the loop ends when no entry exceeds that
bound times 16 * eps (machine epsilon). Rescaling B or y rescales the test
with them, so small-norm data is solved as exactly as unit-norm data. The
same two norms detect a NaN or an infinity in either argument, which raises
NonFiniteInput instead of reaching LAPACK. When finite entries are so large
(above about 1e154) that the bound overflows, or so small (below about
1e-154) that it underflows to 0, B and y are scaled by powers of two before
the loop and x is scaled back, which is exact; other data takes no extra
step, and an empty or zero B, or a zero y, returns x = 0 at once, with
``math.hypot`` giving the residual ||y||_2 without underflow or overflow.

Lawson and Hanson's step-6 guard is kept: when the first solve after a
column enters gives that column a coefficient <= 0 (roundoff, on a gradient
entry just above the stop test), the column leaves again and its gradient
entry is zeroed until the next full solve, so the next candidate enters.
Without it the ratio step removes the column with a zero step, the same
column enters again, and the loop cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs

from .core import as_values
from .errors import DimensionMismatch, MaxIterations, NonFiniteInput, NumericalBreakdown

_EPS = float(np.finfo(np.float64).eps)
_gelsy, _gelsy_lwork = get_lapack_funcs(("gelsy", "gelsy_lwork"), (np.empty((1, 1)),))


@dataclass(frozen=True)
class NnlsResult:
    """Solution of min_{x >= 0} ||B x - y||_2."""

    x: np.ndarray
    residual_norm: float
    iterations: int


@lru_cache(maxsize=1024)
def _gelsy_workspace(rows: int, cols: int) -> int:
    """The dgelsy workspace size LAPACK asks for, as ``lstsq`` computes it."""
    work, _ = _gelsy_lwork(rows, cols, 1, _EPS)
    return int(work)


def _lstsq_gelsy(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a z = y`` by LAPACK dgelsy.

    ``a`` is a float64 (rows x cols) matrix with cols >= 1 and ``y`` a float64
    vector of length rows; neither is modified. The result has the same bytes
    as ``scipy.linalg.lstsq(a, y, lapack_driver="gelsy")[0]``.
    """
    rows, cols = a.shape
    if cols > rows:
        # dgelsy writes the cols-long solution over the right-hand side.
        rhs = np.zeros(cols)
        rhs[:rows] = y
    else:
        rhs = y
    lwork = _gelsy_workspace(rows, cols)
    _, z, _, _, info = _gelsy(a, rhs, np.zeros(cols, dtype=np.int32), _EPS, lwork)
    if info != 0:
        raise NumericalBreakdown(f"dgelsy returned info={info}")
    return z[:cols]


def _raise_if_non_finite(B: np.ndarray, y: np.ndarray) -> None:
    for name, arr in (("dictionary", B), ("target", y)):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInput(f"nnls {name} has NaN or infinite entries")


def nnls_solve(b_mat, y) -> NnlsResult:
    """Solve min ||B x - y||_2 subject to x >= 0.

    On return x >= 0 exactly, x solves the least-squares problem on its
    support, and off the support every gradient entry of B'(Bx - y) is
    >= -16 * eps * ||B||_F * ||y||_2. ``iterations`` counts least-squares
    subproblem solves; more than 10 * (number of columns) raise MaxIterations.
    A NaN or infinite entry in ``b_mat`` or ``y`` raises NonFiniteInput.
    Finite data whose norms overflow or underflow in that bound is solved
    scaled by exact powers of two; an x beyond the float64 range raises
    NumericalBreakdown.
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
        residual = math.hypot(*yv)
        if not np.isfinite(residual):
            _raise_if_non_finite(B, yv)
        return NnlsResult(x=x, residual_norm=residual, iterations=0)

    norm_b, norm_y = np.linalg.norm(B), np.linalg.norm(yv)
    if not (np.isfinite(norm_b) and np.isfinite(norm_y)):
        _raise_if_non_finite(B, yv)
    tol = 16.0 * _EPS * norm_b * norm_y
    if not 0.0 < tol < math.inf:
        if not (B.any() and yv.any()):
            return NnlsResult(x=x, residual_norm=math.hypot(*yv), iterations=0)
        # Finite entries above about 1e154 overflow a norm or the product,
        # and entries below about 1e-154 underflow it to 0. Solve for
        # B / 2^eb and y / 2^ey, whose largest entries lie in [1/2, 1), then
        # scale x back by 2^(ey - eb); powers of two are exact.
        eb = int(np.frexp(np.abs(B).max())[1])
        ey = int(np.frexp(np.abs(yv).max())[1])
        res = nnls_solve(np.ldexp(B, -eb), np.ldexp(yv, -ey))
        with np.errstate(over="ignore"):
            x = np.ldexp(res.x, ey - eb)
            residual = float(np.ldexp(res.residual_norm, ey))
        if not np.all(np.isfinite(x)):
            raise NumericalBreakdown("nnls solution overflows float64")
        return NnlsResult(x=x, residual_norm=residual, iterations=res.iterations)
    # NumPy methods, not the np.* wrappers: on few-row problems the wrapper
    # dispatch costs more than the work.
    passive = np.zeros(m, dtype=bool)
    w = B.T @ yv  # the negative gradient, -inf on the passive set
    solves = 0
    while True:
        enter = int(w.argmax())
        if passive[enter] or w[enter] <= tol:
            break
        passive[enter] = True
        first = True
        while True:
            cols = passive.nonzero()[0]
            if solves >= max_solves:
                raise MaxIterations(
                    f"nnls exceeded {max_solves} least-squares solves"
                )
            z = _lstsq_gelsy(B[:, cols], yv)
            solves += 1
            if min(z.tolist()) > 0.0:
                x = np.zeros(m)
                x[cols] = z
                w = B.T @ (yv - B @ x)
                w[passive] = -np.inf
                break
            if first and z[cols.searchsorted(enter)] <= 0.0:
                # Step 6: the entering column cannot take a positive weight.
                passive[enter] = False
                w[enter] = 0.0
                break
            first = False
            bad = z <= 0.0
            xp = x[cols]
            xb = xp[bad]
            diff = xb - z[bad]
            safe = diff > 0.0
            ratios = np.where(safe, xb / np.where(safe, diff, 1.0), 0.0)
            alpha = float(ratios.min())
            xc = xp + alpha * (z - xp)
            xc[bad & (np.abs(xc) <= 1e-300)] = 0.0
            jmin = int(np.flatnonzero(bad)[int(np.argmin(ratios))])
            xc[jmin] = 0.0
            x = np.zeros(m)
            x[cols] = np.maximum(xc, 0.0)
            passive = x > 0.0
    residual = float(np.linalg.norm(B @ x - yv))
    return NnlsResult(x=x, residual_norm=residual, iterations=solves)


def cone_membership(dictionary, target, eps_feas: float = 1e-8) -> tuple[bool, NnlsResult]:
    """Test whether ``target`` lies in the cone of the dictionary columns.

    Membership means the NNLS residual is strictly below ``eps_feas``. The
    NnlsResult is returned alongside so callers can reuse the residual.
    """
    res = nnls_solve(as_values(dictionary), target)
    return res.residual_norm < eps_feas, res
