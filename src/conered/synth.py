"""Nearly separable synthetic instances A = W H + noise.

Instances carry a ground-truth factorization: W (d x r, unit L1 columns),
a column-stochastic H that is exactly e_j at the r pure-pixel positions,
and a stored noise matrix V. ``assemble`` scales V to a requested induced
L1 intensity nu, so one instance yields a whole noise sweep.

Instances come from two constructors. ``random_separable`` draws everything
from a seeded generator. ``derive_whv`` starts from a real image: its
columns are L1-normalized, each reference endmember is matched to its
nearest column by spectral angle, the matched columns become W, and H
solves a column-wise simplex-constrained least squares so that
V = A - W H is exactly the model mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HsiMatrix, IndexSet, as_values, l1_normalize_columns, mrsa_cost
from .errors import (
    BadParameter,
    BadRank,
    DimensionMismatch,
    DuplicateMatch,
    MaxIterations,
    ZeroNoise,
)


@dataclass(frozen=True)
class SynthInstance:
    """Ground-truth triple (W, H, V) plus pure positions and a default nu.

    ``pure_indices[j]`` is the column where H equals e_j exactly; the array
    is order-sensitive (position j belongs to endmember j), so it is not an
    IndexSet.
    """

    w: np.ndarray
    h: np.ndarray
    v: np.ndarray
    pure_indices: np.ndarray
    nu: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        pure = np.asarray(self.pure_indices, dtype=np.int64)
        d, r = w.shape
        rh, n = h.shape
        if rh != r or v.shape != (d, n) or pure.shape != (r,):
            raise DimensionMismatch("inconsistent instance shapes")
        if np.unique(pure).size != r:
            raise ValueError("pure indices must be distinct")
        if np.any(np.abs(np.abs(w).sum(axis=0) - 1.0) > 1e-12):
            raise ValueError("columns of W must have unit L1 norm")
        if h.min() < -1e-12 or np.any(np.abs(h.sum(axis=0) - 1.0) > 1e-10):
            raise ValueError("H must be (numerically) column stochastic")
        eye = np.eye(r)
        if not np.array_equal(h[:, pure], eye):
            raise ValueError("H at the pure positions must equal the identity exactly")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "pure_indices", pure)

    @property
    def d(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def r(self) -> int:
        return self.w.shape[1]


def matrix_l1_norm(v) -> float:
    """Induced L1 norm: the largest column absolute sum."""
    arr = as_values(v)
    return float(np.abs(arr).sum(axis=0).max(initial=0.0))


def assemble(inst: SynthInstance, nu: float) -> HsiMatrix:
    """A = W H + (nu / ||V||_1) V, so the noise term has induced norm nu."""
    if not 0.0 <= nu < math.inf:
        raise BadParameter(f"nu must be a nonnegative finite number, got {nu}")
    clean = inst.w @ inst.h
    if nu == 0:
        return HsiMatrix(clean)
    vnorm = matrix_l1_norm(inst.v)
    if vnorm == 0.0:
        raise ZeroNoise("stored V is zero; cannot scale to a positive intensity")
    return HsiMatrix(clean + (nu / vnorm) * inst.v)


def random_separable(
    d: int,
    n: int,
    r: int,
    seed: int | np.random.SeedSequence,
    noise_norm: float = 1.0,
) -> SynthInstance:
    """Draw a random r-separable instance.

    W is i.i.d. uniform then column-normalized; the mixed columns of H are
    Dirichlet(1) draws (interior of the simplex almost surely); the identity
    block lands at uniformly random positions; V is Gaussian scaled to the
    requested induced L1 norm (exactly zero when noise_norm is 0).
    """
    if not (1 <= r <= min(d, n)):
        raise BadRank(f"need 1 <= r <= min(d, n), got r={r}, d={d}, n={n}")
    if not 0.0 <= noise_norm < math.inf:
        raise BadParameter(f"noise_norm must be a nonnegative finite number, got {noise_norm}")
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, size=(d, r))
    w /= w.sum(axis=0)
    base = np.empty((r, n))
    base[:, :r] = np.eye(r)
    if n > r:
        base[:, r:] = rng.dirichlet(np.ones(r), size=n - r).T
    perm = rng.permutation(n)
    h = np.empty((r, n))
    h[:, perm] = base
    pure = perm[:r].copy()
    if noise_norm > 0:
        v = rng.standard_normal((d, n))
        v *= noise_norm / matrix_l1_norm(v)
    else:
        v = np.zeros((d, n))
    return SynthInstance(w=w, h=h, v=v, pure_indices=pure, nu=noise_norm)


def project_columns_to_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of every column onto the probability simplex."""
    m = y.shape[0]
    u = np.sort(y, axis=0)[::-1]
    css = np.cumsum(u, axis=0) - 1.0
    ks = np.arange(1, m + 1)[:, None]
    active = u - css / ks > 0.0
    counts = active.sum(axis=0)
    theta = css[counts - 1, np.arange(y.shape[1])] / counts
    return np.maximum(y - theta[None, :], 0.0)


def simplex_constrained_lstsq(
    w: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 50_000,
) -> np.ndarray:
    """min ||B - W X||_F^2 with every column of X on the simplex.

    Accelerated projected gradient with a gradient-mapping restart. Stops
    when the largest per-column projected-gradient displacement (at step
    1/L) falls below ``tol``; raises MaxIterations past the cap.
    """
    wm = np.asarray(w, dtype=np.float64)
    bm = np.asarray(b, dtype=np.float64)
    if wm.shape[0] != bm.shape[0]:
        raise DimensionMismatch("W and B must share their row count")
    r = wm.shape[1]
    n = bm.shape[1]
    gram = wm.T @ wm
    wtb = wm.T @ bm
    lip = float(np.linalg.norm(gram, 2))
    if lip == 0.0:
        return np.full((r, n), 1.0 / r)
    x = np.full((r, n), 1.0 / r)
    yk = x.copy()
    t = 1.0
    for it in range(max_iter):
        grad = gram @ yk - wtb
        x_new = project_columns_to_simplex(yk - grad / lip)
        if (yk - x_new).ravel() @ (x_new - x).ravel() > 0.0:
            t = 1.0  # restart: momentum points uphill
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        yk = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x = x_new
        t = t_new
        if it % 10 == 0:
            g = gram @ x - wtb
            pg = x - project_columns_to_simplex(x - g / lip)
            if float(np.linalg.norm(pg, axis=0).max(initial=0.0)) <= tol:
                return x
    raise MaxIterations(f"projected gradient did not reach {tol:g} in {max_iter} steps")


def derive_whv(a_real, w_ident, tol: float = 1e-8) -> SynthInstance:
    """Build an instance whose ground truth is read off a real image."""
    a = l1_normalize_columns(as_values(a_real))
    w_ref = np.asarray(w_ident, dtype=np.float64)
    if w_ref.shape[0] != a.shape[0]:
        raise DimensionMismatch("endmember rows must match the image band count")
    r = w_ref.shape[1]
    matched = np.argmin(mrsa_cost(w_ref, a), axis=1).astype(np.int64)
    if np.unique(matched).size != r:
        raise DuplicateMatch(
            f"distinct endmembers matched the same column: {matched.tolist()}"
        )
    w = a[:, matched].copy()
    h = simplex_constrained_lstsq(w, a, tol=tol)
    h[:, matched] = np.eye(r)
    v = a - w @ h
    return SynthInstance(
        w=w, h=h, v=v, pure_indices=matched, nu=matrix_l1_norm(v)
    )


def write_sidecar(path: str, inst: SynthInstance, seed: int, nu: float) -> None:
    """Key=value metadata next to a stored instance (indices are 1-based)."""
    pure = ",".join(str(int(i) + 1) for i in inst.pure_indices)
    lines = [
        f"d={inst.d}",
        f"n={inst.n}",
        f"r={inst.r}",
        f"seed={seed}",
        f"nu={nu!r}",
        f"noise_norm={inst.nu!r}",
        f"pure_indices={pure}",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sidecar(path: str) -> dict:
    out: dict[str, object] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if key in ("d", "n", "r", "seed"):
                out[key] = int(value)
            elif key in ("nu", "noise_norm"):
                out[key] = float(value)
            elif key == "pure_indices":
                out[key] = IndexSet.from_one_based(
                    int(tok) for tok in value.split(",") if tok
                )
            else:
                out[key] = value
    return out
