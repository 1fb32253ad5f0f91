"""Matrix data model, column normalization, spectral angles, and file I/O.

Matrices follow the hyperspectral convention throughout: rows are spectral
bands, columns are pixels. Two on-disk formats are supported, a headerless
CSV (one row per band) and the binary ``hsm1`` layout described in
:func:`store_matrix`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVector,
    DimensionMismatch,
    ParseError,
    ZeroColumn,
)

FORMAT_CSV = "csv"
FORMAT_HSM1 = "hsm1"

_HSM1_MAGIC = b"HSM1"
_HSM1_HEADER = struct.Struct("<4sQQ")


@dataclass(frozen=True)
class HsiMatrix:
    """A d x n band-by-pixel matrix of finite float64 values.

    The wrapped array is copied on construction and marked read-only, so an
    instance never changes after it is built.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch(f"matrix must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]


@dataclass(frozen=True)
class IndexSet:
    """A strictly increasing, duplicate-free set of column indices.

    Indices are 0-based in memory; the 1-based convention only applies on
    disk and on the CLI surface (:meth:`to_one_based` / :meth:`from_one_based`).
    """

    indices: np.ndarray

    def __post_init__(self):
        arr = np.array(self.indices, dtype=np.int64, copy=True).reshape(-1)
        if arr.size and arr.min() < 0:
            raise ValueError("indices must be nonnegative")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("indices must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "indices", arr)

    @classmethod
    def from_iterable(cls, it) -> "IndexSet":
        return cls(np.unique(np.fromiter(it, dtype=np.int64)))

    @classmethod
    def from_one_based(cls, it) -> "IndexSet":
        arr = np.fromiter(it, dtype=np.int64)
        if arr.size and arr.min() < 1:
            raise ValueError("1-based indices must be positive")
        return cls(np.unique(arr - 1))

    def to_one_based(self) -> np.ndarray:
        return self.indices + 1

    def validate_for(self, n: int) -> None:
        if self.indices.size and self.indices[-1] >= n:
            raise DimensionMismatch(
                f"index {self.indices[-1]} out of range for {n} columns"
            )

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self):
        return iter(self.indices.tolist())

    def __contains__(self, j) -> bool:
        return bool(np.isin(j, self.indices))


def as_values(a) -> np.ndarray:
    """Unwrap an HsiMatrix (or pass through an array) as a float64 2-d array."""
    if isinstance(a, HsiMatrix):
        return a.values
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got ndim={arr.ndim}")
    return arr


def l1_normalize_columns(a):
    """Scale every column to unit L1 norm.

    Accepts an HsiMatrix or a 2-d array and returns the same kind. Raises
    ZeroColumn naming the first offender if any column has zero norm.
    """
    wrap = isinstance(a, HsiMatrix)
    arr = as_values(a)
    norms = np.abs(arr).sum(axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroColumn(int(zero[0]))
    out = arr / norms
    return HsiMatrix(out) if wrap else out


def mrsa(a, b, norm_tol: float = 1e-12) -> float:
    """Mean-removed spectral angle between two vectors, scaled to [0, 1].

    Both vectors have their mean subtracted; the angle between the residuals
    is returned as a fraction of pi. Computed via the arcsin half-chord form,
    which is exact at 0 for identical inputs and exact at 1 for antipodal
    ones. Raises DegenerateVector when a mean-removed vector has L2 norm
    below ``norm_tol``.
    """
    u = np.asarray(a, dtype=np.float64).reshape(-1)
    v = np.asarray(b, dtype=np.float64).reshape(-1)
    if u.size != v.size:
        raise DimensionMismatch(f"vector lengths differ: {u.size} vs {v.size}")
    if u.size < 2:
        raise DimensionMismatch("mrsa needs vectors of length >= 2")
    u = u - u.mean()
    v = v - v.mean()
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < norm_tol or nv < norm_tol:
        raise DegenerateVector(
            f"mean-removed norm below {norm_tol:g} (got {min(nu, nv):g})"
        )
    u = u / nu
    v = v / nv
    if float(u @ v) >= 0.0:
        half = min(1.0, 0.5 * float(np.linalg.norm(u - v)))
        theta = 2.0 * math.asin(half)
    else:
        half = min(1.0, 0.5 * float(np.linalg.norm(u + v)))
        theta = math.pi - 2.0 * math.asin(half)
    return theta / math.pi


def mrsa_cost(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """cost[i, k] = mrsa(c[:, i], w[:, k]) for 2-d arrays, pair by pair."""
    cost = np.empty((c.shape[1], w.shape[1]))
    for i in range(c.shape[1]):
        for k in range(w.shape[1]):
            cost[i, k] = mrsa(c[:, i], w[:, k])
    return cost


def mrsa_pairwise(p, q, norm_tol: float = 1e-12) -> np.ndarray:
    """All-pairs MRSA between the columns of two matrices.

    Returns a (p-columns x q-columns) array. Uses the arccos form, which is
    a few ulp less accurate near 0 than :func:`mrsa` but vectorizes; callers
    use it for nearest-column matching only.
    """
    pm = as_values(p)
    qm = as_values(q)
    if pm.shape[0] != qm.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: {pm.shape[0]} vs {qm.shape[0]}"
        )
    pc = pm - pm.mean(axis=0, keepdims=True)
    qc = qm - qm.mean(axis=0, keepdims=True)
    pn = np.linalg.norm(pc, axis=0)
    qn = np.linalg.norm(qc, axis=0)
    if np.any(pn < norm_tol) or np.any(qn < norm_tol):
        raise DegenerateVector("a column is constant after mean removal")
    cos = (pc / pn).T @ (qc / qn)
    np.clip(cos, -1.0, 1.0, out=cos)
    return np.arccos(cos) / math.pi


def detect_format(path: str) -> str:
    return FORMAT_CSV if str(path).lower().endswith(".csv") else FORMAT_HSM1


def store_matrix(a, path: str, fmt: str | None = None) -> None:
    """Write a matrix to ``path`` as CSV or hsm1.

    hsm1 layout: the 4 bytes ``HSM1``, then d and n as little-endian uint64,
    then d*n little-endian float64 values in column-major order. CSV rows are
    bands and use ``repr`` formatting, so both formats round-trip exactly.
    """
    arr = as_values(a)
    if fmt is None:
        fmt = detect_format(path)
    if fmt == FORMAT_CSV:
        with open(path, "w", encoding="ascii") as fh:
            for row in arr:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
    elif fmt == FORMAT_HSM1:
        d, n = arr.shape
        with open(path, "wb") as fh:
            fh.write(_HSM1_HEADER.pack(_HSM1_MAGIC, d, n))
            fh.write(np.asarray(arr, dtype="<f8").tobytes(order="F"))
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def load_matrix(path: str, fmt: str | None = None) -> HsiMatrix:
    """Read a matrix written by :func:`store_matrix`."""
    if fmt is None:
        fmt = detect_format(path)
    if fmt == FORMAT_CSV:
        return _load_csv(path)
    if fmt == FORMAT_HSM1:
        return _load_hsm1(path)
    raise ValueError(f"unknown matrix format {fmt!r}")


def _load_csv(path: str) -> HsiMatrix:
    rows = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                raise ParseError("blank line", path=path, line=lineno)
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(
                    f"expected {width} fields, found {len(fields)}",
                    path=path,
                    line=lineno,
                )
            row = np.empty(len(fields))
            for k, tok in enumerate(fields):
                try:
                    row[k] = float(tok)
                except ValueError:
                    raise ParseError(
                        f"not a number: {tok!r}", path=path, line=lineno, offset=k + 1
                    ) from None
            if not np.all(np.isfinite(row)):
                bad = int(np.flatnonzero(~np.isfinite(row))[0])
                raise ParseError(
                    "non-finite value", path=path, line=lineno, offset=bad + 1
                )
            rows.append(row)
    if not rows:
        raise ParseError("empty file", path=path, line=1)
    return HsiMatrix(np.vstack(rows))


def _load_hsm1(path: str) -> HsiMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HSM1_HEADER.size:
        raise ParseError("truncated header", path=path)
    magic, d, n = _HSM1_HEADER.unpack_from(blob)
    if magic != _HSM1_MAGIC:
        raise ParseError(f"bad magic {magic!r}", path=path)
    if d < 1 or n < 1:
        raise ParseError(f"invalid dimensions {d}x{n}", path=path)
    expected = _HSM1_HEADER.size + 8 * d * n
    if len(blob) != expected:
        raise ParseError(
            f"expected {expected} bytes for a {d}x{n} matrix, file has {len(blob)}",
            path=path,
        )
    data = np.frombuffer(blob, dtype="<f8", offset=_HSM1_HEADER.size)
    arr = data.reshape((d, n), order="F")
    if not np.all(np.isfinite(arr)):
        raise ParseError("non-finite value in payload", path=path)
    return HsiMatrix(arr)
