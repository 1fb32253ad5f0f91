"""Deterministic k-means over matrix columns.

Seeding is k-means++ driven by a caller-supplied seed, assignment ties go to
the lowest centroid index, and an empty cluster is repaired by moving the
point currently farthest from its own centroid (among clusters that can
spare one). With a fixed seed the partition is reproducible and independent
of any parallel schedule, since all reductions happen in fixed array order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import IndexSet, as_values
from .errors import BadParameter


@dataclass(frozen=True)
class Partition:
    """Disjoint, non-empty groups of column indices covering 0..n-1."""

    n: int
    groups: tuple[IndexSet, ...]

    def __post_init__(self):
        seen = np.concatenate([g.indices for g in self.groups]) if self.groups else np.array([], dtype=np.int64)
        if any(len(g) == 0 for g in self.groups):
            raise ValueError("empty group in partition")
        if seen.size != self.n or np.unique(seen).size != self.n:
            raise ValueError("groups must partition the column range exactly")
        if seen.size and (seen.min() < 0 or seen.max() >= self.n):
            raise ValueError("group index out of range")

    @property
    def p(self) -> int:
        return len(self.groups)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ||x - c||^2 expanded; clamp tiny negatives from cancellation
    d2 = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * points @ centers.T
        + (centers * centers).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_init(points: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((p, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = _sq_dists(points, centers[:1]).ravel()
    for k in range(1, p):
        total = closest.sum()
        if total > 0.0:
            probs = closest / total
            pick = int(rng.choice(n, p=probs))
        else:
            pick = int(rng.integers(n))
        centers[k] = points[pick]
        closest = np.minimum(closest, _sq_dists(points, centers[k : k + 1]).ravel())
    return centers


def _lloyd(
    points: np.ndarray,
    centers: np.ndarray,
    max_iter: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations with empty-cluster repair.

    Returns (labels, centers). The inertia never rises from one iteration to
    the next: each assignment, repair, and centroid update can only lower the
    within-cluster sum of squares.
    """
    p = centers.shape[0]
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = _sq_dists(points, centers)
        new_labels = d2.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=p)
        for empty in np.flatnonzero(counts == 0):
            own = d2[np.arange(points.shape[0]), new_labels]
            movable = counts[new_labels] >= 2
            cand = np.where(movable, own, -np.inf)
            donor = int(np.argmax(cand))
            counts[new_labels[donor]] -= 1
            new_labels[donor] = empty
            counts[empty] += 1
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(p):
            centers[k] = points[labels == k].mean(axis=0)
    return labels, centers


def kmeans_partition(a, p: int, seed: int | np.random.SeedSequence) -> Partition:
    """Partition the columns of ``a`` into p clusters.

    If p exceeds the number of distinct columns, p is reduced to that count
    and a warning reports the reduction. p < 1 or a negative integer seed
    raises BadParameter.
    """
    if not isinstance(seed, np.random.SeedSequence) and seed < 0:
        raise BadParameter(f"seed must be >= 0, got {seed}")
    arr = as_values(a)
    n = arr.shape[1]
    if p < 1:
        raise BadParameter(f"p must be >= 1, got {p}")
    points = np.ascontiguousarray(arr.T)
    distinct = np.unique(points, axis=0).shape[0]
    if p > distinct:
        warnings.warn(
            f"p reduced from {p} to {distinct} distinct columns", stacklevel=2
        )
        p = distinct
    rng = np.random.default_rng(seed)
    if p == 1:
        labels = np.zeros(n, dtype=np.int64)
    else:
        centers = _kmeanspp_init(points, p, rng)
        labels, _ = _lloyd(points, centers)
    groups = tuple(
        IndexSet(np.flatnonzero(labels == k)) for k in range(p)
    )
    return Partition(n=n, groups=groups)
