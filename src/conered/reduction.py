"""Redundant-column removal for conical hulls.

``dr`` makes a single ascending pass over the columns and deletes any column
that the NNLS test places inside the cone of the other survivors, so among
exact duplicates the highest-index copy survives. ``drs`` first splits the
columns with k-means, reduces each group independently, then reduces the
union. Outputs generate the same cone as the input and are minimal:
removing any retained column changes the cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import kmeans_partition
from .core import IndexSet, as_values
from .nnls import cone_membership


def dr(a, eps_feas: float = 1e-8) -> IndexSet:
    """Single-pass redundancy removal over the columns of ``a``."""
    arr = as_values(a)
    n = arr.shape[1]
    surviving = np.ones(n, dtype=bool)
    for i in range(n):
        surviving[i] = False
        others = np.flatnonzero(surviving)
        if others.size == 0:
            surviving[i] = True
            continue
        member, _ = cone_membership(arr[:, others], arr[:, i], eps_feas=eps_feas)
        if not member:
            surviving[i] = True
    return IndexSet(np.flatnonzero(surviving))


def drs(
    a,
    p: int,
    eps_feas: float = 1e-8,
    seed: int | np.random.SeedSequence = 0,
) -> IndexSet:
    """Split-and-merge redundancy removal: k-means into p groups, ``dr`` on
    each group in turn, then one ``dr`` on the union of the survivors."""
    arr = as_values(a)
    part = kmeans_partition(arr, p, seed)
    keeps = [g.indices[dr(arr[:, g.indices], eps_feas=eps_feas).indices] for g in part.groups]
    union = np.unique(np.concatenate(keeps))
    return IndexSet(union[dr(arr[:, union], eps_feas=eps_feas).indices])


@dataclass(frozen=True)
class GammaReport:
    """Outcome of checking a retained set K against the full column cone.

    in_gamma: every column lies within eps_feas of cone(A(:, K)).
    minimal: no retained column is explained by the other retained ones.
    witness: a violating column index when either check fails, else None.
    """

    in_gamma: bool
    minimal: bool
    witness: int | None


def verify_gamma(a, k: IndexSet, eps_feas: float = 1e-8) -> GammaReport:
    arr = as_values(a)
    k.validate_for(arr.shape[1])
    kidx = k.indices
    in_set = np.zeros(arr.shape[1], dtype=bool)
    in_set[kidx] = True

    in_gamma = True
    witness = None
    dictionary = arr[:, kidx]
    for j in range(arr.shape[1]):
        if in_set[j]:
            continue
        member, _ = cone_membership(dictionary, arr[:, j], eps_feas=eps_feas)
        if not member:
            in_gamma = False
            witness = j
            break

    minimal = True
    for pos in range(kidx.size):
        rest = np.delete(kidx, pos)
        if rest.size == 0:
            continue
        member, _ = cone_membership(arr[:, rest], arr[:, kidx[pos]], eps_feas=eps_feas)
        if member:
            minimal = False
            if witness is None:
                witness = int(kidx[pos])
            break

    return GammaReport(in_gamma=in_gamma, minimal=minimal, witness=witness)
