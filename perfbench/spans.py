"""Spans around calls into conered's modules, and the per-layer metrics they give.

The tracer replaces module-level names (for example ``conered.reduction.dr``)
with wrappers that record a span per call: name, start, end, parent span and
the op it belongs to, plus counts read from the call's arguments and return
value. Callers inside conered look those names up in their own module at call
time, so wrapping the name in the calling module is enough; nothing inside the
library changes. Spans stay in memory and are written out when the run ends.

Modules are reached through ``importlib.import_module`` because the package
re-exports the function ``redic``, which shadows the ``conered.redic`` module
as a package attribute.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float = 0.0
    data: dict = field(default_factory=dict)
    self_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


def _lp_counts(args, kwargs, res):
    return {"iterations": int(res.iterations), "gap": float(res.gap)}


def _model_lp_counts(args, kwargs, prob):
    rows, cols = prob.a_eq.shape
    model = args[0] if args else kwargs["model"]
    return {"m": int(model.m), "vars": int(cols), "rows": int(rows), "nnz": int(prob.a_eq.nnz)}


def _solve_model_counts(args, kwargs, sol):
    # kept for audit_model_h, which runs after the op, outside every span
    model = args[0] if args else kwargs["model"]
    return {"model": model, "x_matrix": sol.x_matrix}


def _cone_counts(args, kwargs, res):
    member, nnls = res
    return {"member": bool(member), "ls_solves": int(nnls.iterations)}


def _dr_counts(args, kwargs, keep):
    a = args[0] if args else kwargs["a"]
    return {"cols_in": int(np.shape(getattr(a, "values", a))[1])}


def _drs_counts(args, kwargs, keep):
    return {"k_size": len(keep)}


def _kmeans_counts(args, kwargs, part):
    return {"max_group": max(len(g) for g in part.groups)}


def _svd_counts(args, kwargs, out):
    a = args[0] if args else kwargs["a"]
    d, n = np.shape(getattr(a, "values", a))
    return {"bytes_in": int(d * n * 8)}


def _load_counts(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return {"bytes_read": os.path.getsize(path)}


# (module, attribute, span name, counts from (args, kwargs, result))
WRAPS = [
    ("conered.core", "load_matrix", "core.load_matrix", _load_counts),
    ("conered.dimred", "reduce_dimension", "dimred.reduce_dimension", _svd_counts),
    ("conered.redic", "reduce_dimension", "dimred.reduce_dimension", _svd_counts),
    ("conered.reduction", "drs", "reduction.drs", _drs_counts),
    ("conered.redic", "drs", "reduction.drs", _drs_counts),
    ("conered.reduction", "kmeans_partition", "clustering.kmeans_partition", _kmeans_counts),
    ("conered.reduction", "dr", "reduction.dr", _dr_counts),
    ("conered.reduction", "cone_membership", "nnls.cone_membership", _cone_counts),
    ("conered.redic", "redic", "redic.redic", None),
    ("conered.redic", "build_model_h", "hottopixx.build_model_h", None),
    ("conered.redic", "solve_model_h", "hottopixx.solve_model_h", _solve_model_counts),
    ("conered.redic", "postprocess_method_c", "hottopixx.postprocess_method_c", None),
    ("conered.redic", "solve_assignment", "assignment.solve_assignment", None),
    ("conered.hottopixx", "model_h_lp", "hottopixx.model_h_lp", _model_lp_counts),
    ("conered.hottopixx", "solve_lp_ipm", "lp.solve_lp_ipm", _lp_counts),
    ("conered.metrics", "rho", "metrics.rho", None),
    ("conered.metrics", "solve_lp_ipm", "lp.solve_lp_ipm", _lp_counts),
]


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every name in WRAPS; a name that no longer exists is noted as missing."""
        for module_name, attr, span_name, counter in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(span_name)
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, span_name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, span_name, self.op, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.data = counter(args, kwargs, result)
            return result

        return wrapper

    def op_spans(self, op: int) -> list[Span]:
        """Spans of one op, with self time (duration minus direct children) filled in."""
        spans = [s for s in self.spans if s.op == op]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
        for s in spans:
            s.self_s = s.dur - child_time.get(s.id, 0.0)
        return spans

    def dump(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "op": s.op,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                "counts": {k: v for k, v in s.data.items() if isinstance(v, (int, float))},
            }
            for s in self.spans
        ]


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _dur(spans, name):
    return float(sum(s.dur for s in _named(spans, name)))


def _count(spans, name, key, agg=sum, default=0):
    vals = [s.data[key] for s in _named(spans, name) if key in s.data]
    return agg(vals) if vals else default


def _ratio(num, den):
    return float(num / den) if den else 0.0


def _dr_split(spans):
    """Group and merge dr times: within each drs span the last dr call is the merge."""
    group = merge = 0.0
    union = 0
    by_id = {s.id: s for s in spans}
    for drs in _named(spans, "reduction.drs"):
        drs_calls = [s for s in _named(spans, "reduction.dr") if _ancestor(s, drs.id, by_id)]
        if drs_calls:
            group += sum(s.dur for s in drs_calls[:-1])
            merge += drs_calls[-1].dur
            union = max(union, drs_calls[-1].data.get("cols_in", 0))
    return group, merge, union


def _ancestor(span, ancestor_id, by_id):
    parent = span.parent
    while parent is not None:
        if parent == ancestor_id:
            return True
        parent = by_id[parent].parent
    return False


def _rho_lp_calls(spans):
    by_id = {s.id: s for s in spans}
    rho_ids = [s.id for s in _named(spans, "metrics.rho")]
    return [
        s
        for s in _named(spans, "lp.solve_lp_ipm")
        if any(_ancestor(s, rid, by_id) for rid in rho_ids)
    ]


def _audits(spans):
    """``audit_model_h`` of every LP solution in the op, run after the op."""
    audit = importlib.import_module("conered.hottopixx").audit_model_h
    return [audit(s.data["model"], s.data["x_matrix"]) for s in _named(spans, "hottopixx.solve_model_h")]


def _audit_max(spans):
    worst = 0.0
    for rep in _audits(spans):
        worst = max(worst, rep["nonneg"], rep["coupling"], rep["diag_bound"], rep["trace"])
    return worst


# name -> (unit, span names it is read from, function of the op's spans)
LAYER_METRICS = {
    "lp.calls": ("count", ["lp.solve_lp_ipm"], lambda sp: len(_named(sp, "lp.solve_lp_ipm"))),
    "lp.iterations": ("count", ["lp.solve_lp_ipm"], lambda sp: _count(sp, "lp.solve_lp_ipm", "iterations")),
    "lp.solve_s": ("s", ["lp.solve_lp_ipm"], lambda sp: _dur(sp, "lp.solve_lp_ipm")),
    "lp.s_per_iter": (
        "s",
        ["lp.solve_lp_ipm"],
        lambda sp: _ratio(_dur(sp, "lp.solve_lp_ipm"), _count(sp, "lp.solve_lp_ipm", "iterations")),
    ),
    "lp.max_gap": ("1", ["lp.solve_lp_ipm"], lambda sp: float(_count(sp, "lp.solve_lp_ipm", "gap", max, 0.0))),
    "hottopixx.m": ("count", ["hottopixx.model_h_lp"], lambda sp: _count(sp, "hottopixx.model_h_lp", "m", max)),
    "hottopixx.lp_vars": ("count", ["hottopixx.model_h_lp"], lambda sp: _count(sp, "hottopixx.model_h_lp", "vars", max)),
    "hottopixx.lp_rows": ("count", ["hottopixx.model_h_lp"], lambda sp: _count(sp, "hottopixx.model_h_lp", "rows", max)),
    "hottopixx.lp_nnz": ("count", ["hottopixx.model_h_lp"], lambda sp: _count(sp, "hottopixx.model_h_lp", "nnz", max)),
    "hottopixx.lp_build_s": (
        "s",
        ["hottopixx.build_model_h", "hottopixx.model_h_lp"],
        lambda sp: _dur(sp, "hottopixx.build_model_h") + _dur(sp, "hottopixx.model_h_lp"),
    ),
    "hottopixx.method_c_s": (
        "s",
        ["hottopixx.postprocess_method_c"],
        lambda sp: _dur(sp, "hottopixx.postprocess_method_c"),
    ),
    "hottopixx.audit_max_violation": ("1", ["hottopixx.solve_model_h"], _audit_max),
    "nnls.calls": ("count", ["nnls.cone_membership"], lambda sp: len(_named(sp, "nnls.cone_membership"))),
    "nnls.ls_solves": ("count", ["nnls.cone_membership"], lambda sp: _count(sp, "nnls.cone_membership", "ls_solves")),
    "nnls.busy_s": ("s", ["nnls.cone_membership"], lambda sp: _dur(sp, "nnls.cone_membership")),
    "nnls.removed_frac": (
        "1",
        ["nnls.cone_membership"],
        lambda sp: _ratio(_count(sp, "nnls.cone_membership", "member"), len(_named(sp, "nnls.cone_membership"))),
    ),
    "reduction.group_dr_s": ("s", ["reduction.drs", "reduction.dr"], lambda sp: _dr_split(sp)[0]),
    "reduction.merge_dr_s": ("s", ["reduction.drs", "reduction.dr"], lambda sp: _dr_split(sp)[1]),
    "reduction.union_size": ("count", ["reduction.drs", "reduction.dr"], lambda sp: _dr_split(sp)[2]),
    "reduction.k_size": ("count", ["reduction.drs"], lambda sp: _count(sp, "reduction.drs", "k_size", max)),
    "dimred.svd_s": ("s", ["dimred.reduce_dimension"], lambda sp: _dur(sp, "dimred.reduce_dimension")),
    "dimred.bytes_in": ("B", ["dimred.reduce_dimension"], lambda sp: _count(sp, "dimred.reduce_dimension", "bytes_in")),
    "clustering.kmeans_s": (
        "s",
        ["clustering.kmeans_partition"],
        lambda sp: _dur(sp, "clustering.kmeans_partition"),
    ),
    "clustering.max_group": (
        "count",
        ["clustering.kmeans_partition"],
        lambda sp: _count(sp, "clustering.kmeans_partition", "max_group", max),
    ),
    "core.load_s": ("s", ["core.load_matrix"], lambda sp: _dur(sp, "core.load_matrix")),
    "core.bytes_read": ("B", ["core.load_matrix"], lambda sp: _count(sp, "core.load_matrix", "bytes_read")),
    "assignment.calls": (
        "count",
        ["assignment.solve_assignment"],
        lambda sp: len(_named(sp, "assignment.solve_assignment")),
    ),
    "assignment.solve_s": ("s", ["assignment.solve_assignment"], lambda sp: _dur(sp, "assignment.solve_assignment")),
    "redic.self_s": ("s", ["redic.redic"], lambda sp: float(sum(s.self_s for s in _named(sp, "redic.redic")))),
    "metrics.patterns": ("count", ["metrics.rho", "lp.solve_lp_ipm"], lambda sp: len(_rho_lp_calls(sp))),
    "metrics.rho_self_s": (
        "s",
        ["metrics.rho", "lp.solve_lp_ipm"],
        lambda sp: float(sum(s.self_s for s in _named(sp, "metrics.rho"))),
    ),
}


def layer_metrics(spans: list[Span], missing: set[str]) -> dict:
    """Per-layer values of one op; a metric read from a missing name is None."""
    out = {}
    for name, (unit, sources, fn) in LAYER_METRICS.items():
        out[name] = None if missing.intersection(sources) else fn(spans)
    return out


def audits_ok(spans: list[Span]) -> bool:
    """True when ``audit_model_h`` passes on every LP solution of the op."""
    return all(rep["ok"] for rep in _audits(spans))


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name within one op."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.self_s
    return out
