"""Benchmark for conered: one seeded workload per run, through the library API.

    python3 perfbench/run.py --workload extract-lp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
run generates the workload's inputs from ``--seed``, writes them as hsm1 files,
and then repeats one op (``core.load_matrix`` of an input file plus the
workload's entry call, cycling through the inputs) for ``--seconds`` seconds in
a closed loop in one thread, with one BLAS thread. Outputs are checked after
the timed loop.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics, read from spans recorded
around calls into conered's modules (see ``spans.py``), and the spans are
written to ``perfbench/.out/``. Lines before the last one are a readable
summary. See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# The keys of workloads.WORKLOADS, known before numpy is imported.
WORKLOAD_NAMES = ("extract-lp", "reduce-wide", "rho-patterns")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conered" / "__init__.py").is_file():
        print(f"error: no conered package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # OpenBLAS reads its thread count when numpy is first imported, below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    # numpy, scipy and conered are first imported here, so this is their
    # import time; later imports of the same modules are lookups.
    t_import = time.perf_counter()
    import conered
    import workloads

    import_s = time.perf_counter() - t_import
    if Path(conered.__file__).resolve().parent != SRC / "conered":
        print(f"error: imported conered from {conered.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    work = HERE / ".work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, wl, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, wl, work, import_s) -> int:
    import spans
    from conered import store_matrix

    # A traced run stays on the first input, so its counts repeat across ops.
    n_inputs = 1 if args.trace else wl.inputs
    paths = [str(work / f"input{i}.hsm1") for i in range(n_inputs)]

    # Set-up: generating and writing the inputs is repeated and its median
    # taken; imports and the one untimed warm-up op happen once per process
    # and are added in full (the first in-process SVD alone costs ~0.7 s).
    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        insts = [wl.generate(args.seed, i) for i in range(n_inputs)]
        for inst, path in zip(insts, paths):
            store_matrix(inst.a, path)
        gen_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    warm = wl.op(paths[0])
    warmup_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(gen_times) + warmup_s

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    # Timed closed loop over the inputs in turn, until every input has run once
    # and the time is up. In a traced run, ops alternate between traced and
    # untraced so that the run measures its own overhead.
    times, traced_times, outputs, errors = [], [], [], []
    attempted = 0
    t_start = time.perf_counter()
    while attempted < n_inputs or time.perf_counter() - t_start < args.seconds:
        traced = tracer is not None and attempted % 2 == 0
        if traced:
            tracer.op, tracer.active = attempted, True
        t0 = time.perf_counter()
        try:
            out = wl.op(paths[attempted % n_inputs])
        except Exception:
            out = None
            errors.append((attempted, traceback.format_exc()))
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        (traced_times if traced else times).append(dt)
        outputs.append(out)
        attempted += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    # Output checks, outside the timed region; equal outputs are checked once.
    verdicts: dict[tuple[int, bytes], list[str]] = {}
    errs_x100: dict[tuple[int, bytes], float] = {}

    def check(i, out):
        key = (i, pickle.dumps(out))
        if key not in verdicts:
            verdicts[key] = wl.check(insts[i], out)
            errs_x100[key] = wl.err_x100(insts[i], out)
        return key

    problems = [f"warm-up op: {p}" for p in verdicts[check(0, warm)]]
    failed_ops = {i for i, _ in errors}
    input_err = {}
    for i, out in enumerate(outputs):
        if out is None:
            continue
        key = check(i % n_inputs, out)
        input_err.setdefault(i % n_inputs, errs_x100[key])
        if verdicts[key]:
            failed_ops.add(i)
            problems.append(f"op {i}: {verdicts[key][0]}")
    for i, tb in errors:
        problems.append(f"op {i} raised: {tb.strip().splitlines()[-1]}")
        print(tb, file=sys.stderr)

    env = environment()
    columns = int(insts[0].a.shape[1])
    print(f"# workload {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# params {json.dumps(wl.params)} inputs={n_inputs}")
    print(f"# env {json.dumps(env)}")

    if tracer is None:
        metrics = end_to_end(times, columns, setup_s, list(input_err.values()), peak_rss_mb)
        print(f"# op_s: median of {len(times)} samples; {tail(times)}; each: {' '.join(f'{t:.4f}' for t in times)}")
        print(
            f"# setup parts: import_s={import_s:.4f} generate+write_s(median of {SETUP_REPEATS})="
            f"{statistics.median(gen_times):.4f} warmup_op_s={warmup_s:.4f}"
        )
    else:
        metrics, bad_audits = per_layer(tracer, traced_times, times, spans)
        for i in bad_audits:
            problems.append(f"op {i}: audit_model_h failed on an LP solution")
        failed_ops.update(bad_audits)
        trace_file = HERE / ".out" / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.parent.mkdir(exist_ok=True)
        trace_file.write_text(
            json.dumps({"workload": wl.name, "seed": args.seed, "params": wl.params, "env": env, "spans": tracer.dump()})
        )
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(f"# ops={attempted} failed={len(failed_ops)} ops_failed_frac={len(failed_ops) / attempted:.4g}")
    for p in problems:
        print(f"# FAILED {p}")

    result = {
        "correct": not problems and not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def tail(times) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(times)
    if n <= 10:
        return "no tail percentile (needs more than 10 samples)"
    q = (n - 10) / n
    return f"p{100 * q:.0f} = {sorted(times)[n - 11]:.4f} s"


def end_to_end(times, columns, setup_s, input_err, peak_rss_mb) -> dict:
    op_s = statistics.median(times)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s": {"value": op_s, "unit": "s"},
        "pixels_per_s": {"value": columns / op_s, "unit": "1/s"},
        "err_x100": {"value": statistics.median(input_err) if input_err else None, "unit": "x100"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(tracer, traced_times, untraced_times, spans):
    """Median over traced ops of each layer metric, plus tracing overhead.

    Also returns the traced ops on which ``audit_model_h`` failed.
    """
    per_op, self_s, roots, bad_audits = [], [], [], []
    ops = sorted({s.op for s in tracer.spans})
    for o in ops:
        sp = tracer.op_spans(o)
        per_op.append(spans.layer_metrics(sp, tracer.missing))
        self_s.append(spans.self_times(sp))
        roots.append(sum(s.dur for s in sp if s.parent is None))
        if not spans.audits_ok(sp):
            bad_audits.append(o)

    metrics = {}
    mismatches = 0
    for name, (unit, _, _) in spans.LAYER_METRICS.items():
        vals = [m[name] for m in per_op]
        if unit == "count" and len(set(vals)) > 1:
            mismatches += 1
            print(f"# count {name} differs between ops: {vals}")
        if None in vals:
            value = None
        elif len(set(vals)) == 1:
            value = vals[0]
        else:
            value = statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}

    traced_op = statistics.median(traced_times)
    untraced_op = statistics.median(untraced_times) if untraced_times else None
    overhead = traced_op / untraced_op - 1.0 if untraced_op else None
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "1"}
    metrics["trace.span_total_s"] = {"value": statistics.median(roots), "unit": "s"}
    metrics["trace.count_mismatches"] = {"value": mismatches, "unit": "count"}

    print(
        f"# traced ops={len(traced_times)} median_s={traced_op}; untraced ops={len(untraced_times)}"
        f" median_s={untraced_op}; missing names: {sorted(tracer.missing) or 'none'}"
    )
    names = sorted({n for d in self_s for n in d})
    for n in sorted(names, key=lambda n: -statistics.median(d.get(n, 0.0) for d in self_s)):
        print(f"# self time {n}: {statistics.median(d.get(n, 0.0) for d in self_s):.4f} s")
    return metrics, bad_audits


if __name__ == "__main__":
    sys.exit(main())
