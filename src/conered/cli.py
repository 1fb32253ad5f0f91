"""Command-line interface.

Subcommands: reduce (split redundancy removal), extract (the full pipeline),
eval (score an estimate against a reference), synth (generate an instance),
rho (conditioning of an endmember matrix). All stdout is deterministic
key=value text; timings go to stderr so repeated runs with the same seed
produce byte-identical files and stdout.

Exit codes: 0 success, 2 usage error, 3 I/O or parse failure, 4 numerical
failure, 5 infeasible configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .core import FORMAT_CSV, FORMAT_HSM1, load_matrix, store_matrix
from .errors import ConfigError, InputFormatError, NumericalError
from .hottopixx import write_model_lp
from .metrics import mrsa_score, reconstruction_error, rho
from .redic import RedicConfig, redic
from .reduction import drs
from .synth import assemble, random_separable, write_sidecar

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_INFEASIBLE = 5


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=[FORMAT_CSV, FORMAT_HSM1],
        default=None,
        help="matrix file format (default: by extension, .csv else hsm1)",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-feas", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conered",
        description="conical-hull data reduction and endmember extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="remove redundant columns")
    p_reduce.add_argument("input")
    p_reduce.add_argument("--p", type=int, default=30)
    p_reduce.add_argument("--out", required=True, help="retained indices, 1-based")
    p_reduce.add_argument(
        "--columns-out", default=None, help="also write the retained columns"
    )
    _add_common(p_reduce)

    p_extract = sub.add_parser("extract", help="estimate endmember signatures")
    p_extract.add_argument("input")
    p_extract.add_argument("--r", type=int, required=True)
    p_extract.add_argument("--lambda", dest="lam", type=int, default=0)
    p_extract.add_argument("--tau", type=int, default=1)
    p_extract.add_argument("--p", type=int, default=30)
    p_extract.add_argument("--out", required=True)
    p_extract.add_argument(
        "--export-lp", default=None, help="directory for LP text dumps, one per repetition"
    )
    _add_common(p_extract)

    p_eval = sub.add_parser("eval", help="score an estimate against a reference")
    p_eval.add_argument("estimate")
    p_eval.add_argument("reference")
    p_eval.add_argument("--metric", choices=["mrsa", "l1"], default="mrsa")
    _add_format(p_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic instance")
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--r", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--nu", type=float, default=0.0)
    p_synth.add_argument("--noise-norm", type=float, default=1.0)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--w-out", default=None, help="also write the true W")
    _add_format(p_synth)

    p_rho = sub.add_parser("rho", help="conditioning of an endmember matrix")
    p_rho.add_argument("input")
    _add_format(p_rho)

    return parser


def cmd_reduce(args) -> int:
    start = time.monotonic()
    mat = load_matrix(args.input, args.format)
    k = drs(mat, args.p, eps_feas=args.eps_feas, seed=args.seed)
    err = reconstruction_error(mat, k)
    with open(args.out, "w", encoding="ascii") as fh:
        for idx in k.to_one_based():
            fh.write(f"{idx}\n")
    if args.columns_out:
        store_matrix(mat.values[:, k.indices], args.columns_out, args.format)
    print(f"k_size={len(k)}")
    print(f"reconstruction_error={err!r}")
    print(f"out={args.out}")
    print(f"elapsed_s={time.monotonic() - start:.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_extract(args) -> int:
    start = time.monotonic()
    mat = load_matrix(args.input, args.format)
    cfg = RedicConfig(
        r=args.r,
        lam=args.lam,
        tau=args.tau,
        p=args.p,
        seed=args.seed,
        eps_feas=args.eps_feas,
    )
    hook = None
    if args.export_lp:
        os.makedirs(args.export_lp, exist_ok=True)

        def hook(j, model):
            write_model_lp(model, os.path.join(args.export_lp, f"rep{j + 1}.lp"))

    est = redic(mat, cfg, model_hook=hook)
    store_matrix(est.w_hat, args.out, args.format)
    print(f"r={args.r}")
    print(f"lambda={args.lam}")
    print(f"tau={args.tau}")
    print(f"seed={args.seed}")
    for j, sel in enumerate(est.selected_indices, start=1):
        ids = ",".join(str(int(i) + 1) for i in sel)
        print(f"rep{j}_indices={ids}")
    print(f"out={args.out}")
    print(f"elapsed_s={time.monotonic() - start:.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    est = load_matrix(args.estimate, args.format)
    ref = load_matrix(args.reference, args.format)
    if args.metric == "mrsa":
        result = mrsa_score(ref, est)
        per = result.per_col
        sigma = result.sigma
        score = result.score
    else:
        r = ref.n
        if est.values.shape != ref.values.shape:
            raise InputFormatError(
                f"shapes differ: {est.values.shape} vs {ref.values.shape}"
            )
        cost = np.abs(
            ref.values[:, :, None] - est.values[:, None, :]
        ).sum(axis=0)
        from .assignment import solve_assignment

        sigma = solve_assignment(cost)
        per = cost[sigma, np.arange(r)]
        score = float(per.mean())
    print(f"metric={args.metric}")
    print(f"score={score:.2f}")
    print("per_col=" + ",".join(f"{v:.4f}" for v in per))
    print("sigma=" + ",".join(str(int(s) + 1) for s in sigma))
    return EXIT_OK


def cmd_synth(args) -> int:
    inst = random_separable(
        args.d, args.n, args.r, seed=args.seed, noise_norm=args.noise_norm
    )
    a = assemble(inst, args.nu)
    store_matrix(a, args.out, args.format)
    write_sidecar(args.out + ".meta", inst, seed=args.seed, nu=args.nu)
    if args.w_out:
        store_matrix(inst.w, args.w_out, args.format)
    print(f"out={args.out}")
    print(f"meta={args.out}.meta")
    pure = ",".join(str(int(i) + 1) for i in inst.pure_indices)
    print(f"pure_indices={pure}")
    return EXIT_OK


def cmd_rho(args) -> int:
    mat = load_matrix(args.input, args.format)
    value = rho(mat.values)
    print(f"rho={value!r}")
    return EXIT_OK


_COMMANDS = {
    "reduce": cmd_reduce,
    "extract": cmd_extract,
    "eval": cmd_eval,
    "synth": cmd_synth,
    "rho": cmd_rho,
}


def _usage_problem(args) -> str | None:
    """Flag values that are wrong on their face, before any file is read."""
    if getattr(args, "p", 1) < 1:
        return "--p must be at least 1"
    if getattr(args, "r", 1) < 1:
        return "--r must be at least 1"
    if getattr(args, "tau", 1) < 1:
        return "--tau must be at least 1"
    if getattr(args, "lam", 0) < 0:
        return "--lambda must be nonnegative"
    if not 0.0 < getattr(args, "eps_feas", 1.0) < np.inf:
        return "--eps-feas must be a positive finite number"
    if getattr(args, "nu", 0.0) < 0:
        return "--nu must be nonnegative"
    if args.command == "synth" and (args.d < 1 or args.n < 1):
        return "--d and --n must be at least 1"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    problem = _usage_problem(args)
    if problem is not None:
        print(f"usage error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
