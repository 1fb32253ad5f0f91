"""End-to-end acceptance gate.

Each test is one numbered criterion and emits a single PASS/FAIL line
through the terminal reporter (so the lines survive pytest's capture).
Tolerances and instance counts are fixed here on purpose; loosening them
is a behavior change, not a test fix.
"""

import sys
import time

import numpy as np
import pytest

from conered import (
    HsiMatrix,
    IndexSet,
    RedicConfig,
    align_columns,
    assemble,
    dict_distance,
    dr,
    drs,
    mrsa_score,
    nnls_solve,
    random_separable,
    reconstruction_error,
    redic,
    rho,
    solve_model_h,
    theorem1_check,
    verify_gamma,
)
from conered.assignment import solve_assignment
from conered.cli import main
from conered.core import mrsa_cost
from conered.dimred import reduce_dimension
from conered.hottopixx import audit_model_h, build_model_h
from conered.metrics import abundance_maxima

from oracles import assignment_enumerate, nnls_enumerate, rho_grid, simplex_model_h

LINES: list[str] = []


@pytest.fixture(scope="module", autouse=True)
def criterion_summary(request):
    LINES.clear()
    yield
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    for line in LINES:
        print(line, file=sys.stderr)
        if reporter is not None:
            reporter.write_line(line)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    LINES.append(line)
    assert ok, line


def test_criterion_1_noiseless_exact_recovery():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst_score = 0.0
    sizes_ok = True
    for _ in range(100):
        r = int(rng.integers(2, 6))
        d = int(rng.integers(max(6, r + 1), 21))
        n = int(rng.integers(40, 201))
        inst = random_separable(d, n, r, seed=int(rng.integers(1 << 31)))
        a = assemble(inst, 0.0)
        ap = reduce_dimension(a.values, r)
        k = drs(ap, 30, seed=int(rng.integers(1 << 31)))
        if len(k) != r:
            sizes_ok = False
            break
        est = redic(a, RedicConfig(r=r, seed=int(rng.integers(1 << 31))))
        score = mrsa_score(HsiMatrix(inst.w), HsiMatrix(est.w_hat)).score
        worst_score = max(worst_score, score)
    elapsed = time.monotonic() - start
    ok = sizes_ok and worst_score <= 1e-8 and elapsed <= 60.0
    report(
        1,
        ok,
        f"100 noiseless instances, |K|=r {'held' if sizes_ok else 'FAILED'}, "
        f"worst mrsa score {worst_score:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gamma_membership_and_minimality():
    rng = np.random.default_rng(1002)
    checked = 0
    failures = 0
    for nu in (0.0, 0.1, 0.5, 1.0):
        for _ in range(15):
            r = int(rng.integers(2, 5))
            d = int(rng.integers(r + 1, 12))
            n = int(rng.integers(20, 61))
            inst = random_separable(d, n, r, seed=int(rng.integers(1 << 31)))
            a = assemble(inst, nu)
            for k in (
                dr(a),
                drs(a, 8, seed=int(rng.integers(1 << 31))),
            ):
                rep = verify_gamma(a, k)
                checked += 1
                if not (rep.in_gamma and rep.minimal):
                    failures += 1
    ok = failures == 0
    report(2, ok, f"{checked} DR/DRS outputs verified, {failures} failures")


def test_criterion_3_reconstruction_error_across_noise():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for nu in np.arange(0.0, 1.51, 0.1):
        for _ in range(3):
            r = int(rng.integers(2, 5))
            inst = random_separable(
                int(rng.integers(r + 2, 15)),
                int(rng.integers(35, 80)),
                r,
                seed=int(rng.integers(1 << 31)),
            )
            a = assemble(inst, float(nu))
            ap = reduce_dimension(a.values, r)
            k = drs(ap, 30, seed=int(rng.integers(1 << 31)))
            worst = max(worst, reconstruction_error(ap, k))
    ok = worst < 1e-8
    report(3, ok, f"48 runs over nu in [0, 1.5], worst error {worst:.2e}")


def test_criterion_4_recovery_theorem_suite():
    rng = np.random.default_rng(1004)
    start = time.monotonic()
    n_ok = 0
    prop_ok = True
    bound_ok = True
    total = 200
    for _ in range(total):
        r = int(rng.integers(2, 4))
        d = int(rng.integers(r + 2, 13))
        n = int(rng.integers(15, 41))
        inst = random_separable(d, n, r, seed=int(rng.integers(1 << 31)))
        rho_w = rho(inst.w)
        if rho_w <= 0:
            continue
        nu = rho_w / 10.0
        a = assemble(inst, nu)
        k = dr(a)
        report_t = theorem1_check(inst, nu, k)
        if report_t.hypothesis_holds and report_t.satisfied:
            n_ok += 1
        mu = abundance_maxima(inst.h, k)
        eps = report_t.epsilon
        rhs = 4.0 * eps / (rho_w * (1.0 - eps))
        if not np.all(1.0 - mu <= rhs + 1e-12):
            bound_ok = False
        if not (np.all(1.0 - mu < 0.5) and rhs < 0.5):
            prop_ok = False
    elapsed = time.monotonic() - start
    ok = n_ok == total and prop_ok and bound_ok and elapsed <= 120.0
    report(
        4,
        ok,
        f"{n_ok}/{total} instances satisfied at eps=rho/10, "
        f"abundance bound {'held' if prop_ok and bound_ok else 'FAILED'}, {elapsed:.1f}s",
    )


def test_criterion_5_model_h_solver_equivalence():
    rng = np.random.default_rng(1005)
    worst_gap = 0.0
    audits_ok = True
    for _ in range(50):
        m = int(rng.integers(3, 7))
        q = int(rng.integers(2, 5))
        a = rng.random((q, m)) + 0.01
        a /= np.abs(a).sum(axis=0)
        r = int(rng.integers(1, m + 1))
        model = build_model_h(a, r)
        ipm = solve_model_h(model)
        simplex = simplex_model_h(model)
        worst_gap = max(worst_gap, abs(ipm.objective - simplex.objective))
        for sol in (ipm, simplex):
            if not audit_model_h(model, sol.x_matrix)["ok"]:
                audits_ok = False
    ok = worst_gap <= 1e-7 and audits_ok
    report(
        5,
        ok,
        f"50 instances (m<=6), worst objective gap {worst_gap:.2e}, "
        f"audits {'clean' if audits_ok else 'FAILED'}",
    )


def test_criterion_6_nnls_oracle_equivalence():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        b = rng.normal(size=(d, m))
        y = rng.normal(size=d)
        fast = nnls_solve(b, y)
        _, exact = nnls_enumerate(b, y)
        worst = max(worst, abs(fast.residual_norm - exact))
    ok = worst <= 1e-9
    report(6, ok, f"500 instances (d,m<=5), worst residual gap {worst:.2e}")


def test_criterion_7_augmentation_trend():
    inst = random_separable(10, 200, 3, seed=1007)
    a = assemble(inst, 0.5)
    ap = reduce_dimension(a.values, 3)
    k = drs(ap, 30, seed=0)
    outside = np.setdiff1d(np.arange(200), k.indices)
    rng = np.random.default_rng(2007)
    means = []
    for lam in (0, 2, 4):  # 0%, 1%, 2% of n = 200
        vals = []
        for _ in range(20):
            if lam:
                extra = rng.choice(outside, size=lam, replace=False)
                s = IndexSet.from_iterable(
                    np.concatenate([k.indices, extra])
                )
            else:
                s = k
            vals.append(dict_distance(a, s, inst.w, metric="l1"))
        means.append(float(np.mean(vals)))
    ok = means[1] <= means[0] * 1.05 and means[2] <= means[1] * 1.05
    report(
        7,
        ok,
        "mean dict distance over 20 draws: "
        + " -> ".join(f"{v:.5f}" for v in means)
        + f" for lambda 0/2/4 (|K|={len(k)})",
    )


def test_criterion_8_byte_identical_outputs(tmp_path, capsys):
    synth_args = [
        "synth", "--d", "8", "--n", "60", "--r", "3",
        "--seed", "77", "--nu", "0.4",
    ]
    runs = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        a_path = str(base / "a.hsm1")
        assert main(synth_args + ["--out", a_path]) == 0
        assert (
            main(
                [
                    "reduce", a_path, "--p", "6", "--seed", "5",
                    "--out", str(base / "k.txt"),
                    "--columns-out", str(base / "cols.hsm1"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "extract", a_path, "--r", "3", "--p", "6",
                    "--lambda", "2", "--tau", "2", "--seed", "9",
                    "--out", str(base / "w.hsm1"),
                ]
            )
            == 0
        )
        runs.append(
            tuple(
                (base / name).read_bytes()
                for name in ("a.hsm1", "a.hsm1.meta", "k.txt", "cols.hsm1", "w.hsm1")
            )
        )
    capsys.readouterr()
    ok = runs[0] == runs[1]
    report(8, ok, "synth/reduce/extract outputs byte-identical across reruns")


def test_criterion_9_alignment_and_assignment_optimality():
    rng = np.random.default_rng(1009)
    trials = 0
    mismatches = 0
    for r in (2, 3, 4, 5, 6):
        for _ in range(24):
            cost = rng.random((r, r))
            if rng.random() < 0.3:
                cost = np.round(cost, 1)
            sigma = solve_assignment(cost)
            expected, _ = assignment_enumerate(cost)
            trials += 1
            if not np.array_equal(sigma, expected):
                mismatches += 1
        c = rng.random((5, r)) + 0.01
        w = rng.random((5, r)) + 0.01
        aligned = align_columns(c, w)
        sigma, _ = assignment_enumerate(mrsa_cost(c, w))
        manual = np.empty_like(w)
        manual[:, sigma] = w
        trials += 1
        if not np.array_equal(aligned, manual):
            mismatches += 1
    ok = mismatches == 0 and trials >= 100
    report(9, ok, f"{trials} trials over r in 2..6, {mismatches} mismatches")


def test_criterion_10_rho_grid_agreement():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for r in (2, 3):
        for _ in range(25):
            d = int(rng.integers(r, 7))
            w = rng.random((d, r)) + 0.02
            w /= np.abs(w).sum(axis=0)
            gap = abs(rho(w) - rho_grid(w, 1_000_000))
            worst = max(worst, gap)
    ok = worst <= 1e-3
    report(10, ok, f"50 matrices, worst |lp - grid| = {worst:.2e}")
