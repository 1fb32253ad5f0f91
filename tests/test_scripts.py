"""Smoke tests: each sweep script runs at a tiny size and writes its CSV header."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conered

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "sweep_noise.py",
            ["--d", "6", "--n", "30", "--r", "2", "--lam", "0,1", "--draws", "2"],
            ["nu", "lam", "k_size", "recon_error", "l1_distance", "mrsa_distance"],
        ),
        (
            "sweep_augmentation.py",
            ["--d", "6", "--n", "40", "--r", "2", "--tau", "1"],
            ["lam", "lam_pct", "score"],
        ),
    ],
)
def test_sweep_script_writes_csv(tmp_path, script, args, header):
    out = tmp_path / "out.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(conered.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 1
