"""The benchmark's traced run ends in one strict-JSON result line."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(name):
    raise ValueError(f"{name} is not JSON")


def test_traced_extract_run_ends_in_a_strict_json_result():
    # json.dumps writes NaN and Infinity, which no strict JSON reader takes,
    # so a non-finite metric (or stray stdout after the result) breaks it
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", "extract-lp", "--seed", "1", "--seconds", "2", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"], proc.stdout
    assert result["metrics"]
    missing = [name for name, m in result["metrics"].items() if m["value"] is None]
    assert not missing, missing
