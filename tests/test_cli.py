import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conered
from conered import cli, dr, load_matrix, store_matrix
from conered.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _synth_files(tmp_path, capsys, nu="0", seed="5", r="3", n="40"):
    a_path = str(tmp_path / "a.hsm1")
    w_path = str(tmp_path / "w.hsm1")
    code, out, _ = run(
        capsys,
        "synth",
        "--d", "8", "--n", n, "--r", r,
        "--seed", seed, "--nu", nu,
        "--out", a_path, "--w-out", w_path,
    )
    assert code == 0
    return a_path, w_path


def test_synth_reduce_eval_round_trip(tmp_path, capsys):
    a_path, w_path = _synth_files(tmp_path, capsys)
    cols = str(tmp_path / "cols.hsm1")
    code, out, err = run(
        capsys, "reduce", a_path, "--p", "4", "--out", str(tmp_path / "k.txt"),
        "--columns-out", cols,
    )
    assert code == 0
    assert "k_size=3" in out
    assert (tmp_path / "k.txt").read_text().count("\n") == 3
    assert "elapsed_s=" in err

    code, out, _ = run(capsys, "eval", cols, w_path)
    assert code == 0
    assert "score=0.00" in out


def test_eval_identical_matrices(tmp_path, capsys):
    w = np.random.default_rng(1).random((5, 3))
    path = str(tmp_path / "w.hsm1")
    store_matrix(w, path)
    code, out, _ = run(capsys, "eval", path, path)
    assert code == 0
    assert "score=0.00" in out
    assert "sigma=1,2,3" in out


def test_eval_l1_metric(tmp_path, capsys):
    w = np.random.default_rng(2).random((5, 3))
    path = str(tmp_path / "w.hsm1")
    store_matrix(w, path)
    code, out, _ = run(capsys, "eval", path, path, "--metric", "l1")
    assert code == 0
    assert "metric=l1" in out
    assert "score=0.00" in out


def test_rho_identity(tmp_path, capsys):
    path = str(tmp_path / "eye.csv")
    store_matrix(np.eye(3), path)
    code, out, _ = run(capsys, "rho", path)
    assert code == 0
    value = float(out.strip().split("=", 1)[1])
    assert value == pytest.approx(1.0, abs=1e-9)


def test_reduce_p_one_matches_plain_dr(tmp_path, capsys):
    a_path, _ = _synth_files(tmp_path, capsys, nu="0.3", seed="9")
    out_path = tmp_path / "k.txt"
    code, _, _ = run(capsys, "reduce", a_path, "--p", "1", "--out", str(out_path))
    assert code == 0
    got = [int(line) for line in out_path.read_text().split()]
    expected = dr(load_matrix(a_path)).to_one_based().tolist()
    assert got == expected


def test_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "reduce", str(tmp_path / "nope.hsm1"), "--out", str(tmp_path / "k"))
    assert code == 3
    assert "error" in err.lower()


def test_malformed_file_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    code, _, err = run(capsys, "reduce", str(bad), "--out", str(tmp_path / "k"))
    assert code == 3


def test_rank_zero_is_usage_error(tmp_path, capsys):
    a_path, _ = _synth_files(tmp_path, capsys)
    code, _, err = run(
        capsys, "extract", a_path, "--r", "0", "--out", str(tmp_path / "w.hsm1")
    )
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["reduce", "--bogus"]) == 2


@pytest.mark.parametrize("command", [["reduce"], ["extract", "--r", "3"]], ids=["reduce", "extract"])
@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf"])
def test_bad_eps_feas_is_usage_error(tmp_path, capsys, command, eps):
    # the check runs before the input is read, so the file need not exist
    code, _, err = run(
        capsys, command[0], str(tmp_path / "a.hsm1"), *command[1:],
        "--eps-feas", eps, "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert "--eps-feas" in err


@pytest.mark.parametrize("flag", ["--nu", "--noise-norm"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_noise_argument_is_usage_error(tmp_path, capsys, flag, value):
    code, _, err = run(
        capsys, "synth", "--d", "5", "--n", "10", "--r", "2",
        flag, value, "--out", str(tmp_path / "a.hsm1"),
    )
    assert code == 2
    assert flag in err
    assert not (tmp_path / "a.hsm1").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["reduce", "a.hsm1"],
        ["extract", "a.hsm1", "--r", "3"],
        ["synth", "--d", "5", "--n", "10", "--r", "2"],
    ],
    ids=["reduce", "extract", "synth"],
)
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    code, _, err = run(capsys, *command, "--seed", "-1", "--out", str(tmp_path / "out"))
    assert code == 2
    assert "--seed" in err


def test_infeasible_rank_is_config_error(tmp_path, capsys):
    a_path, _ = _synth_files(tmp_path, capsys)
    code, _, err = run(
        capsys, "extract", a_path, "--r", "25", "--out", str(tmp_path / "w.hsm1")
    )
    assert code == 5


def test_reduction_below_rank_is_config_error(tmp_path, capsys):
    # a rank-2 image keeps 2 columns, too few for an r = 3 LP
    rng = np.random.default_rng(5)
    a_path = str(tmp_path / "a.hsm1")
    store_matrix(rng.random((6, 2)) @ rng.dirichlet(np.ones(2), size=30).T, a_path)
    code, _, err = run(capsys, "extract", a_path, "--r", "3", "--out", str(tmp_path / "w.hsm1"))
    assert code == 5
    assert "|K| = 2" in err


def test_synth_rank_above_bands_is_config_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "synth", "--d", "5", "--n", "40", "--r", "6", "--out", str(tmp_path / "a.hsm1")
    )
    assert code == 5
    assert "error" in err


def test_unexpected_value_error_is_not_a_config_error(monkeypatch):
    def broken(args):
        raise ValueError("not a configuration problem")

    monkeypatch.setitem(cli._COMMANDS, "rho", broken)
    with pytest.raises(ValueError, match="not a configuration problem"):
        main(["rho", "w.hsm1"])


def test_extract_recovers_endmembers(tmp_path, capsys):
    a_path, w_path = _synth_files(tmp_path, capsys, seed="11")
    west = str(tmp_path / "west.hsm1")
    code, out, _ = run(
        capsys, "extract", a_path, "--r", "3", "--p", "4", "--out", west
    )
    assert code == 0
    assert "rep1_indices=" in out
    code, out, _ = run(capsys, "eval", west, w_path)
    assert code == 0
    assert "score=0.00" in out


def test_extract_same_seed_byte_identical(tmp_path, capsys):
    a_path, _ = _synth_files(tmp_path, capsys, nu="0.4", seed="13")
    outs = []
    stdouts = []
    for name in ("one.hsm1", "two.hsm1"):
        path = tmp_path / name
        code, out, _ = run(
            capsys,
            "extract", a_path,
            "--r", "3", "--p", "4", "--lambda", "2", "--tau", "2",
            "--seed", "21", "--out", str(path),
        )
        assert code == 0
        outs.append(path.read_bytes())
        stdouts.append(out.replace(name, "X"))
    assert outs[0] == outs[1]
    assert stdouts[0] == stdouts[1]


def _cli_under_blas_threads(workdir: Path, threads: int) -> str:
    """synth then extract in a fresh process; returns the extract stdout."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(Path(conered.__file__).parent.parent)
    stdout = ""
    for argv in (
        ["synth", "--d", "100", "--n", "3000", "--r", "4", "--seed", "8",
         "--nu", "0.3", "--out", "a.hsm1"],
        ["extract", "a.hsm1", "--r", "4", "--lambda", "2", "--tau", "2",
         "--seed", "3", "--out", "w.hsm1"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "conered.cli", *argv],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        stdout = proc.stdout
    return stdout


def test_extract_does_not_depend_on_blas_threads(tmp_path):
    outs = []
    for threads in (1, 2):
        workdir = tmp_path / f"threads{threads}"
        workdir.mkdir()
        stdout = _cli_under_blas_threads(workdir, threads)
        files = [(workdir / name).read_bytes() for name in ("a.hsm1", "w.hsm1")]
        outs.append((stdout, files))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_synth_same_seed_byte_identical(tmp_path, capsys):
    paths = []
    for name in ("a1.hsm1", "a2.hsm1"):
        path = tmp_path / name
        code, _, _ = run(
            capsys,
            "synth", "--d", "6", "--n", "20", "--r", "2",
            "--seed", "3", "--nu", "0.2", "--out", str(path),
        )
        assert code == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_synth_writes_sidecar(tmp_path, capsys):
    a_path, _ = _synth_files(tmp_path, capsys, seed="17")
    meta = (tmp_path / "a.hsm1.meta").read_text()
    assert "pure_indices=" in meta
    assert "seed=17" in meta


def test_export_lp_writes_one_file_per_repetition(tmp_path, capsys):
    a_path, _ = _synth_files(tmp_path, capsys, nu="0.2")
    lp_dir = tmp_path / "lps"
    code, _, _ = run(
        capsys,
        "extract", a_path, "--r", "3", "--p", "4", "--tau", "2", "--lambda", "1",
        "--out", str(tmp_path / "west.hsm1"), "--export-lp", str(lp_dir),
    )
    assert code == 0
    assert sorted(f.name for f in lp_dir.iterdir()) == ["rep1.lp", "rep2.lp"]
    assert "Minimize" in (lp_dir / "rep1.lp").read_text()


def test_csv_format_flag(tmp_path, capsys):
    path = str(tmp_path / "m.data")
    code, _, _ = run(
        capsys,
        "synth", "--d", "4", "--n", "10", "--r", "2",
        "--out", path, "--format", "csv",
    )
    assert code == 0
    header = open(path).readline()
    assert "," in header
