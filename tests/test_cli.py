import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ripplegrid_cli
from ripplegrid.cli import main


def run_dirs(out_root):
    return sorted(p for p in out_root.iterdir() if p.is_dir())


# the cheapest full run of a command: one 4x4 instance
CHEAP_CHECK = ["check", "--sizes", "4", "--trials", "1", "--schemes", "uniform"]


# ---------- check ----------

def test_check_passes_and_records_artifacts(tmp_path, capsys):
    code = main(["check", "--sizes", "4,6", "--trials", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    text = capsys.readouterr().out
    assert "ok: 10 instances" in text          # 2 sizes x 5 schemes x 1 trial
    assert "uniform" in text and "learned-sbt" in text

    (run,) = run_dirs(tmp_path)
    summary = json.loads((run / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["instances"] == 10
    assert summary["max_rel_error"] < summary["tolerance"]
    assert (run / "effective_config.ini").exists()
    assert (run / "MANIFEST").exists()


def test_check_sabotage_fails_and_dumps_worst(tmp_path, capsys):
    code = main(["check", "--sizes", "4", "--trials", "1",
                 "--schemes", "uniform", "--sabotage", "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err
    (run,) = run_dirs(tmp_path)
    assert json.loads((run / "summary.json").read_text())["passed"] is False
    with np.load(run / "worst.npz", allow_pickle=False) as worst:
        assert sorted(worst.files) == ["exact", "got", "k", "q", "v"]
        for name in worst.files:
            assert worst[name].shape == (4, 4, 6)
    assert "worst.npz" in (run / "MANIFEST").read_text()


@pytest.mark.parametrize("partition", ["unit-ring", "dyadic"])
@pytest.mark.parametrize("scheme", ["uniform", "fixed-exponential", "learned-sbt",
                                    "truncated", "softmax"])
def test_check_sabotage_fails_every_scheme(tmp_path, capsys, scheme, partition):
    """The fault reaches the band's table rows, so every scheme on both
    partitions fails the oracle under it and passes without it."""
    args = ["check", "--sizes", "4,6", "--trials", "1", "--schemes", scheme,
            "--partition", partition, "--out", str(tmp_path)]
    assert main(args + ["--sabotage"]) == 1
    assert main(args) == 0
    capsys.readouterr()


def test_check_size_guardrail(tmp_path, capsys):
    code = main(["check", "--sizes", "40", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # a config-file force lifts the guardrail just as the flag does
    cfg = tmp_path / "force.ini"
    cfg.write_text("[check]\nforce = true\nsizes = 17\nschemes = uniform\ntrials = 1\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_check_dyadic_partition(tmp_path):
    code = main(["check", "--sizes", "6", "--trials", "1",
                 "--partition", "dyadic", "--schemes", "fixed-exponential",
                 "--out", str(tmp_path)])
    assert code == 0


# ---------- train ----------

TRAIN_ARGS = ["train", "--steps", "2", "--batch", "2", "--grid", "4",
              "--model-dim", "8", "--heads", "1", "--head-dim", "4",
              "--layers", "1", "--ripple-layers", "1", "--r-max", "2"]


def test_train_writes_metrics_and_checkpoint(tmp_path, capsys):
    code = main(TRAIN_ARGS + ["--out", str(tmp_path)])
    assert code == 0
    assert "steps 2: loss" in capsys.readouterr().out
    (run,) = run_dirs(tmp_path)
    rows = (run / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert rows[0] == "step,loss,accuracy,mean_jsd,grad_norm"
    with np.load(run / "checkpoint.npz", allow_pickle=False) as ckpt:
        assert "embed.w" in ckpt.files and "head.b" in ckpt.files
        assert ckpt["embed.w"].shape == (8, 1)
        # one entry per stacked array of a layer: 1 head of width 4, r_max 2
        assert ckpt["block0.attn.w_qkv"].shape == (12, 8)
        assert ckpt["block0.fm.w1"].shape == (1, 4, 4)
        assert ckpt["block0.stick.emb"].shape == (1, 2, 4)
    assert "checkpoint.npz" in (run / "MANIFEST").read_text()


def test_train_zero_steps_evaluates_once(tmp_path):
    code = main(["train", "--steps", "0", "--batch", "2", "--grid", "4",
                 "--model-dim", "8", "--heads", "1", "--head-dim", "4",
                 "--layers", "1", "--ripple-layers", "1", "--r-max", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    (run,) = run_dirs(tmp_path)
    rows = (run / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    assert rows[0] == "step,loss,accuracy,mean_jsd,grad_norm"
    assert float(rows[1].split(",")[-1]) > 0.0      # the initial gradient's norm


def test_train_bad_task(tmp_path):
    assert main(["train", "--task", "parity", "--out", str(tmp_path)]) == 2


# ---------- config files and replay ----------

def test_effective_config_replays_bitwise(tmp_path):
    out1 = tmp_path / "a"
    assert main(["check", "--sizes", "4", "--trials", "2", "--seed", "7",
                 "--out", str(out1)]) == 0
    (run1,) = run_dirs(out1)
    config = run1 / "effective_config.ini"
    text = config.read_text()
    assert "replay: ripplegrid check --config" in text

    # replaying the recorded config reproduces the computed values exactly
    assert main(["check", "--config", str(config)]) == 0
    runs = run_dirs(out1)
    assert len(runs) == 2
    first = json.loads((runs[0] / "summary.json").read_text())
    second = json.loads((runs[1] / "summary.json").read_text())
    assert first == second


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "my.ini"
    cfg.write_text("[global]\nseed = 3\nout = " + str(tmp_path / "o") +
                   "\n\n[check]\nsizes = 4\ntrials = 1\nschemes = uniform\n")
    assert main(["check", "--config", str(cfg), "--trials", "2"]) == 0
    (run,) = run_dirs(tmp_path / "o")
    summary = json.loads((run / "summary.json").read_text())
    assert summary["instances"] == 2           # flag beat the file's trials=1


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[check]\nwibble = 4\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    cfg.write_text("[chekc]\nsizes = 4\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    # the thread count is pinned before a config file can be read
    cfg.write_text("[global]\nthreads = 4\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "--threads" in capsys.readouterr().err
    # config values get the same checks as the flags they stand for, and a
    # malformed file is a usage error too
    for text in ("[check]\ndtype = f16\n", "[check]\npartition = hex\n",
                 "[check]\nsabotage = maybe\n", "[check\nsizes = 4\n"):
        cfg.write_text(text)
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2, text
        assert "error:" in capsys.readouterr().err
    cfg.write_text("[train]\ngrid = 1\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "argument --grid: must be >= 2" in capsys.readouterr().err
    # dtype belongs to check alone: train neither takes nor records it
    cfg.write_text("[global]\ndtype = f64\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert main(["train", "--dtype", "f32", "--out", str(tmp_path)]) == 2
    assert run_dirs(tmp_path) == []        # usage errors leave no run directory


def test_manifest_digests_verify(tmp_path):
    assert main(["train", "--steps", "0", "--batch", "1", "--grid", "4",
                 "--out", str(tmp_path)]) == 0
    (run,) = run_dirs(tmp_path)
    manifest = (run / "MANIFEST").read_text().strip().splitlines()
    assert manifest
    listed = set()
    for line in manifest:
        digest, rel = line.split("  ", 1)
        data = (run / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, rel
        listed.add(rel)
    assert "summary.json" not in listed        # train writes no summary
    assert "metrics.csv" in listed
    assert "checkpoint.npz" in listed
    assert "effective_config.ini" in listed
    assert "MANIFEST" not in listed            # it cannot hash itself


# ---------- argument plumbing ----------

def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["transmogrify"]) == 2
    for command in ("gradcheck", "bench", "weights"):
        assert main([command]) == 2, command


@pytest.mark.parametrize("argv", [
    ["check", "--sizes", "4", "--trials", "0"],
    ["check", "--trials", "1", "--sizes", ","],
    ["check", "--trials", "1", "--sizes", "-2"],
    ["check", "--trials", "1", "--sizes", "4,0"],
    ["check", "--sizes", "4", "--schemes", ","],
    ["train", "--batch", "0"],
    ["train", "--steps", "-1"],
    ["train", "--heads", "0"],
    ["train", "--grid", "1"],
    ["train", "--model-dim", "0"],
    ["train", "--head-dim", "0"],
    ["train", "--r-max", "0"],
    ["train", "--ripple-layers", "0", "--layers", "-1"],
    ["train", "--ripple-layers", "-1"],
    ["train", "--task", "scattered-clustered", "--grid", "2"],
], ids=" ".join)
def test_bad_counts_are_usage_errors(tmp_path, capsys, argv):
    # these used to die with a KeyError or IndexError traceback, numpy's
    # "negative dimensions" (sizes -2), "low >= high" (grid 1) or "cannot
    # reshape" (model-dim 0, head-dim 0), or a message naming no option
    # (sizes 0) or the wrong one (layers -1 blamed ripple_layers), or (steps
    # -1) to train nothing and exit 0, or (scattered-clustered on a 2x2 grid)
    # with "more points than grid cells"; the last option given is the bad one
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"argument {argv[-2]}:" in capsys.readouterr().err
    assert run_dirs(tmp_path) == []


def test_peek_threads():
    assert ripplegrid_cli._peek_threads(["train", "--threads", "4"]) == "4"
    assert ripplegrid_cli._peek_threads(["--threads=7", "check"]) == "7"
    assert ripplegrid_cli._peek_threads(["check", "--sizes", "4"]) is None
    # argparse keeps the last value, so the pinned count must be that one
    assert ripplegrid_cli._peek_threads(["--threads", "2", "--threads=4"]) == "4"


def test_shim_main_delegates(tmp_path, capsys):
    code = ripplegrid_cli.main(CHEAP_CHECK + ["--out", str(tmp_path)])
    assert code == 0
    assert "ok: 1 instances" in capsys.readouterr().out


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_shim_threads_beat_inherited_env(tmp_path, monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "1")
    assert ripplegrid_cli.main(CHEAP_CHECK + ["--threads", "4",
                                              "--out", str(tmp_path / "a")]) == 0
    assert [os.environ[var] for var in BLAS_VARS] == ["4"] * 3
    (run,) = run_dirs(tmp_path / "a")
    assert "ran with --threads 4;" in (run / "effective_config.ini").read_text()
    # without the flag the count is the default 1, not the inherited value
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "3")
    assert ripplegrid_cli.main(CHEAP_CHECK + ["--out", str(tmp_path / "b")]) == 0
    assert [os.environ[var] for var in BLAS_VARS] == ["1"] * 3
    (run,) = run_dirs(tmp_path / "b")
    assert "ran with --threads 1;" in (run / "effective_config.ini").read_text()


def test_threads_below_one_rejected(tmp_path, monkeypatch, capsys):
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "2")
    for argv in (CHEAP_CHECK + ["--threads", "0"], CHEAP_CHECK + ["--threads=-1"]):
        assert ripplegrid_cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert main(argv + ["--out", str(tmp_path)]) == 2
    assert [os.environ[var] for var in BLAS_VARS] == ["2"] * 3
    # an abbreviation would reach argparse but not the thread pinning
    assert main(CHEAP_CHECK + ["--thread", "4", "--out", str(tmp_path)]) == 2
    assert run_dirs(tmp_path) == []


def test_module_run_of_package_cli_refused(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(ripplegrid_cli.__file__))
    done = subprocess.run([sys.executable, "-m", "ripplegrid.cli", "check",
                           "--out", str(tmp_path)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 2
    assert "python -m ripplegrid_cli" in done.stderr
    assert run_dirs(tmp_path) == []
