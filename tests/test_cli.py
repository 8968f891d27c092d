"""Command-line behavior: config plumbing, artifacts, determinism."""

import ast
import hashlib
import importlib
import os
import pkgutil
import signal
import struct
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import karina
from karina import cli, data, engine, model, rollout, training
from karina.cli import CliError
from test_data import traced_peak, zero_extent_grid
from test_model import flip_first_extent_bit


def file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# one-stage toy on a 12x24 grid; small enough that every command
# in this file finishes in a few seconds
SMOKE = [
    "--set", "model.stage_dims=4",
    "--set", "model.depths=1",
    "--set", "synth.n_lat=12",
    "--set", "synth.n_lon=24",
    "--set", "synth.noise=0.05",
    "--set", "data.train_days=24",
    "--set", "data.test_days=6",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=8",
]


def run_train(out_dir, *extra):
    return cli.main(["train", "--out", str(out_dir), *SMOKE, *extra])


class TestConfigParsing:
    def test_defaults(self):
        cfg = cli.load_config()
        assert cfg["seed"] == 0
        assert cfg["model.stage_dims"] == (8, 16)
        assert cfg["train.lr"] == 1e-3
        assert cfg["eval.leads"] == (1, 3, 5, 7)

    def test_file_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# smoke\n\ntrain.epochs = 7\nmodel.se_enabled=false\n")
        cfg = cli.load_config(str(path))
        assert cfg["train.epochs"] == 7
        assert cfg["model.se_enabled"] is False

    def test_unknown_key_rejected(self):
        with pytest.raises(CliError, match="train.momentum"):
            cli.parse_config_text("train.momentum=0.9\n")

    def test_bad_value_names_key(self):
        with pytest.raises(CliError, match="train.epochs"):
            cli.parse_config_text("train.epochs=soon\n")

    def test_line_without_equals(self):
        with pytest.raises(CliError, match="line 2"):
            cli.parse_config_text("seed=1\ntrain.epochs\n")

    def test_set_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=3\ntrain.epochs=9\n")
        cfg = cli.load_config(str(path), sets=["train.epochs=4"])
        assert cfg["seed"] == 3
        assert cfg["train.epochs"] == 4

    def test_set_without_equals(self):
        with pytest.raises(CliError, match="--set"):
            cli.load_config(sets=["train.epochs"])

    def test_seed_flag_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=3\n")
        cfg = cli.load_config(str(path), seed=11)
        assert cfg["seed"] == 11

    def test_resolved_round_trip(self):
        cfg = cli.load_config(sets=[
            "model.stage_dims=4,8", "train.lr=0.00125",
            "model.se_enabled=false", "data.path=x.grid",
        ])
        again = cli.parse_config_text(cli.resolved_text(cfg))
        assert again == cfg

    def test_resolved_is_sorted_and_complete(self):
        text = cli.resolved_text(cli.load_config())
        keys = [line.partition("=")[0] for line in text.strip().splitlines()]
        assert keys == sorted(cli.SCHEMA)

    def test_default_resolved_bytes_pinned(self):
        # every key, type and default, byte for byte
        text = cli.resolved_text(cli.load_config())
        assert len(cli.SCHEMA) == 45
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "e60c6dab6e6e0ef7186d98319d6984b6107adc976af044939f41a57e8c92cc3a"
        )

    @pytest.mark.parametrize("section", sorted(cli.SECTIONS))
    def test_every_dataclass_field_has_a_key(self, section):
        for f in fields(cli.SECTIONS[section]):
            if f.name not in cli._NOT_KEYS:
                assert f"{section}.{f.name}" in cli.SCHEMA

    @pytest.mark.parametrize("command, setting", [
        ("train", "train.lr=inf"),
        ("train", "train.lr=1e999"),
        ("train", "synth.noise=nan"),
        ("train", "model.layer_scale_init=nan"),
        ("train", "synth.speed_deg_per_day=inf"),
        ("train", "train.weight_decay=-3"),
        ("finetune", "finetune.phases=0:inf"),
    ])
    def test_non_finite_or_negative_value_refused(self, tmp_path, capsys, command, setting):
        extra = []
        if command == "finetune":
            assert run_train(tmp_path / "pre") == 0
            extra = ["--set", f"finetune.checkpoint={tmp_path / 'pre' / 'checkpoint.krna'}"]
        capsys.readouterr()
        out = tmp_path / "run"
        code = cli.main([command, "--out", str(out), *SMOKE, *extra, "--set", setting])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:")
        key = setting.partition("=")[0]
        assert key.partition(".")[2] in err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("source", ["seed_flag", "set", "config_file"])
    def test_negative_seed_refused(self, tmp_path, capsys, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-1\n")
        args = {"seed_flag": ["--seed", "-1"], "set": ["--set", "seed=-1"],
                "config_file": ["--config", str(cfg)]}[source]
        out = tmp_path / "run"
        assert run_train(out, *args) == 1
        assert capsys.readouterr().err == "config error: seed must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("config, bad, error", [
        (model.ModelConfig(), dict(stem_kernel=4), model.ModelError),
        (training.TrainConfig(), dict(epochs=0), training.TrainingError),
        (data.SyntheticSpec(), dict(n_days=0), data.DataError),
        (training.FinetunePhase((0,), 1e-3), dict(lr=0.0), training.TrainingError),
    ])
    def test_replace_checks_like_construction(self, config, bad, error):
        (name,) = bad
        with pytest.raises(error, match=name):
            replace(config, **bad)


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli.main(["retrain", "--out", "x"]) == 1

    def test_run_as_module_warns_nothing(self):
        # `python -m karina.cli` must not find the module already imported
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "karina.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "usage: karina" in done.stdout

    def test_missing_out(self, capsys):
        assert cli.main(["train"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["train", "--out", str(tmp_path),
                         "--config", str(tmp_path / "absent.cfg")])
        assert code == 1
        assert "absent.cfg" in capsys.readouterr().err


class TestTrainCommand:
    def test_smoke_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_train(out) == 0
        assert (out / "checkpoint.krna").exists()
        assert (out / "config.resolved").exists()
        report = read_text(out / "train_report.csv").strip().splitlines()
        assert report[0] == "epoch,step,lr,train_loss,val_loss"
        assert len(report) == 1 + 2
        assert "trained" in capsys.readouterr().out

    def test_resolved_config_records_inferred_channels(self, tmp_path):
        out = tmp_path / "run"
        assert run_train(out) == 0
        config = model.load_checkpoint(str(out / "checkpoint.krna")).config
        assert (config.in_channels, config.out_channels) == (4, 4)
        text = read_text(out / "config.resolved")
        assert "model.in_channels" not in text and "model.out_channels" not in text

    def test_same_seed_identical_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_train(a, "--seed", "5") == 0
        assert run_train(b, "--seed", "5") == 0
        assert file_hash(a / "checkpoint.krna") == file_hash(b / "checkpoint.krna")
        assert read_text(a / "train_report.csv") == read_text(b / "train_report.csv")

    def test_rerun_from_resolved_config(self, tmp_path):
        """The resolved copy alone reproduces the run byte for byte."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_train(a) == 0
        code = cli.main(["train", "--out", str(b),
                         "--config", str(a / "config.resolved")])
        assert code == 0
        assert file_hash(a / "checkpoint.krna") == file_hash(b / "checkpoint.krna")
        assert read_text(a / "train_report.csv") == read_text(b / "train_report.csv")
        assert read_text(a / "config.resolved") == read_text(b / "config.resolved")

    def test_different_seed_different_weights(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_train(a, "--seed", "0") == 0
        assert run_train(b, "--seed", "1") == 0
        assert file_hash(a / "checkpoint.krna") != file_hash(b / "checkpoint.krna")

    def test_validation_split_reported(self, tmp_path):
        out = tmp_path / "run"
        assert run_train(out, "--set", "data.val_days=4") == 0
        last = read_text(out / "train_report.csv").strip().splitlines()[-1]
        assert last.split(",")[4] != ""

    @pytest.mark.parametrize("rate,digest", [
        (0.1, "cb5f7e33bf7d2482ee5334fe6535ebcf89b509a6193cd3e94cdd078ef945081d"),
        (0.4, "583952eaa1d207dfa21da0a1bf38a26b35c6d6369135f3bbf4de556722429983"),
    ], ids=["rate0.1", "rate0.4"])
    def test_drop_path_checkpoint_bits_pinned(self, tmp_path, rate, digest):
        # three blocks over two stages; the validation split runs
        # evaluate_loss between epochs, which must draw no factors
        out = tmp_path / "run"
        code = cli.main([
            "train", "--seed", "3", "--out", str(out),
            "--set", "model.stage_dims=4,8", "--set", "model.depths=2,1",
            "--set", "synth.n_lat=8", "--set", "synth.n_lon=16",
            "--set", "data.train_days=16", "--set", "data.val_days=6",
            "--set", "data.test_days=4", "--set", "train.epochs=2",
            "--set", "train.batch_size=4", "--set", f"model.drop_path_rate={rate}",
        ])
        assert code == 0
        assert file_hash(out / "checkpoint.krna") == digest

    def test_missing_data_path_names_key(self, tmp_path, capsys):
        code = run_train(tmp_path / "run", "--set", "data.path=/nowhere/x.grid")
        assert code == 1
        assert "data.path" in capsys.readouterr().err

    def test_bad_train_config_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_train(out, "--set", "train.lr=-1") == 1
        assert "lr" in capsys.readouterr().err
        assert not (out / "config.resolved").exists()

    def test_short_train_split_rejected(self, tmp_path, capsys):
        code = run_train(tmp_path / "run", "--set", "data.train_days=1")
        assert code == 1
        assert "data.train_days" in capsys.readouterr().err

    def test_trains_from_grid_file(self, tmp_path):
        world = tmp_path / "world.grid"
        gf = data.generate_synthetic(data.SyntheticSpec(
            n_days=30, seed=2, n_lat=12, n_lon=24, noise=0.05))
        data.write_grid(gf, str(world))
        out = tmp_path / "run"
        code = run_train(out, "--set", f"data.path={world}")
        assert code == 0
        assert (out / "checkpoint.krna").exists()


class TestFinetuneCommand:
    def test_phases_continue_epoch_numbering(self, tmp_path):
        pre = tmp_path / "pre"
        assert run_train(pre) == 0
        out = tmp_path / "ft"
        code = cli.main([
            "finetune", "--out", str(out), *SMOKE,
            "--set", f"finetune.checkpoint={pre / 'checkpoint.krna'}",
            "--set", "finetune.phases=0,12:0.001;0,6,12:0.0005",
            "--set", "train.epochs=2",
        ])
        assert code == 0
        report = read_text(out / "finetune_report.csv").strip().splitlines()
        assert len(report) == 1 + 4
        epochs = [int(r.split(",")[0]) for r in report[1:]]
        assert epochs == [0, 1, 2, 3]

    def test_missing_checkpoint_key(self, tmp_path, capsys):
        code = cli.main(["finetune", "--out", str(tmp_path / "ft"), *SMOKE])
        assert code == 1
        assert "finetune.checkpoint" in capsys.readouterr().err

    def test_bad_phase_string(self, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert run_train(pre) == 0
        code = cli.main([
            "finetune", "--out", str(tmp_path / "ft"), *SMOKE,
            "--set", f"finetune.checkpoint={pre / 'checkpoint.krna'}",
            "--set", "finetune.phases=0,12",
        ])
        assert code == 1
        assert "finetune.phases" in capsys.readouterr().err

    def test_file_data_rejects_hour_lags(self, tmp_path, capsys):
        gf = data.generate_synthetic(data.SyntheticSpec(
            n_days=30, seed=2, n_lat=12, n_lon=24, noise=0.05))
        world = tmp_path / "world.grid"
        data.write_grid(gf, str(world))
        pre = tmp_path / "pre"
        assert run_train(pre, "--set", f"data.path={world}") == 0
        code = cli.main([
            "finetune", "--out", str(tmp_path / "ft"), *SMOKE,
            "--set", f"data.path={world}",
            "--set", f"finetune.checkpoint={pre / 'checkpoint.krna'}",
            "--set", "finetune.phases=0,12:0.001",
        ])
        assert code == 1
        assert "lag 12" in capsys.readouterr().err


EVAL_LEADS = ["--set", "eval.leads=1,2,3"]


class TestEvaluateCommand:
    def test_truth_is_perfect(self, tmp_path):
        out = tmp_path / "ev"
        code = cli.main(["evaluate", "--out", str(out), *SMOKE, *EVAL_LEADS,
                         "--set", "eval.model=truth"])
        assert code == 0
        rows = read_text(out / "metrics.csv").strip().splitlines()
        # 24 training days cannot support a climatology, so acc is skipped
        assert rows[0] == "channel,lead_days,metric,value"
        assert len(rows) == 1 + 4 * 3
        for row in rows[1:]:
            assert row.split(",")[2] == "rmse"
            assert float(row.split(",")[3]) == 0.0

    def test_truth_acc_is_exactly_one(self, tmp_path):
        out = tmp_path / "ev"
        code = cli.main([
            "evaluate", "--out", str(out),
            "--set", "synth.n_lat=8", "--set", "synth.n_lon=16",
            "--set", "synth.noise=0.05",
            "--set", "data.train_days=740", "--set", "data.test_days=5",
            "--set", "eval.model=truth", "--set", "eval.leads=1,2",
            "--set", "eval.acc=on",
        ])
        assert code == 0
        rows = read_text(out / "metrics.csv").strip().splitlines()[1:]
        # acc appears for the two advected channels only: the seasonal
        # channel is spatially uniform and orography is static, so
        # neither has anomaly structure to correlate
        assert len(rows) == 4 * 2 + 2 * 2
        acc_channels = {r.split(",")[0] for r in rows if r.split(",")[2] == "acc"}
        assert acc_channels == {"TR01", "TR02"}
        for row in rows:
            _, _, metric, value = row.split(",")
            assert float(value) == {"rmse": 0.0, "acc": 1.0}[metric]

    @pytest.mark.parametrize("acc", ["on", "off", "auto"])
    def test_negative_harmonics_rejected(self, tmp_path, capsys, acc):
        out = tmp_path / "ev"
        code = cli.main(["evaluate", "--out", str(out), *SMOKE, *EVAL_LEADS,
                         "--set", "eval.model=truth", "--set", f"eval.acc={acc}",
                         "--set", "eval.harmonics=-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "eval.harmonics" in err
        assert list(out.iterdir()) == []   # no config.resolved

    def test_summary_names_the_first_lead(self, tmp_path, capsys):
        out = tmp_path / "ev"
        code = cli.main(["evaluate", "--out", str(out), *SMOKE,
                         "--set", "eval.leads=3,5", "--set", "eval.model=persistence"])
        assert code == 0
        row = read_text(out / "rmse_by_lead.csv").strip().splitlines()[1].split(",")
        assert row[0] == "3"
        mean = float(np.mean([float(v) for v in row[1:]]))
        assert capsys.readouterr().out.rstrip().endswith(f"; lead-3 mean rmse {mean:.6g}")

    def test_row_count_covers_every_channel(self, tmp_path):
        """channels x leads x 2 rows when every channel has anomalies."""
        gf = data.generate_synthetic(data.SyntheticSpec(
            n_days=745, seed=4, n_lat=8, n_lon=16, noise=0.05))
        blobs_only = data.GridFile(
            channels=gf.channels[:2], dates=gf.dates, values=gf.values[:, :2])
        world = tmp_path / "blobs.grid"
        data.write_grid(blobs_only, str(world))
        out = tmp_path / "ev"
        code = cli.main([
            "evaluate", "--out", str(out),
            "--set", f"data.path={world}",
            "--set", "data.train_days=740", "--set", "data.test_days=5",
            "--set", "eval.model=truth", "--set", "eval.leads=1,2",
            "--set", "eval.acc=on",
        ])
        assert code == 0
        rows = read_text(out / "metrics.csv").strip().splitlines()[1:]
        assert len(rows) == 2 * 2 * 2

    def test_acc_on_needs_two_years(self, tmp_path, capsys):
        code = cli.main(["evaluate", "--out", str(tmp_path / "ev"), *SMOKE,
                         "--set", "eval.model=truth", "--set", "eval.acc=on"])
        assert code == 1
        assert "climatology" in capsys.readouterr().err

    def test_persistence_matches_baseline_file(self, tmp_path):
        out = tmp_path / "ev"
        code = cli.main(["evaluate", "--out", str(out), *SMOKE, *EVAL_LEADS,
                         "--set", "eval.model=persistence"])
        assert code == 0
        main_rows = read_text(out / "metrics.csv").strip().splitlines()[1:]
        base_rows = read_text(out / "baseline.csv").strip().splitlines()[1:]
        assert main_rows == base_rows

    def test_checkpoint_mode_artifacts(self, tmp_path):
        pre = tmp_path / "pre"
        assert run_train(pre) == 0
        out = tmp_path / "ev"
        code = cli.main(["evaluate", "--out", str(out), *SMOKE, *EVAL_LEADS,
                         "--set", f"eval.checkpoint={pre / 'checkpoint.krna'}"])
        assert code == 0
        rows = read_text(out / "metrics.csv").strip().splitlines()
        assert len(rows) == 1 + 4 * 3
        lead_rows = read_text(out / "rmse_by_lead.csv").strip().splitlines()
        assert lead_rows[0].startswith("lead_days,")
        assert len(lead_rows) == 1 + 3
        assert [r.split(",")[0] for r in lead_rows[1:]] == ["1", "2", "3"]

    def test_rerun_identical_csv(self, tmp_path):
        pre = tmp_path / "pre"
        assert run_train(pre) == 0
        args = ["evaluate", *SMOKE, *EVAL_LEADS,
                "--set", f"eval.checkpoint={pre / 'checkpoint.krna'}"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main([*args, "--out", str(a)]) == 0
        assert cli.main([*args, "--out", str(b)]) == 0
        assert read_text(a / "metrics.csv") == read_text(b / "metrics.csv")
        assert read_text(a / "rmse_by_lead.csv") == read_text(b / "rmse_by_lead.csv")

    def test_channel_mismatch_with_checkpoint(self, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert run_train(pre) == 0
        code = cli.main(["evaluate", "--out", str(tmp_path / "ev"), *SMOKE,
                         "--set", "synth.n_blob_channels=3",
                         "--set", f"eval.checkpoint={pre / 'checkpoint.krna'}"])
        assert code == 1
        assert "channels" in capsys.readouterr().err

    def test_bogus_eval_model(self, tmp_path, capsys):
        code = cli.main(["evaluate", "--out", str(tmp_path / "ev"), *SMOKE,
                         "--set", "eval.model=oracle"])
        assert code == 1
        assert "eval.model" in capsys.readouterr().err

    def test_missing_checkpoint_key(self, tmp_path, capsys):
        code = cli.main(["evaluate", "--out", str(tmp_path / "ev"), *SMOKE])
        assert code == 1
        assert "eval.checkpoint" in capsys.readouterr().err

    def test_corrupt_checkpoint_header_is_config_error(self, tmp_path, capsys):
        header = b"in_channels=x\n"
        ckpt = tmp_path / "bad.krna"
        ckpt.write_bytes(model.CHECKPOINT_MAGIC + struct.pack("<I", 1)
                         + struct.pack("<I", len(header)) + header)
        out = tmp_path / "ev"
        code = cli.main(["evaluate", "--out", str(out), *SMOKE,
                         "--set", f"eval.checkpoint={ckpt}"])
        assert code == 1
        assert "in_channels" in capsys.readouterr().err
        assert not (out / "FAILED").exists()


class TestRolloutCommand:
    def make_checkpoint(self, tmp_path):
        pre = tmp_path / "pre"
        assert run_train(pre) == 0
        return pre / "checkpoint.krna"

    def test_one_file_per_lead(self, tmp_path):
        ckpt = self.make_checkpoint(tmp_path)
        out = tmp_path / "ro"
        code = cli.main(["rollout", "--out", str(out), *SMOKE,
                         "--set", f"rollout.checkpoint={ckpt}",
                         "--set", "rollout.horizon=5"])
        assert code == 0
        files = sorted(p.name for p in out.glob("forecast_*.grid"))
        assert files == [f"forecast_{k:03d}.grid" for k in range(1, 6)]
        assert (out / "drift.csv").exists()
        first = data.read_grid(str(out / "forecast_001.grid"))
        assert first.n_time == 1
        # init defaults to the last day of the 30-day series (date 29)
        assert int(first.dates[0]) == 30

    def test_matches_library_rollout(self, tmp_path):
        """The emitted fields are exactly what the library computes."""
        ckpt = self.make_checkpoint(tmp_path)
        out = tmp_path / "ro"
        code = cli.main(["rollout", "--out", str(out), *SMOKE,
                         "--set", f"rollout.checkpoint={ckpt}",
                         "--set", "rollout.horizon=3",
                         "--set", "rollout.init_day=24"])
        assert code == 0
        cfg = cli.parse_config_text(read_text(out / "config.resolved"))
        bundle = cli._load_bundle(cfg)
        from karina.model import load_checkpoint
        model = load_checkpoint(str(ckpt))
        z0 = data.normalize(bundle.gf.values[24], bundle.stats)
        series = rollout.rollout(model, z0, 3, bundle.stats, bundle.static_mask,
                                 init_date=float(bundle.gf.dates[24]),
                                 init_field=bundle.gf.values[24])
        got = data.read_grid(str(out / "forecast_002.grid"))
        assert np.array_equal(got.values[0], series.steps[1])

    def test_drift_matches_emitted_fields(self, tmp_path):
        ckpt = self.make_checkpoint(tmp_path)
        out = tmp_path / "ro"
        code = cli.main(["rollout", "--out", str(out), *SMOKE,
                         "--set", f"rollout.checkpoint={ckpt}",
                         "--set", "rollout.horizon=4"])
        assert code == 0
        cfg = cli.parse_config_text(read_text(out / "config.resolved"))
        bundle = cli._load_bundle(cfg)
        rows = read_text(out / "drift.csv").strip().splitlines()[1:]
        from karina.padding import GridSpec
        from karina.metrics import latitude_weights
        grid = GridSpec.from_shape(12, 24)
        w = latitude_weights(grid)[None, :, None]
        for row in rows:
            lead_s, name, mean_s, std_s, lo_s, hi_s = row.split(",")
            gf = data.read_grid(str(out / f"forecast_{int(lead_s):03d}.grid"))
            z = data.normalize(gf.values[0], bundle.stats)
            c = gf.channels.index(name)
            mean = float((w[0] * z[c]).sum() / (12 * 24))
            var = float((w[0] * (z[c] - mean) ** 2).sum() / (12 * 24))
            assert abs(mean - float(mean_s)) < 1e-5
            assert abs(np.sqrt(var) - float(std_s)) < 1e-5
            assert abs(z[c].min() - float(lo_s)) < 1e-5
            assert abs(z[c].max() - float(hi_s)) < 1e-5

    def test_file_backed_run_holds_little_beside_the_payload(self, tmp_path):
        # the norm stats reduce each channel through one small block, so
        # reading the file is the command's only payload-sized allocation
        ckpt = self.make_checkpoint(tmp_path)
        world = tmp_path / "world.grid"
        gf = data.generate_synthetic(data.SyntheticSpec(
            n_days=200, seed=2, n_lat=32, n_lon=64, noise=0.05))
        data.write_grid(gf, str(world))
        payload = gf.values.nbytes
        del gf
        code, peak = traced_peak(cli.main, [
            "rollout", "--out", str(tmp_path / "ro"), *SMOKE,
            "--set", f"data.path={world}", "--set", "data.train_days=190",
            "--set", f"rollout.checkpoint={ckpt}", "--set", "rollout.horizon=2"])
        assert code == 0
        assert peak < 1.5 * payload, peak / payload

    def test_horizon_past_the_last_stamp_writes_nothing(self, tmp_path, capsys):
        ckpt = self.make_checkpoint(tmp_path)
        world = tmp_path / "end.grid"
        data.write_grid(data.generate_synthetic(data.SyntheticSpec(
            n_days=30, seed=2, n_lat=12, n_lon=24, noise=0.05,
            start_day=data.MAX_DAY - 29)), str(world))
        args = [*SMOKE, "--set", f"data.path={world}", "--set", f"rollout.checkpoint={ckpt}",
                "--set", "rollout.horizon=3"]
        out = tmp_path / "ro"
        # from the last day, the first lead would be stamped day 0
        assert cli.main(["rollout", "--out", str(out), *args]) == 1
        assert capsys.readouterr().err.startswith("config error: rollout.horizon 3 ends on day")
        assert list(out.iterdir()) == []
        fits = tmp_path / "fits"
        assert cli.main(["rollout", "--out", str(fits), *args,
                         "--set", "rollout.init_day=-4"]) == 0
        last = data.read_grid(str(fits / "forecast_003.grid"))
        assert last.dates.tolist() == [data.MAX_DAY]

    def test_horizon_whose_steps_cannot_fit_writes_nothing(self, tmp_path, capsys):
        """rollout holds every step; a horizon of 4e9 steps on the 12x24 grid
        needs about 17 TiB, so it is a config error before anything runs."""
        ckpt = self.make_checkpoint(tmp_path)
        out = tmp_path / "ro"
        code = cli.main(["rollout", "--out", str(out), *SMOKE,
                         "--set", f"rollout.checkpoint={ckpt}",
                         "--set", "rollout.horizon=4000000000"])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: rollout.horizon 4000000000: its steps do not fit in memory\n")
        assert list(out.iterdir()) == []

    def test_init_day_out_of_range(self, tmp_path, capsys):
        ckpt = self.make_checkpoint(tmp_path)
        code = cli.main(["rollout", "--out", str(tmp_path / "ro"), *SMOKE,
                         "--set", f"rollout.checkpoint={ckpt}",
                         "--set", "rollout.init_day=99"])
        assert code == 1
        assert "rollout.init_day" in capsys.readouterr().err


ABLATE_ARGS = [
    "--set", "model.stage_dims=4",
    "--set", "model.depths=1",
    "--set", "synth.n_lat=12",
    "--set", "synth.n_lon=24",
    "--set", "synth.noise=0.05",
    "--set", "data.train_days=16",
    "--set", "data.test_days=5",
    "--set", "train.epochs=1",
    "--set", "train.batch_size=8",
    "--set", "ablate.leads=1,3",
    "--set", "ablate.polar_rows=3",
]


class TestAblateCommand:
    def test_three_variants(self, tmp_path):
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--out", str(out), *ABLATE_ARGS]) == 0
        rows = read_text(out / "ablation.csv").strip().splitlines()
        assert rows[0] == "variant,channel,lead_days,metric,value"
        variants = [r.split(",")[0] for r in rows[1:]]
        assert sorted(set(variants)) == ["padded", "padded_senet", "plain"]
        # 3 variants x 4 channels x 2 leads x 2 metrics
        assert len(rows) == 1 + 3 * 4 * 2 * 2
        metrics_seen = {r.split(",")[3] for r in rows[1:]}
        assert metrics_seen == {"rmse", "rmse_polar3"}

    def test_circular_variant_opt_in(self, tmp_path):
        out = tmp_path / "ab"
        code = cli.main(["ablate", "--out", str(out), *ABLATE_ARGS,
                         "--set", "ablate.include_circular=true"])
        assert code == 0
        rows = read_text(out / "ablation.csv").strip().splitlines()[1:]
        assert "circular_senet" in {r.split(",")[0] for r in rows}
        assert len(rows) == 4 * 4 * 2 * 2

    def test_kernel_sweep(self, tmp_path):
        out = tmp_path / "ab"
        code = cli.main(["ablate", "--out", str(out), *ABLATE_ARGS,
                         "--set", "ablate.kernel_sweep=true"])
        assert code == 0
        rows = read_text(out / "kernel_sweep.csv").strip().splitlines()
        assert rows[0] == "kernel,channel,lead_days,metric,value"
        kernels = sorted({r.split(",")[0] for r in rows[1:]})
        assert kernels == ["3", "5", "7"]

    def test_every_variant_validated_before_training(self, tmp_path, monkeypatch):
        # se off with ratio 3 is valid for plain and padded, not for padded_senet
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was validated")

        monkeypatch.setattr(cli, "train", no_training)
        out = tmp_path / "ab"
        code = cli.main(["ablate", "--out", str(out), *ABLATE_ARGS,
                         "--set", "model.se_enabled=false",
                         "--set", "model.reduction_ratio=3"])
        assert code == 1
        assert not (out / "config.resolved").exists()

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["ablate", "--out", str(a), *ABLATE_ARGS]) == 0
        assert cli.main(["ablate", "--out", str(b), *ABLATE_ARGS]) == 0
        assert read_text(a / "ablation.csv") == read_text(b / "ablation.csv")


class TestCorruptInputs:
    """A damaged or unusable input is a configuration error: exit 1, a
    `config error:` line naming the problem, no FAILED marker."""

    def test_non_utf8_channel_name(self, tmp_path, capsys):
        world = tmp_path / "world.grid"
        gf = data.generate_synthetic(data.SyntheticSpec(
            n_days=30, seed=2, n_lat=12, n_lon=24, noise=0.05))
        data.write_grid(gf, str(world))
        raw = bytearray(world.read_bytes())
        raw[24 + 4 * gf.n_time + 4] ^= 0x80  # first byte of the first name
        world.write_bytes(bytes(raw))
        out = tmp_path / "run"
        assert run_train(out, "--set", f"data.path={world}") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "not UTF-8" in err
        assert not (out / "FAILED").exists()

    def test_bit_flipped_extent(self, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert run_train(pre) == 0
        ckpt = pre / "checkpoint.krna"
        flip_first_extent_bit(ckpt, 27)
        out = tmp_path / "ro"
        code = cli.main(["rollout", "--out", str(out), *SMOKE,
                         "--set", f"rollout.checkpoint={ckpt}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "stem.conv.weight" in err
        assert not (out / "FAILED").exists()

    @pytest.mark.parametrize("start_day", [2**32, 2**32 - 6])
    def test_synthetic_days_past_the_last_stamp(self, tmp_path, capsys, start_day):
        # 30 days from 2**32 - 6 would wrap to day 0 in a u32 stamp
        out = tmp_path / "run"
        assert run_train(out, "--set", f"synth.start_day={start_day}") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: start_day {start_day} with 30 days passes day")
        assert list(out.iterdir()) == []

    def test_zero_extent_grid(self, tmp_path, capsys):
        world = tmp_path / "z.grid"
        world.write_bytes(zero_extent_grid(0))
        out = tmp_path / "run"
        assert run_train(out, "--set", f"data.path={world}") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "degenerate extent" in err
        assert list(out.iterdir()) == []   # no FAILED, no config.resolved, no checkpoint

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_csv_unsafe_channel_name(self, tmp_path, capsys, command):
        # GridFile refuses these names, so they are patched into the file
        gf = data.generate_synthetic(data.SyntheticSpec(
            n_days=30, seed=2, n_lat=12, n_lon=24, noise=0.05))
        world = tmp_path / "world.grid"
        data.write_grid(data.GridFile(("a;b", "TR02", "SEAS", "OR_OG"), gf.dates, gf.values),
                        str(world))
        raw = world.read_bytes().replace(b"a;b", b"a,b", 1).replace(b"OR_OG", b"OR\nOG", 1)
        world.write_bytes(raw)
        out = tmp_path / "run"
        code = cli.main([command, "--out", str(out), *SMOKE, "--set", f"data.path={world}",
                         "--set", "eval.model=persistence"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: data.path:")
        assert "'a,b'" in err and "CSV cell" in err
        assert list(out.iterdir()) == []

    def test_non_finite_payload(self, tmp_path, capsys):
        # NaN only in the last, test-slice day: training alone never sees it
        gf = data.generate_synthetic(data.SyntheticSpec(
            n_days=30, seed=2, n_lat=12, n_lon=24, noise=0.05))
        gf.values[-1, 0, 5, 5] = np.nan
        world = tmp_path / "world.grid"
        data.write_grid(gf, str(world))
        out = tmp_path / "run"
        assert run_train(out, "--set", f"data.path={world}") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: data.path: payload holds a non-finite value")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_day_stamps_with_a_gap(self, tmp_path, capsys, command):
        gf = data.generate_synthetic(data.SyntheticSpec(
            n_days=40, seed=2, n_lat=12, n_lon=24, noise=0.05))
        dates = np.r_[0:20, 30:50]
        world = tmp_path / "world.grid"
        data.write_grid(data.GridFile(gf.channels, dates, gf.values), str(world))
        out = tmp_path / "run"
        code = cli.main([command, "--out", str(out), *SMOKE, "--set", f"data.path={world}",
                         "--set", "eval.model=persistence"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: data.path: day stamps must be consecutive")
        assert "day 19 is followed by day 30" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("source", ["grid", "synth"])
    def test_odd_longitude_count(self, tmp_path, capsys, source):
        if source == "grid":
            gf = data.generate_synthetic(data.SyntheticSpec(
                n_days=30, seed=2, n_lat=12, n_lon=24, noise=0.05))
            odd = tmp_path / "odd.grid"
            data.write_grid(data.GridFile(gf.channels, gf.dates, gf.values[..., :23]), str(odd))
            setting = f"data.path={odd}"
        else:
            setting = "synth.n_lon=31"
        out = tmp_path / "run"
        assert run_train(out, "--set", setting) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "n_lon must be even" in err
        assert list(out.iterdir()) == []   # no FAILED, no config.resolved, no checkpoint


    @pytest.mark.parametrize("bad", ["non_utf8_config", "config_is_directory", "out_is_file"])
    def test_unreadable_config_or_out(self, tmp_path, capsys, bad):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "run"
        if bad == "non_utf8_config":
            cfg.write_bytes(b"seed=1\n# caf\xe9\n")
        elif bad == "config_is_directory":
            cfg.mkdir()
        else:
            cfg.write_text("seed=1\n")
            out.write_bytes(b"not a directory\n")
        before = sorted(tmp_path.rglob("*"))
        assert run_train(out, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert str(out if bad == "out_is_file" else cfg) in err
        assert sorted(tmp_path.rglob("*")) == before   # nothing written

    @pytest.mark.parametrize("command", ["finetune", "evaluate", "rollout"])
    def test_checkpoint_path_is_directory(self, tmp_path, capsys, command):
        ckpt = tmp_path / "checkpoint"
        ckpt.mkdir()
        key = {"finetune": "finetune", "evaluate": "eval", "rollout": "rollout"}[command]
        out = tmp_path / "run"
        code = cli.main([command, "--out", str(out), *SMOKE,
                         "--set", f"{key}.checkpoint={ckpt}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"cannot read checkpoint {ckpt}" in err
        assert list(out.iterdir()) == []   # no FAILED, no config.resolved

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_data_path_is_directory(self, tmp_path, capsys, command):
        world = tmp_path / "world"
        world.mkdir()
        out = tmp_path / "run"
        code = cli.main([command, "--out", str(out), *SMOKE,
                         "--set", f"data.path={world}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"cannot read grid file {world}" in err
        assert list(out.iterdir()) == []   # no FAILED, no config.resolved


class TestLateConfigErrorsWriteNothing:
    """Mistakes that show only once the data is loaded still exit 1
    before config.resolved or any other output is written."""

    def assert_rejected(self, capsys, out, *argv):
        assert cli.main([argv[0], "--out", str(out), *argv[1:]]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert list(out.iterdir()) == []

    def test_evaluate_without_test_days(self, tmp_path, capsys):
        self.assert_rejected(capsys, tmp_path / "ev", "evaluate", *SMOKE,
                             "--set", "eval.model=persistence",
                             "--set", "data.test_days=0")

    def test_evaluate_lead_not_below_test_days(self, tmp_path, capsys):
        self.assert_rejected(capsys, tmp_path / "ev", "evaluate", *SMOKE,
                             "--set", "eval.model=persistence",
                             "--set", "eval.leads=1,6")

    def test_ablate_polar_rows_over_half_the_grid(self, tmp_path, capsys):
        self.assert_rejected(capsys, tmp_path / "ab", "ablate", *ABLATE_ARGS,
                             "--set", "ablate.polar_rows=7")

    def test_synthetic_fields_that_overflow_float32(self, tmp_path, capsys):
        out = tmp_path / "tr"
        with np.errstate(over="ignore"):
            assert run_train(out, "--set", "synth.noise=1e300") == 1
        err = capsys.readouterr().err
        assert err == "config error: training data contains non-finite values\n"
        assert list(out.iterdir()) == []

    def test_synthetic_overflow_prints_only_the_named_error(self, tmp_path):
        # a child process, so no errstate of the test hides numpy's warning
        out = tmp_path / "tr"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "karina.cli", "train", "--out", str(out), *SMOKE,
             "--set", "synth.noise=1e300"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr == "config error: training data contains non-finite values\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, setting, message", [
        (command, "synth.n_lat=2", "pad width 3 exceeds latitude extent 2")
        for command in ("train", "finetune", "evaluate", "rollout", "ablate")
    ] + [("train", "model.stem_kernel=31", "pad width 15 exceeds latitude extent 12")])
    def test_grid_with_fewer_rows_than_the_widest_pad(self, tmp_path, capsys, command,
                                                      setting, message):
        # the blocks' 7-wide depthwise conv pads 3 rows past each pole
        args = [*SMOKE, *EVAL_LEADS]
        if command in ("finetune", "evaluate", "rollout"):
            assert run_train(tmp_path / "pre") == 0
            key = {"finetune": "finetune", "evaluate": "eval", "rollout": "rollout"}[command]
            args += ["--set", f"{key}.checkpoint={tmp_path / 'pre' / 'checkpoint.krna'}"]
        elif command == "ablate":
            args = [*ABLATE_ARGS, "--set", "ablate.polar_rows=1",
                    "--set", "ablate.kernel_sweep=true"]
        capsys.readouterr()
        out = tmp_path / "run"
        assert cli.main([command, "--out", str(out), *args, "--set", setting]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(out.iterdir()) == []

    def test_finetune_hour_lag_on_grid_file_before_any_phase(self, tmp_path, capsys):
        gf = data.generate_synthetic(data.SyntheticSpec(
            n_days=30, seed=2, n_lat=12, n_lon=24, noise=0.05))
        world = tmp_path / "world.grid"
        data.write_grid(gf, str(world))
        pre = tmp_path / "pre"
        assert run_train(pre, "--set", f"data.path={world}") == 0
        self.assert_rejected(capsys, tmp_path / "ft", "finetune", *SMOKE,
                             "--set", f"data.path={world}",
                             "--set", f"finetune.checkpoint={pre / 'checkpoint.krna'}",
                             "--set", "finetune.phases=0:0.001;0,12:0.001")


def resolved_text_callers(source):
    """(the top-level definition around each resolved_text call, in
    order, "<module>" outside any; whether a top-level _validated is
    defined)."""
    callers, validated = [], False
    for stmt in ast.parse(source).body:
        name = getattr(stmt, "name", "<module>")
        validated |= name == "_validated"
        callers += [name for node in ast.walk(stmt) if isinstance(node, ast.Call)
                    and "resolved_text" in (getattr(node.func, "id", None),
                                            getattr(node.func, "attr", None))]
    return callers, validated


def test_config_resolved_has_one_writer():
    # the guard itself, on a source string
    src = ("def _checks(cfg):\n    write(resolved_text(cfg))\n"
           "def cmd_a(cfg):\n    x = cli.resolved_text(cfg).splitlines()\n"
           "def _validated(make):\n    return make()\n"
           "text = resolved_text(cfg)\n"
           "def resolved(cfg):\n    return resolved_text\n")
    assert resolved_text_callers(src) == (["_checks", "cmd_a", "<module>"], True)
    # every command's checks run in one _checks block, which alone
    # writes config.resolved once they have all passed
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert resolved_text_callers(source) == (["_checks"], False)


def report_loss(out):
    """train_loss of the last epoch in out/train_report.csv."""
    return float(read_text(out / "train_report.csv").strip().splitlines()[-1].split(",")[3])


def bundle_of(out):
    return cli._load_bundle(cli.parse_config_text(read_text(out / "config.resolved")))


def metric_rows(path):
    """(channel, lead) -> value of each rmse row of a metrics CSV."""
    rows = read_text(path).strip().splitlines()[1:]
    return {(c, int(l)): float(v) for c, l, m, v in (r.split(",") for r in rows)
            if m == "rmse"}


class TestBooleanKeys:
    """Each boolean key has the effect its code documents."""

    def zero_lr_squared_errors(self, out, *extra):
        # at lr 0 the checkpoint holds the weights every batch saw, so the
        # reported epoch loss is a mean over the squared errors below
        assert run_train(out, "--set", "train.lr=0.0", "--set", "train.epochs=1",
                         *extra) == 0
        bundle = bundle_of(out)
        pairs = data.FileSource(bundle.train, bundle.stats).pairs()
        with engine.no_grad():
            pred = model.load_checkpoint(str(out / "checkpoint.krna")).forward(pairs.x).data
        return (pred.astype(np.float64) - pairs.y) ** 2, bundle

    def test_lat_weighted_loss(self, tmp_path):
        out = tmp_path / "run"
        sq, bundle = self.zero_lr_squared_errors(out, "--set", "train.lat_weighted_loss=true")
        w = bundle.train.grid.row_weights[:, None]
        weighted = (w * sq).mean()
        assert report_loss(out) == pytest.approx(weighted, rel=1e-5)
        assert abs(weighted - sq.mean()) > 1e-3 * sq.mean()

    def test_exclude_static_loss(self, tmp_path):
        out = tmp_path / "run"
        sq, bundle = self.zero_lr_squared_errors(out, "--set", "train.exclude_static_loss=true")
        assert bundle.static_mask.tolist() == [False, False, False, True]   # OROG
        dynamic = sq[:, ~bundle.static_mask].mean()
        assert report_loss(out) == pytest.approx(dynamic, rel=1e-5)
        assert abs(dynamic - sq.mean()) > 1e-3 * sq.mean()

    def test_eval_unweighted_rmse_is_the_plain_formula(self, tmp_path):
        out = tmp_path / "ev"
        assert cli.main(["evaluate", "--out", str(out), *SMOKE, *EVAL_LEADS,
                         "--set", "eval.model=persistence",
                         "--set", "eval.weighted=false"]) == 0
        test = bundle_of(out).test
        v = test.values.astype(np.float64)
        n_inits = test.n_time - 3
        got = metric_rows(out / "metrics.csv")
        for c, name in enumerate(test.channels):
            for lead in (1, 2, 3):
                want = sum(np.sqrt(((v[i, c] - v[i + lead, c]) ** 2).mean())
                           for i in range(n_inits)) / n_inits
                assert got[(name, lead)] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def run_both_ways(self, tmp_path, command, key):
        """Output directories of command with key=true and key=false."""
        pre = tmp_path / "pre"
        assert run_train(pre) == 0
        prefix = key.split(".")[0]
        outs = {}
        for flag in ("true", "false"):
            outs[flag] = tmp_path / flag
            assert cli.main([command, "--out", str(outs[flag]), *SMOKE, *EVAL_LEADS,
                             "--set", f"{prefix}.checkpoint={pre / 'checkpoint.krna'}",
                             "--set", "rollout.horizon=3", "--set", f"{key}={flag}"]) == 0
        return outs

    def test_eval_static_reset_pins_orography(self, tmp_path):
        outs = self.run_both_ways(tmp_path, "evaluate", "eval.static_reset")
        on, off = (metric_rows(outs[f] / "metrics.csv") for f in ("true", "false"))
        for lead in (1, 2, 3):
            assert on[("OROG", lead)] == 0.0
            assert off[("OROG", lead)] > 1e-6

    def test_rollout_static_reset_pins_orography(self, tmp_path):
        outs = self.run_both_ways(tmp_path, "rollout", "rollout.static_reset")
        bundle = bundle_of(outs["true"])
        # the init day's stored bits, which float32 normalize/denormalize
        # does not round-trip
        pinned = bundle.gf.values[-1][3].tobytes()
        init = data.normalize(bundle.gf.values[-1], bundle.stats)
        assert data.denormalize(init, bundle.stats)[3].tobytes() != pinned
        for flag, same in (("true", True), ("false", False)):
            for k in (1, 2, 3):
                got = data.read_grid(str(outs[flag] / f"forecast_{k:03d}.grid"))
                assert got.channels[3] == "OROG"
                assert (got.values[0, 3].tobytes() == pinned) is same


class TestFailureFlagging:
    def test_runtime_failure_writes_marker(self, tmp_path, capsys):
        # an absurd learning rate reliably drives the loss non-finite
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_train(out, "--set", "train.lr=1e18",
                             "--set", "train.epochs=30")
        assert code == 2
        assert (out / "FAILED").exists()
        assert "epoch" in capsys.readouterr().err

    def test_non_finite_weights_write_no_checkpoint(self, tmp_path, capsys):
        # one epoch of one batch: the only AdamW step overflows the weights,
        # and no later loss is computed to notice
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_train(out, "--set", "train.lr=1e300", "--set", "train.epochs=1",
                             "--set", "train.batch_size=32")
        assert code == 2
        assert "holds a non-finite value" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["FAILED", "config.resolved"]

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_signal_mid_train_is_a_named_failure(self, tmp_path, signum):
        # a child process, since the signal stops the whole process; the
        # child starts with SIGINT at its default, which Python turns into
        # KeyboardInterrupt, even where this process inherited it ignored
        out = tmp_path / "tr"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = subprocess.Popen(
            [sys.executable, "-m", "karina.cli", "train", "--out", str(out), *SMOKE,
             "--set", "train.epochs=100000"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            deadline = time.monotonic() + 120
            while not (out / "config.resolved").exists():
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.5)  # well into the training loop
            child.send_signal(signum)
            _, err = child.communicate(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == 2
        assert err == "error: interrupted\n"
        assert read_text(out / "FAILED") == "interrupted\n"
        assert sorted(p.name for p in out.iterdir()) == ["FAILED", "config.resolved"]

    def test_main_restores_the_sigterm_handler(self, tmp_path, capsys):
        before = signal.getsignal(signal.SIGTERM)
        assert run_train(tmp_path / "run") == 0
        assert signal.getsignal(signal.SIGTERM) is before


KARINA_MODULES = [importlib.import_module(f"karina.{info.name}")
                  for info in pkgutil.iter_modules(karina.__path__)]
KARINA_ERRORS = sorted(
    {obj for mod in KARINA_MODULES for obj in vars(mod).values()
     if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == mod.__name__},
    key=lambda cls: cls.__name__,
)
# exit 1 means the run was refused before it started; anything else that
# reaches main is a failed run: exit 2 and a FAILED marker
EXIT_ONE = {cli.CliError}


class TestExitCodes:
    def test_every_named_class_is_covered(self):
        names = {cls.__name__ for cls in KARINA_ERRORS}
        assert names >= {"CliError", "UsageError", "DataError", "ModelError", "TrainingError",
                         "MetricsError", "PaddingError", "NonFiniteError"}

    @pytest.mark.parametrize("error", KARINA_ERRORS, ids=lambda cls: cls.__name__)
    def test_error_class_maps_to_exit_code(self, error, tmp_path, capsys, monkeypatch):
        def command(cfg, out_dir):
            raise error("boom")

        monkeypatch.setitem(cli.COMMANDS, "train", command)
        out = tmp_path / "run"
        code = cli.main(["train", "--out", str(out)])
        err = capsys.readouterr().err
        if error in EXIT_ONE:
            assert (code, err) == (1, "config error: boom\n")
            assert not (out / "FAILED").exists()
        else:
            assert (code, err) == (2, "error: boom\n")
            assert read_text(out / "FAILED") == "boom\n"
