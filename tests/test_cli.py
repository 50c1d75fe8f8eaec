import builtins
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicerbm import cli, dataset, oracle, sensitivity, stats
from choicerbm.dataset import NormStats
from choicerbm.model import CrbmParams
from choicerbm.report import load_model, save_model
from conftest import model_record, random_params, tied_case


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("planted") / "band.json"
    oracle.save_planted(oracle.band_planted_model(), path)
    return path


@pytest.fixture(scope="module")
def data_file(planted_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    rc = cli.run(["generate", "--planted", str(planted_file),
                  "--n", "2500", "--seed", "11", "--out", str(path)])
    assert rc == 0
    return path


TRAIN_FLAGS = ["--epochs", "40", "--batch", "128", "--lr", "0.05",
               "--cd-k", "3", "--seed", "0", "--patience", "40",
               "--init-scale", "1.0"]


@pytest.fixture(scope="module")
def trained_model(data_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "crbm.model"
    rc = cli.run(["train", "--data", str(data_file), "--hidden", "2",
                  "--out", str(path)] + TRAIN_FLAGS)
    assert rc == 0
    return path


class TestParserDefaults:
    def test_training_defaults_match_reference_recipe(self):
        parser = cli._build_parser()
        args = parser.parse_args(["train", "--data", "d.csv", "--out", "m"])
        assert args.batch == 64
        assert args.epochs == 400
        assert args.lr == pytest.approx(1e-3)
        assert args.cd_k == 1
        assert args.split == pytest.approx(0.70)
        assert args.hidden == 2


class TestTrainCommand:
    def test_prints_result_table_row(self, data_file, tmp_path, capsys):
        out = tmp_path / "m.model"
        rc = cli.run(["train", "--data", str(data_file), "--hidden", "0",
                      "--out", str(out)] + TRAIN_FLAGS)
        captured = capsys.readouterr().out
        assert rc == 0
        lines = captured.strip().split("\n")
        assert lines[0].startswith("model,validation_error")
        assert lines[1].startswith("MNL,")
        assert out.exists()

    def test_latent_model_beats_baseline_on_band_data(self, data_file,
                                                      tmp_path, capsys):
        rows = {}
        for hidden in ("0", "2"):
            out = tmp_path / f"m{hidden}.model"
            rc = cli.run(["train", "--data", str(data_file), "--hidden", hidden,
                          "--out", str(out)] + TRAIN_FLAGS)
            assert rc == 0
            rows[hidden] = capsys.readouterr().out.strip().split("\n")[1]
        err_mnl = float(rows["0"].split(",")[1])
        err_crbm = float(rows["2"].split(",")[1])
        assert err_crbm < err_mnl

    def test_failed_save_prints_no_row(self, data_file, tmp_path, capsys):
        rc = cli.run(["train", "--data", str(data_file), "--hidden", "0",
                      "--out", str(tmp_path / "missing" / "m.model")]
                     + TRAIN_FLAGS)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1

    def test_directory_as_out_leaves_nothing_behind(self, data_file, tmp_path,
                                                    capsys):
        target = tmp_path / "models"
        target.mkdir()
        rc = cli.run(["train", "--data", str(data_file), "--hidden", "0",
                      "--out", str(target)] + TRAIN_FLAGS)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["models"]
        assert list(target.iterdir()) == []

    def test_model_file_carries_metadata(self, trained_model):
        params, meta = load_model(trained_model)
        assert params.n_hidden == 2
        record = {"norm_stats", "feature_names", "alternative_names",
                  "train_config", "metrics", "std_errs", "tstats",
                  "choice_column", "reference_alternative"}
        assert set(json.loads(trained_model.read_text())) == record | {
            "format", "version", "n_alternatives", "n_hidden", "n_features",
            "params"}
        assert set(meta) == record
        assert set(meta["metrics"]) == {
            "loglik_train", "loglik_valid", "rho2", "bic", "validation_error",
            "mean_true_prob", "n_params", "best_epoch", "split_fraction",
            "split_seed"}
        assert meta["train_config"].cd_k == 3
        assert meta["choice_column"] == "choice"


class TestEvaluateCommand:
    def test_reproduces_training_metrics(self, data_file, tmp_path, capsys):
        out = tmp_path / "m.model"
        rc = cli.run(["train", "--data", str(data_file), "--hidden", "2",
                      "--out", str(out)] + TRAIN_FLAGS)
        assert rc == 0
        train_row = capsys.readouterr().out.strip().split("\n")[1]
        rc = cli.run(["evaluate", "--model", str(out), "--data", str(data_file)])
        assert rc == 0
        eval_row = capsys.readouterr().out.strip().split("\n")[1]
        assert eval_row == train_row

    def test_whole_file_mode(self, trained_model, data_file, capsys):
        rc = cli.run(["evaluate", "--model", str(trained_model),
                      "--data", str(data_file), "--whole-file"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CRBM-J2," in out

    def test_validation_error_is_the_miss_rate_of_predict(self, tmp_path,
                                                          capsys):
        # On rows whose top two probabilities tie in float64, `evaluate`
        # counts a miss exactly where `predict`'s `predicted` column shows
        # one; with means 0 and stds 1 both read the same feature bits.
        p, x, choices = tied_case()
        model, data = tmp_path / "m.model", tmp_path / "d.csv"
        save_model(p, model, **model_record(p))
        data.write_text("choice,f1\n" + "".join(
            f"{c + 1},{v!r}\n" for c, v in zip(choices, x[:, 0].tolist())))
        assert cli.run(["evaluate", "--model", str(model), "--data",
                        str(data), "--whole-file"]) == 0
        error = capsys.readouterr().out.split("\n")[1].split(",")[1]
        out = tmp_path / "preds.csv"
        assert cli.run(["predict", "--model", str(model), "--data", str(data),
                        "--out", str(out)]) == 0
        predicted = np.loadtxt(out, delimiter=",", skiprows=1, usecols=4)
        assert error == f"{np.mean(predicted != choices + 1):.4f}"


class TestPredictCommand:
    def test_writes_prediction_csv(self, trained_model, data_file, tmp_path):
        out = tmp_path / "preds.csv"
        rc = cli.run(["predict", "--model", str(trained_model),
                      "--data", str(data_file), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "row"
        assert header[6] == "predicted"
        assert len(lines) == 2501
        first = lines[1].split(",")
        probs = np.array([float(v) for v in first[1:6]])
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


    def test_value_overflowing_after_scaling_fails_in_one_line(
            self, tmp_path, capsys):
        # 1e308 / 0.5 is inf: the prediction is refused, not written as NaN.
        model = tmp_path / "m.model"
        p = random_params(np.random.default_rng(0), 3, 2, 2)
        save_model(p, model, **model_record(
            p, norm_stats=NormStats(means=np.zeros(2), stds=np.full(2, 0.5),
                                    constant=np.zeros(2, dtype=bool)),
            feature_names=("f1", "f2")))
        data = tmp_path / "d.csv"
        data.write_text("f1,f2\n0.5,1.0\n1e308,2.0\n")
        out = tmp_path / "preds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = cli.run(["predict", "--model", str(model), "--data", str(data),
                          "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: non-finite feature values\n"
        assert not out.exists()

    def test_row_with_the_wrong_cell_count_fails_in_one_line(self, tmp_path,
                                                             capsys):
        # The model reads only f1 and f2, but a row must still have one
        # cell per header column, as for `train` and `evaluate`.
        model = tmp_path / "m.model"
        p = random_params(np.random.default_rng(0), 3, 2, 2)
        save_model(p, model, **model_record(
            p, norm_stats=NormStats(means=np.zeros(2), stds=np.ones(2),
                                    constant=np.zeros(2, dtype=bool)),
            feature_names=("f1", "f2")))
        data = tmp_path / "d.csv"
        data.write_text("f1,f2,f3\n0.5,1.0,2.0\n0.1,0.2\n0.3,0.4,0.5,0.6,0.7\n")
        out = tmp_path / "preds.csv"
        rc = cli.run(["predict", "--model", str(model), "--data", str(data),
                      "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: row 2: expected 3 cells, got 2\n"
        assert not out.exists()


class TestHintonCommand:
    @pytest.mark.parametrize("block", ["B", "D", "A"])
    def test_renders_each_block(self, trained_model, tmp_path, block):
        out = tmp_path / f"{block}.svg"
        rc = cli.run(["hinton", "--model", str(trained_model),
                      "--block", block, "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text

    def test_empty_block_rejected(self, data_file, tmp_path):
        out = tmp_path / "mnl.model"
        assert cli.run(["train", "--data", str(data_file), "--hidden", "0",
                        "--out", str(out)] + TRAIN_FLAGS) == 0
        rc = cli.run(["hinton", "--model", str(out), "--block", "A",
                      "--out", str(tmp_path / "x.svg")])
        assert rc == 2


class TestSensitivityCommand:
    def test_writes_rank_table(self, data_file, tmp_path, capsys):
        out = tmp_path / "sens.csv"
        rc = cli.run(["sensitivity", "--data", str(data_file),
                      "--hidden", "0", "--fraction", "0.5",
                      "--replicates", "2", "--out", str(out)] + TRAIN_FLAGS)
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",")[0] == "variable"
        assert "J0_full_rank" in lines[0]
        assert len(lines) == 8  # six features plus bias plus header

    def test_prints_the_rank_correlation_after_the_table(
            self, data_file, tmp_path, capsys):
        out = tmp_path / "sens.csv"
        rc = cli.run(["sensitivity", "--data", str(data_file),
                      "--hidden", "0,1", "--fraction", "0.5",
                      "--replicates", "2", "--out", str(out),
                      *TRAIN_FLAGS, "--epochs", "3"])
        assert rc == 0
        table = out.read_text()
        stdout = capsys.readouterr().out
        assert stdout.startswith(table)
        rows = [line.split(",") for line in table.splitlines()[1:]]
        tail = stdout[len(table):].splitlines()
        assert [line.split(",")[0] for line in tail] == [
            "J0_spearman_rho", "J1_spearman_rho"]
        for group, line in enumerate(tail):
            full = [int(r[1 + 3 * group]) for r in rows]
            sub = [int(r[2 + 3 * group]) for r in rows]
            assert line.split(",")[1] == (
                f"{sensitivity.rank_agreement(full, sub):.6f}")


class _FullDisk:
    """A text file that fails with ENOSPC once `limit` characters have
    been written through it."""

    def __init__(self, fh, limit, log):
        self.fh, self.room, self.log = fh, limit, log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if len(text) > self.room:
            self.fh.write(text[:self.room])
            self.log.append(self.fh.name)
            raise OSError(28, "No space left on device")
        self.room -= len(text)
        return self.fh.write(text)


class TestAtomicOutputs:
    @pytest.mark.parametrize("command", ["predict", "generate", "sensitivity",
                                         "hinton"])
    def test_failed_write_leaves_the_old_file(self, command, planted_file,
                                              data_file, trained_model,
                                              tmp_path, monkeypatch, capsys):
        argv = {
            "predict": ["predict", "--model", str(trained_model),
                        "--data", str(data_file)],
            "generate": ["generate", "--planted", str(planted_file),
                         "--n", "50", "--seed", "1"],
            "sensitivity": ["sensitivity", "--data", str(data_file),
                            "--hidden", "0,1,2", "--fraction", "0.5",
                            "--replicates", "1", "--epochs", "1"],
            "hinton": ["hinton", "--model", str(trained_model),
                       "--block", "B"],
        }[command]
        target = tmp_path / "out.txt"
        target.write_bytes(b"earlier output\n")
        failed = []

        real_open = builtins.open

        def open_full(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _FullDisk(fh, 300, failed) if "r" not in mode else fh

        monkeypatch.setattr(builtins, "open", open_full)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run([*argv, "--out", str(target)])
        err = capsys.readouterr().err
        assert failed, "the output was shorter than 300 bytes"
        assert rc == 1
        assert err == "error: [Errno 28] No space left on device\n"
        assert target.read_bytes() == b"earlier output\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestWarnings:
    def test_short_fit_warns_in_one_line(self, data_file, tmp_path):
        # Two epochs leave the hidden units barely used, so a direction of
        # the reduced information matrix is numerically zero.
        done = subprocess.run(
            [sys.executable, "-m", "choicerbm.cli", "train",
             "--data", str(data_file), "--hidden", "2", "--epochs", "2",
             "--out", str(tmp_path / "m.model")],
            env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert re.fullmatch(
            r"warning: information matrix is singular \(rank \d+ of 50 free "
            r"parameters\); standard errors use the identified subspace only",
            lines[0]), lines[0]


def _scipy_modules_after(statement):
    """The scipy modules that a fresh interpreter holds after `statement`."""
    code = (f"import sys; {statement}; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    return _fresh_python(code, _fresh_env(drop=()))[0]


def test_import_leaves_scipy_unloaded():
    for module in ("choicerbm.cli", "choicerbm.oracle"):
        assert _scipy_modules_after(f"import {module}") == "[]", module


def test_generate_leaves_scipy_unloaded(planted_file, tmp_path):
    out = tmp_path / "d.csv"
    argv = ["generate", "--planted", str(planted_file), "--n", "50",
            "--out", str(out)]
    assert _scipy_modules_after(
        f"from choicerbm import cli; assert cli.run({argv!r}) == 0") == "[]"
    assert len(out.read_text().splitlines()) == 51


def _fresh_env(drop=("OPENBLAS_NUM_THREADS",), **extra):
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return dict(env, **extra)


def _fresh_python(code, env):
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True).stdout.split("\n")


class TestBlasThreads:
    REPORT = ("import os, sys; {imports}; "
              "print(os.environ.get('OPENBLAS_NUM_THREADS')); "
              "print(open('/proc/self/status').read() "
              "if sys.platform == 'linux' else '')")

    def test_cli_import_runs_one_blas_thread(self):
        out = _fresh_python(self.REPORT.format(imports="import choicerbm.cli"),
                            _fresh_env())
        assert out[0] == "1"
        if sys.platform == "linux":
            assert "Threads:\t1" in out, out

    def test_user_setting_wins(self):
        out = _fresh_python(self.REPORT.format(imports="import choicerbm.cli"),
                            _fresh_env(OPENBLAS_NUM_THREADS="2"))
        assert out[0] == "2"

    def test_numpy_loaded_first_leaves_environment_alone(self):
        code = self.REPORT.format(imports="import numpy, choicerbm")
        assert _fresh_python(code, _fresh_env())[0] == "None"

    def test_model_file_does_not_depend_on_blas_threads(self, tmp_path):
        # With no thread variable set, OpenBLAS would use one thread per
        # core.  Paper-shape blocks (I = 13, K = 20, J = 2) give a 299 x 299
        # information matrix for the choice blocks, large enough for OpenBLAS
        # to split its product over threads even on a 20-row table.
        rng = np.random.default_rng(0)
        params = CrbmParams(
            choice_hidden_w=rng.normal(0, 1, (13, 2)),
            choice_context_w=rng.normal(0, 1, (13, 20)),
            hidden_context_w=rng.normal(0, 1, (2, 20)),
            choice_bias=rng.normal(0, 1, 13), hidden_bias=rng.normal(0, 1, 2))
        oracle.save_planted(oracle.PlantedModel(
            params=params, context=[oracle.ContextSpec("normal")] * 20,
            n_rows=20, seed=1), tmp_path / "p.json")
        default = _fresh_env(drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "GOTO_NUM_THREADS"))

        def run(env, *argv):
            subprocess.run([sys.executable, "-m", "choicerbm.cli", *argv],
                           env=env, capture_output=True, timeout=120,
                           check=True)

        run(default, "generate", "--planted", str(tmp_path / "p.json"),
            "--out", str(tmp_path / "d.csv"))
        for name, env in (("default", default),
                          ("one", dict(default, OPENBLAS_NUM_THREADS="1"))):
            run(env, "train", "--data", str(tmp_path / "d.csv"),
                "--epochs", "1", "--out", str(tmp_path / f"{name}.model"))
        assert ((tmp_path / "default.model").read_bytes()
                == (tmp_path / "one.model").read_bytes())


class TestValuesAtTheFloatLimit:
    """A feature value that overflows when scaled, or a column whose mean
    or spread overflows, fails in exactly one stderr line: numpy's own
    overflow warnings stay off stderr.  Run as fresh processes, because
    only there do warnings reach stderr."""

    @staticmethod
    def _run(cwd, *argv):
        done = subprocess.run([sys.executable, "-m", "choicerbm.cli", *argv],
                              cwd=cwd, env=_fresh_env(), capture_output=True,
                              text=True, timeout=120)
        return done.returncode, done.stderr

    @pytest.mark.parametrize("argv", [["predict", "--out", "p.csv"],
                                      ["evaluate", "--whole-file"]],
                             ids=["predict", "evaluate-whole-file"])
    def test_scaled_value_overflows(self, tmp_path, argv):
        p = random_params(np.random.default_rng(0), 3, 2, 2)
        save_model(p, tmp_path / "m.model", **model_record(
            p, norm_stats=NormStats(means=np.zeros(2), stds=np.full(2, 0.98),
                                    constant=np.zeros(2, dtype=bool)),
            feature_names=("f1", "f2")))
        (tmp_path / "d.csv").write_text(
            "choice,f1,f2\n1,0.5,1.0\n2,1.78e308,2.0\n3,0.1,0.3\n")
        assert self._run(tmp_path, *argv, "--model", "m.model",
                         "--data", "d.csv") == (
            1, "error: non-finite feature values\n")

    @pytest.mark.parametrize("argv", [
        ["train", "--out", "m.model"],
        ["sensitivity", "--fraction", "1", "--replicates", "1",
         "--out", "s.csv"]], ids=["train", "sensitivity"])
    def test_column_statistics_overflow(self, tmp_path, argv):
        rng = np.random.default_rng(4)
        (tmp_path / "d.csv").write_text("choice,f1,f2\n" + "".join(
            f"{r % 3 + 1},{'' if r < 100 else '-'}1.7e308,{rng.normal()!r}\n"
            for r in range(200)))
        assert self._run(tmp_path, *argv, "--data", "d.csv",
                         "--epochs", "1") == (
            1, "error: non-finite feature values\n")


class TestFeatureList:
    @pytest.mark.parametrize("features", ["choice,f1", "f1,f1,f2"])
    def test_choice_or_repeated_column_fails_in_one_line(
            self, tmp_path, capsys, features):
        data = tmp_path / "d.csv"
        data.write_text("choice,f1,f2\n" + "".join(
            f"{r % 3 + 1},{r * 0.37 % 1:.3f},{r % 5}\n" for r in range(30)))
        rc = cli.run(["train", "--data", str(data), "--features", features,
                      "--epochs", "1", "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and features.split(",")[0] in err, err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("header, column, command", [
        ("choice,f1,f1", "f1", ["train", "--features", "f1"]),
        ("choice,choice,f1", "choice", ["train"]),
        ("f1,f2,f1", "f1", ["predict"])], ids=["feature", "choice", "predict"])
    def test_column_named_twice_in_the_header_fails_in_one_line(
            self, tmp_path, capsys, header, column, command):
        # Reading the first of two columns of one name would silently
        # ignore the other.
        cells = {"choice": lambda r: r % 3 + 1, "f2": lambda r: r % 5,
                 "f1": lambda r: f"{r * 0.37 % 1:.3f}"}
        data = tmp_path / "d.csv"
        data.write_text(header + "\n" + "".join(
            ",".join(str(cells[c](r)) for c in header.split(",")) + "\n"
            for r in range(30)))
        if command == ["predict"]:
            model = tmp_path / "m.model"
            p = random_params(np.random.default_rng(0), 3, 2, 2)
            save_model(p, model, **model_record(
                p, norm_stats=NormStats(np.zeros(2), np.ones(2),
                                        np.zeros(2, bool)),
                feature_names=("f1", "f2")))
            command = command + ["--model", str(model)]
        else:
            command = command + ["--epochs", "1"]
        out = tmp_path / "out"
        rc = cli.run(command + ["--data", str(data), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: column {column!r} is repeated in the header\n")
        assert not out.exists()

    def test_repeated_column_fails_at_prediction(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("f1,f2\n0.5,1.0\n0.1,2.0\n")
        with pytest.raises(dataset.SchemaError, match="'f1'"):
            dataset.load_features_csv(
                data, ["f1", "f1"],
                NormStats(np.zeros(2), np.ones(2), np.zeros(2, bool)))


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert cli.run(["train", "--data", "d", "--out", "m", "--bogus"]) == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        rc = cli.run(["train", "--data", str(tmp_path / "none.csv"),
                      "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_invalid_range_is_usage_error(self, data_file, tmp_path):
        rc = cli.run(["train", "--data", str(data_file), "--split", "1.5",
                      "--out", str(tmp_path / "m")])
        assert rc == 2
        rc = cli.run(["train", "--data", str(data_file), "--lr", "0",
                      "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_runtime_failure_is_exit_one(self, tmp_path, data_file):
        bad = tmp_path / "bad.model"
        bad.write_text('{"format": "choicerbm-model", "version": 1}')
        rc = cli.run(["evaluate", "--model", str(bad), "--data", str(data_file)])
        assert rc == 1

    def test_generate_round_trip(self, planted_file, tmp_path):
        out = tmp_path / "gen.csv"
        rc = cli.run(["generate", "--planted", str(planted_file),
                      "--n", "50", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 51

    def test_generate_beyond_the_enumeration_cap(self, planted_file, tmp_path):
        # Generation draws from the closed-form p(y | x), so J = 13 is
        # sampled although the enumeration references stop at 12.
        doc = json.loads(planted_file.read_text())
        doc["params"] = {name: arr.tolist() for name, arr in random_params(
            np.random.default_rng(1), 5, 13, 6).blocks()}
        planted = tmp_path / "j13.json"
        planted.write_text(json.dumps(doc))
        out = tmp_path / "gen.csv"
        assert cli.run(["generate", "--planted", str(planted), "--n", "40",
                        "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 41

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 378. GiB for an array with shape (253803, 200000)"
         " and data type float64",
         "error: out of memory (Unable to allocate 378. GiB for an array with"
         " shape (253803, 200000) and data type float64)\n"),
        ("", "error: out of memory\n")], ids=["numpy", "bare"])
    def test_failed_allocation_fails_in_one_line(self, data_file, tmp_path,
                                                 capsys, monkeypatch, message,
                                                 line):
        # Each block of BHHH scores asks for rows x parameters cells; a failed
        # allocation is simulated rather than made, as an overcommitting host
        # would grant it.
        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(stats, "_prediction_scores", no_memory)
        out = tmp_path / "m.model"
        rc = cli.run(["train", "--data", str(data_file), "--epochs", "1",
                      "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == line
        assert not out.exists()

    def test_constant_column_trains_saves_and_evaluates(self, tmp_path, capsys):
        # A constant feature leaves parameters with se = 0; their t values
        # are 0, so the model file stays valid JSON.
        rng = np.random.default_rng(3)
        data = tmp_path / "const.csv"
        data.write_text("choice,f1,f2,f3\n" + "".join(
            f"{rng.integers(1, 4)},{rng.normal():.6f},5.0,{rng.normal():.6f}\n"
            for _ in range(300)))
        model = tmp_path / "m.model"
        assert cli.run(["train", "--data", str(data), "--hidden", "2",
                        "--epochs", "3", "--out", str(model)]) == 0
        _, meta = load_model(model)
        assert all(np.all(np.isfinite(t)) for _, t in meta["tstats"].blocks())
        for extra in ([], ["--whole-file"]):
            assert cli.run(["evaluate", "--model", str(model),
                            "--data", str(data), *extra]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--weight-decay", "nan"),
        ("--init-scale", "inf")])
    def test_non_finite_setting_is_usage_error(self, data_file, tmp_path,
                                               capsys, flag, value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.run(["train", "--data", str(data_file), "--epochs", "1",
                          f"{flag}={value}", "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "finite" in err, err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_log_likelihood_fails_in_one_line(
            self, data_file, tmp_path, capsys):
        # finite weights so large that the summed log-likelihood overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.run(["train", "--data", str(data_file), "--epochs", "1",
                          "--init-scale=3.5e305", "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == ("error: log-likelihood overflows: "
                       "the parameters are too large\n"), err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("hidden, scale, message", [
        ("0", "2.2114850063329895e+305",
         "BIC overflows: the log-likelihood is too large"),
        ("1", "2.2114850063329895e+305",
         "BIC overflows: the log-likelihood is too large"),
        ("2", "7.408466239090805e+307",
         "reference-gauge shift overflows: the parameters are too large")])
    def test_overflowing_fit_figure_fails_in_one_line(
            self, tmp_path, capsys, hidden, scale, message):
        # A finite log-likelihood near -1.8e308 whose BIC overflows, and
        # weights whose reference-gauge shift overflows.
        data = tmp_path / "band.csv"
        oracle.write_dataset_csv(
            oracle.band_planted_model(n_rows=300, seed=3), data)
        rc = cli.run(["train", "--data", str(data), "--epochs", "1",
                      "--hidden", hidden, f"--init-scale={scale}",
                      "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines()[-1] == f"error: {message}", err
        assert not (tmp_path / "m").exists()

    def test_choice_beyond_int64_fails_in_one_line(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("choice,f1,f2\n1,0.5,1.0\n2,0.1,2.0\n"
                        "99999999999999999999,0.3,3.0\n")
        rc = cli.run(["train", "--data", str(data), "--epochs", "1",
                      "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "99999999999999999999" in err, err

    def test_choice_beyond_the_row_count_fails_in_one_line(self, tmp_path,
                                                           capsys):
        # The alternative count is inferred from the largest choice, and
        # one-hot coding would allocate 3 x 10^15 cells for this file.
        data = tmp_path / "d.csv"
        data.write_text("choice,f1,f2\n1,0.5,1.0\n2,0.1,2.0\n"
                        "1000000000000000,0.3,3.0\n")
        rc = cli.run(["train", "--data", str(data), "--epochs", "1",
                      "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1, err
        assert "1000000000000000" in err and "3 data rows" in err, err

    @pytest.mark.parametrize("flag, value", [
        ("--fraction", "2"), ("--fraction", "0"), ("--fraction", "nan"),
        ("--replicates", "0"), ("--hidden", "2,a"), ("--hidden", "2,2")])
    def test_sensitivity_range_is_usage_error_before_reading(
            self, tmp_path, capsys, flag, value):
        # The data file does not exist: only a check made before any read
        # can name the flag.
        rc = cli.run(["sensitivity", "--data", str(tmp_path / "none.csv"),
                      f"{flag}={value}", "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and flag in err, err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train", "--seed", "-1", "seed must"),
        ("train", "--seed", str(2 ** 53), "seed must"),
        ("sensitivity", "--seed", "-1", "seed must"),
        ("generate", "--seed", "-1", "--seed must"),
        ("generate", "--n", "0", "--n must")])
    def test_seed_and_row_count_are_usage_errors_before_reading(
            self, tmp_path, capsys, command, flag, value, message):
        # The input file does not exist: only a check made before any read
        # can name the flag.
        source = "--planted" if command == "generate" else "--data"
        rc = cli.run([command, source, str(tmp_path / "none"),
                      f"{flag}={value}", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and message in err, err

    @pytest.mark.parametrize("command, flag", [
        ("train", "--data"), ("sensitivity", "--data"), ("predict", "--data"),
        ("predict", "--model"), ("hinton", "--model"),
        ("generate", "--planted")])
    def test_out_naming_an_input_is_usage_error(
            self, planted_file, data_file, trained_model, tmp_path, capsys,
            command, flag):
        # Copies, so that a failure cannot overwrite the shared fixtures.
        inputs = {}
        for name, source in (("--data", data_file), ("--model", trained_model),
                             ("--planted", planted_file)):
            inputs[name] = tmp_path / source.name
            inputs[name].write_bytes(source.read_bytes())
        data, model, planted = map(str, inputs.values())
        argv = {"train": ["train", "--data", data, "--epochs", "1"],
                "sensitivity": ["sensitivity", "--data", data,
                                "--replicates", "1", "--epochs", "1"],
                "predict": ["predict", "--model", model, "--data", data],
                "hinton": ["hinton", "--model", model, "--block", "B"],
                "generate": ["generate", "--planted", planted]}[command]
        target = inputs[flag]
        before = target.read_bytes()
        # Another spelling of the same path: the check compares files.
        rc = cli.run([*argv, "--out", f"{target.parent}/./{target.name}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: --out names the same file as {flag}\n"
        assert target.read_bytes() == before

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_hinton_threshold_must_be_finite_and_non_negative(
            self, trained_model, tmp_path, capsys, value):
        out = tmp_path / "B.svg"
        rc = cli.run(["hinton", "--model", str(trained_model), "--block", "B",
                      f"--threshold={value}", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "--threshold" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_cell_over_csv_field_limit_fails_in_one_line(
            self, command, trained_model, data_file, tmp_path, capsys):
        lines = data_file.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "1" * 200_001
        data = tmp_path / "long.csv"
        data.write_text("\n".join(lines[:2] + [",".join(cells)]) + "\n")
        out = str(tmp_path / "out")
        argv = {"train": ["train", "--data", str(data), "--out", out],
                "evaluate": ["evaluate", "--model", str(trained_model),
                             "--data", str(data)],
                "predict": ["predict", "--model", str(trained_model),
                            "--data", str(data), "--out", out]}[command]
        rc = cli.run(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "field limit" in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc["params"].update(bogus=[1.0]), "'params' must hold"),
        (lambda doc: doc["params"].pop("hidden_bias"), "'params' must hold"),
        (lambda doc: doc.pop("params"), "'params' must hold"),
        (lambda doc: doc.pop("context"), "'context' must be"),
        (lambda doc: doc["context"].append([1]), "'context' must be"),
        (lambda doc: doc["context"][0].update(std="wide"), "'context' must be"),
        (lambda doc: doc["context"][0].update(std=True), "'context' must be"),
        (lambda doc: doc.pop("n_rows"), "'n_rows' must be an integer"),
        (lambda doc: doc.update(seed=None), "'seed' must be an integer"),
        (lambda doc: doc.update(n_rows=True),
         "'n_rows' must be an integer, got True"),
        (lambda doc: doc.update(seed=True), "'seed' must be an integer, got True"),
        (lambda doc: doc["params"].update(hidden_bias={"a": 1}),
         "parameter blocks must be numeric"),
        (lambda doc: doc["params"].update(hidden_bias=[True, False]),
         "parameter blocks must be numeric arrays"),
        (lambda doc: doc["params"].update(hidden_bias=[10 ** 400, 0]),
         "blocks must be numeric arrays"),
        (None, "not a planted-model file"),     # the document in a list
        ("truncate", "Expecting"),      # the first 32 characters
        (lambda doc: doc["params"]["choice_hidden_w"].pop(),
         "choice_hidden_w shape"),
        (lambda doc: doc["context"][0].update(kind="poisson"),
         "unknown context kind 'poisson'"),
        (lambda doc: doc["context"].pop(), "one context spec per feature"),
        (lambda doc: doc.update(n_rows=0), "n_rows must be positive"),
        (lambda doc: doc.update(seed=-1), "seed must be non-negative"),
        (lambda doc: doc["context"][0].update(std=float("nan")),
         "std must be finite, got nan"),
        (lambda doc: doc["context"][1].update(mean=float("inf")),
         "mean must be finite, got inf"),
        (lambda doc: doc["context"][2].update(std=10 ** 400),
         "std is too large for a float"),
    ])
    def test_malformed_planted_file_fails_in_one_line(self, planted_file,
                                                      tmp_path, capsys,
                                                      mutate, message):
        doc = json.loads(planted_file.read_text())
        if mutate is None:
            doc = [doc]
        elif mutate != "truncate":
            mutate(doc)
        text = json.dumps(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(text[:32] if mutate == "truncate" else text)
        with pytest.raises(ValueError, match=message):
            oracle.load_planted(bad)
        assert cli.run(["generate", "--planted", str(bad),
                        "--out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert err.startswith(f"error: {bad}: "), err
        assert not (tmp_path / "d.csv").exists()


def _mostly(sane, whole):
    """Values from `sane` three times in four, else from `whole`."""
    return st.sampled_from([sane, sane, sane, whole]).flatmap(lambda s: s)


# Flags shared by `train` and `sensitivity`: mostly values a run accepts,
# else any value of the type, NaN and infinities included.  Only the work a
# run may ask for is bounded: --epochs, --cd-k, --hidden and --replicates.
EPOCHS = {"--epochs": _mostly(st.integers(1, 2), st.integers(max_value=2))}
FUZZED_FLAGS = {
    "--lr": _mostly(st.floats(1e-4, 10.0), st.floats()),
    "--batch": _mostly(st.integers(1, 200), st.integers()),
    "--cd-k": _mostly(st.integers(1, 3), st.integers(max_value=3)),
    "--split": _mostly(st.floats(0.05, 0.95), st.floats()),
    "--patience": _mostly(st.integers(0, 5), st.integers()),
    "--init-scale": _mostly(st.floats(1e-3, 10.0), st.floats()),
    "--weight-decay": _mostly(st.floats(0.0, 1.0), st.floats()),
    "--seed": _mostly(st.integers(0, 2 ** 32 - 1), st.integers()),
}
HIDDEN = _mostly(st.integers(0, 2), st.integers(-1, 2))


@pytest.fixture(scope="module")
def tiny_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "d.csv"
    oracle.write_dataset_csv(oracle.band_planted_model(n_rows=300, seed=5),
                             path)
    return path


def _flag_argv(flags):
    # "--flag=value" keeps a value such as "-inf" from reading as a flag.
    return [f"{flag}={value!r}" for flag, value in flags.items()]


def _assert_contract(argv):
    """Exit 0, 1 or 2; a failure is one stderr line and no RuntimeWarning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.run(argv)
    assert rc in (0, 1, 2)
    if rc:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert not [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=100, deadline=None)
@given(flags=st.fixed_dictionaries(EPOCHS, optional={**FUZZED_FLAGS,
                                                   "--hidden": HIDDEN}))
def test_fuzzed_train_flags_keep_the_exit_contract(tiny_file,
                                                   tmp_path_factory, flags):
    out = tmp_path_factory.getbasetemp() / "fuzz.model"
    _assert_contract(["train", "--data", str(tiny_file), "--out", str(out),
                      *_flag_argv(flags)])


@settings(max_examples=100, deadline=None)
@given(flags=st.fixed_dictionaries(
    {**EPOCHS, "--fraction": _mostly(st.floats(0.5, 1.0), st.floats())},
    optional={**FUZZED_FLAGS,
              "--replicates": _mostly(st.integers(1, 4),
                                      st.integers(max_value=4))}),
       hidden=st.lists(HIDDEN, min_size=1, max_size=2))
def test_fuzzed_sensitivity_flags_keep_the_exit_contract(
        tiny_file, tmp_path_factory, flags, hidden):
    out = tmp_path_factory.getbasetemp() / "fuzz.csv"
    _assert_contract(["sensitivity", "--data", str(tiny_file),
                      "--out", str(out), "--hidden=" + ",".join(map(str, hidden)),
                      *_flag_argv(flags)])
