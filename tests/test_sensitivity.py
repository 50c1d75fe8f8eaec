import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from choicerbm import oracle, sensitivity
from choicerbm.dataset import from_arrays
from choicerbm.model import CrbmParams
from choicerbm.sensitivity import (SensitivityReport, rank_agreement,
                                   sensitivity_run, sensitivity_table_csv)
from choicerbm.trainer import TrainConfig, TrainingDivergedError, train_crbm
from conftest import assert_no_child_left, diverging, spy_by_half


def quick_config(**kw):
    base = dict(batch_size=64, epochs=8, learning_rate=0.05, seed=1,
                early_stop_patience=8)
    base.update(kw)
    return TrainConfig(**base)


def small_dataset(rng, n=600, k=3, n_alt=3):
    x = rng.normal(0, 1, (n, k))
    logits = x @ rng.normal(0, 1, (k, n_alt))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    idx = (probs.cumsum(axis=1) > rng.random(n)[:, None]).argmax(axis=1)
    return from_arrays(x, idx, n_alternatives=n_alt)


class TestRankAgreement:
    def test_identical_rankings(self):
        assert rank_agreement([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0

    def test_reversed_rankings(self):
        assert rank_agreement([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == -1.0

    def test_hand_enumerated_permutation(self):
        full = np.array([1, 2, 3, 4, 5])
        sub = np.array([2, 1, 4, 3, 5])
        d2 = float(((full - sub) ** 2).sum())
        expected = 1 - 6 * d2 / (5 * 24)
        assert rank_agreement(full, sub) == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy_on_permutations(self, rng):
        for _ in range(20):
            m = int(rng.integers(3, 12))
            a = rng.permutation(m) + 1
            b = rng.permutation(m) + 1
            want = scipy.stats.spearmanr(a, b).statistic
            assert rank_agreement(a, b) == pytest.approx(want, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_agreement([1, 2], [1, 2, 3])


class TestSensitivityRun:
    @pytest.mark.filterwarnings("ignore:information matrix")
    def test_full_fraction_reproduces_full_fit(self, rng):
        ds = small_dataset(rng)
        rep = sensitivity_run(ds, 0, quick_config(), fraction=1.0,
                              replicates=1, seed=3)
        np.testing.assert_array_equal(rep.stderr_diff_pct, 0.0)
        np.testing.assert_array_equal(rep.full_rank, rep.sub_rank)
        assert rank_agreement(rep.full_rank, rep.sub_rank) == 1.0

    @pytest.mark.filterwarnings("ignore:information matrix")
    def test_subsample_size_floor(self, rng, monkeypatch):
        ds = small_dataset(rng, n=601)
        parent, calls = os.getpid(), []

        def spy(ds_train, ds_valid, n_hidden, cfg):
            if os.getpid() == parent:
                calls.append(ds_train)
            else:   # the full-sample fit, whose assertion errors come back
                assert ds_train.n_rows == 601
            return train_crbm(ds_train, ds_valid, n_hidden, cfg)

        monkeypatch.setattr(sensitivity, "train_crbm", spy)
        sensitivity_run(ds, 0, quick_config(), fraction=0.5, replicates=2,
                        seed=3)
        [refits] = calls
        assert refits.x.shape[:2] == (2, 300)    # floor(0.5 * 601)
        # floor(0.1 * 76141) from the reference protocol
        assert int(np.floor(0.1 * 76_141)) == 7_614

    @pytest.mark.filterwarnings("ignore:information matrix")
    def test_ranks_are_permutations(self, rng):
        ds = small_dataset(rng, k=4)
        rep = sensitivity_run(ds, 0, quick_config(), fraction=0.4,
                              replicates=3, seed=9)
        for col in (rep.full_rank, rep.sub_rank):
            assert sorted(col) == list(range(1, 6))
        assert rep.variables[-1] == "bias"
        assert len(rep.variables) == 5

    @pytest.mark.filterwarnings("ignore:information matrix")
    def test_deterministic(self, rng):
        ds = small_dataset(rng)
        a = sensitivity_run(ds, 0, quick_config(), 0.5, 2, seed=4)
        b = sensitivity_run(ds, 0, quick_config(), 0.5, 2, seed=4)
        np.testing.assert_array_equal(a.stderr_diff_pct, b.stderr_diff_pct)
        np.testing.assert_array_equal(a.sub_rank, b.sub_rank)

    def test_refits_are_one_stack_of_the_spawned_subsets_in_order(
            self, rng, monkeypatch):
        ds = small_dataset(rng, n=200)
        parent, calls = os.getpid(), []

        def spy(ds_train, ds_valid, n_hidden, cfg):
            if os.getpid() == parent:
                calls.append((ds_train, ds_valid))
            else:   # the full-sample fit, whose assertion errors come back
                assert ds_train is ds and ds_valid is ds
            return train_crbm(ds_train, ds_valid, n_hidden, cfg)

        monkeypatch.setattr(sensitivity, "train_crbm", spy)
        sensitivity_run(ds, 0, quick_config(), fraction=0.5, replicates=3,
                        seed=4)
        [(refits, refits_valid)] = calls
        assert refits_valid is refits
        assert refits.x.shape == (3, 100, ds.n_features)
        streams = np.random.SeedSequence(4).spawn(3)
        for r, ss in enumerate(streams):
            rows = np.sort(np.random.default_rng(ss).choice(200, 100,
                                                            replace=False))
            np.testing.assert_array_equal(refits.x[r], ds.x[rows])
            np.testing.assert_array_equal(refits.y[r], ds.y[rows])

    def test_subsample_below_batch_size_rejected(self, rng):
        ds = small_dataset(rng, n=200)
        with pytest.raises(ValueError, match="batch"):
            sensitivity_run(ds, 0, quick_config(batch_size=64), fraction=0.1,
                            replicates=1, seed=0)

    def test_fraction_out_of_range(self, rng):
        ds = small_dataset(rng)
        with pytest.raises(ValueError):
            sensitivity_run(ds, 0, quick_config(), fraction=0.0,
                            replicates=1, seed=0)

    @pytest.mark.filterwarnings("ignore:information matrix")
    def test_dominant_feature_ranks_first(self, rng):
        # one feature with overwhelming coefficients is weakly identified,
        # which makes its standard error the largest
        n, k, n_alt = 4000, 4, 3
        b_true = rng.normal(0, 0.03, (n_alt, k))
        b_true[:, 0] = np.array([3.0, -3.0, 0.0])
        truth = CrbmParams(
            choice_hidden_w=np.zeros((n_alt, 0)),
            choice_context_w=b_true,
            hidden_context_w=np.zeros((0, k)),
            choice_bias=np.zeros(n_alt),
            hidden_bias=np.zeros(0))
        pm = oracle.PlantedModel(
            params=truth,
            context=tuple(oracle.ContextSpec("normal") for _ in range(k)),
            n_rows=n, seed=21)
        ds = oracle.generate(pm)
        rep = sensitivity_run(ds, 0, quick_config(epochs=30), fraction=0.1,
                              replicates=3, seed=2)
        assert rep.full_rank[0] == 1
        assert rep.sub_rank[0] == 1


@pytest.mark.filterwarnings("ignore:information matrix")
class TestForkedFullFit:
    """The full-sample fit runs in a forked child: every path reaps it and
    closes both ends of its pipe, and failures read as before."""

    def test_success_leaves_no_child_and_no_descriptor(self, rng):
        ds = small_dataset(rng)
        fds = "/proc/self/fd"
        before = os.listdir(fds) if os.path.isdir(fds) else None
        sensitivity_run(ds, 0, quick_config(), 0.5, 2, seed=4)
        assert_no_child_left()
        if before is not None:
            assert sorted(os.listdir(fds)) == sorted(before)

    def test_diverging_fits_leave_no_child(self, rng):
        ds = small_dataset(rng)
        cfg = quick_config(learning_rate=1.7e308)
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            sensitivity_run(ds, 0, cfg, 0.5, 2, seed=4)
        assert_no_child_left()

    def test_replicate_diverging_alone(self, rng, monkeypatch):
        ds = small_dataset(rng)
        spy_by_half(monkeypatch, replicates=diverging("replicates"))
        with pytest.raises(TrainingDivergedError, match=r"\(replicates\)"):
            sensitivity_run(ds, 0, quick_config(), 0.5, 2, seed=4)
        assert_no_child_left()

    def test_full_sample_error_wins(self, rng, monkeypatch):
        ds = small_dataset(rng)
        spy_by_half(monkeypatch, full=diverging("full sample"),
                    replicates=diverging("replicates"))
        with pytest.raises(TrainingDivergedError, match=r"\(full sample\)"):
            sensitivity_run(ds, 0, quick_config(), 0.5, 2, seed=4)
        assert_no_child_left()

    def test_assertion_in_the_child_reaches_the_caller(self, rng,
                                                       monkeypatch):
        def fail():
            assert False, "checked in the child"

        spy_by_half(monkeypatch, full=fail)
        with pytest.raises(AssertionError, match="checked in the child"):
            sensitivity_run(small_dataset(rng), 0, quick_config(), 0.5, 2,
                            seed=4)
        assert_no_child_left()

    def test_unpicklable_exception_arrives_as_its_builtin_base(
            self, rng, monkeypatch):
        class LocalMemoryError(MemoryError):   # a local class: no pickle
            pass

        def fail():
            raise LocalMemoryError("Unable to allocate 3. TiB")

        spy_by_half(monkeypatch, full=fail)
        with pytest.raises(MemoryError) as info:
            sensitivity_run(small_dataset(rng), 0, quick_config(), 0.5, 2,
                            seed=4)
        assert type(info.value) is MemoryError
        assert str(info.value) == "Unable to allocate 3. TiB"
        assert_no_child_left()

    def test_child_ending_without_a_result(self, rng, monkeypatch):
        spy_by_half(monkeypatch, full=lambda: os._exit(3))
        with pytest.raises(RuntimeError) as info:
            sensitivity_run(small_dataset(rng), 0, quick_config(), 0.5, 2,
                            seed=4)
        assert str(info.value) == "full-sample fit ended with exit status 3"
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_the_child(self, rng, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        # The child's fit would take hours: only a kill ends it in time.
        cfg = quick_config(epochs=10**6, early_stop_patience=10**6)
        spy_by_half(monkeypatch, replicates=interrupt)
        with pytest.raises(KeyboardInterrupt):
            sensitivity_run(small_dataset(rng), 0, cfg, 0.5, 2, seed=4)
        assert_no_child_left()

    def test_warnings_come_full_sample_first(self, rng, monkeypatch):
        def warn(where):
            return lambda: warnings.warn(f"fit of the {where}")

        spy_by_half(monkeypatch, full=warn("full sample"),
                    replicates=warn("replicates"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sensitivity_run(small_dataset(rng), 0, quick_config(), 0.5, 2,
                            seed=4)
        assert [str(w.message) for w in caught
                if str(w.message).startswith("fit of")] == [
            "fit of the full sample", "fit of the replicates"]


class TestTableCsv:
    @pytest.mark.filterwarnings("ignore:information matrix")
    def test_column_groups_per_hidden_size(self, rng):
        ds = small_dataset(rng)
        reps = [sensitivity_run(ds, j, quick_config(), 0.5, 1, seed=1)
                for j in (0, 1)]
        table = sensitivity_table_csv(reps)
        lines = table.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "variable"
        assert "J0_full_rank" in header and "J1_stderr_diff_pct" in header
        assert len(lines) == 1 + len(reps[0].variables)


    def test_feature_names_are_quoted_as_csv(self):
        # A header column may hold a comma or a quote; the table reads
        # back with one cell per column and the names as they were.
        names = ("a,b", 'c"d', "bias")
        rep = SensitivityReport(names, np.array([1, 2, 3]),
                                np.array([2, 1, 3]),
                                np.array([1.5, 0.25, 10.0]), n_hidden=2)
        table = sensitivity_table_csv([rep])
        rows = list(csv.reader(table.splitlines()))
        assert [len(row) for row in rows] == [4] * 4
        assert [row[0] for row in rows[1:]] == list(names)
        assert rows[1] == ["a,b", "1", "2", "1.50"]
        assert table.endswith("bias,3,3,10.00\n") and "\r" not in table

def test_each_rank_deficient_fit_warns_once_by_name(tmp_path):
    # Two epochs leave the hidden units barely used, so every J = 2 fit's
    # information matrix is singular: the full fit and three replicates.
    data = tmp_path / "band.csv"
    oracle.write_dataset_csv(oracle.band_planted_model(n_rows=600, seed=5),
                             data)
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "choicerbm.cli", "sensitivity",
         "--data", str(data), "--hidden", "2", "--fraction", "0.5",
         "--replicates", "3", "--epochs", "2", "--out", str(tmp_path / "s.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    assert all(line.startswith("warning: information matrix is singular")
               for line in lines), done.stderr
    # The full-sample fit runs in a forked child, but its warning comes
    # first, as when it ran before the replicates.
    assert [line[line.rindex("("):] for line in lines] == [
        "(J2, full sample)", "(J2, replicate 1)", "(J2, replicate 2)",
        "(J2, replicate 3)"]
