"""The benchmark's traced run hooks into the package by name.

`perfbench/traced.py` wraps module attributes and reads call arguments by
parameter name.  A refactor that renames one of them breaks only the
benchmark's own (slow) suite, so these checks keep the names in view.
"""

import contextlib
import inspect
import io
import re
import sys
from pathlib import Path

import pytest

from choicerbm import cli, inference, oracle, report, sensitivity, stats, trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Parameters the trace counters and the epoch hook read by name.
READ_BY_NAME = [
    (oracle.write_dataset_csv, "path"),
    (inference.write_predictions_csv, "path"),
    (report.save_model, "path"),
    (stats.t_statistics, "ds_train"),
    (sensitivity.sensitivity_run, "ds"),
    (trainer.train_crbm, "ds_train"),
    (trainer.train_crbm, "n_hidden"),
    (trainer.train_crbm, "cfg"),
    (trainer.train_crbm, "epoch_hook"),
]


@pytest.fixture(scope="module")
def traced():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import traced as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_trace_point_resolves(traced):
    for mod, attr, name, _, _ in traced._TRACE_POINTS:
        assert callable(getattr(mod, attr, None)), (mod.__name__, attr, name)


@pytest.mark.parametrize("fn,param", READ_BY_NAME,
                         ids=[f"{fn.__name__}-{param}" for fn, param in READ_BY_NAME])
def test_traced_parameters_keep_their_names(fn, param):
    assert param in inspect.signature(fn).parameters


def test_cli_session_records_every_span(traced, tmp_path):
    planted = tmp_path / "band.json"
    oracle.save_planted(oracle.band_planted_model(n_rows=600, seed=2), planted)
    data, model = str(tmp_path / "d.csv"), str(tmp_path / "m.model")
    fit = ["--data", data, "--epochs", "2", "--patience", "2"]
    # Named as the benchmark's session names its steps.
    steps = {
        "generate": ["generate", "--planted", str(planted), "--out", data],
        "train": ["train", "--hidden", "2", *fit, "--out", model],
        "train_mnl": ["train", "--hidden", "0", *fit,
                      "--out", str(tmp_path / "mnl.model")],
        "evaluate": ["evaluate", "--model", model, "--data", data],
        "predict": ["predict", "--model", model, "--data", data,
                    "--out", str(tmp_path / "p.csv")],
        "sensitivity": ["sensitivity", *fit, "--hidden", "0", "--fraction",
                        "0.5", "--replicates", "2",
                        "--out", str(tmp_path / "s.csv")],
    }
    tracer = traced.Tracer()
    with traced.instrumented(tracer), contextlib.redirect_stdout(io.StringIO()):
        for step, argv in steps.items():
            tracer.command = step
            assert cli.run(argv) == 0, argv
    recorded = {s["name"] for s in tracer.spans}
    wanted = {name for _, _, name, _, _ in traced._TRACE_POINTS}
    assert wanted - recorded == set()
    assert "trainer.epoch" in recorded
    # Every (step, span) pair that the per-layer metrics require, read from
    # their `one(step, span)` lookups, is recorded in that step.
    lookups = set(re.findall(r'\bone\("(\w+)",\s*"([\w.]+)"\)',
                             inspect.getsource(traced.layer_metrics)))
    assert {("evaluate", "stats.log_likelihood"),
            ("evaluate", "stats.t_statistics"),
            ("predict", "model.choice_probs"),
            ("train", "report.save_model")} <= lookups
    pairs = {(s["command"], s["name"]) for s in tracer.spans}
    assert lookups - pairs == set()
    # `sensitivity.replicate_fit_s` reads the fits under each run's span
    # that have fewer rows than the run: the full fit comes first, then one
    # stacked fit of all replicates, timed by its epochs.
    (run,) = [s for s in tracer.spans
              if s["name"] == "sensitivity.sensitivity_run"]
    fits = [s for s in tracer.spans if s["name"] == "trainer.train_crbm"
            and s["start"] >= run["start"] and s["end"] <= run["end"]]
    assert len(fits) == 2
    assert all(s["parent"] == run["id"] for s in fits)
    assert fits[0]["counts"]["rows"] == run["counts"]["rows"]
    refit = fits[1]
    assert refit["counts"]["rows"] < run["counts"]["rows"]
    assert any(s["parent"] == refit["id"] and s["name"] == "trainer.epoch"
               for s in tracer.spans)
