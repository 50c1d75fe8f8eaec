"""The traced run: the same session in-process, with spans at module calls.

The benchmark wraps the public functions each module exposes to the
others (for the duration of the traced run only, and without editing the
package), so that `cli.run` follows its ordinary code path while every
call across a module boundary records a span.  A span holds a name, a
start, an end, its parent span, an operation id and counts (rows parsed,
epochs, batches, bytes written).  Spans stay in memory until the run ends.
"""

import contextlib
import functools
import inspect
import io
import math
import os
import statistics
import threading
import time
from unittest import mock

import numpy as np

from choicerbm import (cli, dataset, inference, oracle, report, sensitivity,
                       stats, trainer)
from planted import N_ALTERNATIVES, N_FEATURES, N_HIDDEN, paper_planted_model
from session import Command, session_argv

MODULES = ("cli", "oracle", "dataset", "trainer", "model", "stats",
           "inference", "report", "sensitivity")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None         # operation id given to new spans
        self.command = None    # session step running in-process
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name, start, end, parent, **counts):
        with self._lock:
            rec = {"id": len(self.spans), "name": name, "op": self.op,
                   "command": self.command, "parent": parent, "start": start,
                   "end": end, "counts": counts}
            self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name, **counts):
        stack = self._stack()
        # A worker thread's first span hangs under the span that the main
        # thread has open, which is the call that started the pool.
        owner = stack or self._main_stack
        rec = self.add(name, time.perf_counter(), None,
                       owner[-1] if owner else None, **counts)
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def self_seconds(self, rec) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = sorted((max(c["start"], rec["start"]), min(c["end"], rec["end"]))
                      for c in self.spans if c["parent"] == rec["id"])
        covered, reach = 0.0, rec["start"]
        for start, end in kids:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return (rec["end"] - rec["start"]) - covered


def _wrap(tracer, name, fn, counter=None, epochs=False):
    """`fn` inside a span; `counter(arguments, result)` adds counts.

    With `epochs`, `fn` is a trainer entry point: the wrapper passes an
    epoch hook, which only reads the clock, and records one
    "trainer.epoch" span per gap between hook calls.
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        epoch_ends = []
        if epochs and arguments.get("epoch_hook") is None:
            kwargs["epoch_hook"] = lambda epoch, params: epoch_ends.append(
                time.perf_counter())
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
        if counter:
            rec["counts"].update(counter(arguments, result))
        for start, end in zip([rec["start"]] + epoch_ends[:-1], epoch_ends):
            tracer.add("trainer.epoch", start, end, rec["id"])
        if epoch_ends:
            rows = arguments["ds_train"].n_rows
            batch = arguments["cfg"].batch_size
            rec["counts"].update(
                rows=rows, hidden=arguments["n_hidden"],
                epochs=len(epoch_ends),
                batches=len(epoch_ends) * math.ceil(rows / batch))
        return result
    return traced


def _rows(key):
    return lambda arguments, result: {"rows": arguments[key].n_rows}


def _bytes_written(key):
    return lambda arguments, result: {
        "bytes": os.path.getsize(arguments[key])}


# (module, attribute, span name, counter, records epochs)
_TRACE_POINTS = (
    (oracle, "write_dataset_csv", "oracle.write_dataset_csv",
     _bytes_written("path"), False),
    (oracle, "draw_rows", "oracle.draw_rows", None, False),
    (dataset, "load_csv", "dataset.load_csv",
     lambda arguments, result: {"rows": result.n_rows}, False),
    (dataset, "load_features_csv", "dataset.load_features_csv",
     lambda arguments, result: {"rows": len(result)}, False),
    (dataset, "split", "dataset.split", None, False),
    (dataset, "refit_normalization", "dataset.refit_normalization", None,
     False),
    (trainer, "train_crbm", "trainer.train_crbm", None, True),
    (sensitivity, "train_crbm", "trainer.train_crbm", None, True),
    (sensitivity, "t_statistics", "stats.t_statistics", _rows("ds_train"),
     False),
    (sensitivity, "sensitivity_run", "sensitivity.sensitivity_run",
     _rows("ds"), False),
    (stats, "evaluate", "stats.evaluate", None, False),
    (stats, "log_likelihood", "stats.log_likelihood", None, False),
    (stats, "t_statistics", "stats.t_statistics", _rows("ds_train"), False),
    (inference, "predict_batch", "inference.predict_batch", None, False),
    (cli, "predict_batch", "inference.predict_batch", None, False),
    (cli, "write_predictions_csv", "inference.write_predictions_csv",
     _bytes_written("path"), False),
    (inference, "choice_probs", "model.choice_probs", None, False),
    (report, "save_model", "report.save_model", _bytes_written("path"),
     False),
    (report, "load_model", "report.load_model", None, False),
)


@contextlib.contextmanager
def instrumented(tracer):
    """Install span wrappers on the package's public calls, then restore."""
    saved = [(mod, attr, getattr(mod, attr))
             for mod, attr, *_ in _TRACE_POINTS]
    try:
        for mod, attr, name, counter, hook in _TRACE_POINTS:
            setattr(mod, attr, _wrap(tracer, name, getattr(mod, attr),
                                     counter, hook))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def run_traced_session(tracer, inputs, op) -> dict:
    """Every session step through `cli.run` in this process; returns a
    Command per step, with its exit code and standard output."""
    tracer.op = op
    cmds = {}
    for step, argv in session_argv(inputs).items():
        tracer.command = step
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            with tracer.span("cli.run", step=step):
                code = cli.run(argv)
        cmds[step] = Command(code=code, stdout=out.getvalue())
    tracer.command = None
    return cmds


def probe_cd_step(tracer, inputs, blocks=5, calls=100):
    """Time the public `cd_step` on 64-row batches of the benchmark data."""
    tracer.op, tracer.command = "probe", None
    params, _ = report.load_model(inputs.path("crbm.model"))
    x_raw, idx = oracle.draw_rows(paper_planted_model(inputs.shape.rows,
                                                      inputs.seed))
    ds = dataset.from_arrays(x_raw, idx, n_alternatives=N_ALTERNATIVES)
    cfg = trainer.TrainConfig(seed=inputs.seed)
    rng = np.random.default_rng(inputs.seed)
    n_batches = max(1, ds.n_rows // cfg.batch_size)
    for _ in range(blocks):
        with tracer.span("trainer.cd_step", calls=calls):
            for b in range(calls):
                lo = (b % n_batches) * cfg.batch_size
                trainer.cd_step(params, (ds.x[lo:lo + cfg.batch_size],
                                         ds.y[lo:lo + cfg.batch_size]),
                                cfg, rng)


def probe_one_worker(tracer, inputs):
    """The sensitivity step again in-process, capped at one worker."""
    tracer.op, tracer.command = "probe", "sensitivity"
    with mock.patch.dict(os.environ, {"CHOICERBM_THREADS": "1"}), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(session_argv(inputs)["sensitivity"])
    tracer.command = None
    return code


def layer_metrics(tracer, op, untraced, import_s, workers) -> dict:
    """Per-layer metrics from the spans of ops "setup", `op` and "probe".

    `untraced` maps each step to the Command of an untraced session of the
    same run; it gives CPU per wall and the base of the tracing overhead.
    """
    spans = tracer.spans

    def find(op, command, name):
        return [s for s in spans if s["op"] == op and s["command"] == command
                and s["name"] == name]

    def dur(recs):
        return sum(s["end"] - s["start"] for s in recs)

    def one(command, name):
        recs = find(op, command, name)
        if not recs:
            raise RuntimeError(f"no {name} span in the traced {command} step")
        return recs

    m = {f"cmd.{step}_s": c.wall for step, c in untraced.items()}
    wall = sum(c.wall for c in untraced.values())
    m["cli.import_s"] = import_s
    m["cli.cpu_per_wall"] = sum(c.cpu for c in untraced.values()) / wall
    m["oracle.generate_s"] = dur(find("setup", None,
                                      "oracle.write_dataset_csv"))

    load = one("evaluate", "dataset.load_csv")
    m["dataset.load_csv_s"] = dur(load)
    m["dataset.parse_rows_per_s"] = load[0]["counts"]["rows"] / dur(load)
    m["dataset.load_features_csv_s"] = dur(one("predict",
                                               "dataset.load_features_csv"))
    m["dataset.split_s"] = (dur(one("evaluate", "dataset.split"))
                            + dur(one("evaluate", "dataset.refit_normalization")))
    m["dataset.rows_parsed"] = sum(
        s["counts"]["rows"] for s in spans if s["op"] == op
        and s["name"] in ("dataset.load_csv", "dataset.load_features_csv"))

    fit = one("train", "trainer.train_crbm")[0]
    epochs = [s["end"] - s["start"] for s in spans
              if s["parent"] == fit["id"] and s["name"] == "trainer.epoch"]
    counts = fit["counts"]
    m["trainer.fit_s"] = fit["end"] - fit["start"]
    m["trainer.fit_mnl_s"] = dur(one("train_mnl", "trainer.train_crbm"))
    m["trainer.epoch_s"] = statistics.median(epochs)
    m["trainer.epochs"] = counts["epochs"]
    m["trainer.batches"] = counts["batches"]
    m["trainer.batch_us"] = (m["trainer.epoch_s"] * counts["epochs"]
                             / counts["batches"] * 1e6)
    m["trainer.cd_step_us"] = statistics.median(
        (s["end"] - s["start"]) / s["counts"]["calls"] * 1e6
        for s in spans if s["op"] == "probe" and s["name"] == "trainer.cd_step")
    m["trainer.gradient_share"] = (counts["batches"] * m["trainer.cd_step_us"]
                                   * 1e-6 / m["trainer.fit_s"])

    m["model.choice_probs_s"] = dur(one("predict", "model.choice_probs"))

    m["stats.evaluate_s"] = dur(one("evaluate", "stats.evaluate"))
    tstat = one("evaluate", "stats.t_statistics")
    m["stats.t_statistics_s"] = dur(tstat)
    m["stats.log_likelihood_s"] = dur(one("evaluate", "stats.log_likelihood"))
    # BHHH scores: I*(K+J+1) choice columns plus J*(K+1) hidden columns.
    n_cols = (N_ALTERNATIVES * (N_FEATURES + N_HIDDEN + 1)
              + N_HIDDEN * (N_FEATURES + 1))
    m["stats.score_matrix_mb"] = tstat[0]["counts"]["rows"] * n_cols * 8 / 1e6

    m["inference.predict_batch_s"] = dur(one("predict",
                                             "inference.predict_batch"))
    export = one("predict", "inference.write_predictions_csv")
    m["inference.write_predictions_csv_s"] = dur(export)
    m["inference.export_mb"] = export[0]["counts"]["bytes"] / 1e6

    m["report.save_model_s"] = dur(one("train", "report.save_model"))
    m["report.load_model_s"] = dur(one("evaluate", "report.load_model"))

    runs = one("sensitivity", "sensitivity.sensitivity_run")
    run_ids = {s["id"]: s["counts"]["rows"] for s in runs}
    refits = [s["end"] - s["start"] for s in spans
              if s["parent"] in run_ids and s["name"] == "trainer.train_crbm"
              and s["counts"]["rows"] < run_ids[s["parent"]]]
    m["sensitivity.run_s"] = dur(runs)
    m["sensitivity.replicate_fit_s"] = statistics.median(refits)
    m["sensitivity.workers"] = workers
    one_worker = dur(find("probe", "sensitivity", "sensitivity.sensitivity_run"))
    m["sensitivity.parallel_efficiency"] = one_worker / (dur(runs) * workers)

    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            tracer.self_seconds(s) for s in spans
            if s["op"] in ("setup", op)
            and s["name"].startswith(module + "."))
    traced_wall = dur(s for s in spans
                      if s["op"] == op and s["name"] == "cli.run")
    m["trace.overhead_ratio"] = traced_wall / wall
    return m

