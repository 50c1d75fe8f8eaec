#!/usr/bin/env python3
"""Benchmark of the choicerbm command line on paper-shape synthetic data.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 38 --trace 0

A closed loop with one client runs the five-command session of
`session.py` (train J=2, train J=0, evaluate, predict, sensitivity) again
and again for `--seconds`, each command a fresh process started after
the previous one exits, and checks every output.  `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, as medians over the sessions;
`--trace 1` runs one untraced session, then traced in-process sessions
(see `traced.py`), and reports the per-layer metrics.  `--smoke` runs the
same code at a tiny shape.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Raw numbers, spans and the
environment go to .bench_out/ in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 5   # set-ups per untraced run, at least
MIN_SESSIONS = 2   # the byte-identity check compares two sessions


def _environment(root: Path, threads: str) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "default") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "CHOICERBM_THREADS": threads,
        "commit": _commit(root),
    }


def _commit(root: Path) -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _untraced_run(session, inputs, env, seconds):
    """A closed loop of untraced sessions, each after a set-up.

    Spreading the set-ups over the run, instead of doing them back to
    back, makes their median see the same machine as the sessions.
    """
    setups = [session.set_up(inputs)]
    inputs.majority_error = session.majority_error(inputs)
    session.import_seconds(env, inputs.workdir, repeats=1)   # warm-up
    per_op, failures, reference = [], [], None
    t0 = time.perf_counter()
    while len(per_op) < MIN_SESSIONS or _time_for_another(
            t0, [m["session_s"] for m in per_op], seconds):
        if per_op:
            setups.append(session.set_up(inputs))
        cmds = session.run_session(inputs, env)
        problems, valid_error = session.check_session(inputs, cmds,
                                                      reference)
        if reference is None and not problems:
            reference = (inputs.workdir / "crbm.model").read_bytes()
        per_op.append(session.session_metrics(cmds, valid_error))
        failures.append(problems)
        print(f"session {len(per_op)}: " + " ".join(
            f"{k}={v:.4g}" for k, v in per_op[-1].items())
            + (f" FAILED {problems}" if problems else ""), flush=True)
    while len(setups) < SETUP_REPEATS:
        setups.append(session.set_up(inputs))
    good = [m for m, f in zip(per_op, failures) if not f] or per_op
    metrics = session.median_metrics(good)
    metrics["setup_s"] = statistics.median(setups)
    return metrics, failures, {"setup_s": setups, "sessions": per_op}


def _time_for_another(t0, durations, seconds) -> bool:
    """Whether a session as long as the median so far ends within
    `seconds` of t0, so that a run does not overshoot its length."""
    expected = statistics.median(durations) if durations else 0.0
    return time.perf_counter() - t0 + expected <= seconds


def _traced_run(session, traced, inputs, env, seconds):
    """One untraced session, then traced in-process sessions until
    `seconds` have passed in all.  Per-layer metrics are medians over the
    traced sessions.
    """
    tracer = traced.Tracer()
    failures, ops = [], []
    with traced.instrumented(tracer):
        tracer.op = "setup"
        session.set_up(inputs)
        tracer.op = None
        inputs.majority_error = session.majority_error(inputs)
        t0 = time.perf_counter()
        untraced = session.run_session(inputs, env)
        durations = [time.perf_counter() - t0]
        failures.append(session.check_session(inputs, untraced, None)[0])
        if failures[0]:
            return {}, failures, tracer.spans
        reference = (inputs.workdir / "crbm.model").read_bytes()
        while not ops or _time_for_another(t0, durations, seconds):
            start = time.perf_counter()
            ops.append(f"traced{len(ops) + 1}")
            cmds = traced.run_traced_session(tracer, inputs, ops[-1])
            durations.append(time.perf_counter() - start)
            failures.append(session.check_session(inputs, cmds,
                                                  reference)[0])
        if any(failures):
            return {}, failures, tracer.spans
        traced.probe_cd_step(tracer, inputs)
        if traced.probe_one_worker(tracer, inputs) != 0:
            failures.append(["one-worker sensitivity probe failed"])
            return {}, failures, tracer.spans
    import_s = session.import_seconds(env, inputs.workdir)
    workers = min(int(env["CHOICERBM_THREADS"]),
                  inputs.shape.sens_replicates)
    per_op = [traced.layer_metrics(tracer, op, untraced, import_s, workers)
              for op in ops]
    return session.median_metrics(per_op), failures, tracer.spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shape, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "choicerbm" / "cli.py").is_file() or not spec_path.is_file():
        sys.stderr.write("error: run from the root of a choicerbm checkout "
                         "(src/choicerbm/cli.py and BENCHMARK.json)\n")
        return 2
    sys.path.insert(0, str(src))
    import choicerbm
    if Path(choicerbm.__file__).resolve().parent != src / "choicerbm":
        sys.stderr.write(f"error: choicerbm imported from "
                         f"{choicerbm.__file__}, not from {src}\n")
        return 2
    import session
    import traced

    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    shape = session.SMOKE_SHAPE if args.smoke else \
        session.WORKLOADS[args.workload]

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(src), CHOICERBM_THREADS=threads)
    os.environ["CHOICERBM_THREADS"] = threads   # for the in-process run
    environment = _environment(root, threads)
    print("environment: " + json.dumps(environment), flush=True)

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    inputs = session.Inputs(workdir=workdir, shape=shape, seed=args.seed)
    try:
        if args.trace:
            metrics, failures, spans = _traced_run(session, traced, inputs,
                                                   env, args.seconds)
            raw = {"spans": spans}
        else:
            metrics, failures, raw = _untraced_run(session, inputs, env,
                                                   args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = not any(failures) and not missing
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{tag}.json").write_text(json.dumps(
        {"environment": environment, "shape": vars(shape),
         "failures": failures, "metrics": metrics, **raw}, indent=1))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units.get(name, '')}")
    for problem in [p for problems in failures for p in problems]:
        print(f"FAILED: {problem}")
    if missing:
        print(f"FAILED: metrics not measured: {missing}")
    n_failed = sum(bool(f) for f in failures)
    print(f"{args.workload}: {len(failures)} operations attempted, "
          f"{n_failed} failed")
    print(json.dumps({
        "correct": correct,
        "attempted": len(failures),
        "failed": n_failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
