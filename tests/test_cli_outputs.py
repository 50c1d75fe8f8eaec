import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = sorted(
    [f"{model}.{name}"
     for model in ("band", "random")
     for name in ("planted.json", "csv",
                  "J0.model", "J0.train.txt", "J2.model", "J2.train.txt",
                  "J2.evaluate.txt", "J2.evaluate_whole.txt",
                  "fresh.csv", "J2.evaluate_fresh.txt", "J2.preds.csv",
                  "J2.A.svg", "J2.B.svg", "J2.D.svg",
                  "sensitivity.csv", "sensitivity.txt", "sensitivity.err.txt",
                  "sensitivity_stop.csv", "sensitivity_stop.txt",
                  "sensitivity_stop.err.txt")]
    + [f"help.{command}.txt"
       for command in ("train", "evaluate", "predict", "sensitivity",
                       "hinton", "generate")])


def script_module():
    spec = importlib.util.spec_from_file_location(
        "cli_outputs", ROOT / "scripts" / "cli_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checksums_list_every_cli_output(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_outputs.py"),
         str(tmp_path), "--rows", "200", "--epochs", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "SHA256SUMS").read_text().splitlines()
    sums = dict(reversed(line.split("  ")) for line in lines)
    assert list(sums) == EXPECTED
    for name, digest in sums.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    for name in ("band.J0.train.txt", "random.J2.evaluate.txt",
                 "band.J2.evaluate_fresh.txt"):
        assert (tmp_path / name).read_text().startswith("model,")
    for command in ("train", "sensitivity"):
        text = (tmp_path / f"help.{command}.txt").read_text()
        assert text.startswith(f"usage: choicerbm {command} ")
        assert "--weight-decay" in text
    # One positive peak RSS per command, in run order, outside the sums.
    script = script_module()
    commands = [" ".join(argv) for model in ("band", "random")
                for argv, *_ in script.table_commands(model, 1)]
    commands += [f"{command} --help" for command in script.SUBCOMMANDS]
    rss = [line.split("  ", 1)
           for line in (tmp_path / "peak_rss.txt").read_text().splitlines()]
    assert [argv for _, argv in rss] == commands
    assert all(float(mb) > 0 for mb, _ in rss)
