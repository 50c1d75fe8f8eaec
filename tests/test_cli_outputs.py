import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = sorted(
    f"{model}.{name}"
    for model in ("band", "random")
    for name in ("planted.json", "csv",
                 "J0.model", "J0.train.txt", "J2.model", "J2.train.txt",
                 "J2.evaluate.txt", "J2.evaluate_whole.txt", "J2.preds.csv",
                 "J2.A.svg", "J2.B.svg", "J2.D.svg",
                 "sensitivity.csv", "sensitivity.txt"))


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
    for name in ("band.J0.train.txt", "random.J2.evaluate.txt"):
        assert (tmp_path / name).read_text().startswith("model,")
