import subprocess
import sys
from pathlib import Path

import numpy as np

from choicerbm.model import ParamBlocks
from choicerbm.report import save_model
from conftest import model_record, random_params

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "model_diff.py"


def run(*dirs):
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, dirs)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_names_only_the_keys_that_differ(rng, tmp_path):
    # Two model files that differ in one t value, and one equal pair.
    p = random_params(rng, 3, 1, 2)
    tstats = [np.arange(arr.size, dtype=float).reshape(arr.shape) + 1.0
              for _, arr in p.blocks()]
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        save_model(p, d / "same.model", **model_record(p))
    save_model(p, old / "m.model", **model_record(p, tstats=ParamBlocks(
        *tstats)))
    tstats[3][1] *= 1 + 2.0 ** -40
    save_model(p, new / "m.model", **model_record(p, tstats=ParamBlocks(
        *tstats)))
    assert run(old, new) == [
        "m.model", f"  tstats: largest relative difference {2.0 ** -40:.3g}"]
    assert run(old, old) == []


def test_names_the_keys_that_do_not_pair_number_by_number(rng, tmp_path):
    p = random_params(rng, 3, 1, 2)
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    save_model(p, old / "m.model", **model_record(p))
    save_model(p, new / "m.model", **model_record(
        p, feature_names=("f1", "g2")))
    save_model(p, new / "extra.model", **model_record(p))
    assert run(old, new) == [f"extra.model: only in {new}", "m.model",
                             "  feature_names: differs"]
