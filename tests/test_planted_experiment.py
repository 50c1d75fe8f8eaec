"""A smoke run of `scripts/run_planted_experiment.py` at desk scale."""

import os
import subprocess
import sys
from pathlib import Path

from choicerbm.report import load_model

ROOT = Path(__file__).resolve().parents[1]


def test_experiment_saves_models_in_the_reference_gauge(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_planted_experiment.py"),
         "--rows", "1500", "--hidden", "0,2", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.svg"))) == 3
    models = sorted(tmp_path.glob("*.model"))
    assert [m.name for m in models] == ["crbm-j2.model", "mnl.model"]
    for path in models:
        params, meta = load_model(path)
        assert meta["reference_alternative"] == 1
        assert params.choice_bias[0] == 0.0
        assert not params.choice_context_w[0].any()
        assert not params.choice_hidden_w[0].any()
