"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Tolerances are fixed here, not calibrated elsewhere.
"""

import os
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from choicerbm import cli, oracle
from choicerbm.dataset import SplitSpec, from_arrays, refit_normalization, split
from choicerbm.model import CrbmParams, choice_logits, normalize
from choicerbm.report import hinton_svg
from choicerbm.sensitivity import rank_agreement, sensitivity_run
from choicerbm.stats import bic, log_likelihood, rho_squared
from choicerbm.trainer import TrainConfig, train_crbm
import enumeration
from conftest import miss_rate, random_params
from enumeration import energy

pytestmark = [pytest.mark.filterwarnings("ignore:information matrix"),
              pytest.mark.filterwarnings("ignore:fewer rows")]

FULL_TRAIN_ROWS = 177_662

BAND_CONFIG = dict(batch_size=256, epochs=150, learning_rate=0.05, cd_k=3,
                   seed=0, early_stop_patience=40, weight_init_scale=1.0)


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(200):
        n_alt = int(rng.integers(2, 6))
        n_hid = int(rng.integers(0, 5))
        n_feat = int(rng.integers(0, 4))
        p = random_params(rng, n_alt, n_hid, n_feat, scale=1.5)
        eye = np.eye(n_alt)
        table = np.zeros((n_alt, 2 ** n_hid))
        for m in range(2 ** n_hid):
            h = np.array([(m >> j) & 1 for j in range(n_hid)], dtype=float)
            for i in range(n_alt):
                table[i, m] = np.exp(-energy(p, eye[i], h))
        enumerated = table.sum(axis=1) / table.sum()
        # The joint energy is context-free, so compare at x = 0.
        exact = np.exp(normalize(choice_logits(p, np.zeros(n_feat)))[0])
        np.testing.assert_allclose(exact, enumerated, atol=1e-10)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(f"criterion 1 PASS: 200 models, exact conditional vs enumeration "
           f"within 1e-10, {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    checked = 0
    for _ in range(50):
        n_alt = int(rng.integers(2, 4))
        n_hid = int(rng.integers(0, 3))
        n_feat = int(rng.integers(1, 3))
        p = random_params(rng, n_alt, n_hid, n_feat, scale=0.6)
        ds = from_arrays(rng.normal(0, 1, (5, n_feat)),
                         rng.integers(0, n_alt, 5), n_alternatives=n_alt)
        exact = enumeration.exact_loglik_gradient(p, ds)
        fd = enumeration.finite_difference_gradient(p, ds, step=1e-5)
        for (_, ga), (_, fa) in zip(exact.blocks(), fd.blocks()):
            if ga.size == 0:
                continue
            denom = np.maximum.reduce(
                [np.abs(ga), np.abs(fa), np.full_like(ga, 1e-3)])
            assert (np.abs(ga - fa) / denom).max() < 1e-5
            checked += ga.size
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(f"criterion 2 PASS: {checked} coordinates across 50 models within "
           f"1e-5 of central differences, {elapsed:.1f}s")


def test_criterion_3_mnl_reduction():
    # With no hidden units the model is the MNL, p(i | x) = softmax(c + B x):
    # every epoch's snapshot and score must be the MNL's closed form.
    rng = np.random.default_rng(303)
    ds = from_arrays(rng.normal(0, 1, (600, 3)), rng.integers(0, 4, 600))
    tr, va = refit_normalization(*split(ds, SplitSpec(seed=1)))
    cfg = TrainConfig(batch_size=64, epochs=25, learning_rate=0.02, seed=7)
    snapshots = []
    p, trace = train_crbm(tr, va, 0, cfg,
                          epoch_hook=lambda _epoch, s: snapshots.append(s))
    ll_gap = 0.0
    for snap, nll in zip(snapshots, trace.train_nll, strict=True):
        logits = snap.choice_bias + tr.x @ snap.choice_context_w.T
        mnl_ll = (tr.y * (logits - logsumexp(logits, axis=1,
                                             keepdims=True))).sum()
        ll_gap = max(ll_gap, abs(log_likelihood(snap, tr) - mnl_ll))
        assert nll == pytest.approx(-mnl_ll / tr.n_rows, rel=1e-12)
    assert ll_gap < 1e-9
    assert p.n_hidden == 0
    assert trace.valid_error[trace.best_epoch] == miss_rate(p, va)
    report(f"criterion 3 PASS: zero-hidden training is the MNL at all "
           f"{len(snapshots)} epochs, log-likelihood gap {ll_gap:.2e}")


def test_criterion_4_statistics_reproduction():
    b_mnl = bic(-206_808, 273, FULL_TRAIN_ROWS)
    b_j2 = bic(-203_558, 341, FULL_TRAIN_ROWS)
    r_mnl = rho_squared(-206_808, FULL_TRAIN_ROWS, 13)
    r_j2 = rho_squared(-203_558, FULL_TRAIN_ROWS, 13)
    assert abs(b_mnl - 416_915) <= 2
    assert abs(b_j2 - 411_237) <= 2
    assert abs(r_mnl - 0.546) <= 1e-3
    assert abs(r_j2 - 0.553) <= 1e-3
    report(f"criterion 4 PASS: bic {b_mnl:.1f}/{b_j2:.1f} vs 416915/411237, "
           f"rho2 {r_mnl:.4f}/{r_j2:.4f} vs 0.546/0.553")


def test_criterion_5_planted_model_recovery():
    start = time.monotonic()
    pm = oracle.band_planted_model(n_rows=50_000, seed=11)
    ds = oracle.generate(pm)
    tr, va = refit_normalization(*split(ds, SplitSpec(0.70, seed=5)))
    cfg = TrainConfig(**BAND_CONFIG)

    mnl, _ = train_crbm(tr, va, 0, cfg)
    err_mnl = miss_rate(mnl, va)

    kl_x = np.random.default_rng(123).normal(0, 1, (512, 6))
    kl_trace = []

    def track_kl(_epoch, snapshot):
        raw = enumeration.denormalized_params(snapshot, tr.norm_stats)
        kl_trace.append(enumeration.conditional_kl(pm.params, raw, kl_x))

    crbm, trace = train_crbm(tr, va, 2, cfg, epoch_hook=track_kl)
    err_crbm = miss_rate(crbm, va)
    elapsed = time.monotonic() - start

    assert err_crbm <= err_mnl - 0.02, (err_mnl, err_crbm)
    assert kl_trace[-1] < kl_trace[0]
    assert min(kl_trace) == min(kl_trace[len(kl_trace) // 2:])
    assert elapsed < 300.0
    report(f"criterion 5 PASS: validation error {err_mnl:.4f} (MNL) vs "
           f"{err_crbm:.4f} (J=2), KL {kl_trace[0]:.3f} -> {kl_trace[-1]:.3f}, "
           f"{elapsed:.0f}s")


@pytest.mark.skipif("CHOICERBM_FULL_DATA" not in os.environ,
                    reason="full-scale reproduction needs the real dataset "
                           "(set CHOICERBM_FULL_DATA to its CSV path); "
                           "optional, not gating")
def test_criterion_6_full_scale_reproduction():
    # Hardware-and-data dependent: targets 0.4454 +- 0.01 (MNL) and
    # 0.4360 +- 0.01 (J=2) validation error on the full 253,803-row table.
    from choicerbm.dataset import load_csv
    ds = load_csv(os.environ["CHOICERBM_FULL_DATA"], "choice")
    tr, va = refit_normalization(*split(ds, SplitSpec(0.70, seed=0)))
    cfg = TrainConfig(seed=0)
    mnl, _ = train_crbm(tr, va, 0, cfg)
    crbm, _ = train_crbm(tr, va, 2, cfg)
    err_mnl = miss_rate(mnl, va)
    err_crbm = miss_rate(crbm, va)
    assert abs(err_mnl - 0.4454) <= 0.01
    assert abs(err_crbm - 0.4360) <= 0.01
    report(f"criterion 6 PASS: full-scale errors {err_mnl:.4f}/{err_crbm:.4f}")


def test_criterion_7_sensitivity_sanity(rng):
    cfg = TrainConfig(batch_size=64, epochs=30, learning_rate=0.05, seed=1,
                      early_stop_patience=30)
    base = from_arrays(rng.normal(0, 1, (1200, 3)), rng.integers(0, 3, 1200))
    identical = sensitivity_run(base, 2, cfg, fraction=1.0, replicates=1, seed=4)
    assert np.all(identical.stderr_diff_pct == 0.0)
    assert rank_agreement(identical.full_rank, identical.sub_rank) == 1.0

    k, n_alt = 4, 3
    b_true = rng.normal(0, 0.05, (n_alt, k))
    b_true[:, 0] = np.array([5.0, -5.0, 0.0])
    truth = CrbmParams(
        choice_hidden_w=np.zeros((n_alt, 0)), choice_context_w=b_true,
        hidden_context_w=np.zeros((0, k)), choice_bias=np.zeros(n_alt),
        hidden_bias=np.zeros(0))
    pm = oracle.PlantedModel(
        params=truth,
        context=tuple(oracle.ContextSpec("normal") for _ in range(k)),
        n_rows=6000, seed=21)
    planted_ds = oracle.generate(pm)
    cfg_dom = TrainConfig(batch_size=64, epochs=60, learning_rate=0.05, seed=1,
                          early_stop_patience=60)
    rep = sensitivity_run(planted_ds, 0, cfg_dom, fraction=0.1, replicates=5,
                          seed=2)
    assert rep.full_rank[0] == 1
    assert rep.sub_rank[0] == 1
    report(f"criterion 7 PASS: identical refit gives zero differences and "
           f"Spearman 1.0; dominant feature ranks {rep.full_rank[0]}/"
           f"{rep.sub_rank[0]} (full/subsample)")


def test_criterion_8_hinton_rendering():
    from test_report import GOLDEN, golden_spec, patch_rects
    spec = golden_spec()
    svg_a, svg_b = hinton_svg(**spec), hinton_svg(**spec)
    assert svg_a == svg_b
    assert svg_a == GOLDEN.read_text()
    strokes = np.array([r["stroked"] for r in patch_rects(svg_a)])
    expected = (np.abs(spec["tstats"]) >= 1.96).ravel()
    np.testing.assert_array_equal(strokes, expected)
    report("criterion 8 PASS: golden SVG byte-identical, significance "
           "strokes exactly at |t| >= 1.96")


def test_criterion_9_determinism(tmp_path):
    planted = tmp_path / "band.json"
    data = tmp_path / "band.csv"
    oracle.save_planted(oracle.band_planted_model(), planted)
    assert cli.run(["generate", "--planted", str(planted), "--n", "50000",
                    "--seed", "11", "--out", str(data)]) == 0
    flags = ["--data", str(data), "--split", "0.7", "--epochs", "150",
             "--batch", "256", "--lr", "0.05", "--cd-k", "3", "--seed", "0",
             "--patience", "40", "--init-scale", "1.0"]
    files = []
    for tag in ("a", "b"):
        out = tmp_path / f"model_{tag}"
        assert cli.run(["train", "--hidden", "2", "--out", str(out)] + flags) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    report(f"criterion 9 PASS: two end-to-end runs wrote bit-identical "
           f"model files ({len(files[0])} bytes)")
