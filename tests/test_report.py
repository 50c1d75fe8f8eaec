import contextlib
import copy
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from choicerbm import cli, oracle, report
from choicerbm.dataset import NormStats
from choicerbm.model import canonical
from choicerbm.report import (HINTON_CELL_PX, ModelFileError, hinton_svg,
                              load_model, save_model)
from choicerbm.trainer import TrainConfig
from conftest import model_record, random_params, zero_blocks

GOLDEN = Path(__file__).parent / "data" / "hinton_3x3.svg"


def golden_spec():
    # positive, negative, zero, significant and insignificant entries
    values = np.array([[0.8, -0.4, 0.0],
                       [-1.6, 0.2, 0.9],
                       [0.05, -0.9, 1.6]])
    tstats = np.array([[2.5, -2.1, 0.0],
                       [-4.0, 1.0, 1.96],
                       [0.3, -1.2, 8.0]])
    return dict(values=values, row_labels=("alt1", "alt2", "alt3"),
                col_labels=("age", "income", "active"), tstats=tstats)


class TestModelFile:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        p = random_params(rng, 4, 3, 5)
        # The last feature is constant: its std is zero, and flagged.
        means, stds = rng.normal(0, 1, 5), np.abs(rng.normal(1, 0.2, 5))
        constant = np.array([False] * 4 + [True])
        stats = NormStats(means=means, stds=np.where(constant, 0.0, stds),
                          constant=constant)
        path_a, path_b = tmp_path / "a.model", tmp_path / "b.model"
        save_model(p, path_a, **model_record(
            p, norm_stats=stats, feature_names=[f"f{i}" for i in range(5)],
            alternative_names=[f"alt{i}" for i in range(4)],
            train_config=TrainConfig(seed=7),
            metrics={"loglik_train": -123.456789012345,
                     "split_fraction": 0.7, "split_seed": 3},
            choice_column="choice"))
        loaded, meta = load_model(path_a)
        for (_, a), (_, b) in zip(p.blocks(), loaded.blocks()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(meta["norm_stats"].means, stats.means)
        assert meta["train_config"] == TrainConfig(seed=7)
        assert meta["choice_column"] == "choice"
        save_model(loaded, path_b, norm_stats=meta["norm_stats"],
                   feature_names=meta["feature_names"],
                   alternative_names=meta["alternative_names"],
                   train_config=meta["train_config"],
                   metrics=meta["metrics"],
                   std_errs=meta["std_errs"], tstats=meta["tstats"],
                   choice_column=meta["choice_column"])
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_mnl_round_trip_with_empty_blocks(self, rng, tmp_path):
        p = random_params(rng, 3, 0, 2)
        path = tmp_path / "m.model"
        save_model(p, path, **model_record(p))
        loaded, _ = load_model(path)
        assert loaded.n_hidden == 0
        assert loaded.choice_hidden_w.shape == (3, 0)
        np.testing.assert_array_equal(loaded.choice_context_w,
                                      p.choice_context_w)

    def test_reference_alternative_round_trip(self, rng, tmp_path):
        raw = random_params(rng, 3, 1, 2)
        save_model(canonical(raw), tmp_path / "m.model", **model_record(raw))
        _, meta = load_model(tmp_path / "m.model")
        assert meta["reference_alternative"] == 1
        # Parameters outside the gauge, as older models' are, save and
        # load without the key.
        save_model(raw, tmp_path / "old.model", **model_record(raw))
        assert "reference_alternative" not in load_model(
            tmp_path / "old.model")[1]

    def test_stat_blocks_round_trip(self, rng, tmp_path):
        p = random_params(rng, 3, 1, 2)
        se = zero_blocks(p)
        se.choice_context_w[...] = np.abs(rng.normal(0, 1, (3, 2)))
        path = tmp_path / "m.model"
        save_model(p, path, **model_record(p, std_errs=se, tstats=se))
        _, meta = load_model(path)
        np.testing.assert_array_equal(meta["std_errs"].choice_context_w,
                                      se.choice_context_w)

    def test_truncated_file_rejected(self, rng, tmp_path):
        p = random_params(rng, 3, 1, 2)
        path = tmp_path / "m.model"
        save_model(p, path, **model_record(p))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ModelFileError, match="truncated|malformed"):
            load_model(path)

    def test_corrupt_dimension_header_rejected(self, rng, tmp_path):
        import json
        p = random_params(rng, 3, 1, 2)
        path = tmp_path / "m.model"
        save_model(p, path, **model_record(p))
        doc = json.loads(path.read_text())
        doc["n_alternatives"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="dimensions"):
            load_model(path)

    def test_version_mismatch_rejected(self, rng, tmp_path):
        import json
        p = random_params(rng, 3, 1, 2)
        path = tmp_path / "m.model"
        save_model(p, path, **model_record(p))
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="version"):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "nope.model"
        path.write_text('{"format": "other"}')
        with pytest.raises(ModelFileError, match="not a"):
            load_model(path)

    def test_directory_target_leaves_no_temp_file(self, rng, tmp_path):
        target = tmp_path / "models"
        target.mkdir()
        p = random_params(rng, 3, 1, 2)
        with pytest.raises(OSError):
            save_model(p, target, **model_record(p))
        assert [p.name for p in tmp_path.iterdir()] == ["models"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("fail", ["write", "replace"])
    def test_failed_overwrite_keeps_old_model(self, rng, tmp_path, monkeypatch,
                                              fail):
        path = tmp_path / "m.model"
        p = random_params(rng, 3, 1, 2)
        save_model(p, path, **model_record(p))
        before = path.read_bytes()

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:10])
                raise OSError(28, "No space left on device")

        def refuse(*args):
            raise OSError(13, "Permission denied")

        if fail == "write":
            monkeypatch.setattr(report, "open",
                                lambda *a, **k: FullDisk(open(*a, **k)),
                                raising=False)
        else:
            monkeypatch.setattr(report.os, "replace", refuse)
        p = random_params(rng, 3, 1, 2)
        with pytest.raises(OSError):
            save_model(p, path, **model_record(p))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.model"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A model file written by `train`, its JSON document and its data."""
    root = tmp_path_factory.mktemp("trained")
    planted = root / "band.json"
    oracle.save_planted(oracle.band_planted_model(n_rows=300, seed=4), planted)
    data, model = root / "d.csv", root / "m.model"
    assert cli.run(["generate", "--planted", str(planted), "--out", str(data)]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["train", "--data", str(data), "--hidden", "1",
                        "--epochs", "2", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert doc["reference_alternative"] == 1
    return doc, data, root


_DROP = object()


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


# Any JSON value, NaN and the infinities included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=5)

MALFORMED = {
    "unknown train_config key": (("train_config", "bogus"), 1),
    "epochs a boolean": (("train_config", "epochs"), True),
    "seed a boolean": (("train_config", "seed"), True),
    "fractional cd_k": (("train_config", "cd_k"), 1.5),
    "batch_size a float": (("train_config", "batch_size"), 64.0),
    "learning_rate a boolean": (("train_config", "learning_rate"), True),
    "train_config empty": (("train_config",), {}),
    "train_config without batch_size": (("train_config", "batch_size"), _DROP),
    "norm_stats without stds": (("norm_stats", "stds"), _DROP),
    "feature_names not a list": (("feature_names",), 5),
    "non-numeric split_fraction": (("metrics", "split_fraction"), "x"),
    "split_fraction without split_seed": (("metrics", "split_seed"), _DROP),
    "infinite split_seed": (("metrics", "split_seed"), float("inf")),
    "fractional split_seed": (("metrics", "split_seed"), 0.5),
    "negative split_seed": (("metrics", "split_seed"), -1),
    "split_fraction past 1": (("metrics", "split_fraction"), 1.5),
    "split_seed a boolean": (("metrics", "split_seed"), True),
    "split_fraction a numeric string": (("metrics", "split_fraction"), "0.7"),
    "2-d choice_bias": (("params", "choice_bias"), [[0.0] * 5] * 2),
    "boolean in params": (("params", "hidden_bias", 0), True),
    "numeric string in std_errs": (("std_errs", "choice_bias", 1), "0.5"),
    "null in tstats": (("tstats", "choice_context_w", 1, 0), None),
    "NaN in tstats": (("tstats", "choice_context_w", 1, 0), float("nan")),
    "infinite std_errs": (("std_errs", "choice_bias", 1), float("inf")),
    "negative std_errs": (("std_errs", "choice_bias", 1), -0.5),
    "boolean in norm_stats stds": (("norm_stats", "stds", 0), True),
    "string in norm_stats constant": (("norm_stats", "constant", 0), "no"),
    "short norm_stats means": (("norm_stats", "means"), [0.0]),
    # `save_model` writes no negative std and flags exactly the zero ones as
    # constant: a flagged nonzero std would leave its feature unscaled, an
    # unflagged zero std would divide by zero, and a negative one would
    # flip its feature's sign.
    "constant flag on a nonzero std": (("norm_stats", "constant", 0), True),
    "zero std without its constant flag": (("norm_stats", "stds", 0), 0.0),
    "negative norm_stats std": (("norm_stats", "stds", 0), -1.0),
    "choice_column not a string": (("choice_column",), ["choice"]),
    "reference_alternative zero": (("reference_alternative",), 0),
    "reference_alternative past the last": (("reference_alternative",), 6),
    "reference_alternative a float": (("reference_alternative",), 1.0),
    "reference_alternative a boolean": (("reference_alternative",), True),
    "reference alternative with a nonzero bias": (
        ("params", "choice_bias", 0), 0.25),
    "without metrics.split_fraction": (("metrics", "split_fraction"), _DROP),
    **{f"without {field}": ((field,), _DROP) for field in (
        "norm_stats", "feature_names", "alternative_names", "train_config",
        "metrics", "std_errs", "tstats", "choice_column")},
}


class TestMalformedModelFile:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_line_model_file_error(self, trained, tmp_path, capsys, case):
        doc, data, _ = trained
        path, value = MALFORMED[case]
        bad = tmp_path / "bad.model"
        bad.write_text(json.dumps(_set(copy.deepcopy(doc), path, value)))
        with pytest.raises(ModelFileError) as caught:
            load_model(bad)
        if value is _DROP:      # the message names the missing field
            assert path[-1] in str(caught.value)
        for argv in (["evaluate", "--data", str(data)],
                     ["predict", "--data", str(data),
                      "--out", str(tmp_path / "p.csv")],
                     ["hinton", "--block", "B",
                      "--out", str(tmp_path / "b.svg")]):
            assert cli.run([argv[0], "--model", str(bad), *argv[1:]]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: "), argv
            if value is _DROP:
                assert path[-1] in err, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.model"]

    def test_retired_train_config_keys_are_dropped(self, trained, tmp_path,
                                                   capsys):
        # Files written while the momentum schedule and the rate decay were
        # settings carry those four keys.
        doc, data, root = trained
        old = copy.deepcopy(doc)
        old["train_config"].update(lr_decay=False, momentum_initial=0.5,
                                   momentum_final=0.9, momentum_switch_epoch=5)
        path = tmp_path / "old.model"
        path.write_text(json.dumps(old))
        assert (load_model(path)[1]["train_config"]
                == load_model(root / "m.model")[1]["train_config"])
        printed = []
        for model in (root / "m.model", path):
            assert cli.run(["evaluate", "--model", str(model),
                            "--data", str(data)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert cli.run(["predict", "--model", str(path), "--data", str(data),
                        "--out", str(tmp_path / "p.csv")]) == 0
        assert cli.run(["hinton", "--model", str(path), "--block", "D",
                        "--out", str(tmp_path / "d.svg")]) == 0

    def test_top_level_list_rejected(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("[1, 2]")
        with pytest.raises(ModelFileError, match="not a"):
            load_model(bad)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_mutated_model_fails_cleanly(self, trained, data):
        # Drop a key or set any JSON value at a random depth of a trained
        # model's document, or replace the whole document.
        doc, csv_path, root = trained
        doc = copy.deepcopy(doc)
        branch = data.draw(st.integers(0, 9))
        if branch == 0:
            doc = data.draw(JSON_VALUES)
        elif branch == 1:
            doc["reference_alternative"] = data.draw(
                st.integers(-1, 7) | JSON_VALUES)
        else:
            parent, node, key = None, doc, None
            while isinstance(node, (dict, list)) and node and (
                    parent is None or data.draw(st.booleans())):
                keys = sorted(node) if isinstance(node, dict) else range(len(node))
                key = data.draw(st.sampled_from(list(keys)))
                parent, node = node, node[key]
            if parent is not None:
                if data.draw(st.booleans()):
                    del parent[key]
                else:
                    parent[key] = data.draw(JSON_VALUES)
        path = root / "mutated.model"
        path.write_text(json.dumps(doc))
        try:
            load_model(path)
        except ModelFileError:
            pass
        for argv in (["evaluate", "--data", str(csv_path)],
                     ["predict", "--data", str(csv_path),
                      "--out", str(root / "p.csv")],
                     ["hinton", "--block", "B", "--out", str(root / "b.svg")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.run([argv[0], "--model", str(path), *argv[1:]])
            assert rc in (0, 1, 2)
            assert err.getvalue().count("\n") <= 1, err.getvalue()


def patch_rects(svg: str):
    """All value patches: (x, y, w, h, fill, stroked) skipping the backdrop."""
    rects = re.findall(r"<rect ([^/]*)/>", svg)
    out = []
    for attrs in rects[1:]:
        get = lambda key: re.search(rf'{key}="([^"]*)"', attrs)
        out.append({
            "w": float(get("width").group(1)),
            "h": float(get("height").group(1)),
            "fill": get("fill").group(1),
            "stroked": 'stroke="#0050ff"' in attrs,
        })
    return out


class TestHintonSvg:
    def test_byte_deterministic(self):
        assert hinton_svg(**golden_spec()) == hinton_svg(**golden_spec())

    def test_matches_golden_file(self):
        assert hinton_svg(**golden_spec()) == GOLDEN.read_text()

    def test_blue_stroke_exactly_at_threshold(self):
        spec = golden_spec()
        svg = hinton_svg(**spec)
        rects = patch_rects(svg)
        expected = (np.abs(spec["tstats"]) >= 1.96).ravel()
        got = np.array([r["stroked"] for r in rects])
        np.testing.assert_array_equal(got, expected)

    def test_fill_matches_sign(self):
        spec = golden_spec()
        rects = patch_rects(hinton_svg(**spec))
        for value, rect in zip(spec["values"].ravel(), rects):
            if value > 0:
                assert rect["fill"] == "#ffffff"
            elif value < 0:
                assert rect["fill"] == "#000000"
            else:
                assert rect["w"] == 0.0

    def test_area_scaling(self):
        spec = golden_spec()
        rects = patch_rects(hinton_svg(**spec))
        values = np.abs(spec["values"]).ravel()
        vmax = values.max()
        sides = np.array([r["w"] for r in rects])
        # max entry fills the cell; area is monotone in magnitude
        assert sides[values.argmax()] == pytest.approx(HINTON_CELL_PX, abs=0.01)
        order = np.argsort(values)
        assert np.all(np.diff(sides[order]) >= -0.011)
        expected = HINTON_CELL_PX * np.sqrt(values / vmax)
        np.testing.assert_allclose(sides, expected, atol=0.01)

    def test_all_zero_matrix_is_legal(self):
        svg = hinton_svg(np.zeros((2, 2)), ("a", "b"), ("c", "d"),
                         np.zeros((2, 2)))
        assert all(r["w"] == 0.0 for r in patch_rects(svg))

    def test_labels_present_and_escaped(self):
        svg = hinton_svg(np.array([[1.0]]), ("a<b",), ("x&y",),
                         np.array([[0.0]]))
        assert "a&lt;b" in svg and "x&amp;y" in svg

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            hinton_svg(np.zeros((2, 2)), ("a",), ("c", "d"), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            hinton_svg(np.zeros((2, 2)), ("a", "b"), ("c", "d"),
                       np.zeros((2, 3)))
