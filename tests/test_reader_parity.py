"""The CSV readers against a frozen copy of the plain Python reader.

`load_csv` and `load_features_csv` parse well-formed numeric files with
numpy's C reader and hand every other file to a per-cell Python loop.  The
reference below is that Python reader as it stood before the C path was
added: it alone defined which files are accepted and what each error says.
The package readers must return bit-identical arrays, or raise the same
exception type with the same message, on any file.  The one later rule
in the reference is the bound on the inferred alternative count.
"""

import contextlib
import csv
import io
import math
import operator
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from choicerbm import cli, dataset, oracle
from choicerbm.dataset import (ChoiceDataset, ChoiceDomainError, NormStats,
                               RowParseError, SchemaError, load_csv,
                               load_features_csv)


def _cells(positions):
    if len(positions) == 1:
        return lambda row: (row[positions[0]],)
    return operator.itemgetter(*positions) if positions else lambda row: ()


def _row_error(ridx, row, n_cells, choice_pos, feature_columns, feat_pos):
    if len(row) != n_cells:
        return RowParseError(f"row {ridx}: expected {n_cells} cells, got {len(row)}")
    try:
        if choice_pos is not None:
            int(row[choice_pos])
    except ValueError:
        return RowParseError(
            f"row {ridx}: choice cell {row[choice_pos]!r} is not an integer")
    for col, pos in zip(feature_columns, feat_pos):
        try:
            v = float(row[pos])
        except ValueError:
            return RowParseError(
                f"row {ridx}: cell {row[pos]!r} in column {col!r} is not numeric")
        if not math.isfinite(v):
            return RowParseError(
                f"row {ridx}: missing or non-finite value in column {col!r}")


def reference_load_csv(path, choice_column, feature_columns=None,
                       n_alternatives=None, norm_stats=None):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header row") from None
        header = [h.strip() for h in header]
        if choice_column not in header:
            raise SchemaError(f"missing choice column {choice_column!r}")
        if feature_columns is None:
            feature_columns = [h for h in header if h != choice_column]
        for col in feature_columns:
            if col not in header:
                raise SchemaError(f"missing feature column {col!r}")
        if not feature_columns:
            raise SchemaError("no feature columns")
        choice_pos = header.index(choice_column)
        feat_pos = [header.index(c) for c in feature_columns]

        features = _cells(feat_pos)
        values, choices = [], []
        for ridx, row in enumerate(reader, start=1):
            try:
                c = int(row[choice_pos])
                vals = list(map(float, features(row)))
                ok = len(row) == len(header) and all(map(math.isfinite, vals))
            except (ValueError, IndexError):
                ok = False
            if not ok:
                raise _row_error(ridx, row, len(header), choice_pos,
                                 feature_columns, feat_pos)
            values += vals
            choices.append(c)

    if not choices:
        raise SchemaError(f"{path}: no data rows")
    choices = np.asarray(choices, dtype=np.int64)
    if n_alternatives is None:
        n_alternatives = int(choices.max())
        # Added with the bound on the inferred alternative count, which
        # both readers apply after parsing.
        if n_alternatives > len(choices):
            raise ChoiceDomainError(
                f"choice value {n_alternatives} is more than the "
                f"{len(choices)} data rows; the alternative count is "
                "inferred from the largest choice")
    if choices.min() < 1 or choices.max() > n_alternatives:
        bad = choices.min() if choices.min() < 1 else choices.max()
        raise ChoiceDomainError(
            f"choice value {bad} outside 1..{n_alternatives}")
    x_raw = np.asarray(values, dtype=np.float64).reshape(len(choices), -1)
    stats = norm_stats if norm_stats is not None else NormStats.fit(x_raw)
    return ChoiceDataset(
        x=stats.apply(x_raw), choices=choices - 1,
        feature_names=tuple(feature_columns),
        alternative_names=tuple(f"alt{i + 1}" for i in range(n_alternatives)),
        norm_stats=stats)


def reference_load_features_csv(path, feature_names, norm_stats):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header row") from None
        for col in feature_names:
            if col not in header:
                raise SchemaError(f"missing feature column {col!r}")
        feat_pos = [header.index(c) for c in feature_names]
        features = _cells(feat_pos)
        values, ridx = [], 0
        for ridx, row in enumerate(reader, start=1):
            try:
                vals = list(map(float, features(row)))
                ok = len(row) == len(header) and all(map(math.isfinite, vals))
            except (ValueError, IndexError):
                ok = False
            if not ok:
                raise _row_error(ridx, row, len(header), None, feature_names,
                                 feat_pos)
            values += vals
    if not ridx:
        raise SchemaError(f"{path}: no data rows")
    x_raw = np.asarray(values, dtype=np.float64).reshape(ridx, len(feature_names))
    return norm_stats.apply(x_raw)


def identity_stats(k):
    return NormStats(means=np.zeros(k), stds=np.ones(k),
                     constant=np.zeros(k, dtype=bool))


def outcome(fn, *args):
    """(warnings, "ok", names, arrays as bytes) or (warnings, "error",
    exception type, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except (OSError, ValueError, csv.Error) as exc:
            result = exc
    warned = [(w.category, str(w.message)) for w in caught]
    if isinstance(result, Exception):
        return warned, "error", type(result), str(result)
    if isinstance(result, ChoiceDataset):
        arrays = (result.x, result.y, result.norm_stats.means,
                  result.norm_stats.stds, result.norm_stats.constant)
        names = (result.feature_names, result.alternative_names)
    else:
        arrays, names = (result,), ()
    return (warned, "ok", names,
            [(a.shape, a.dtype, a.tobytes()) for a in arrays])


COLUMNS = ("choice", "a", "b", "c")
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.4g}"),
    st.integers(-3, 20).map(str))
CHOICES = st.integers(1, 4).map(str)
ODD_CELLS = st.sampled_from(
    ["3.0", "1_0", "٣", " 2 ", '"1.5"', '"2"', "", "nan", "inf", "-inf",
     "#1", "1e999", "-0", "+2", "x"])


@st.composite
def csv_files(draw):
    """(file bytes, header, requested features or None) of a CSV file with
    mostly well-formed rows and the odd cell, row or line ending."""
    header = draw(st.permutations(COLUMNS[:draw(st.integers(2, 4))]))
    choice_pos = header.index("choice")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(CHOICES if pos == choice_pos else NUMBERS)
               for pos in range(len(header))]
        if draw(st.integers(0, 5)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
        if draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + [draw(NUMBERS)]
        lines.append(",".join(row))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    bom = b"\xef\xbb\xbf" if draw(st.integers(0, 4)) == 0 else b""
    others = [c for c in header if c != "choice"]
    features = draw(st.one_of(
        st.none(), st.permutations(others).flatmap(
            lambda cols: st.integers(0, len(cols)).map(lambda n: cols[:n]))))
    return bom + text.encode(), header, features


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(csv_files())
def test_readers_match_reference(workdir, case):
    raw, header, features = case
    path = workdir / "d.csv"
    path.write_bytes(raw)
    assert (outcome(load_csv, path, "choice", features)
            == outcome(reference_load_csv, path, "choice", features))
    names = features if features is not None else [
        c for c in header if c != "choice"]
    stats = identity_stats(len(names))
    assert (outcome(load_features_csv, path, names, stats)
            == outcome(reference_load_features_csv, path, names, stats))


@pytest.fixture(scope="module")
def model_file(workdir):
    """A J = 1 model on features a and b."""
    data = workdir / "train.csv"
    data.write_text("choice,a,b\n" + "".join(
        f"{1 + i % 3},{i * 0.37 % 1:.3f},{(i * 7) % 5}\n" for i in range(30)))
    model = workdir / "m.model"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["train", "--data", str(data), "--hidden", "1",
                        "--epochs", "2", "--out", str(model)]) == 0
    return model


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(csv_files())
def test_cli_fails_cleanly_on_any_file(workdir, model_file, case):
    raw, _, features = case
    path = workdir / "cli.csv"
    path.write_bytes(raw)
    feats = ["--features", ",".join(features)] if features else []
    for argv in (["train", "--data", str(path), "--hidden", "1", "--epochs",
                  "1", *feats, "--out", str(workdir / "cli.model")],
                 ["evaluate", "--model", str(model_file), "--data", str(path)],
                 ["predict", "--model", str(model_file), "--data", str(path),
                  "--out", str(workdir / "p.csv")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.run(argv)
        assert rc in (0, 1, 2)
        assert err.getvalue().count("\n") <= 1, err.getvalue()


@pytest.fixture(scope="module")
def generated(workdir):
    path = workdir / "band.csv"
    oracle.write_dataset_csv(oracle.band_planted_model(n_rows=300, seed=5), path)
    return path


@pytest.mark.parametrize("variant", ["plain", "bom", "crlf", "no_final_newline",
                                     "choice_last"])
def test_numeric_files_take_the_c_path(generated, tmp_path, monkeypatch, variant):
    lines = generated.read_text().splitlines()
    if variant == "choice_last":
        lines = [",".join(line.split(",")[1:] + line.split(",")[:1])
                 for line in lines]
    text = ("\r\n" if variant == "crlf" else "\n").join(lines)
    if variant != "no_final_newline":
        text += "\r\n" if variant == "crlf" else "\n"
    path = tmp_path / "d.csv"
    path.write_bytes((b"\xef\xbb\xbf" if variant == "bom" else b"")
                     + text.encode())
    expected = outcome(reference_load_csv, path, "choice", ["f3", "f1"])
    expected_x = outcome(reference_load_features_csv, path, ["f2", "f5"],
                         identity_stats(2))

    def slow_path(*args):
        raise AssertionError("a well-formed numeric file reached the Python reader")

    assert expected[1] == "ok"
    monkeypatch.setattr(dataset, "_exact_rows", slow_path)
    assert outcome(load_csv, path, "choice", ["f3", "f1"]) == expected
    assert outcome(load_features_csv, path, ["f2", "f5"],
                   identity_stats(2)) == expected_x
    assert load_csv(path, "choice").n_rows == 300


@pytest.mark.parametrize("body", [
    '1,"0.5",1.0\n',        # a quote anywhere
    "1,0.5,1.0\r2,1.0,0.0\n",  # a lone carriage return
    "1,0.5,1.0\n\n",        # a blank line
    "1,0.5,1.0\n1,nan,1.0\n",  # a non-finite feature
    "3.0,0.5,1.0\n",        # a float in the choice column
])
def test_other_files_take_the_exact_path(tmp_path, monkeypatch, body):
    path = tmp_path / "d.csv"
    path.write_text("choice,a,b\n" + body)
    calls = []
    exact = dataset._exact_rows
    monkeypatch.setattr(dataset, "_exact_rows",
                        lambda *args: calls.append(1) or exact(*args))
    assert (outcome(load_csv, path, "choice")
            == outcome(reference_load_csv, path, "choice"))
    assert calls == [1]


@pytest.mark.parametrize("body", [
    "",                     # header only
    "\n",                   # one blank line
    "\r\n",                 # one blank CRLF line
    "0" * 4400 + "1,0.5,1.0\n2,1.0,0.0\n",   # over Python's int digit limit
    "1,0.5," + "0" * 140_000 + "1\n2,1.0,0.0\n",   # over csv's field limit
])
def test_edge_files_fail_as_before(tmp_path, body):
    path = tmp_path / "d.csv"
    path.write_text("choice,a,b\n" + body)
    stats = identity_stats(2)
    assert (outcome(load_csv, path, "choice")
            == outcome(reference_load_csv, path, "choice"))
    assert (outcome(load_features_csv, path, ["a", "b"], stats)
            == outcome(reference_load_features_csv, path, ["a", "b"], stats))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_is_read_once(generated, tmp_path):
    # A pipe cannot be read a second time: it must go to the exact path
    # whole, neither hang nor lose the rows the header read buffered.
    expected = outcome(reference_load_csv, generated, "choice")
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    got = []
    threads = [threading.Thread(target=fifo.write_bytes,
                                args=(generated.read_bytes(),), daemon=True),
               threading.Thread(target=lambda: got.append(
                   outcome(load_csv, fifo, "choice")), daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in threads), "reading a pipe hung"
    assert got == [expected]
