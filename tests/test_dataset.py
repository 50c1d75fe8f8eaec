import csv
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choicerbm
from choicerbm import oracle
from choicerbm.dataset import (ChoiceDataset, ChoiceDomainError, NormStats,
                               RowParseError, SchemaError, SplitSpec,
                               from_arrays, load_csv, load_features_csv,
                               one_hot, refit_normalization, split)


SRC = Path(choicerbm.__file__).parent


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


class TestLoadCsv:
    def test_one_hot_construction(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["choice", "a"],
                         [[1, 0.1], [2, 0.5], [1, 0.9]])
        ds = load_csv(path, "choice")
        np.testing.assert_array_equal(ds.y, [[1, 0], [0, 1], [1, 0]])

    def test_constant_column_flagged(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["choice", "a", "b"],
                         [[1, 5.0, 1.0], [2, 5.0, 2.0], [1, 5.0, 3.0]])
        with pytest.warns(UserWarning, match="constant"):
            ds = load_csv(path, "choice")
        np.testing.assert_array_equal(ds.x[:, 0], 0.0)
        assert ds.norm_stats.constant[0]
        assert not ds.norm_stats.constant[1]

    def test_twenty_features_thirteen_alternatives(self, tmp_path, rng):
        names = [f"var{k:02d}" for k in range(20)]
        rows = []
        for i in range(40):
            rows.append([i % 13 + 1] + list(rng.normal(0, 1, 20).round(6)))
        path = write_csv(tmp_path / "d.csv", ["choice"] + names, rows)
        ds = load_csv(path, "choice")
        assert ds.n_features == 20
        assert ds.n_alternatives == 13
        assert ds.feature_names == tuple(names)

    def test_z_scoring(self, tmp_path, rng):
        rows = [[1 + i % 2, v] for i, v in enumerate(rng.normal(3, 7, 50))]
        ds = load_csv(write_csv(tmp_path / "d.csv", ["choice", "a"], rows), "choice")
        assert abs(ds.x[:, 0].mean()) < 1e-9
        assert abs(ds.x[:, 0].std() - 1.0) < 1e-6

    def test_missing_column_schema_error(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["choice", "a"], [[1, 0.0], [2, 1.0]])
        with pytest.raises(SchemaError, match="nosuch"):
            load_csv(path, "nosuch")
        with pytest.raises(SchemaError, match="b"):
            load_csv(path, "choice", ["b"])

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["choice", "a"],
                         [[1, 0.0], [2, "oops"], [1, 1.0]])
        with pytest.raises(RowParseError, match="row 2"):
            load_csv(path, "choice")

    def test_missing_value_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["choice", "a"],
                         [[1, 0.0], [2, ""], [1, 1.0]])
        with pytest.raises(RowParseError, match="row 2"):
            load_csv(path, "choice")
        path2 = write_csv(tmp_path / "e.csv", ["choice", "a"],
                          [[1, 0.0], [2, "nan"]])
        with pytest.raises(RowParseError, match="row 2"):
            load_csv(path2, "choice")

    def test_choice_domain_error(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["choice", "a"],
                         [[0, 0.0], [2, 1.0]])
        with pytest.raises(ChoiceDomainError):
            load_csv(path, "choice")
        path2 = write_csv(tmp_path / "e.csv", ["choice", "a"],
                          [[1, 0.0], [5, 1.0]])
        with pytest.raises(ChoiceDomainError):
            load_csv(path2, "choice", n_alternatives=3)

    def test_external_norm_stats_applied(self, tmp_path):
        stats = NormStats(means=np.array([10.0]), stds=np.array([2.0]),
                          constant=np.array([False]))
        path = write_csv(tmp_path / "d.csv", ["choice", "a"],
                         [[1, 12.0], [2, 8.0]])
        ds = load_csv(path, "choice", norm_stats=stats)
        np.testing.assert_allclose(ds.x[:, 0], [1.0, -1.0])


def reference_rows(path, columns):
    """Raw cells of `columns` parsed one cell at a time, the plain way."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        pos = [header.index(c) for c in columns]
        rows = [[float(row[p]) for p in pos] for row in reader]
    assert all(np.isfinite(v) for row in rows for v in row)
    return np.asarray(rows, dtype=np.float64)


class TestParser:
    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("gen") / "band.csv"
        oracle.write_dataset_csv(oracle.band_planted_model(n_rows=400, seed=3),
                                 path)
        return path

    def test_matches_plain_reader(self, generated):
        ds = load_csv(generated, "choice")
        names = list(ds.feature_names)
        raw = reference_rows(generated, names)
        choices = reference_rows(generated, ["choice"])[:, 0].astype(np.int64)
        stats = NormStats.fit(raw)
        assert np.array_equal(ds.x, stats.apply(raw))
        assert np.array_equal(ds.y, one_hot(choices - 1, ds.n_alternatives))
        reversed_stats = NormStats.fit(raw[:, ::-1])
        x = load_features_csv(generated, names[::-1], reversed_stats)
        assert np.array_equal(x, reversed_stats.apply(raw[:, ::-1]))

    def test_byte_order_mark_ignored(self, generated, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + generated.read_bytes())
        plain, marked = load_csv(generated, "choice"), load_csv(bom, "choice")
        assert np.array_equal(plain.x, marked.x)
        assert np.array_equal(plain.y, marked.y)
        names = list(plain.feature_names)
        assert np.array_equal(
            load_features_csv(generated, names, plain.norm_stats),
            load_features_csv(bom, names, plain.norm_stats))

    @pytest.mark.parametrize("bad_row, message", [
        ("2,nan,oops", "row 2: missing or non-finite value in column 'a'"),
        ("2,oops,nan", "row 2: cell 'oops' in column 'a' is not numeric"),
        ("2,1.0,inf", "row 2: missing or non-finite value in column 'b'"),
        ("x,oops,1.0", "row 2: choice cell 'x' is not an integer"),
        ("3.0,1.0,1.0", "row 2: choice cell '3.0' is not an integer"),
        ("2,1.0", "row 2: expected 3 cells, got 2"),
        ("2,1.0,1.0,1.0", "row 2: expected 3 cells, got 4"),
        ("", "row 2: expected 3 cells, got 0"),
    ])
    def test_first_bad_cell_reported(self, tmp_path, bad_row, message):
        path = tmp_path / "d.csv"
        path.write_text(f"choice,a,b\n1,0.5,0.5\n{bad_row}\n1,0.0,x\n")
        with pytest.raises(RowParseError, match=f"^{re.escape(message)}$"):
            load_csv(path, "choice")

    def test_quoted_numeric_cells_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('choice,a\n"1","0.5"\n2,"-1.5e1"\n')
        ds = load_csv(path, "choice")
        assert np.array_equal(ds.norm_stats.invert(ds.x)[:, 0], [0.5, -15.0])
        assert np.array_equal(ds.y, [[1, 0], [0, 1]])

    @pytest.mark.parametrize("bad_row, message", [
        ("nan,oops", "row 2: missing or non-finite value in column 'a'"),
        ("1.0", "row 2: expected 2 cells, got 1"),
        ("1.0,-inf", "row 2: missing or non-finite value in column 'b'"),
    ])
    def test_feature_reader_messages(self, tmp_path, bad_row, message):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b\n0.5,0.5\n{bad_row}\n")
        stats = NormStats(means=np.zeros(2), stds=np.ones(2),
                          constant=np.zeros(2, dtype=bool))
        with pytest.raises(RowParseError, match=f"^{re.escape(message)}$"):
            load_features_csv(path, ["a", "b"], stats)

    @pytest.mark.parametrize("names", [["b"], []])
    def test_feature_reader_few_columns(self, tmp_path, names):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0.5,1.5\n2.0,-3.0\n")
        k = len(names)
        stats = NormStats(means=np.zeros(k), stds=np.ones(k),
                          constant=np.zeros(k, dtype=bool))
        x = load_features_csv(path, names, stats)
        assert np.array_equal(x, np.array([[1.5], [-3.0]])[:, :k])


class TestSplit:
    def make_ds(self, rng, n=10, k=2, n_alt=3):
        return from_arrays(rng.normal(0, 1, (n, k)), rng.integers(0, n_alt, n),
                           n_alternatives=n_alt)

    def test_floor_sizes(self, rng):
        ds = self.make_ds(rng, n=10)
        tr, va = split(ds, SplitSpec(train_fraction=0.7, seed=0))
        assert (tr.n_rows, va.n_rows) == (7, 3)

    def test_full_scale_floor_arithmetic(self):
        assert int(np.floor(0.7 * 253_803)) == 177_662

    def test_same_seed_same_partition(self, rng):
        ds = self.make_ds(rng, n=40)
        a = split(ds, SplitSpec(seed=9))
        b = split(ds, SplitSpec(seed=9))
        np.testing.assert_array_equal(a[0].x, b[0].x)
        np.testing.assert_array_equal(a[1].y, b[1].y)

    def test_concatenation_is_permutation(self, rng):
        ds = self.make_ds(rng, n=25)
        tr, va = split(ds, SplitSpec(seed=4))
        combined = np.vstack([tr.x, va.x])
        key = np.lexsort(combined.T)
        key0 = np.lexsort(ds.x.T)
        np.testing.assert_array_equal(combined[key], ds.x[key0])

    def test_one_hot_preserved(self, rng):
        ds = self.make_ds(rng, n=30)
        tr, va = split(ds, SplitSpec(seed=1))
        for part in (tr, va):
            assert np.all(part.y.sum(axis=1) == 1.0)

    def test_too_small_errors(self, rng):
        ds = self.make_ds(rng, n=2).take(np.array([0]))
        with pytest.raises(ValueError):
            split(ds, SplitSpec())


class TestNormalization:
    def test_round_trip(self, rng):
        raw = rng.normal(5, 3, (40, 4)) * np.array([1, 10, 100, 0.01])
        ds = from_arrays(raw, rng.integers(0, 2, 40))
        recovered = ds.norm_stats.invert(ds.x)
        np.testing.assert_allclose(recovered, raw, rtol=1e-9)

    def test_refit_uses_train_stats_only(self, rng):
        raw = rng.normal(2, 4, (30, 2))
        ds = from_arrays(raw, rng.integers(0, 2, 30))
        tr, va = refit_normalization(*split(ds, SplitSpec(seed=3)))
        assert np.all(np.abs(tr.x.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(tr.x.std(axis=0) - 1.0) < 1e-6)
        np.testing.assert_array_equal(tr.norm_stats.means, va.norm_stats.means)
        # validation rows keep their raw values under the train scaling
        combined_raw = np.vstack([tr.norm_stats.invert(tr.x),
                                  va.norm_stats.invert(va.x)])
        key = np.lexsort(combined_raw.T)
        key0 = np.lexsort(raw.T)
        np.testing.assert_allclose(combined_raw[key], raw[key0], rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 40))
    def test_one_hot_and_scaling_invariants(self, seed, n):
        rng = np.random.default_rng(seed)
        raw = rng.normal(0, rng.uniform(0.5, 20), (n, 3))
        idx = rng.integers(0, 4, n)
        ds = from_arrays(raw, idx, n_alternatives=4)
        assert np.all(ds.y.sum(axis=1) == 1.0)
        assert np.all((ds.y == 0) | (ds.y == 1))
        live = ~ds.norm_stats.constant
        assert np.all(np.abs(ds.x.mean(axis=0)[live]) < 1e-9)
        assert np.all(np.abs(ds.x.std(axis=0)[live] - 1.0) < 1e-6)


def indexed(choices, x_shape=None):
    """A two-alternative dataset over one zero feature with the given
    choices, one row of x per choice unless `x_shape` says otherwise."""
    choices = np.asarray(choices)
    return ChoiceDataset(
        x=np.zeros(choices.shape + (1,) if x_shape is None else x_shape),
        choices=choices, feature_names=("a",),
        alternative_names=("alt1", "alt2"),
        norm_stats=NormStats(means=np.zeros(1), stds=np.ones(1),
                             constant=np.zeros(1, dtype=bool)))


class TestValidation:
    def test_rejects_out_of_range_index(self):
        for bad in (-1, 2):
            with pytest.raises(ChoiceDomainError, match=r"outside 0\.\.1"):
                indexed([0, bad])

    @pytest.mark.parametrize("choices", [[0.0, 1.0], [True, False], ["0", "1"]],
                             ids=["float", "bool", "str"])
    def test_rejects_non_integer_indices(self, choices):
        with pytest.raises(ValueError, match="integer indices"):
            indexed(choices, x_shape=(2, 1))

    @pytest.mark.parametrize("choices_shape, x_shape", [
        ((3,), (2, 1)), ((1,), (2, 1)), ((2, 2), (2, 1)), ((3,), (2, 3, 1)),
        ((2, 3, 1), (2, 3, 1))])
    def test_rejects_choices_not_one_per_row(self, choices_shape, x_shape):
        # Neither truncated nor broadcast against the rows of x.
        with pytest.raises(ValueError, match="one choice per row"):
            indexed(np.zeros(choices_shape, dtype=np.int64), x_shape)

    def test_accepts_a_stack_of_choices(self):
        ds = indexed([[0, 1, 1], [1, 0, 0]])
        assert (ds.n_rows, ds.n_alternatives) == (3, 2)
        np.testing.assert_array_equal(ds.y, one_hot(ds.choices, 2))
        assert ds.y.shape == (2, 3, 2)

    def test_take_of_a_row_index_per_fit_is_a_stack(self, rng):
        ds = from_arrays(rng.normal(size=(20, 3)), rng.integers(0, 4, 20),
                         n_alternatives=4, feature_names=("p", "q", "r"))
        rows = np.sort([rng.choice(20, 8, replace=False) for _ in range(3)],
                       axis=1)
        stacked = ds.take(rows)
        assert stacked.x.shape == (3, 8, 3) and stacked.n_rows == 8
        np.testing.assert_array_equal(stacked.x, ds.x[rows])
        np.testing.assert_array_equal(stacked.choices, ds.choices[rows])
        for one in (stacked, *(stacked.take(r) for r in range(3))):
            assert one.feature_names == ("p", "q", "r")
            assert one.alternative_names == ds.alternative_names
            assert one.norm_stats is ds.norm_stats
        # An int picks one dataset out of the stack, bit for bit.
        for r in range(3):
            one, alone = stacked.take(r), ds.take(rows[r])
            for a, b in ((one.x, alone.x), (one.choices, alone.choices)):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()

    def test_one_hot_rows_are_cached_and_read_only(self):
        ds = indexed([0, 1, 1])
        y = ds.y
        np.testing.assert_array_equal(y, one_hot(ds.choices, 2))
        np.testing.assert_array_equal(y, [[1, 0], [0, 1], [0, 1]])
        assert ds.y is y
        assert ds.choices.dtype == np.int64
        for arr in (y, ds.choices):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_no_module_reads_the_one_hot_rows(self):
        # The package builds one-hot rows only where a product needs them;
        # `ChoiceDataset.y` is for callers outside it.
        readers = [f"{path.name}:{n}"
                   for path in sorted(SRC.glob("*.py"))
                   for n, line in enumerate(path.read_text().splitlines(), 1)
                   if re.search(r"\.y\b", line)]
        assert readers == []

    def test_rejects_single_alternative(self):
        with pytest.raises(ValueError):
            from_arrays(np.zeros((3, 1)), np.zeros(3, dtype=int),
                        n_alternatives=1)

    def test_feature_free_dataset_allowed(self, rng):
        ds = from_arrays(np.zeros((5, 0)), rng.integers(0, 2, 5),
                         n_alternatives=2)
        assert ds.n_features == 0
