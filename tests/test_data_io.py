import csv
import gzip
import math
import os
import re
import stat
import threading

import numpy as np
import pytest

from oracles import jacobi_eigh, load_csv_rows, traced_peak
from ssl_lab.data_io import (
    RESULTS_COLUMNS,
    RESULTS_SCHEMA_VERSION,
    TabularDataset,
    load_csv,
    pca_project,
    read_results,
    save_csv,
    split,
    standardize,
    write_results,
)
from ssl_lab.errors import DataFormatError, SchemaVersionError, ValidationError
from ssl_lab.estimators import ROW_BLOCK, canonical_sign
from ssl_lab.experiments import CellStats, SweepResult, TrialConfig, run_sweep
from ssl_lab.gmm import LabeledDataset, MixtureModel, UnlabeledDataset
from ssl_lab.seeds import MASK64

STAT_FIELDS = (
    "mean_excess", "std_excess",
    "mean_estimation", "std_estimation",
    "mean_test_error", "std_test_error",
)
#: The version-1 header line, spelled out so a change to the derived columns shows.
V1_HEADER = (
    "axis_name,axis_value,method,replicates,mean_excess,std_excess,"
    "mean_estimation,std_estimation,mean_test_error,std_test_error,extra"
)


def table(n=12, d=3, seed=0):
    """Random finite table with both labels present."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    return TabularDataset(x=x, y=y, columns=tuple(f"f{i}" for i in range(d)))


def write_text(path, text):
    path.write_text(text)
    return str(path)


def assert_nan_aware_equal(a, b):
    if isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b)
    else:
        assert a == b


def assert_sweeps_equal(a, b):
    assert a.axis_name == b.axis_name
    assert a.grid == b.grid
    assert a.replicates == b.replicates
    assert len(a.cells) == len(b.cells)
    for row_a, row_b in zip(a.cells, b.cells):
        assert len(row_a) == len(row_b)
        for sa, sb in zip(row_a, row_b):
            assert sa.method == sb.method
            assert sa.replicates == sb.replicates
            for name in STAT_FIELDS:
                assert_nan_aware_equal(getattr(sa, name), getattr(sb, name))
            assert set(sa.extra) == set(sb.extra)
            for key in sa.extra:
                assert_nan_aware_equal(sa.extra[key], sb.extra[key])


class TestTabularDataset:
    def test_arrays_are_readonly_copies(self):
        x = np.ones((3, 2))
        data = TabularDataset(x=x, y=[1.0, -1.0, 1.0], columns=("a", "b"))
        x[0, 0] = 99.0
        assert data.x[0, 0] == 1.0
        with pytest.raises(ValueError):
            data.x[0, 0] = 5.0
        with pytest.raises(ValueError):
            data.y[0] = -1.0

    def test_shape_properties_and_column_tuple(self):
        data = table(n=7, d=4)
        assert data.n == 7 and data.d == 4
        assert data.columns == ("f0", "f1", "f2", "f3")
        assert isinstance(data.columns, tuple)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x=np.ones(4), y=[1.0], columns=("a",)),
            dict(x=np.ones((2, 0)), y=[1.0, -1.0], columns=()),
            dict(x=np.ones((2, 1)), y=[1.0], columns=("a",)),
            dict(x=np.ones((2, 1)), y=[1.0, 0.5], columns=("a",)),
            dict(x=[[1.0], [np.inf]], y=[1.0, -1.0], columns=("a",)),
            dict(x=np.ones((2, 2)), y=[1.0, -1.0], columns=("a",)),
            dict(x=np.ones((2, 2)), y=[1.0, -1.0], columns=("a", "a")),
            dict(x=np.ones((2, 2)), y=[1.0, -1.0], columns=("a", "")),
        ],
    )
    def test_rejects_malformed_input(self, kwargs):
        with pytest.raises(ValidationError):
            TabularDataset(**kwargs)


class TestLoadCsv:
    def test_worked_example_maps_labels_and_keeps_column_order(self, tmp_path):
        path = write_text(
            tmp_path / "t.csv",
            "a,group,c\n1.5,yes,-2.0\n0.25,no,4.0\n-3.0,yes,0.5\n",
        )
        data = load_csv(path, label_column="group", positive_label="yes")
        assert data.columns == ("a", "c")
        assert np.array_equal(data.x, [[1.5, -2.0], [0.25, 4.0], [-3.0, 0.5]])
        assert np.array_equal(data.y, [1.0, -1.0, 1.0])

    def test_numeric_positive_label_is_coerced_to_text(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "a,label\n1.0,1\n2.0,-1\n")
        data = load_csv(path, label_column="label", positive_label=1)
        assert np.array_equal(data.y, [1.0, -1.0])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "a,label\n1.0,p\n\n2.0,q\n\n")
        data = load_csv(path, label_column="label", positive_label="p")
        assert data.n == 2

    def test_nan_cell_is_rejected_naming_the_row(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "a,label\n1.0,p\nNaN,q\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(path, label_column="label", positive_label="p")

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "a,b,label\n1.0,2.0,p\n3.0,oops,q\n")
        with pytest.raises(DataFormatError, match="row 3.*'oops'.*'b'"):
            load_csv(path, label_column="label", positive_label="p")

    def test_ragged_row_names_the_row(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "a,b,label\n1.0,2.0,p\n3.0,q\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(path, label_column="label", positive_label="p")

    @pytest.mark.parametrize(
        "text,pattern",
        [
            ("", "header"),
            ("a,label\n", "no data rows"),
            ("a,a,label\n1.0,2.0,p\n1.0,2.0,q\n", "duplicate"),
            ("a,b\n1.0,2.0\n3.0,4.0\n", "label column 'label' not found"),
            ("label\np\nq\n", "no feature columns"),
            ("a,label\n1.0,p\n2.0,p\n", "exactly two distinct"),
            ("a,label\n1.0,p\n2.0,q\n3.0,r\n", "exactly two distinct"),
            ("a,label\n1.0,p\n2.0,q\n", "positive label 'z'"),
        ],
    )
    def test_structural_errors(self, tmp_path, text, pattern):
        path = write_text(tmp_path / "t.csv", text)
        with pytest.raises(DataFormatError, match=pattern):
            load_csv(path, label_column="label", positive_label="z")

    @pytest.mark.parametrize("cell", ["1_000", "\uff11", " \u0661.5 "])
    def test_narrowed_grammar_names_row_and_column(self, tmp_path, cell):
        path = str(tmp_path / "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(f"a,b,label\n1.0,2.0,p\n3.0,{cell},q\n")
        x, _, _ = load_csv_rows(path, "label", "p")
        assert x.shape == (2, 2)
        with pytest.raises(DataFormatError, match=f"row 3: cannot parse {cell!r} in column 'b'"):
            load_csv(path, label_column="label", positive_label="p")

    def test_reads_a_regular_file_from_its_path(self, tmp_path, monkeypatch):
        # numpy reads a path in large chunks, but an open handle one line at a time.
        sources = []
        loadtxt = np.loadtxt

        def spy(source, *args, **kwargs):
            sources.append(source)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        load_csv(write_text(tmp_path / "t.csv", "a,label\n1.0,p\n2.0,q\n"), "label", "p")
        assert [type(source) for source in sources] == [str]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_compression_suffix_is_still_plain_text(self, tmp_path, suffix):
        text = "a,b,label\n1.5,-2,p\n0.25,4e3,q\n"
        want = load_csv(write_text(tmp_path / "t.csv", text), "label", "p")
        data = load_csv(write_text(tmp_path / f"t.csv{suffix}", text), "label", "p")
        assert np.array_equal(data.x, want.x) and np.array_equal(data.y, want.y)

    @pytest.mark.parametrize("label_index", [0, 3, 6])
    def test_dropping_the_label_column_keeps_the_parse_bytes(self, tmp_path, label_index):
        # The features move within the parse a block of rows at a time, with the label
        # first, in the middle or last of seven columns: the bytes np.delete would copy.
        n = int(2.5 * ROW_BLOCK)
        rows = np.random.default_rng(label_index).normal(size=(n, 6)).tolist()
        names = [f"c{j}" for j in range(6)]
        names.insert(label_index, "label")
        path = str(tmp_path / "t.csv")
        with open(path, "w", newline="") as handle:
            handle.write(",".join(names) + "\n")
            for i, row in enumerate(rows):
                cells = [repr(value) for value in row]
                cells.insert(label_index, "p" if i % 3 else "q")
                handle.write(",".join(cells) + "\n")
        parse = np.loadtxt(path, delimiter=",", skiprows=1,
                           converters={label_index: lambda cell: float(cell == "p")})
        data = load_csv(path, "label", "p")
        assert data.x.tobytes() == np.delete(parse, label_index, axis=1).tobytes()
        assert data.x.shape == (n, 6)
        assert np.array_equal(data.y, np.where(parse[:, label_index] == 1.0, 1.0, -1.0))

    @staticmethod
    def load_through_pipe(tmp_path, data):
        """(outcome, path): load_csv of a named pipe that the caller fills with `data`.

        The outcome is the dataset or the DataFormatError raised. A second
        open of the pipe would wait for a writer that never comes.
        """
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        outcome = []

        def read():
            try:
                outcome.append(load_csv(path, "label", "p"))
            except DataFormatError as err:
                outcome.append(err)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        path.write_bytes(data)
        reader.join(timeout=10)
        assert not reader.is_alive()
        return outcome[0], path

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_named_pipe_is_opened_once(self, tmp_path):
        data, _ = self.load_through_pipe(tmp_path, b"a,label\n1.0,p\n2.0,q\n")
        assert np.array_equal(data.x, [[1.0], [2.0]]) and np.array_equal(data.y, [1.0, -1.0])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_named_pipe_that_does_not_decode_names_the_file(self, tmp_path):
        err, path = self.load_through_pipe(tmp_path, b"a,label\n1.0,p\n2.0\xff,q\n")
        assert str(err) == f"{path}: not valid utf-8 text: invalid start byte"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("data, reason", [
        (b"a,label\n1.0,p\nxx,q\n", "could not convert string 'xx' to float64"),
        (b"a,label\n1.0,p\n2.0,q,3\n", "the number of columns changed from 2 to 3"),
        (b"label,a,b\np,1.0\nq,2.0\n", "a row has the wrong width or a non-finite value"),
        (b"a,b,label\n1.0,p\n2.0,q\n", "a row has the wrong width or a non-finite value"),
        (b"a,label\n1.0,p\nnan,q\n", "a row has the wrong width or a non-finite value"),
    ], ids=["bad_cell", "extra_field", "narrow_rows", "narrow_rows_label_last", "nan"])
    def test_a_named_pipe_whose_rows_do_not_parse_names_the_file(self, tmp_path, data, reason):
        # A pipe cannot be rescanned for the file line, and numpy's row number is not one.
        err, path = self.load_through_pipe(tmp_path, data)
        assert isinstance(err, DataFormatError)
        assert str(err) == f"{path}: {reason}"

    def test_path_like_and_bytes_paths_load(self, tmp_path):
        path = tmp_path / "t.csv"
        write_text(path, "a,label\n1.0,p\n2.0,q\n")
        for name in (path, os.fsencode(path)):
            data = load_csv(name, "label", "p")
            assert np.array_equal(data.x, [[1.0], [2.0]])
            with pytest.raises(DataFormatError) as err:
                load_csv(name, "label", "z")
            assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "data,line",
        [
            (b"x1,x2,\xe9t\xe9,label\n1,2,3,p\n4,5,6,q\n", 1),
            (b"a,label\n1.0,p\n2.0\xff,q\n", 3),
            (b"a,label\r1.0,p\r\r2.0,q\xff\r", 4),
            (b"a,label\n" + b"1.0,p\n" * 5000 + b"2.0\xff,q\n", 5002),
            (gzip.compress(b"a,label\n1.0,p\n2.0,q\n"), 1),
        ],
        ids=["latin1_header", "stray_byte", "cr_lines", "past_the_first_chunk", "gzip"],
    )
    def test_text_that_does_not_decode_names_the_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(DataFormatError) as info:
            load_csv(str(path), "label", "p")
        assert str(info.value) == f"{path}: line {line}: not valid utf-8 text"


#: (text, label column, positive label) for the differential test. Every
#: case reads the same under load_csv and the reference row-by-row reader.
DIFFERENTIAL_CASES = {
    "lf": ("a,b,label\n1.5,-2,p\n0.25,4e3,q\n", "label", "p"),
    "crlf": ("a,b,label\r\n1.5,-2,p\r\n0.25,4e3,q\r\n", "label", "p"),
    "cr_only": ("a,b,label\r1.5,-2,p\r0.25,4e3,q\r", "label", "p"),
    "no_final_newline": ("a,b,label\n1.5,-2,p\n0.25,4e3,q", "label", "p"),
    "blank_lines": ("a,label\n\n1.0,p\n\n\n2.0,q\n\n", "label", "q"),
    "crlf_blank_lines": ("a,label\r\n1.0,p\r\n\r\n2.0,q\r\n\r\n", "label", "q"),
    "space_only_line": ("a,label\n1.0,p\n   \n2.0,q\n", "label", "p"),
    "tab_only_line": ("a,label\n1.0,p\n\t\n2.0,q\n", "label", "p"),
    "quoted_label_comma": ('a,label\n1.0,"p,x"\n2.0,q\n3.0,"p,x"\n', "label", "p,x"),
    "quoted_label_newline": ('a,label\n1.0,"p\nx"\n2.0,q\n', "label", "p\nx"),
    "quoted_label_crlf": ('a,label\r\n1.0,"p\r\nx"\r\n2.0,q\r\n', "label", "p\r\nx"),
    "quoted_label_cr": ('a,label\r1.0,"p\rx"\r2.0,q\r', "label", "p\rx"),
    "quoted_header_newline": ('"a\nb",label\n1.0,p\n2.0,q\n', "label", "p"),
    "quoted_header_crlf": ('"a\r\nb",label\r\n1.0,p\r\n2.0,q\r\n', "label", "p"),
    "row_after_quoted_newline": ('a,label\n1.0,"p\nx"\n2.0,q\noops,q\n', "label", "q"),
    "doubled_quote_label": ('a,label\n1.0,"p""x"\n2.0,q\n', "label", 'p"x'),
    "quoted_feature": ('a,label\n"1.5",p\n" 2.0 ",q\n', "label", "p"),
    "hash_in_label": ("a,label\n1.0,#p\n2.0,q#\n", "label", "#p"),
    "hash_in_feature": ("a,label\n1.0,p\n#2.0,q\n", "label", "p"),
    "extra_field": ("a,b,label\n1,2,p\n3,4,q,5\n", "label", "p"),
    "missing_field": ("a,b,label\n1,2,p\n3,q\n", "label", "p"),
    "missing_label_field": ("a,b,label\n1,2\n3,4,q\n", "label", "q"),
    "every_row_short_label_first": ("label,a,b\np,1\nq,2\n", "label", "p"),
    "every_row_short_label_middle": ("a,label,b\n1,p\n2,q\n", "label", "p"),
    "only_label_fields": ("label,a\np\nq\n", "label", "p"),
    "empty_cell": ("a,b,label\n1,,p\n3,4,q\n", "label", "p"),
    "padded_cells": ("a , b ,label\n 1.5 ,\t-2\t, p \n0.25,  4e3,q  \n", "label", "p"),
    "nbsp_padded_cell": ("a,label\n\xa01.5\xa0,p\n2.0,q\n", "label", "p"),
    "separator_padded_cell": ("a,label\n1.5\x1f,p\n2.0,q\n", "label", "p"),
    "bom": ("\ufeffa,label\n1.0,p\n2.0,q\n", "label", "p"),
    "bom_before_label": ("\ufefflabel,a\np,1.0\nq,2.0\n", "label", "p"),
    "nan_before_unparseable": ("a,b,label\n1,2,p\nnan,x,q\n", "label", "p"),
    "nan_after_unparseable": ("a,b,label\n1,x,p\n-inf,2,q\n", "label", "p"),
    "unparseable_row_after_nan_row": ("a,b,label\n1,NaN,p\nx,2,q\n", "label", "p"),
    "overflow_to_inf": ("a,label\n1.0,p\n1e999,q\n", "label", "p"),
    "spelled_out_infinity": ("a,label\n1.0,p\n-Infinity,q\n", "label", "p"),
    "label_in_middle": ("a,label,b\n1.0,p,2.0\n3.0,q,4.0\n5.0,p,6.0\n", "label", "q"),
    "label_first": ("label,a\nq,1.0\np,2.0\n", "label", "p"),
    "numeric_labels": ("a,label\n1.0,1\n2.0,0\n3.0,1\n", "label", 1),
    "latin1_label": ("a,label\n1.0,caf\xe9\n2.0,q\n", "label", "caf\xe9"),
    "non_latin1_label": ("a,label\n1.0,\u732b\n2.0,\u72ac\n", "label", "\u732b"),
    "single_data_row": ("a,label\n1.0,p\n", "label", "p"),
    "single_data_row_no_newline": ("a,b,label\n1.0,2.0,p", "label", "p"),
    "header_only": ("a,label\n", "label", "p"),
    "header_then_blank_lines": ("a,label\n\n\n", "label", "p"),
    "three_labels": ("a,label\n1.0,p\n2.0,q\n3.0,r\n", "label", "p"),
    "absent_positive_label": ("a,label\n1.0,p\n2.0,q\n", "label", "z"),
}


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_load_csv_matches_reference_reader(tmp_path, case):
    text, label_column, positive_label = DIFFERENTIAL_CASES[case]
    path = str(tmp_path / "t.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    try:
        x, y, columns = load_csv_rows(path, label_column, positive_label)
    except DataFormatError as err:
        with pytest.raises(DataFormatError) as info:
            load_csv(path, label_column, positive_label)
        assert str(info.value) == str(err)
        return
    data = load_csv(path, label_column, positive_label)
    assert data.columns == columns
    assert np.array_equal(data.x, x.reshape(-1, len(columns)))
    assert np.array_equal(data.y, y)


class TestSaveLoadRoundTrip:
    def test_every_float_survives_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(20, 3))
        x[0, 0] = 0.1
        x[1, 1] = 1.0 / 3.0
        x[2, 2] = 5e-324
        x[3, 0] = -1.7976931348623157e308
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        data = TabularDataset(x=x, y=y, columns=("u", "v", "w"))
        path = str(tmp_path / "round.csv")
        save_csv(data, path)
        loaded = load_csv(path, label_column="label", positive_label="1")
        assert np.array_equal(loaded.x, data.x)
        assert np.array_equal(loaded.y, data.y)
        assert loaded.columns == data.columns

    def test_label_column_may_not_collide_with_a_feature(self, tmp_path):
        data = TabularDataset(x=[[1.0, 2.0]], y=[1.0], columns=("f0", "label"))
        with pytest.raises(ValidationError, match="collides"):
            save_csv(data, str(tmp_path / "t.csv"))
        assert not (tmp_path / "t.csv").exists()


class TestStandardize:
    def test_worked_example_two_points(self):
        data = TabularDataset(x=[[1.0], [3.0]], y=[-1.0, 1.0], columns=("a",))
        out = standardize(data)
        assert np.array_equal(out.x, [[-1.0], [1.0]])

    def test_columns_centered_and_unit_spread(self):
        rng = np.random.default_rng(5)
        data = TabularDataset(
            x=rng.normal(loc=3.0, scale=7.0, size=(200, 4)),
            y=np.where(rng.random(200) < 0.5, 1.0, -1.0),
            columns=("a", "b", "c", "d"),
        )
        out = standardize(data)
        assert np.all(np.abs(out.x.mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(out.x.std(axis=0) - 1.0) <= 1e-9)

    def test_constant_column_passes_through_centered_and_flagged(self):
        x = np.column_stack([np.full(5, 4.0), np.arange(5.0)])
        data = TabularDataset(x=x, y=[1.0, -1.0, 1.0, -1.0, 1.0], columns=("c", "v"))
        out = standardize(data)
        assert np.array_equal(out.x[:, 0], np.zeros(5))
        assert out.x[:, 1].tobytes() == ((x[:, 1] - 2.0) / x[:, 1].std()).tobytes()

    def test_idempotent_within_tolerance(self):
        data = table(n=50, d=3, seed=2)
        once = standardize(data)
        twice = standardize(once)
        assert np.max(np.abs(twice.x - once.x)) <= 1e-9
        assert np.array_equal(twice.y, once.y)

    @pytest.mark.parametrize("n, d", [(2, 1), (5, 3), (4_096, 2), (4_097, 4), (9_001, 1),
                                      (12_345, 7)])
    def test_scale_is_numpys_std_bit_for_bit(self, n, d):
        """The spread is summed a block of rows at a time, in numpy's own order."""
        rng = np.random.default_rng(n + d)
        x = rng.normal(loc=3.0, scale=7.0, size=(n, d))
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        columns = tuple(f"c{j}" for j in range(d))
        out = standardize(TabularDataset(x=x, y=y, columns=columns))
        assert out.x.tobytes() == ((x - x.mean(axis=0)) / x.std(axis=0)).tobytes()

    def test_needs_two_rows(self):
        data = TabularDataset(x=[[1.0, 2.0]], y=[1.0], columns=("a", "b"))
        with pytest.raises(ValidationError):
            standardize(data)


def aligned(a, b):
    """Largest entry of |a - b| or of |a + b|, whichever is smaller: equality up to sign."""
    return min(np.max(np.abs(a - b)), np.max(np.abs(a + b)))


class TestPca:
    def test_rank_one_data_reconstructs_exactly(self):
        rng = np.random.default_rng(4)
        direction = np.array([0.5, -0.5, 0.5, 0.5])
        weights = rng.normal(size=15)
        x = np.array([2.0, -1.0, 0.0, 3.0]) + np.outer(weights, direction)
        data = TabularDataset(
            x=x, y=np.where(weights > 0, 1.0, -1.0), columns=("a", "b", "c", "d")
        )
        scores = pca_project(data, k=1).x[:, 0]
        # Standardized, every column is +-(weights - mean) / std, so the one axis is
        # still the unit direction, up to the sign the scores carry.
        z = standardize(data).x
        sign = 1.0 if scores @ (weights - weights.mean()) > 0.0 else -1.0
        reconstruction = np.outer(sign * scores, direction) + z.mean(axis=0)
        assert np.max(np.abs(reconstruction - z)) <= 1e-9

    def test_full_projection_preserves_pairwise_distances(self):
        data = table(n=25, d=3, seed=7)
        scores = pca_project(data, k=3)
        z = standardize(data).x
        original = z[:, None, :] - z[None, :, :]
        projected = scores.x[:, None, :] - scores.x[None, :, :]
        dist_original = np.linalg.norm(original, axis=2)
        dist_projected = np.linalg.norm(projected, axis=2)
        assert np.max(np.abs(dist_original - dist_projected)) <= 1e-8

    def test_matches_dense_eigensolver_on_small_matrices(self):
        for seed in range(5):
            data = table(n=40, d=3, seed=seed)
            scores = pca_project(data, k=3).x
            centered = standardize(data).x
            oracle_values, oracle_vectors = jacobi_eigh(centered.T @ centered / data.n)
            variances = np.diag(scores.T @ scores / data.n)
            assert np.max(np.abs(variances - oracle_values)) <= 1e-6
            for j in range(3):
                assert aligned(scores[:, j], centered @ oracle_vectors[:, j]) <= 1e-6

    def test_components_are_orthonormal(self):
        for seed in range(4):
            data = table(n=60, d=6, seed=seed)
            centered = standardize(data).x
            # The axes the scores came from, recovered from full-rank standardized features.
            axes = np.linalg.lstsq(centered, pca_project(data, k=4).x, rcond=None)[0]
            assert np.max(np.abs(axes.T @ axes - np.eye(4))) <= 1e-8

    def test_scores_have_diagonal_covariance(self):
        data = table(n=300, d=5, seed=13)
        scores = pca_project(data, k=3)
        cov = scores.x.T @ scores.x / scores.n
        off_diagonal = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off_diagonal)) <= 1e-6 * np.max(np.diag(cov))

    def test_score_columns_named_and_labels_carried(self):
        data = table(n=10, d=4, seed=1)
        scores = pca_project(data, k=2)
        assert scores.columns == ("pc1", "pc2")
        assert scores.x.shape == (10, 2)
        assert np.array_equal(scores.y, data.y)

    def test_deterministic_for_fixed_seed(self):
        data = table(n=30, d=4, seed=6)
        assert pca_project(data, k=2).x.tobytes() == pca_project(data, k=2).x.tobytes()

    def test_degenerate_covariance_still_returns_orthonormal_basis(self):
        weights = np.linspace(-1.0, 1.0, 9)
        x = np.outer(weights, np.array([1.0, 0.0, 0.0]))
        data = TabularDataset(
            x=x, y=np.where(weights >= 0, 1.0, -1.0), columns=("a", "b", "c")
        )
        scores = pca_project(data, k=3).x
        # The first axis is the unit e1; the others see no spread at all.
        assert aligned(scores[:, 0], standardize(data).x[:, 0]) <= 1e-12
        variances = np.diag(scores.T @ scores / data.n)
        assert variances[0] > 0.0
        assert abs(variances[1]) <= 1e-12 and abs(variances[2]) <= 1e-12

    def test_blocked_projection_matches_one_product(self):
        # About two and a half blocks of rows, so the Gram matrix is summed in
        # three parts; the reference standardizes the whole table, solves
        # z'z / n once and multiplies z by the axes in one product.
        n = int(2.5 * ROW_BLOCK)
        rng = np.random.default_rng(17)
        factors = rng.normal(size=(n, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
        x = factors @ rng.normal(size=(4, 6)) + 0.1 * rng.normal(size=(n, 6)) + 5.0
        data = TabularDataset(x=x, y=np.where(factors[:, 0] > 0, 1.0, -1.0),
                              columns=tuple(f"c{j}" for j in range(6)))
        z = standardize(data).x
        _, vectors = np.linalg.eigh(z.T @ z / n)
        axes = np.column_stack([canonical_sign(vectors[:, -1 - j]) for j in range(3)])
        want = z @ axes
        got = pca_project(data, k=3).x
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [0, -1, 5, 2.5])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValidationError):
            pca_project(table(n=10, d=4), k)

    def test_needs_two_rows(self):
        data = TabularDataset(x=[[1.0, 2.0]], y=[1.0], columns=("a", "b"))
        with pytest.raises(ValidationError):
            pca_project(data, 1)


class TestSplit:
    def ladder(self, n=10):
        """Table whose single feature value identifies the row."""
        x = np.arange(float(n)).reshape(n, 1)
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        return TabularDataset(x=x, y=y, columns=("row",))

    def test_worked_example_sizes(self):
        labeled, pool, validation, test = split(self.ladder(10), 2, 3, 4, 0)
        assert labeled.n == 2
        assert validation.n == 3
        assert test.n == 4
        assert pool.n == 1

    def test_parts_are_disjoint_and_cover_no_row_twice(self):
        labeled, pool, validation, test = split(self.ladder(10), 2, 3, 4, 5)
        seen = np.concatenate(
            [labeled.x[:, 0], validation.x[:, 0], test.x[:, 0], pool.x[:, 0]]
        )
        assert len(np.unique(seen)) == 10

    def test_types_and_label_stripping(self):
        labeled, pool, validation, test = split(self.ladder(10), 2, 3, 4, 0)
        assert isinstance(labeled, LabeledDataset) and isinstance(test, LabeledDataset)
        assert isinstance(pool, UnlabeledDataset) and isinstance(validation, UnlabeledDataset)
        assert not hasattr(pool, "y") and not hasattr(validation, "y")

    def test_labels_follow_their_rows(self):
        data = self.ladder(12)
        labeled, _, _, test = split(data, 4, 3, 3, 8)
        for part in (labeled, test):
            for value, label in zip(part.x[:, 0], part.y):
                assert label == data.y[int(value)]

    def test_consumption_order_is_labeled_validation_test_pool(self):
        data = self.ladder(11)
        labeled, pool, validation, test = split(data, 3, 2, 4, 7)
        perm = np.random.default_rng(7 & MASK64).permutation(11)
        assert np.array_equal(labeled.x, data.x[perm[:3]])
        assert np.array_equal(validation.x, data.x[perm[3:5]])
        assert np.array_equal(test.x, data.x[perm[5:9]])
        assert np.array_equal(pool.x, data.x[perm[9:]])

    def test_same_seed_reproduces_and_seeds_differ(self):
        data = self.ladder(40)
        first = split(data, 10, 5, 5, 21)
        second = split(data, 10, 5, 5, 21)
        assert np.array_equal(first[0].x, second[0].x)
        assert np.array_equal(first[1].x, second[1].x)
        other = split(data, 10, 5, 5, 22)
        assert not np.array_equal(first[0].x, other[0].x)

    def test_negative_seed_is_masked_to_64_bits(self):
        data = self.ladder(12)
        negative = split(data, 3, 2, 2, -3)
        masked = split(data, 3, 2, 2, (-3) & MASK64)
        assert np.array_equal(negative[0].x, masked[0].x)

    def test_exact_consumption_leaves_empty_pool(self):
        labeled, pool, validation, test = split(self.ladder(9), 2, 3, 4, 0)
        assert pool.n == 0 and pool.x.shape == (0, 1)

    def test_infeasible_sizes_rejected(self):
        message = "n_l + n_val + n_test must be at most 9, got 10"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            split(self.ladder(9), 3, 3, 4, 0)

    def test_numpy_integers_coerced(self):
        data = self.ladder(10)
        parts = split(data, np.int64(3), np.int32(2), np.int64(1), np.int64(9))
        assert (parts[0].n, parts[2].n, parts[3].n) == (3, 2, 1)
        assert [part.x.tobytes() for part in parts] == [
            part.x.tobytes() for part in split(data, 3, 2, 1, 9)
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_l=-1),
            dict(n_l=2.5),
            dict(n_l=True),
            dict(n_l=2, n_val=-1),
            dict(n_l=2, n_test=-1),
            dict(n_l=2, seed="7"),
            dict(n_l=2, seed=1.5),
        ],
    )
    def test_rejects_malformed_input(self, kwargs):
        with pytest.raises(ValidationError):
            split(self.ladder(10), **{**dict(n_val=1, n_test=1, seed=0), **kwargs})

    @pytest.mark.parametrize("sizes, message", [
        ((20, -1, 1, "7"), "n_val must be at least 0, got -1"),
        ((20, 1, 2.5, "7"), "n_test must be a whole number, got 2.5"),
        ((20, 1, 1, "7"), "seed must be a whole number, got '7'"),
        ((20, 1, 1, -7), "n_l + n_val + n_test must be at most 10, got 22"),
    ])
    def test_checks_each_size_then_the_seed_then_the_sum(self, sizes, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            split(self.ladder(10), *sizes)


class TestOwnership:
    """Each dataset keeps the array its producer made, so no step copies the table again."""

    ROWS, COLS = 20_000, 20
    FEATURE_BYTES = ROWS * COLS * 8
    #: Peak allocation over FEATURE_BYTES. load_csv holds its (d + 1)-column parse, cut
    #: to the features in place (1.33 measured), standardize its output and one block of
    #: rows (1.13), and pca_project at k = 2 its scores and one block (0.36). A copy of
    #: the features beside the parse reads 2.13, and a copy of the table in pca 1.10.
    LOAD_CSV_PEAK = 1.6
    STANDARDIZE_PEAK = 1.5
    PCA_PEAK = 0.5

    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory):
        """(path, dataset): a ROWS x COLS table and the CSV it was saved to."""
        data = table(n=self.ROWS, d=self.COLS, seed=4)
        path = str(tmp_path_factory.mktemp("big") / "big.csv")
        save_csv(data, path)
        return path, data

    @pytest.mark.parametrize("producer", ["load_csv", "standardize", "pca_project", "split"])
    def test_datasets_own_their_arrays(self, tmp_path, producer):
        data = table(n=40, d=4, seed=3)
        path = str(tmp_path / "t.csv")
        save_csv(data, path)
        made = {
            "load_csv": lambda: [load_csv(path, "label", "1")],
            "standardize": lambda: [standardize(data)],
            "pca_project": lambda: [pca_project(data, 2)],
            "split": lambda: split(data, 5, 6, 7, 0),
        }[producer]()
        for part in made:
            for array in (part.x, getattr(part, "y", part.x)):
                assert array.base is None and array.flags.c_contiguous
                assert not array.flags.writeable

    def test_load_csv_holds_the_parse_and_the_features_only(self, big):
        path, _ = big
        peak = traced_peak(lambda: load_csv(path, "label", "1"))
        assert peak <= self.LOAD_CSV_PEAK * self.FEATURE_BYTES

    def test_standardize_holds_its_output_and_one_block(self, big):
        _, data = big
        peak = traced_peak(lambda: standardize(data))
        assert peak <= self.STANDARDIZE_PEAK * self.FEATURE_BYTES

    def test_pca_project_holds_its_scores_and_one_block(self, big):
        # ROWS spans several blocks of ROW_BLOCK rows.
        _, data = big
        peak = traced_peak(lambda: pca_project(data, 2))
        assert peak <= self.PCA_PEAK * self.FEATURE_BYTES


def synthetic_sweep():
    """Sweep with NaN stats, extreme floats, negative zero, and extras (one infinite)."""
    cells = (
        (
            CellStats("sl", 3, 0.1, 0.01, 1.0 / 3.0, 0.2, 0.05, 0.001, {"t": 0.35}),
            CellStats("ulplus", 3, float("nan"), float("nan"), float("nan"),
                      float("nan"), float("nan"), float("nan"), {"failures": 3.0}),
        ),
        (
            CellStats("sl", 3, -0.0, 0.0, 1.7976931348623157e308, 1e-308, 5e-324, 0.25,
                      {"t": 0.1, "wrong_sign": 0.0, "threshold": float("inf")}),
            CellStats("ulplus", 3, 0.2, 0.02, 0.3, 0.03, 0.4, 0.04, {}),
        ),
    )
    return SweepResult(axis_name="nu", grid=(2000, 8000), replicates=3, cells=cells)


class TestResultsRoundTrip:
    def test_synthetic_sweep_survives_exactly(self, tmp_path):
        sweep = synthetic_sweep()
        path = str(tmp_path / "sweep.csv")
        write_results(sweep, path)
        assert_sweeps_equal(read_results(path), sweep)

    def test_negative_zero_and_denormals_survive(self, tmp_path):
        sweep = synthetic_sweep()
        path = str(tmp_path / "sweep.csv")
        write_results(sweep, path)
        loaded = read_results(path)
        assert math.copysign(1.0, loaded.cells[1][0].mean_excess) == -1.0
        assert loaded.cells[1][0].mean_test_error == 5e-324

    def test_real_sweep_round_trips(self, tmp_path):
        theta = np.zeros(3)
        theta[0] = 1.0
        cfg = TrialConfig(
            model=MixtureModel(theta_star=theta),
            n_l=8,
            n_u=40,
            n_val=30,
            n_test=25,
            methods=("sl", "ulplus", "sslw"),
        )
        sweep = run_sweep(cfg, axis="nl", grid=(8, 16), replicates=3)
        path = str(tmp_path / "real.csv")
        write_results(sweep, path)
        assert_sweeps_equal(read_results(path), sweep)

    def test_failed_cells_round_trip_as_nan(self, tmp_path):
        theta = np.zeros(2)
        theta[0] = 1.0
        cfg = TrialConfig(
            model=MixtureModel(theta_star=theta),
            n_l=5,
            n_u=0,
            n_val=20,
            n_test=20,
            methods=("sl", "ul"),
        )
        sweep = run_sweep(cfg, axis="snr", grid=(0.5, 1.0), replicates=2)
        path = str(tmp_path / "failed.csv")
        write_results(sweep, path)
        loaded = read_results(path)
        assert_sweeps_equal(loaded, sweep)
        for row in loaded.cells:
            ul = [stats for stats in row if stats.method == "ul"][0]
            assert math.isnan(ul.mean_excess)
            assert ul.extra["failures"] == 2.0

    def test_empty_sweep_writes_header_only_and_reads_back_empty(self, tmp_path):
        empty = SweepResult(axis_name="snr", grid=(), replicates=0, cells=())
        path = str(tmp_path / "empty.csv")
        write_results(empty, path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2
        assert lines[0] == f"# schema ssl-lab-sweep {RESULTS_SCHEMA_VERSION}"
        assert lines[1] == V1_HEADER
        loaded = read_results(path)
        assert loaded.axis_name == ""
        assert loaded.grid == () and loaded.cells == ()
        assert loaded.replicates == 0

    def test_integer_grid_values_compare_equal_after_reload(self, tmp_path):
        sweep = synthetic_sweep()
        path = str(tmp_path / "sweep.csv")
        write_results(sweep, path)
        loaded = read_results(path)
        assert loaded.grid == (2000, 8000)

    def test_stable_column_order_on_disk(self, tmp_path):
        path = str(tmp_path / "sweep.csv")
        write_results(synthetic_sweep(), path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert lines[1] == V1_HEADER == ",".join(RESULTS_COLUMNS)
        first = lines[2].split(",")
        assert first[0] == "nu" and first[2] == "sl"
        assert first[10] == "t=0.35"


class TestResultsErrors:
    def write_valid(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_results(synthetic_sweep(), str(path))
        return path

    def test_unknown_schema_version_is_rejected(self, tmp_path):
        path = self.write_valid(tmp_path)
        lines = path.read_text().splitlines()
        lines[0] = "# schema ssl-lab-sweep 99"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaVersionError, match="99"):
            read_results(str(path))

    def test_missing_schema_line_is_rejected(self, tmp_path):
        path = self.write_valid(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(SchemaVersionError, match="missing schema line"):
            read_results(str(path))

    def test_schema_error_is_a_data_format_error(self, tmp_path):
        path = self.write_valid(tmp_path)
        lines = path.read_text().splitlines()
        lines[0] = "# schema ssl-lab-sweep 2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError):
            read_results(str(path))

    @pytest.mark.parametrize(
        "mutate,pattern",
        [
            (lambda lines: lines.__setitem__(1, "axis,stuff"), "unexpected header"),
            (lambda lines: lines.__setitem__(2, lines[2].replace("0.1", "oops", 1)), "row 3"),
            (lambda lines: lines.__setitem__(2, lines[2] + ",tail"), "row 3"),
            (lambda lines: lines.__setitem__(3, lines[3].replace("nu,", "snr,", 1)), "axis name"),
            (lambda lines: lines.__setitem__(2, lines[2].replace("t=0.35", "t0.35")), "extra"),
            (lambda lines: lines.__setitem__(3, lines[3].replace(",3,", ",4,", 1)), "replicates"),
            # Well-formed rows whose values no sweep can write:
            (lambda lines: lines.__setitem__(2, lines[2].replace(",0.01,", ",-1.0,", 1)),
             "row 3: std_excess"),
            (lambda lines: lines.__setitem__(2, lines[2].replace(",0.05,", ",1.7,", 1)),
             "row 3: mean_test_error"),
            (lambda lines: lines.__setitem__(2, lines[2].replace(",0.1,", ",nan,", 1)),
             "row 3: mean_excess is NaN"),
            (lambda lines: lines.__setitem__(
                slice(2, None), [line.replace(",3,", ",0,", 1) for line in lines[2:]]
            ), "row 3: replicates must be at least 1"),
            (lambda lines: lines.insert(4, lines[2]), "row 5: method 'sl' repeats"),
            (lambda lines: lines.__setitem__(2, lines[2].replace(",2000.0,", ",nan,", 1)),
             "row 3: axis value 'nan' is not finite"),
            (lambda lines: lines.__setitem__(2, lines[2].replace(",2000.0,", ",-inf,", 1)),
             "row 3: axis value '-inf' is not finite"),
            # Rows that name what no sweep runs, or more trials than seeds tell apart:
            *[(lambda lines, name=name: lines.__setitem__(
                slice(2, None), [name + line[2:] for line in lines[2:]]
            ), f"row 3: axis name {name!r} is not one of") for name in ("bogus", "")],
            *[(lambda lines, tag=tag: lines.__setitem__(2, lines[2].replace(",sl,", f",{tag},")),
               re.escape(f"row 3: unknown method tag {tag.strip(chr(34))!r}"))
              for tag in ("abc", "true", '"[1, 2]"', "")],
            *[(lambda lines, reps=reps: lines.__setitem__(
                slice(2, None), [line.replace(",3,", f",{reps},", 1) for line in lines[2:]]
            ), "replicates must be at most 9223372036854775808")
              for reps in (2**63 + 1, 2**64 + 1, 10**400)],
        ],
    )
    def test_malformed_rows_are_rejected(self, tmp_path, mutate, pattern):
        path = self.write_valid(tmp_path)
        lines = path.read_text().splitlines()
        mutate(lines)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=pattern):
            read_results(str(path))

    @pytest.mark.parametrize("column, text, shown", [
        *[("replicates", text, text) for text in ("0_3", " 3", "+3", "03", "3.0", "3 ")],
        *[("axis_value", text, text) for text in ("2000", "2e3", "2_000.0", "+2000.0")],
        *[("mean_excess", text, text) for text in ("0.1_0", "1e-1", ".1", "0.10", "NaN")],
        ("extra", "t=0.3_5", "0.3_5"), ("extra", "t=3.5e-1", "3.5e-1"),
    ])
    def test_a_number_not_written_as_write_results_writes_it_is_rejected(
        self, tmp_path, column, text, shown
    ):
        """A numeric cell reads back only as str of its int (replicates) or repr of its float."""
        path = self.write_valid(tmp_path)
        lines = path.read_text().splitlines()
        cells = next(csv.reader([lines[2]]))
        cells[RESULTS_COLUMNS.index(column)] = text
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=re.escape(
            f"row 3: cannot parse {shown!r} in column {column!r} as a number"
        )):
            read_results(str(path))

    def test_replicates_up_to_the_sweep_bound_are_read(self, tmp_path):
        # Two grid values: sweep_cell_configs takes up to 2**64 // 2 replicates.
        path = self.write_valid(tmp_path)
        lines = path.read_text().splitlines()
        lines[2:] = [line.replace(",3,", f",{2**63},", 1) for line in lines[2:]]
        path.write_text("\n".join(lines) + "\n")
        assert read_results(str(path)).replicates == 2**63

    def test_truncated_file_is_rejected(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(f"# schema ssl-lab-sweep {RESULTS_SCHEMA_VERSION}\n")
        with pytest.raises(DataFormatError, match="missing header"):
            read_results(str(path))

    def test_unserializable_extra_key_is_rejected_at_write_time(self, tmp_path):
        stats = CellStats("sl", 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, {"a;b": 1.0})
        sweep = SweepResult(axis_name="snr", grid=(1.0,), replicates=1, cells=((stats,),))
        with pytest.raises(ValidationError):
            write_results(sweep, str(tmp_path / "bad.csv"))

    def test_failed_write_leaves_existing_file_intact(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(synthetic_sweep(), str(path))
        before = path.read_bytes()
        good = synthetic_sweep().cells[0]
        bad = (CellStats("sl", 3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, {"a;b": 1.0}),)
        sweep = SweepResult(axis_name="nu", grid=(1.0, 2.0), replicates=3, cells=(good, bad))
        with pytest.raises(ValidationError):
            write_results(sweep, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    def test_rewrite_keeps_permission_bits(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(synthetic_sweep(), str(path))
        os.chmod(path, 0o640)
        write_results(synthetic_sweep(), str(path))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
