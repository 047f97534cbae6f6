"""CSV ingestion, preprocessing, deterministic splits, and sweep files.

Tables come in as CSV with a header row, '.' decimal points, comma
separators, and no quoting of numeric fields. One designated column
holds the labels; every other column is parsed as a real-valued
feature, and malformed or non-finite cells are rejected with the
1-based file line of the offending row. Preprocessing covers per-column
standardization and PCA of the standardized table by one dense
eigensolve (numpy.linalg.eigh) of its covariance, deliberately unlike
the uncentered second moment the estimators diagonalize: ingested tables
carry no symmetry around the origin and no common unit, so the mean and
the spread must be removed before directions mean anything. No stage
holds a second copy of the table: load_csv cuts the label column out of
its parse in place, and both transforms go through the table in blocks
of ROW_BLOCK rows beside their one output.

Sweep results round-trip through a versioned CSV schema: a '# schema'
line first, then a fixed header, then one row per (grid cell, method).
Floats are written with repr() so every float64 survives bit-for-bit,
and method extras pack into the last column as semicolon-separated
key=value pairs. Readers reject any other schema version up front.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import shutil
import stat
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import DataFormatError, SchemaVersionError, ValidationError
from .estimators import ROW_BLOCK, canonical_sign
from .experiments import METHODS, STAT_FIELDS, SWEEP_AXES, CellStats, SweepResult
from .gmm import LabeledDataset, UnlabeledDataset, check_whole, freeze
from .seeds import MASK64

#: Version stamped into (and required from) results files.
RESULTS_SCHEMA_VERSION = 1

_SCHEMA_PREFIX = "# schema ssl-lab-sweep "

#: Fixed column order of a results file: the cell's axis name and value, then CellStats's fields.
RESULTS_COLUMNS = ("axis_name", "axis_value", "method", "replicates", *STAT_FIELDS, "extra")

#: Why a parse gave up when a rescan finds no row at fault, or a pipe cannot be rescanned.
_BAD_ROWS = "a row has the wrong width or a non-finite value"

#: Suffixes on which numpy's path opener decompresses; load_csv reads such names as plain text.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


@dataclass(frozen=True, eq=False)
class TabularDataset(LabeledDataset):
    """A LabeledDataset whose feature columns have names.

    `columns` holds the feature names in matrix order. LabeledDataset
    checks x and y: entries are finite and every label is -1 or +1.
    """

    columns: tuple

    def __post_init__(self):
        super().__post_init__()
        columns = tuple(self.columns)
        if len(columns) != self.d:
            raise ValidationError("columns must name each feature column exactly once")
        if not all(isinstance(name, str) and name for name in columns):
            raise ValidationError("column names must be nonempty strings")
        if len(set(columns)) != len(columns):
            raise ValidationError("column names must be unique")
        object.__setattr__(self, "columns", columns)


@dataclass(frozen=True)
class SplitSpec:
    """Sizes and seed for one deterministic labeled/pool/validation/test split.

    `n_l` rows become the labeled training set, `n_val` the (unlabeled)
    validation set, and `n_test` the held-out test set; whatever remains
    joins the unlabeled pool. The seed, a whole number taken modulo 2**64,
    fully determines the split.
    """

    n_l: int
    n_val: int
    n_test: int
    seed: int

    def __post_init__(self):
        for name, least in (("n_l", 0), ("n_val", 0), ("n_test", 0), ("seed", None)):
            object.__setattr__(self, name, check_whole(getattr(self, name), name, least))


def load_csv(path, label_column: str, positive_label) -> TabularDataset:
    """Read a feature table from a CSV file.

    The first row must be a header naming every column. `label_column`
    selects the label column: the raw cell equal to str(positive_label)
    maps to +1 and the other of the two distinct raw values maps to -1.
    Every remaining column is parsed as a float feature.

    Cells may be quoted with '"', and '#' is ordinary data, not a
    comment. Empty lines are skipped; line endings may be LF, CRLF or
    CR. A feature cell is accepted when, stripped of surrounding
    whitespace, it is ASCII, contains no '_', and float() parses it, as
    '1e-3', ' 2.5 ' or '-inf' do; non-finite values are then rejected.
    This is numpy.loadtxt's grammar, narrower than float()'s: '1_000'
    and non-ASCII digits such as the full-width U+FF11 are rejected.
    The file is plain text whatever its name: a '.gz' suffix is not
    decompressed. The features are the parse itself, with the label
    column cut out in place.

    Raises DataFormatError when the header is missing or has duplicate
    names, the label column is absent, a row has the wrong number of
    fields, a cell fails to parse or is non-finite (the message names
    the column and the 1-based file line of the first such cell, a
    quoted field spanning lines counting as one), there are no data rows
    or no feature columns, the labels do not take exactly two distinct
    values, positive_label is not one of them, or the bytes are not text
    in the locale's encoding (the message names the first physical line
    that does not decode). A pipe, read once, gets no line number.
    """
    display = os.fsdecode(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            try:
                header = [name.strip() for name in next(reader)]
            except StopIteration:
                raise DataFormatError(f"{display}: empty file, expected a header row") from None
            if len(set(header)) != len(header):
                raise DataFormatError(f"{display}: duplicate column names in header")
            if label_column not in header:
                raise DataFormatError(
                    f"{display}: label column {label_column!r} not found; columns are {header}"
                )
            label_index = header.index(label_column)
            feature_names = tuple(name for i, name in enumerate(header) if i != label_index)
            if not feature_names:
                raise DataFormatError(f"{display}: no feature columns besides the label column")
            try:
                table, codes = _parse_rows(handle, display, reader.line_num, label_index)
            except ValueError as err:
                # Rows narrower than the label column fail before numpy parses any.
                cause = _BAD_ROWS if "invalid for the number of fields" in str(err) else err
                _raise_first_fault(handle, display, header, label_index, cause)
            # loadtxt takes the width from the first data row, not the header.
            if table.size and (table.shape[1] != len(header) or not np.all(np.isfinite(table))):
                _raise_first_fault(handle, display, header, label_index, _BAD_ROWS)
        except UnicodeDecodeError as err:
            _raise_undecodable(handle.buffer, display, err)
    if table.shape[0] == 0:
        raise DataFormatError(f"{display}: no data rows after the header")
    distinct = sorted(codes)
    if len(distinct) != 2:
        raise DataFormatError(
            f"{display}: label column must take exactly two distinct values, "
            f"found {len(distinct)}: {distinct[:5]}"
        )
    positive = str(positive_label)
    if positive not in codes:
        raise DataFormatError(
            f"{display}: positive label {positive!r} not among label values {distinct}"
        )
    y = freeze(np.where(table[:, label_index] == codes[positive], 1.0, -1.0))
    x = freeze(_drop_column(table, label_index))
    return TabularDataset(x=x, y=y, columns=feature_names)


def _drop_column(table: np.ndarray, index: int) -> np.ndarray:
    """`table` less column `index`, moved to the front of the table's own buffer and cut to fit.

    Row r's kept cells move from flat offset r (d + 1) to r d, so no row lands
    on a row after it, but within a block of rows one lands on the rows
    before it: each block goes through a block-sized buffer. The caller made
    `table` and holds no view of it, so resize may give the tail back.
    """
    n, width = table.shape
    d = width - 1
    flat = table.reshape(-1)
    buf = np.empty((min(ROW_BLOCK, n), d))
    for start in range(0, n, ROW_BLOCK):
        rows = flat[start * width:(start + ROW_BLOCK) * width].reshape(-1, width)
        kept = buf[:len(rows)]
        kept[:, :index] = rows[:, :index]
        kept[:, index:] = rows[:, index + 1:]
        flat[start * d:start * d + kept.size].reshape(-1, d)[...] = kept
    del flat, rows
    table.resize((n, d), refcheck=False)
    return table


class _LabelCodes(dict):
    """Stripped label cell -> float code, numbered in order of first appearance.

    The parse calls the bound __getitem__, so an unpadded label already
    seen costs one C-level lookup; any other cell lands in __missing__.
    """

    def __missing__(self, raw: str) -> float:
        return self.setdefault(raw.strip(), float(len(self)))


def _parse_rows(handle, display: str, header_lines: int, label_index: int):
    """(table, codes): numpy.loadtxt's parse of the rows after the header.

    `handle` has just read the header's `header_lines` physical lines. A
    regular file is parsed again from its path, which numpy reads in large
    chunks where it iterates a handle line by line. The handle parses the
    rest itself: a pipe, which cannot be opened twice; a name that numpy's
    path opener would decompress (_COMPRESSED); and a table with a quoted
    line break in a label, which that opener would turn from CR LF or CR
    into LF.
    """
    if stat.S_ISREG(os.fstat(handle.fileno()).st_mode) and not display.endswith(_COMPRESSED):
        # An absolute name, which numpy's opener cannot take for a URL.
        table, codes = _loadtxt(os.path.join(os.getcwd(), display), header_lines, label_index)
        if not any("\n" in label for label in codes):
            return table, codes
    return _loadtxt(handle, 0, label_index)


def _loadtxt(source, skiprows: int, label_index: int):
    """(table, codes) of the rows in `source` after its first `skiprows` lines."""
    codes = _LabelCodes()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(
            source,
            dtype=float,
            delimiter=",",
            quotechar='"',
            comments=None,
            skiprows=skiprows,
            ndmin=2,
            converters={label_index: codes.__getitem__},
            encoding=None,
        )
    return table, codes


def _raise_undecodable(raw, display: str, err: UnicodeDecodeError) -> NoReturn:
    """Raise DataFormatError naming the first physical line that err's codec cannot decode.

    `raw` is the binary stream under the table's handle; a pipe cannot be
    rescanned, so its message names no line.
    """
    if raw.seekable():
        raw.seek(0)
        lines = (line for piece in raw for line in piece.splitlines())
        for number, line in enumerate(lines, start=1):
            try:
                line.decode(err.encoding)
            except UnicodeDecodeError:
                raise DataFormatError(
                    f"{display}: line {number}: not valid {err.encoding} text"
                ) from None
    raise DataFormatError(f"{display}: not valid {err.encoding} text: {err.reason}") from None


def _raise_first_fault(handle, display: str, header: list, label_index: int, cause) -> NoReturn:
    """Rescan the rows after the header and raise DataFormatError at the first fault.

    Faults are checked in row-major order: a row with the wrong number
    of fields, then each feature cell that does not parse under the
    load_csv grammar or is non-finite. When every row passes, the error
    carries `cause`, the reason the fast parse gave up. A pipe cannot be
    rescanned, so its error carries `cause` at once, less numpy's row
    number, which counts rows after the header rather than file lines.
    """
    if not handle.seekable():
        reason, at, _ = str(cause).rpartition(" at row ")
        raise DataFormatError(f"{display}: {reason if at else cause}") from None
    handle.seek(0)
    reader = csv.reader(handle)
    next(reader)
    for line, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise DataFormatError(
                f"{display}: row {line}: expected {len(header)} fields, found {len(record)}"
            )
        for i, cell in enumerate(record):
            if i == label_index:
                continue
            text = cell.strip()
            try:
                value = float(text) if text.isascii() and "_" not in text else None
            except ValueError:
                value = None
            if value is None:
                raise DataFormatError(
                    f"{display}: row {line}: cannot parse {cell!r} in column "
                    f"{header[i]!r} as a real number"
                )
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{display}: row {line}: non-finite value {cell!r} in column {header[i]!r}"
                )
    raise DataFormatError(f"{display}: {cause}")


def save_csv(data: TabularDataset, path) -> None:
    """Write the table to CSV with full-precision floats.

    Features are written with repr(), which round-trips every float64
    bit-for-bit; labels are written as 1 / -1 in a last column named
    "label", so no feature may take that name. load_csv(path, "label",
    "1") restores the dataset exactly. The file is replaced atomically
    (see atomic_writer).
    """
    if "label" in data.columns:
        raise ValidationError("label column name 'label' collides with a feature")
    with atomic_writer(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(data.columns) + ["label"])
        for row, label in zip(data.x, data.y):
            writer.writerow([repr(float(v)) for v in row] + [str(int(label))])


def standardize(data: TabularDataset) -> TabularDataset:
    """Center each feature column and rescale it to unit population spread.

    Needs at least two rows. Non-constant columns come out with mean
    0 +/- 1e-9 and population standard deviation 1 (numpy's std, bit for
    bit); zero-variance columns are divided by 1, so they come out
    centered, all zeros. Beside its output it holds one block of rows.
    """
    if data.n < 2:
        raise ValidationError("standardize needs at least 2 rows")
    mean, scale = _standardizer(data.x)
    x = np.empty(data.x.shape)
    for start, z in _standardized_blocks(data.x, mean, scale):
        x[start:start + len(z)] = z
    return TabularDataset(x=freeze(x), y=data.y, columns=data.columns)


def _standardizer(x: np.ndarray):
    """(mean, scale) of standardize's rule for x: its column means, and _scale
    of its column mean squares about them."""
    mean = x.mean(axis=0)
    return mean, _scale(_column_mean_square(x, mean))


def _scale(mean_square: np.ndarray) -> np.ndarray:
    """Each column's population spread (numpy's std, bit for bit) or 1 where it is 0."""
    std = np.sqrt(mean_square)
    return np.where(std == 0.0, 1.0, std)


def _column_mean_square(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """np.mean((x - mean) ** 2, axis=0) bit for bit, squaring one block of rows at a time.

    numpy sums axis 0 of a C-contiguous matrix one row after another, so each
    block's squares are summed after the running sum, which sits in the row
    before them. A single column numpy sums pairwise instead, so at d = 1 the
    one block holds every row.
    """
    n, d = x.shape
    step = ROW_BLOCK if d > 1 else n
    buf = np.empty((min(step, n) + 1, d))
    for start in range(0, n, step):
        rows = x[start:start + step]
        squares = np.subtract(rows, mean, out=buf[1:len(rows) + 1])
        np.multiply(squares, squares, out=squares)
        if start:
            buf[0] = total
            squares = buf[:len(rows) + 1]
        total = np.add.reduce(squares, axis=0)
    return total / n


def _standardized_blocks(x: np.ndarray, mean: np.ndarray, scale: np.ndarray):
    """Yield (start, z): rows start.. of standardize's output, a block at a time in one buffer."""
    buf = np.empty((min(ROW_BLOCK, len(x)), x.shape[1]))
    for start in range(0, len(x), ROW_BLOCK):
        rows = x[start:start + ROW_BLOCK]
        z = np.subtract(rows, mean, out=buf[:len(rows)])
        yield start, np.divide(z, scale, out=z)


def pca_project(data: TabularDataset, k: int) -> TabularDataset:
    """Project the standardized features onto their top-k principal axes.

    The table is standardized as by standardize, one block of rows at a
    time, never as a whole. The axes are the top-k eigenvectors of the
    standardized table's covariance, z'z / n summed over the blocks (one
    dense eigensolve), each with its largest-|entry| coordinate made
    positive as in estimators.leading_eigenpair. The scores, z times the
    axes, are an n x k matrix with columns pc1..pck in nonincreasing order
    of variance, written a block at a time; labels ride along unchanged.
    Raises ValidationError unless k is a whole number with 1 <= k <= d and
    the table has at least two rows.
    """
    k = check_whole(k, "k", 1, data.d)
    if data.n < 2:
        raise ValidationError("pca needs at least 2 rows")
    mean, scale = _standardizer(data.x)
    gram = sum(z.T @ z for _, z in _standardized_blocks(data.x, mean, scale))
    _, vectors = np.linalg.eigh(gram / data.n)
    components = np.column_stack([canonical_sign(vectors[:, -1 - j]) for j in range(k)])
    scores = np.empty((data.n, k))
    for start, z in _standardized_blocks(data.x, mean, scale):
        np.matmul(z, components, out=scores[start:start + len(z)])
    columns = tuple(f"pc{j + 1}" for j in range(k))
    return TabularDataset(x=freeze(scores), y=data.y, columns=columns)


def split(data: TabularDataset, spec: SplitSpec):
    """Deterministic disjoint split into labeled / pool / validation / test.

    A permutation seeded by spec.seed orders the rows; the first n_l
    become the labeled training set, the next n_val the validation set
    (labels stripped), the next n_test the held-out test set, and every
    remaining row joins the unlabeled pool (labels stripped). Returns
    (labeled, pool, validation, test); raises ValidationError when
    n_l + n_val + n_test exceeds the number of rows.
    """
    check_whole(spec.n_l + spec.n_val + spec.n_test, "n_l + n_val + n_test", most=data.n)
    perm = np.random.default_rng(spec.seed & MASK64).permutation(data.n)
    stop_l = spec.n_l
    stop_v = stop_l + spec.n_val
    stop_t = stop_v + spec.n_test
    rows_l, rows_v = perm[:stop_l], perm[stop_l:stop_v]
    rows_t, rows_p = perm[stop_v:stop_t], perm[stop_t:]
    x, y = data.x, data.y
    return (
        LabeledDataset(x=freeze(x[rows_l]), y=freeze(y[rows_l])),
        UnlabeledDataset(x=freeze(x[rows_p])),
        UnlabeledDataset(x=freeze(x[rows_v])),
        LabeledDataset(x=freeze(x[rows_t]), y=freeze(y[rows_t])),
    )


def _format_number(value) -> str:
    return repr(float(value))


def _format_extra(extra: dict) -> str:
    parts = []
    for key in extra:
        if not isinstance(key, str) or not key or any(c in key for c in ";=,\n\r"):
            raise ValidationError(f"extra key {key!r} cannot be serialized")
        parts.append(f"{key}={_format_number(extra[key])}")
    return ";".join(parts)


@contextlib.contextmanager
def atomic_writer(path):
    """Yield a text handle whose contents replace `path` when the block ends.

    Writes go to a temporary file beside `path` that os.replace then moves
    over it, so readers see the old file or the whole new one, never a
    truncated one. The temporary file is fsynced before the replace, so a
    crash of the machine cannot leave a partial file either, and it takes
    the permission bits of the file it replaces. If the block raises, the
    temporary file is removed and `path` is left as it was.
    """
    temp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", newline="") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, temp)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


def write_results(sweep: SweepResult, path) -> None:
    """Serialize a sweep to versioned CSV, one row per (grid cell, method).

    The first line stamps the schema version, the second is the fixed
    header, and every float is written with repr() so read_results
    reproduces the sweep exactly (NaN and infinities included). The file
    is replaced atomically (see atomic_writer).
    """
    with atomic_writer(path) as handle:
        handle.write(f"{_SCHEMA_PREFIX}{RESULTS_SCHEMA_VERSION}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RESULTS_COLUMNS)
        for value, row in zip(sweep.grid, sweep.cells):
            for stats in row:
                writer.writerow([
                    sweep.axis_name, _format_number(value), stats.method,
                    str(int(stats.replicates)),
                    *(_format_number(getattr(stats, name)) for name in STAT_FIELDS),
                    _format_extra(stats.extra),
                ])


def _parse_number(text: str, line: int, column: str, kind=float):
    """The `kind` number a cell holds, if `text` is its repr: the text write_results
    writes for it (`str` of a replicates count, _format_number of any float)."""
    try:
        value = kind(text)
        if repr(value) == text:
            return value
    except ValueError:
        pass
    raise DataFormatError(
        f"row {line}: cannot parse {text!r} in column {column!r} as a number in write_results' form"
    )


def _parse_extra(text: str, line: int) -> dict:
    if not text:
        return {}
    extra = {}
    for part in text.split(";"):
        key, sep, value = part.partition("=")
        if not sep or not key:
            raise DataFormatError(f"row {line}: malformed extra entry {part!r}")
        extra[key] = _parse_number(value, line, "extra")
    return extra


def read_results(path) -> SweepResult:
    """Read a sweep written by write_results.

    The file must open with the matching '# schema ssl-lab-sweep N' line;
    a missing line or any other version raises SchemaVersionError. A
    header-only file reads back as an empty sweep. Grid values appear in
    file order, and rows sharing an axis value group into one cell. A row
    raises DataFormatError naming it if it breaks CellStats's contract,
    names an axis not in SWEEP_AXES or a method not in METHODS, has a NaN
    or infinite axis value, repeats a method of its cell, or holds a number
    not written as write_results writes it (`+2` or `0_2` replicates, `1e-3`
    for 0.001); so do bytes the file's encoding cannot decode and a
    replicates count that sweep_cell_configs would refuse for the file's
    grid.
    """
    try:
        with open(path, newline="") as handle:
            return _read_sweep(handle)
    except UnicodeDecodeError as err:
        raise DataFormatError(f"{path} cannot be decoded: {err}") from None


def _read_sweep(handle) -> SweepResult:
    """read_results on an open handle."""
    first = handle.readline()
    if not first.startswith(_SCHEMA_PREFIX):
        raise SchemaVersionError(
            f"missing schema line; expected {_SCHEMA_PREFIX!r}"
            f" followed by the version number"
        )
    version = first[len(_SCHEMA_PREFIX):].strip()
    if version != str(RESULTS_SCHEMA_VERSION):
        raise SchemaVersionError(
            f"unsupported results schema version {version!r}; "
            f"this reader handles version {RESULTS_SCHEMA_VERSION}"
        )
    reader = csv.reader(handle)
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise DataFormatError("missing header row") from None
    if header != RESULTS_COLUMNS:
        raise DataFormatError(
            f"unexpected header {list(header)}; expected {list(RESULTS_COLUMNS)}"
        )
    axis_name = None
    replicates = None
    grid = []
    cells = []
    index = {}
    for line, record in enumerate(reader, start=3):
        if not record:
            continue
        if len(record) != len(RESULTS_COLUMNS):
            raise DataFormatError(
                f"row {line}: expected {len(RESULTS_COLUMNS)} fields, "
                f"found {len(record)}"
            )
        name, value_text, method, reps_text, *stat_texts, extra_text = record
        if axis_name is None:
            if name not in SWEEP_AXES:
                raise DataFormatError(f"row {line}: axis name {name!r} is not one of {SWEEP_AXES}")
            axis_name = name
        elif name != axis_name:
            raise DataFormatError(
                f"row {line}: axis name {name!r} differs from {axis_name!r}"
            )
        value = _parse_number(value_text, line, "axis_value")
        if not math.isfinite(value):
            raise DataFormatError(f"row {line}: axis value {value_text!r} is not finite")
        reps = _parse_number(reps_text, line, "replicates", int)
        if replicates is None:
            replicates = reps
        elif reps != replicates:
            raise DataFormatError(
                f"row {line}: replicates {reps} differs from {replicates}"
            )
        if method not in METHODS:
            raise DataFormatError(f"row {line}: unknown method tag {method!r}")
        numbers = {
            column: _parse_number(text, line, column)
            for text, column in zip(stat_texts, STAT_FIELDS)
        }
        try:
            stats = CellStats(method, reps, **numbers, extra=_parse_extra(extra_text, line))
        except ValidationError as err:
            raise DataFormatError(f"row {line}: {err}") from None
        if value in index:
            cell = cells[index[value]]
            if any(other.method == method for other in cell):
                raise DataFormatError(
                    f"row {line}: method {method!r} repeats at axis value {value_text}"
                )
            cell.append(stats)
        else:
            index[value] = len(grid)
            grid.append(value)
            cells.append([stats])
    if axis_name is None:
        return SweepResult(axis_name="", grid=(), replicates=0, cells=())
    try:
        # The bound sweep_cell_configs puts on replicates over this grid.
        check_whole(replicates, "replicates", 1, 2**64 // len(grid))
    except ValidationError as err:
        raise DataFormatError(str(err)) from None
    return SweepResult(
        axis_name=axis_name,
        grid=tuple(grid),
        replicates=replicates,
        cells=tuple(tuple(cell) for cell in cells),
    )
