"""The one dated-CSV reader and writer shared by prices, context series,
curves, weight paths and plot inputs."""
import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from portalloc import market_data
from portalloc.cli import main
from portalloc.errors import DataError
from portalloc.features import load_context_csv
from portalloc.market_data import (RegimeSpec, SyntheticSpec, dated_csv, generate_synthetic,
                                   load_price_csv, read_dated_csv, write_price_csv)

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# lines that look like the format, so faults deep in a file are reached too;
# "_", "#", the whitespace and the non-ASCII digit are cells that float() and
# numpy's reader could parse differently
CSV_LIKE = st.text(alphabet="date,AB0123456789-.eEinfa+ \"\r\n\x00_#\t\v\x1c\u0663",
                   max_size=80)
TEXT = st.one_of(st.text(max_size=80), CSV_LIKE,
                 CSV_LIKE.map(lambda body: "date,A,B\n2020-01-02,1,2\n" + body))
CONTENT = st.one_of(TEXT.map(lambda text: text.encode("utf-8")), st.binary(max_size=80))

READERS = (load_price_csv, load_context_csv, lambda path: read_dated_csv(path, "plot"))


def write(tmp_path, text: str) -> str:
    path = tmp_path / "in.csv"
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.csv"


@PROPERTY
@given(content=CONTENT)
@example(content=b"\xff\xfe")
@example(content=b"")
@example(content=b"\n")
@example(content=b"date,A\n2020-01-02,nan\n")
@example(content=b"date,A\n2020-01-02,\"1\n")
def test_any_file_reads_or_raises_data_error(fuzz_file, content):
    fuzz_file.write_bytes(content)
    for reader in READERS:
        try:
            reader(str(fuzz_file))
        except DataError:
            pass


FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300]))


@st.composite
def dated_frames(draw):
    days = draw(st.lists(st.dates(), min_size=1, max_size=6, unique=True))
    names = draw(st.lists(st.text(alphabet="abcXYZ019_", min_size=1, max_size=5),
                          min_size=1, max_size=4))
    values = draw(st.lists(FLOATS, min_size=len(days) * len(names),
                           max_size=len(days) * len(names)))
    dates = np.array(sorted(days), dtype="datetime64[D]")
    return dates, tuple(names), np.array(values, dtype=float).reshape(len(days), len(names))


@PROPERTY
@given(frame=dated_frames())
@example(frame=(np.array(["2020-01-02"], dtype="datetime64[D]"), ("a", "b", "c"),
                np.array([[-0.0, 5e-324, 1e300]])))
def test_write_then_read_is_exact(fuzz_file, frame):
    dates, names, matrix = frame
    fuzz_file.write_text(dated_csv(dates, names, matrix))
    got_dates, got_names, got_matrix = read_dated_csv(str(fuzz_file), "test")
    assert np.array_equal(got_dates, dates)
    assert got_names == names
    # bit-identical, so -0.0 and 0.0 differ
    assert np.array_equal(got_matrix.view(np.int64), matrix.view(np.int64))


@st.composite
def held_matrices(draw):
    """Weight-path-like matrices: each drawn row is held for a run of dates,
    optionally followed by its copy with every zero's sign flipped."""
    cols = draw(st.integers(1, 4))
    cell = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), FLOATS)
    rows = []
    for row in draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=1,
                             max_size=5)):
        rows += [row] * draw(st.integers(1, 4))
        if draw(st.booleans()):
            rows += [[-x if x == 0.0 else x for x in row]] * draw(st.integers(1, 3))
    dates = np.datetime64("2020-01-02") + np.arange(len(rows))
    return dates, tuple(f"c{i}" for i in range(cols)), np.array(rows, dtype=float)


@PROPERTY
@given(frame=held_matrices())
@example(frame=(np.array(["2020-01-02"], dtype="datetime64[D]"), ("a", "b"),
                np.array([[0.0, -0.0]])))
@example(frame=(np.array(["2020-01-02", "2020-01-03", "2020-01-06", "2020-01-07"],
                         dtype="datetime64[D]"), ("a",),
                np.array([[0.0], [-0.0], [-0.0], [0.0]])))
def test_writer_equals_the_row_by_row_loop(frame):
    assert dated_csv(*frame) == oracles.row_by_row_dated_csv(*frame)


@st.composite
def edited_frames(draw):
    """A written frame with one data line edited: a blank line before it, or
    one extra cell after it."""
    lines = dated_csv(*draw(dated_frames())).split("\n")
    i = draw(st.integers(1, len(lines) - 2))
    lines[i] = draw(st.sampled_from(["\n" + lines[i], lines[i] + ",1.5"]))
    return "\n".join(lines).encode()


# a 300 x 24 price panel
WIDE = generate_synthetic(SyntheticSpec(24, 299, (RegimeSpec(np.zeros(24), np.full(24, 0.01),
                                                             0.2, 50),), seed=5))


def read_or_error(reader, path):
    try:
        return reader(path, "plot")
    except DataError as exc:
        return str(exc)


@PROPERTY
@given(content=st.one_of(CONTENT, dated_frames().map(lambda f: dated_csv(*f).encode()),
                         dated_frames().map(lambda f: dated_csv(*f).encode()
                                            .replace(b"\n", b"\r\n")),
                         edited_frames()))
@example(content=b"date,A,B,C\n2020-01-02,1,x,y\n")
@example(content=b"date,A\n2020-01-02," + b"0" * csv.field_size_limit() + b"1\n")
@example(content=dated_csv(WIDE.dates, WIDE.assets, WIDE.prices).encode())
@example(content=b"date,A\n2020-01-02,1_0\n")
@example(content=b"date,A\n2020-01-02,\x1c2\n")
@example(content="date,A\n2020-01-02,\u0663\n".encode())
@example(content=b"date,A\n2020-01-02,1#2\n")
@example(content=b'date,"A"\n2020-01-02,1\n')
@example(content=b"date,A\r\n2020-01-02,1\n")
@example(content=b"date,A\r\n2020-01-02,1\r\n2020-01-03,2")
@example(content=b"date,A\r\r\n2020-01-02,1\r\n")
@example(content=b"date,A\r\n2020-01-02,1\r\r\n2020-01-03,2\r\n")
@example(content=b"date,A\r\n2020-01-02,1\r")
@example(content=b"date,A\r\n2020-01-02,1\r2020-01-03,2\r\n")
@example(content=b"date,A\n2020-01-02,1\n\n2020-01-03,2\n")
@example(content=b"date,A\n2020-01-02,1,2\n2020-01-03,2\n")
@example(content=b"date,A\n2020-01-03,1\n2020-01-02,2\n")
@example(content=b"date,A\n2020-01-02,1\n2020-01-03,inf\n")
@example(content=b"date,A\n20200102,1\n2020-01-03,2\n")
@example(content=b"date,A\n2020-W01-4,1\n2020-W02-1,2\n")
@example(content=b"date,A\n0001-01-01,1\n9999-12-31,2\n")
@example(content=b"date,A\n2020-01-02,1\n2020-01-03,nan\n2020-01-06,x\n")
def test_reader_equals_the_cell_by_cell_reader(fuzz_file, content):
    fuzz_file.write_bytes(content)
    got = read_or_error(read_dated_csv, str(fuzz_file))
    want = read_or_error(oracles.cell_by_cell_read_dated_csv, str(fuzz_file))
    if isinstance(want, str):
        assert got == want
        return
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert np.array_equal(got[2].view(np.int64), want[2].view(np.int64))


def test_written_panel_is_parsed_without_the_row_walk(tmp_path, monkeypatch):
    path = str(tmp_path / "prices.csv")
    write_price_csv(WIDE, path)
    monkeypatch.setattr(market_data, "_walk_dated_csv", None)
    frame = load_price_csv(path)
    assert np.array_equal(frame.dates, WIDE.dates) and frame.assets == WIDE.assets
    assert np.array_equal(frame.prices.view(np.int64), WIDE.prices.view(np.int64))


@pytest.mark.parametrize("text", [
    'date,"A"\n2020-01-02,1\n',
    "date,A\n2020-01-02,1\r\n2020-01-03,2\r\r\n",
    "date,A\0\n2020-01-02,1\n",
    *(f"date,A\n2020-01-02,{c}2\n" for c in "\x1c\x1d\x1e\x1f"),
    "date,A\n2020-01-02,\u0663\n",
    "date,A\n2020-01-02,1,2\n",
    "date,A,B\n2020-01-02,1\n",
    "date,A\n2020-01-02," + "0" * csv.field_size_limit() + "1\n",
], ids=["quote", "lone-cr", "nul", "x1c", "x1d", "x1e", "x1f", "non-ascii", "comma-more",
        "comma-fewer", "over-field-limit"])
def test_unsafe_file_goes_to_the_row_walk(tmp_path, text):
    """Each feature the pre-scan looks for sends its file to the row walk, which
    reads it as the cell-by-cell reader does."""
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    assert market_data._read_one_way(str(path)) is None
    got = read_or_error(read_dated_csv, str(path))
    want = read_or_error(oracles.cell_by_cell_read_dated_csv, str(path))
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert np.array_equal(got[2].view(np.int64), want[2].view(np.int64))


def test_crlf_panel_is_parsed_without_the_row_walk(tmp_path, monkeypatch):
    path = tmp_path / "prices.csv"
    with open(path, "w", newline="") as fh:  # csv.writer ends lines with \r\n
        writer = csv.writer(fh)
        writer.writerow(("date",) + WIDE.assets)
        writer.writerows([str(day)] + [repr(x) for x in row]
                         for day, row in zip(WIDE.dates, WIDE.prices.tolist()))
    assert path.read_bytes().count(b"\r\n") == len(WIDE.dates) + 1
    monkeypatch.setattr(market_data, "_walk_dated_csv", None)
    frame = load_price_csv(str(path))
    assert np.array_equal(frame.dates, WIDE.dates) and frame.assets == WIDE.assets
    assert np.array_equal(frame.prices.view(np.int64), WIDE.prices.view(np.int64))


class TestMessages:
    def test_context_duplicate_and_unordered_are_distinct(self, tmp_path):
        dup = write(tmp_path, "date,x\n2020-01-02,1\n2020-01-02,2\n")
        with pytest.raises(DataError, match="duplicate date at row 3"):
            load_context_csv(dup)
        unordered = write(tmp_path, "date,x\n2020-01-02,1\n2020-01-01,2\n")
        with pytest.raises(DataError, match="unordered dates at row 3"):
            load_context_csv(unordered)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cells_rejected_for_every_kind(self, tmp_path, cell):
        path = write(tmp_path, f"date,AA\n2020-01-02,1.0\n2020-01-03,{cell}\n")
        for reader in READERS:
            with pytest.raises(DataError, match=r"non-finite cell at \(row 3, column AA\)"):
                reader(path)

    def test_first_non_positive_price_named(self, tmp_path):
        path = write(tmp_path, "date,AA,BB\n2020-01-02,1.0,2.0\n2020-01-03,3.0,-1.0\n"
                               "2020-01-06,0.0,2.0\n")
        with pytest.raises(DataError, match=r"non-positive price at \(row 3, asset BB\)"):
            load_price_csv(path)

    def test_blank_first_line_is_a_header_error(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            read_dated_csv(write(tmp_path, "\n2020-01-02,1\n"), "plot")

    def test_no_data_rows(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            read_dated_csv(write(tmp_path, "date,a\n"), "plot")

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"date,a\n2020-01-02,\xff\xfe\n")
        with pytest.raises(DataError, match="unreadable"):
            read_dated_csv(str(path), "plot")

    def test_directory_is_unreadable(self, tmp_path):
        with pytest.raises(DataError, match="unreadable"):
            read_dated_csv(str(tmp_path), "plot")


@pytest.mark.parametrize("body, needle", [
    ("date,a\n2020-01-07,1.0\n2020-01-06,2.0\n", "unordered dates"),
    ("date,a\n2020-01-06,1.0\n2020-01-07,nan\n", "non-finite cell"),
])
def test_plot_inputs_get_the_shared_checks(tmp_path, capsys, body, needle):
    bad = write(tmp_path, body)
    for flag in ("--curves", "--weights"):
        assert main(["plot", flag, bad, "--outdir", str(tmp_path / "o")]) == 2
        assert needle in capsys.readouterr().err

