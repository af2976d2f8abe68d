"""Long files against the per-row reference loader. `load_csv` skips blank
rows, checks widths and parses weights over the whole file at once; these
files hold 8,195 data records and put blank rows, whitespace, wrong widths
and bad weights around records 4,096 and 8,192, where a block-wise loader
reading 4,096 records at a time would cut them. Each must give the same
`Table`, or the same error with the same row number, as the reference."""

import pytest

from rankjoin import IngestError, load_csv

from test_ingest_equivalence import outcome, reference_load_csv

BLOCK = 4096
N = 2 * BLOCK + 3  # data records: two blocks' worth and three more
BOUNDARIES = (BLOCK, 2 * BLOCK)


def _records(width=3, blank_at=(), blanks=("", " \t"), **replace):
    """`N` data records (header excluded) of a `width`-column file whose last
    column is `w`; record i holds its own values unless `replace` gives its
    text (keyed `r<i>`), and records in `blank_at` take turns at `blanks`."""
    out = []
    for i in range(N):
        if i in blank_at:
            out.append(blanks[i % len(blanks)])
            continue
        cells = [f"k{i}", f"h{i % 7}"][: width - 1] + [str(i - N // 2)]
        out.append(replace.get(f"r{i}", ",".join(cells)))
    return out


def _write(tmp_path, header, records, newline="\n", name="r.csv"):
    path = str(tmp_path / name)
    with open(path, "w", newline="") as fh:
        fh.write(newline.join([header] + records) + newline)
    return path


def _same_as_reference(path, weight_column):
    got = outcome(load_csv, path, weight_column)
    assert got == outcome(reference_load_csv, path, weight_column)
    return got


def _row_no(record):
    """The row number an error names for a data record: the header is
    row 1."""
    return record + 2


AROUND_BOUNDARIES = {b + d for b in BOUNDARIES for d in (-2, -1, 0, 1)}


@pytest.mark.parametrize("weight_column", ["w", None])
def test_blank_and_whitespace_rows_on_both_sides_of_a_boundary(
    tmp_path, weight_column
):
    path = _write(tmp_path, "x,y,w", _records(blank_at=AROUND_BOUNDARIES))
    table = _same_as_reference(path, weight_column)
    assert len(table.rows) == N - len(AROUND_BOUNDARIES)


def test_whitespace_fields_across_blocks(tmp_path):
    """A file that needs stripping has every field stripped."""
    records = [f" k{i} ,\th{i % 7}, {i} " for i in range(N)]
    table = _same_as_reference(_write(tmp_path, "x, y ,w", records), "w")
    assert table.rows[-1] == (f"k{N - 1}", f"h{(N - 1) % 7}")


@pytest.mark.parametrize("record", [2 * BLOCK + 1, BLOCK - 1])
def test_wrong_field_count(tmp_path, record):
    records = _records(blank_at={record - 3}, **{f"r{record}": "k,1"})
    path = _write(tmp_path, "x,y,w", records)
    assert _same_as_reference(path, "w") == (
        IngestError, f"{path}:{_row_no(record)}: expected 3 fields, got 2"
    )


WEIGHTS = {
    "bad": ("1x", "weight '1x' is not a 64-bit integer"),
    "overlong": ("9" * 5000, f"weight '{'9' * 5000}' is not a 64-bit integer"),
    "out of range": (str(2**63), f"weight {2**63} outside 64-bit range"),
}


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
def test_invalid_weight_in_the_third_block(tmp_path, kind):
    text, message = WEIGHTS[kind]
    record = 2 * BLOCK + 2
    records = _records(
        blank_at={BLOCK}, **{f"r{record}": f"k,h,{text}"}
    )
    path = _write(tmp_path, "x,y,w", records)
    assert _same_as_reference(path, "w") == (
        IngestError, f"{path}:{_row_no(record)}: {message}"
    )


@pytest.mark.parametrize("blanks", [(" \t",), ("", " ")])
def test_width_one_files_with_whitespace_rows(tmp_path, blanks):
    """One column: a whitespace-only row is blank, though it looks like a
    row of the right width."""
    records = _records(width=1, blank_at=AROUND_BOUNDARIES, blanks=blanks)
    table = _same_as_reference(_write(tmp_path, "x", records), None)
    assert len(table.rows) == N - len(AROUND_BOUNDARIES)
    assert all(type(row) is tuple and len(row) == 1 for row in table.rows)


def test_one_column_besides_the_weight(tmp_path):
    path = _write(tmp_path, "x,w", _records(width=2, blank_at=AROUND_BOUNDARIES))
    table = _same_as_reference(path, "w")
    assert all(type(row) is tuple and len(row) == 1 for row in table.rows)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_line_endings(tmp_path, newline):
    path = _write(
        tmp_path, "x,y,w", _records(blank_at=AROUND_BOUNDARIES), newline
    )
    table = _same_as_reference(path, "w")
    assert len(table.rows) == N - len(AROUND_BOUNDARIES)
    unix = _write(
        tmp_path, "x,y,w", _records(blank_at=AROUND_BOUNDARIES), name="n.csv"
    )
    assert table == load_csv(unix, "R", weight_column="w")


def test_a_clean_file_spans_three_blocks(tmp_path):
    path = _write(tmp_path, "x,y,w", _records())
    table = _same_as_reference(path, "w")
    assert len(table.rows) == N and table.weights[-1] == N - 1 - N // 2
