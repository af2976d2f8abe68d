"""`load_csv` against a per-row reference loader on generated CSV text.

The reference below reads a file one record at a time: skip blank records,
check the width, strip every field, parse the weight with `_INT_RE` and
`int`, then collapse duplicates. `load_csv` decides stripping once per file
and parses the weight column in bulk; it must give the same `Table`, or raise
the same error with the same message (and so the same row number)."""

import csv
import os
import re
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from rankjoin import IngestError, SchemaError, Table, load_csv, load_vertex_weights
from rankjoin.data import _STRIP_NEEDED

INT_RE = re.compile(r"^[+-]?\d+$")
# What can make a field differ from its stripped text: whitespace other than
# line ends, and the quote. `\s` and `str.strip` test the same characters.
STRIP_NEEDED_RE = re.compile(r'[^\S\r\n]|"')
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def reference_parse_weight(text, row_no, path):
    not_int = IngestError(f"{path}:{row_no}: weight {text!r} is not a 64-bit integer")
    if not INT_RE.match(text.strip()):
        raise not_int
    try:
        value = int(text)
    except ValueError:  # past the interpreter's digit limit
        raise not_int from None
    if not (INT64_MIN <= value <= INT64_MAX):
        raise IngestError(f"{path}:{row_no}: weight {value} outside 64-bit range")
    return value


def reference_load_csv(path, name, weight_column=None):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: missing header row") from None
        header = tuple(h.strip() for h in header)
        widx = None
        if weight_column is not None:
            if weight_column not in header:
                raise SchemaError(
                    f"{path}: weight column {weight_column!r} not in header "
                    f"{list(header)}"
                )
            widx = header.index(weight_column)
        kept = [i for i in range(len(header)) if i != widx]
        columns = tuple(header[i] for i in kept)
        rows, weights = [], ([] if widx is not None else None)
        for row_no, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != len(header):
                raise IngestError(
                    f"{path}:{row_no}: expected {len(header)} fields, got {len(raw)}"
                )
            raw = tuple(f.strip() for f in raw)
            if widx is not None:
                weights.append(reference_parse_weight(raw[widx], row_no, path))
            rows.append(tuple(raw[i] for i in kept))
    if weights is None:
        return Table.from_rows(name, columns, dict.fromkeys(rows))
    first = {}
    for row, w in zip(rows, weights):
        if first.setdefault(row, w) != w:
            raise IngestError(
                f"{path}: duplicated row {row} with conflicting weights "
                f"{first[row]} vs {w}"
            )
    return Table.from_rows(name, columns, first, first.values())


def outcome(load, path, weight_column):
    try:
        return load(path, "R", weight_column=weight_column)
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


SPACE = st.sampled_from(["", " ", "  ", "\t", " \t", " ", "　"])
INTS = st.one_of(
    st.integers(-30, 30).map(str),
    st.sampled_from([
        str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1),
        "+7", "-0", "+0", "007", "٣", "１２", "-١",
    ]),
)
BAD_INTS = st.sampled_from(["", "x", "1.5", "1_000", "--1", "+", "1 2", "0x1", "1\n2"])
TOKENS = st.one_of(
    st.sampled_from([
        "a", "b", "1", "2", "é", "a b", "x,y", 'q"q', "l\nm", "\nl", "r\r\n",
    ]),
    INTS,
)


@st.composite
def fields(draw, values):
    text = draw(SPACE) + draw(values) + draw(SPACE)
    special = any(c in text for c in ',"\r\n')
    if special or draw(st.booleans()) and draw(st.booleans()):
        # Spaces outside the quotes stay part of the field for csv.reader.
        return draw(SPACE) + '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 3))
    names = ["x", "y", "w"][:width]
    weight_column = draw(st.sampled_from([None, "w", "y", "x", "z"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = ",".join(draw(SPACE) + n + draw(SPACE) for n in names)
    lines = [header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(SPACE))
            continue
        n = width if kind == "row" else draw(st.integers(0, 4))
        cells = []
        for i in range(n):
            if names[i:i + 1] == [weight_column]:
                values = st.one_of(INTS, INTS, BAD_INTS)
            else:
                values = TOKENS
            cells.append(draw(fields(values)))
        lines.append(",".join(cells))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text, weight_column


def check(text, weight_column):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        want = outcome(reference_load_csv, path, weight_column)
        got = outcome(load_csv, path, weight_column)
    assert got == want


@settings(max_examples=400, deadline=None)
@given(csv_files())
@example(("x,w\n\n \n\t\n1,2\n2,bad\n", "w"))
@example(("x,w\r\n 1 ,\t2\r\n\r\n2, 3 \r\n", "w"))
@example(("x,w\n\"a,b\",1\n\"c\nd\",2\n\" e \", 3\n", "w"))
@example(("x,w\n\"\na\",1\nb,\"2\r\n\"\n", "w"))
@example(("x,w\na,+1\nb,-2\nc,٣\n", "w"))
@example((f"x,w\na,{2**63 - 1}\nb,{-(2**63)}\n", "w"))
@example((f"x,w\na,{2**63}\n", "w"))
@example((f"x,w\na,{-(2**63) - 1}\n", "w"))
@example(("x,w\n", "w"))
@example(("x\n", None))
@example(("x\n1\n \n2\n", None))
@example(("w\n1\n2\n", "w"))
@example(("x,w\na,\"1\n2\"\n", "w"))
@example(("x,w\na,1\nb\nc,bad\n", "w"))
@example(("x,w\na,bad\nb\n", "w"))
@example(("", None))
@example(('x,w\n"a\0b",1\n', "w"))  # the reader rejects a NUL before 3.11
def test_load_csv_matches_reference(case):
    check(*case)


def test_overlong_integer_matches_reference():
    """A weight past the interpreter's digit limit is the row's "not a 64-bit
    integer" error, and an earlier out-of-range weight is still the one
    reported."""
    overlong = "x,w\na," + "9" * 5000 + "\n"
    check(overlong, "w")
    check(f"x,w\na,{2**63}\nb," + "9" * 5000 + "\n", "w")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.csv")
        with open(path, "w", newline="") as fh:
            fh.write(overlong)
        kind, message = outcome(load_csv, path, "w")
    assert kind is IngestError
    assert message.startswith(f"{path}:2: weight '999") and message.endswith(
        "' is not a 64-bit integer")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from(["\x85", "\xa0", "\u3000", "\x1c", "\r\n", "\r", "\n",
                     '"', " ", "\t", "\x0b", "\x0c", "\x1f", "\u2028"]),
    st.characters(),
)).map("".join))
@example("a,b\r\n1,2\r\n")
@example("a\x85b")
@example("\u3000")
def test_chunk_strip_decision_matches_regex(text):
    """`load_csv`'s search for each needle decides as the regex does, on any
    text."""
    strip = any(map(text.__contains__, _STRIP_NEEDED))
    assert strip == bool(STRIP_NEEDED_RE.search(text))


def test_strip_needles_are_the_whitespace_and_the_quote():
    """Every `str.isspace` character but the line ends, plus the quote, each
    once."""
    spaces = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    assert len(_STRIP_NEEDED) == len(set(_STRIP_NEEDED))
    assert set(_STRIP_NEEDED) == spaces - {"\r", "\n"} | {'"'}


def _long_file(n, bad_at=(), ragged_at=()):
    lines = ["x, w"]
    for i in range(n):
        if i % 997 == 0:
            lines.append(" ")
        weight = "bad" if i in bad_at else str(i - n // 2)
        lines.append(f"k{i}" if i in ragged_at else f"k{i % 5000},{weight}")
    return "\r\n".join(lines) + "\r\n"


def test_long_files_match_reference():
    """Files longer than one block of weight texts, with the first bad row
    early, late, or after a ragged one."""
    check(_long_file(4096), "w")
    check(_long_file(10_000), "w")
    check(_long_file(10_000, bad_at={9_000}), "w")
    check(_long_file(10_000, bad_at={5_000, 9_000}), "w")
    check(_long_file(10_000, bad_at={9_000}, ragged_at={6_000}), "w")
    check(_long_file(10_000, bad_at={100}, ragged_at={6_000}), "w")


# Unquoted files: no field holds a quote, a separator or a line end, so
# `load_csv` splits the text itself instead of running the reader.
UNQUOTED_TOKENS = st.one_of(
    st.sampled_from(["a", "b", "1", "2", "é", "a b", "x\x85y", "z "]),
    INTS,
)
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def unquoted_files(draw):
    width = draw(st.integers(1, 3))
    names = ["x", "y", "w"][:width]
    # "x" on a one-column file is a weight-only file.
    weight_column = draw(st.sampled_from([None, "w", "y", "x", "z"]))
    mixed = draw(st.booleans())
    ending = draw(ENDINGS)
    lines = [",".join(draw(SPACE) + n + draw(SPACE) for n in names)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(SPACE))
            continue
        n = width if kind == "row" else draw(st.integers(0, 4))
        cells = []
        for i in range(n):
            if names[i:i + 1] == [weight_column]:
                values = st.one_of(INTS, INTS, BAD_INTS.filter(
                    lambda t: "\n" not in t))
            else:
                values = UNQUOTED_TOKENS
            cells.append(draw(SPACE) + draw(values) + draw(SPACE))
        lines.append(",".join(cells))
    if draw(st.booleans()):
        lines.insert(1, draw(SPACE))  # a blank first data line
    text = ""
    for line in lines:
        text += line + (draw(ENDINGS) if mixed else ending)
    if draw(st.booleans()):
        text = text[: -len(ending)] if text.endswith(ending) else text.rstrip("\r\n")
    return text, weight_column


@settings(max_examples=400, deadline=None)
@given(unquoted_files())
@example(("x,w\n", "w"))
@example(("x,w", "w"))
@example(("x\r\n\r\n1\r\n \r\n2", None))
@example(("w\n1\n2\n1\n", "w"))
@example(("w\n1\n\n2\n", "w"))
@example(("w\n1\n2\n1\nx\n", "w"))
@example(("x,w\na,1\rb,2\r\nc,3\n\n", "w"))
@example(("x,w\r\r\na,1\r\r\n", "w"))
@example(("x,y,w\na,b,1\nc,2\n\nd,e,bad\n", "w"))
@example(("x,y,w\na,b,bad\nc,2\n", "w"))
@example((" \n1\n", None))
@example(("\n\n1\n", None))
@example(("\n", None))
@example(("x,w\na\0b,1\n\0,2\r\n", "w"))
# Files the `str` split leaves to the reader: a blank line in the middle,
# trailing blank lines, a whitespace-only line, a short line.
@example(("x,w\na,1\n\nb,2\n", "w"))
@example(("x,w\na,1\nb,2\n\n\r\n\n", "w"))
@example(("x,w\na,1\n \t\u3000\nb,2\n", "w"))
@example(("x,w\na,1\nb\nc,bad\n", "w"))
def test_unquoted_load_csv_matches_reference(case):
    text, weight_column = case
    assert '"' not in text
    check(text, weight_column)


def _load(tmp_path, text, weight_column="w"):
    path = tmp_path / "r.csv"
    path.write_text(text)
    return str(path), outcome(load_csv, str(path), weight_column)


def test_rows_are_distinct_when_one_column_is_a_key(tmp_path):
    """`y` repeats, but `x` is a key, so the rows are kept as read."""
    path, got = _load(tmp_path, "x,y,w\n1,a,5\n2,a,6\n3,b,5\n")
    assert got == outcome(reference_load_csv, path, "w")
    assert got.column_values == (("1", "2", "3"), ("a", "a", "b"))
    assert (got.size, got.weights) == (3, (5, 6, 5))


def test_repeated_rows_without_a_key_column(tmp_path):
    """No column is a key: repeats collapse to their first occurrence."""
    text = "x,y,w\n1,a,5\n2,a,6\n1,b,7\n1,a,5\n2,a,6\n"
    path, got = _load(tmp_path, text)
    assert got == outcome(reference_load_csv, path, "w")
    assert got.rows == (("1", "a"), ("2", "a"), ("1", "b"))
    assert (got.size, got.weights) == (3, (5, 6, 7))
    path, got = _load(tmp_path, text, None)
    assert got == outcome(reference_load_csv, path, None)
    assert got.rows == (("1", "a", "5"), ("2", "a", "6"), ("1", "b", "7"))


def test_conflicting_repeat_without_a_key_column(tmp_path):
    path, got = _load(tmp_path, "x,y,w\n1,a,5\n2,a,6\n1,b,7\n2,a,8\n")
    assert got == outcome(reference_load_csv, path, "w")
    assert got == (
        IngestError,
        f"{path}: duplicated row ('2', 'a') with conflicting weights 6 vs 8",
    )


def test_from_rows_dedups_like_load_csv():
    t = Table.from_rows("R", ("x", "y"), [(1, "a"), (2, "a"), (1, "a")], [4, 5, 4])
    assert (t.rows, t.weights, t.size) == ((("1", "a"), ("2", "a")), (4, 5), 2)
    empty = Table.from_rows("R", ("x", "y"), [])
    assert (empty.column_values, empty.rows, empty.size) == (((), ()), (), 0)
    nullary = Table.from_rows("R", (), [(), ()], [3, 3])
    assert (nullary.rows, nullary.weights) == (((),), (3,))


LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("quoted", [False, True])
def test_field_past_the_size_limit(tmp_path, quoted):
    """A field one character past `csv.field_size_limit()` is an
    `IngestError` naming its row, on the split path and on the reader path
    alike; a field of exactly the limit loads."""
    first = '"a",1' if quoted else "a,1"
    path, got = _load(tmp_path, f"x,w\n{first}\n{'b' * (LIMIT + 1)},2\n")
    assert got == (IngestError, f"{path}:3: field larger than field limit ({LIMIT})")
    path, got = _load(tmp_path, f"x,w\n{first}\n\n{'b' * LIMIT},2\n")
    assert got.column_values == (("a", "b" * LIMIT),)
    # A line longer than the limit whose fields are not.
    long = ("c" * LIMIT, "d" * LIMIT)
    path, got = _load(tmp_path, f"x,y,w\n{first},z\n{long[0]},{long[1]},3\n", None)
    assert got.rows[1] == (*long, "3")


def test_first_bad_row_wins_over_a_later_long_field(tmp_path):
    path, got = _load(tmp_path, f"x,w\na\n{'b' * (LIMIT + 1)},2\n")
    assert got == (IngestError, f"{path}:2: expected 2 fields, got 1")
    path, got = _load(tmp_path, f"x,w\n{' ' * (LIMIT + 1)}\na\n")
    assert got == (IngestError, f"{path}:2: field larger than field limit ({LIMIT})")


def test_vertex_weight_field_past_the_size_limit(tmp_path):
    path = tmp_path / "vw.csv"
    path.write_text(f"a,1\n{'b' * (LIMIT + 1)},2\n")
    with pytest.raises(IngestError) as info:
        load_vertex_weights(str(path))
    assert str(info.value) == f"{path}:2: field larger than field limit ({LIMIT})"
