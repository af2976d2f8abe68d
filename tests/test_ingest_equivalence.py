"""`load_csv` against a per-row reference loader on generated CSV text.

The reference below reads a file one record at a time: skip blank records,
check the width, strip every field, parse the weight with `_INT_RE` and
`int`, then collapse duplicates. `load_csv` decides stripping once per file
and parses the weight column in bulk; it must give the same `Table`, or raise
the same error with the same message (and so the same row number)."""

import csv
import os
import re
import tempfile

from hypothesis import example, given, settings, strategies as st

from rankjoin import IngestError, SchemaError, Table, load_csv
from rankjoin.data import _STRIP_NEEDED_RE, _chunk_strip_needed

INT_RE = re.compile(r"^[+-]?\d+$")
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
        return Table(name, columns, tuple(dict.fromkeys(rows)))
    first = {}
    for row, w in zip(rows, weights):
        if first.setdefault(row, w) != w:
            raise IngestError(
                f"{path}: duplicated row {row} with conflicting weights "
                f"{first[row]} vs {w}"
            )
    return Table(name, columns, tuple(first), tuple(first.values()))


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
    """The ASCII fast path decides as the regex does, on any text."""
    assert _chunk_strip_needed(text) == bool(_STRIP_NEEDED_RE.search(text))


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
