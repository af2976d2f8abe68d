"""Relational data model: dictionary-encoded relations, CSV ingestion, semijoin.

Constants are interned into a per-database dictionary of dense integer ids.
The id order agrees with the raw-value order (numeric when every domain value
parses as an integer, bytewise lexicographic otherwise) and is frozen once the
database is built, so lexicographic rankings are well-defined. Integer literals
of equal value ("7", "07", "+7") are distinct constants, ordered by their text,
so the order depends on the values alone: not on the string hash seed, nor on
the order rows are read in. `Database.build` collects the domain once, in
first-appearance order column after column, into the dict that then maps each
value to its id, and encodes each column on its own before zipping the id
columns into rows.
Whether the domain is all integers is decided by one `isdecimal` test over its
join, and value by value only when that test fails. Both orders are computed
by C-level sorts: the integer order as a stable sort by `int` (by length, for
plain ASCII numerals) over the text-sorted domain, and the bytewise order as
plain `str` order, which equals UTF-8 byte order for every encodable string. A
domain holding a literal past the interpreter's digit limit for `int` is
sorted by the same order computed from the digits (`_int_order`).

Row work is done by getters compiled once per projection and mapped over the
rows, never by a per-row generator: `row_getter` projects a row to a tuple,
`key_getter` to a join key. A key of one variable is the bare constant id, so
no 1-tuple is built around it or hashed; wider keys are tuples, and the empty
key is `()`.

`load_csv` reads the whole file once and turns it into one flat list of
fields, row after row. A file without a quote or a NUL whose separators and
line ends alone show every line at the header's width is split by one
`replace` and one `split` (`_split_fields`), with no list or tuple per row:
its records are its lines, ended by `\r\n`, `\r` or `\n` as for `csv.reader`,
and its fields the text between separators. Every other file (a quote, a NUL,
a blank line or a row of another width) is split by `csv.reader`, which
rejects a NUL before Python 3.11. Stripping (decided once per file, by a
search for each character it could remove), the weight column's parse (by
`int`, one rule for the whole column and for a single weight) and the
columns are C-level maps and slices over the flat list. A failed check
re-reads the file row by row, so an error names the same row on either path,
and a field longer than `csv.field_size_limit()` is an `IngestError` on both.
A `Table` holds one tuple per column: its rows are distinct when one column's
values are, and otherwise one dict over the zipped rows decides.

`load_csv`, `load_vertex_weights`, `Database.build`, `preprocess.prepare` and
each tie-buffer fill of a `*_max` cursor (`cursor.RankedCursor._fill`) run
with the cyclic GC paused (`_GcPause`; the fills of one cursor share one).
What they build forms no reference cycle, so a collection during them would
only traverse it and free nothing. On the way out every tracked object, the
caller's young ones included, moves to the oldest generation without a
traversal; a later full collection is the first to examine it.

Weights are 64-bit integers; users needing reals are expected to scale to
fixed-point. Tuples are plain python tuples of ids, which keeps joins and
hashing cheap, and a relation's weights are a column aligned with its rows:
`Database.build` passes a table's column through, and `semijoin` keeps the
weights of the rows it keeps. A by-row weight map is built only on first use
(`Relation.weight_map`).
"""

from __future__ import annotations

import csv
import gc
import io
import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property, wraps
from itertools import chain, compress
from operator import itemgetter
from typing import (
    Callable, Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple, Union,
)

from .errors import IngestError, SchemaError

_INT_RE = re.compile(r"^[+-]?\d+$")
# What can make a field differ from its stripped text: every character
# `str.strip` removes (`str.isspace`; none lies above U+3000) but the line
# ends, which the reader consumes outside quotes, and the quote, inside which
# a field can hold anything. Each is searched for in C, and a search for a
# character wider than any of the text's own returns at once.
_STRIP_NEEDED = (
    "\t\x0b\x0c\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000\""
)
# Every byte but the separator and the line end, which UTF-8 never uses
# inside a longer sequence.
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


# How many objects the permanent generation holds when this module is
# imported: 0 on CPython 3.11 and 3.13, 375 immortal tuples on 3.12.1, where
# every full collection moves them back there after an unfreeze. The caller's
# `gc.freeze()` moves every tracked object there, thousands at the least.
_startup_frozen = gc.get_freeze_count()


class _GcPause:
    """Runs calls with the cyclic GC paused, then moves every tracked object,
    the caller's young ones included, to the oldest generation.

    Set-up builds many thousands of tuples, lists and dicts, and the
    tie-buffer fills of a `*_max` drain together as many entries and
    outputs; none forms a reference cycle, so collections during them would
    traverse those objects again and again and free nothing. `gc.freeze()`
    followed by `gc.unfreeze()` promotes them without a traversal and resets
    the youngest generation's count, so the next allocation does not start a
    collection over all of them; they are examined at the next full
    collection. A caller that disabled the GC, or that froze objects of its
    own, keeps that state: the GC is then left as it is, or unfrozen objects
    are not promoted. The caller has frozen objects when the permanent
    generation holds more than the interpreter's own (`_startup_frozen`);
    objects frozen before this module is imported count as the
    interpreter's.

    Reading that count walks every frozen object, so one instance serves
    many calls (a cursor's fills) and remembers that the caller has frozen
    objects: from then on it neither reads the count nor promotes."""

    __slots__ = ("caller_froze",)

    def __init__(self) -> None:
        self.caller_froze = False

    def run(self, fn: Callable, *args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        if not self.caller_froze:
            self.caller_froze = gc.get_freeze_count() > _startup_frozen
        promote = not self.caller_froze
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if promote:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _gc_paused(fn: Callable) -> Callable:
    """Run each call of `fn` as `_GcPause.run` does, reading the frozen count
    afresh every time."""

    @wraps(fn)
    def paused(*args, **kwargs):
        return _GcPause().run(fn, *args, **kwargs)

    return paused


def _parse_weight(text: str, row_no: int, path: str) -> int:
    stripped = text.strip()
    try:
        # On a stripped text, `int` accepts exactly the `_INT_RE` matches and
        # digits grouped by underscores.
        value = None if "_" in stripped else int(stripped)
    except ValueError:  # not a literal, or past the interpreter's digit limit
        value = None
    if value is None:
        raise IngestError(f"{path}:{row_no}: weight {text!r} is not a 64-bit integer")
    if not (INT64_MIN <= value <= INT64_MAX):
        raise IngestError(f"{path}:{row_no}: weight {value} outside 64-bit range")
    return value


_NINES_COMPLEMENT = str.maketrans("0123456789", "9876543210")


def _int_order(text: str) -> Tuple[int, int, str, str]:
    """The order (value, text) of an `_INT_RE` literal, computed without
    `int`: the sign, then the digit count and the digits, both compared
    reversed below zero. For literals past the interpreter's digit limit."""
    body = text.strip()
    digits = "".join(map(str, map(unicodedata.decimal, body.lstrip("+-"))))
    digits = digits.lstrip("0")
    if not digits:
        return (0, 0, "", text)
    if body[0] == "-":
        return (-1, -len(digits), digits.translate(_NINES_COMPLEMENT), text)
    return (1, len(digits), digits, text)


def _leading_zero(numerals: List[str]) -> bool:
    """Whether a text-sorted list of ASCII digit strings holds one with a
    leading zero. Those sort first, right after "0" itself."""
    head = numerals[1:2] if numerals[:1] == ["0"] else numerals[:1]
    return bool(head) and head[0].startswith("0")


def _take_weights(texts: List[str]) -> Optional[Tuple[int, ...]]:
    """The values of a column of stripped weight texts; None when one of
    them fails `_parse_weight`'s rule (which then names it)."""
    if "_" in "".join(texts):
        return None
    try:
        values = tuple(map(int, texts))
    except ValueError:
        return None
    if values and (min(values) < INT64_MIN or max(values) > INT64_MAX):
        return None
    return values


def row_getter(positions: Sequence[int]) -> Callable[[Tuple], Tuple]:
    """A C-level function taking a tuple row to the tuple of its values at
    `positions`, for every width. A bare `itemgetter` would return a scalar
    for one position and cannot take none; slicing a tuple gives a tuple."""
    positions = tuple(positions)
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(slice(0, 0))


# A join key: the bare id of one variable, else the tuple of ids.
Key = Union[int, Tuple[int, ...]]


def key_getter(positions: Sequence[int]) -> Callable[[Tuple], Key]:
    """A C-level function taking a tuple row to its join key at `positions`:
    the bare value for one position, else the tuple of values (`()` for
    none). Every key of one index or queue has the same width, so the two
    forms never meet in one dict."""
    positions = tuple(positions)
    if len(positions) == 1:
        return itemgetter(positions[0])
    return row_getter(positions)


@dataclass(frozen=True)
class Table:
    """A parsed CSV file, held by column: one tuple of raw string values per
    column, the weight column already split off, and the row count `size`
    (a table without columns has no other place to keep it)."""

    name: str
    columns: Tuple[str, ...]
    column_values: Tuple[Tuple[str, ...], ...]
    size: int
    weights: Optional[Tuple[int, ...]] = None

    @property
    def rows(self) -> Tuple[Tuple[str, ...], ...]:
        """The rows in order, zipped from the columns on each read."""
        if not self.column_values:
            return ((),) * self.size
        return tuple(zip(*self.column_values))

    @classmethod
    def from_rows(
        cls,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[object]],
        weights: Optional[Sequence[int]] = None,
    ) -> "Table":
        """Build a table from in-memory rows, checked the way `load_csv` checks
        a file: every row has one value per column, and there is one weight
        per row when weights are given."""
        columns = tuple(columns)
        str_rows = [tuple(map(str, row)) for row in rows]
        for row_no, row in enumerate(str_rows):
            if len(row) != len(columns):
                raise IngestError(
                    f"{name}: row {row_no} {row} has {len(row)} values for "
                    f"columns {columns}"
                )
        w = tuple(weights) if weights is not None else None
        if w is not None and len(w) != len(str_rows):
            raise IngestError(
                f"{name}: {len(w)} weights for {len(str_rows)} rows"
            )
        values = tuple(zip(*str_rows)) if str_rows else ((),) * len(columns)
        return _dedup_table(name, columns, values, len(str_rows), w, source=name)


def _dedup_table(
    name: str,
    columns: Tuple[str, ...],
    values: Tuple[Tuple[str, ...], ...],
    size: int,
    weights: Optional[Tuple[int, ...]],
    source: str,
) -> Table:
    """Keep the first occurrence of each row; a repeat must repeat its weight.
    A column whose values are all distinct makes the rows distinct, so only
    a table without one has its rows hashed."""
    if any(len(set(column)) == size for column in values):
        return Table(name, columns, values, size, weights)
    rows = list(zip(*values)) if values else [()] * size
    if weights is None:
        first: Dict[Tuple[str, ...], Optional[int]] = dict.fromkeys(rows)
    else:
        first = dict(zip(rows, weights))
        if len(first) < size:
            # Some row repeats; `first` holds its last weight, so check and
            # rebuild row by row.
            first = {}
            for row, w in zip(rows, weights):
                if first.setdefault(row, w) != w:
                    raise IngestError(
                        f"{source}: duplicated row {row} with conflicting "
                        f"weights {first[row]} vs {w}"
                    )
    if len(first) < size:
        values = tuple(zip(*first)) if values else ()
        if weights is not None:
            weights = tuple(first.values())
    return Table(name, columns, values, len(first), weights)


def _blank_record(raw: Sequence[str]) -> bool:
    """Whether a reader record is a blank row: no field, or one field that
    is whitespace or empty."""
    return not raw or (len(raw) == 1 and not raw[0].strip())


@_gc_paused
def load_csv(path: str, name: str, weight_column: Optional[str] = None) -> Table:
    """Read a relation from a CSV file with a mandatory header row.

    If `weight_column` is given, that column must parse as a 64-bit integer on
    every row; it is removed from the join schema and attached as the tuple
    weight. Duplicate rows are collapsed (set semantics); duplicates with
    conflicting weights are an ingestion error. Fields are stripped of
    surrounding whitespace, and blank lines are skipped. A field longer than
    `csv.field_size_limit()` is an ingestion error.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    strip = any(map(text.__contains__, _STRIP_NEEDED))
    parts = None
    # Before Python 3.11 the reader rejects a NUL, so a file holding one is
    # left to it as well, for both paths to agree.
    if '"' not in text and "\0" not in text:
        parts = _split_fields(path, text, weight_column)
    header, widx, fields = parts or _reader_fields(path, text, weight_column)
    del text
    if strip:
        fields = list(map(str.strip, fields))
    width = len(header)
    if width == 1:
        fields = list(filter(None, fields))  # a one-field row is blank if empty
    weights = None
    if widx is not None:
        weights = _take_weights(fields[widx::width])
        if weights is None:
            _raise_first_bad_row(path, weight_column)
    kept = [i for i in range(width) if i != widx]
    return _dedup_table(
        name,
        tuple(header[i] for i in kept),
        tuple(tuple(fields[i::width]) for i in kept),
        len(fields) // width if width else 0,
        weights,
        source=path,
    )


def _parse_header(
    path: str, raw: Sequence[str], weight_column: Optional[str]
) -> Tuple[Tuple[str, ...], Optional[int]]:
    """The stripped header and the weight column's position in it."""
    header = tuple(map(str.strip, raw))
    if weight_column is None:
        return header, None
    if weight_column not in header:
        raise SchemaError(
            f"{path}: weight column {weight_column!r} not in header "
            f"{list(header)}"
        )
    return header, header.index(weight_column)


def _split_fields(
    path: str, text: str, weight_column: Optional[str]
) -> Optional[Tuple[Tuple[str, ...], Optional[int], List[str]]]:
    """The header, the weight column's position and the data fields row
    after row of a file without quotes whose every line has the header's
    width; None for any other file without quotes (a blank line, a row of
    another width), which `_reader_fields` splits. The records of a file
    without quotes are its lines, each ended by `\r\n`, `\r` or `\n` as for
    the reader, and a field is the text between separators, so one
    `replace` and one `split` give every field. A one-column file's blank
    lines are empty fields, which `load_csv` drops."""
    if "\r" in text:
        # Replacing `\r\n` first leaves each other `\r` a record end.
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text:
        raise IngestError(f"{path}: missing header row")
    if not text.endswith("\n"):
        text += "\n"
    # A line of `2 * step - 1` characters or more covers a whole stretch
    # [i, i + step) with i a multiple of `step`; when each such stretch holds
    # a line end, no line, and so no field, is longer than `limit`.
    limit = csv.field_size_limit()
    step = limit // 2 + 1
    if any(text.find("\n", i, i + step) < 0 for i in range(0, len(text), step)):
        if max(map(len, text.replace("\n", ",").split(","))) > limit:
            _raise_first_bad_row(path, weight_column)
    first = text[: text.index("\n")]
    header, widx = _parse_header(path, first.split(",") if first else [], weight_column)
    width = len(header)
    # The file's separators and line ends alone are `width - 1` separators
    # and a line end per line exactly when every line has the header's width.
    skeleton = text.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
    if not width or skeleton != (b"," * (width - 1) + b"\n") * skeleton.count(b"\n"):
        return None
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # after the last line end
    del fields[:width]
    return header, widx, fields


def _reader_fields(
    path: str, text: str, weight_column: Optional[str]
) -> Tuple[Tuple[str, ...], Optional[int], List[str]]:
    """As `_split_fields`, for every other file, which `csv.reader` splits:
    a quoted field can hold separators and line ends. Records of the
    header's width are kept; every other record must be blank, or the first
    bad row's error is raised (past one field a record is not blank)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header, widx = _parse_header(path, next(reader), weight_column)
        records = list(reader)
    except csv.Error:  # an overlong field, or a NUL before Python 3.11
        _raise_first_bad_row(path, weight_column)
    width = len(header)
    sizes = list(map(len, records))
    if not all(map(_blank_record, compress(records, map(width.__ne__, sizes)))):
        _raise_first_bad_row(path, weight_column)
    records = compress(records, map(width.__eq__, sizes))
    return header, widx, list(chain.from_iterable(records))


def _raise_first_bad_row(path: str, weight_column: Optional[str]) -> NoReturn:
    """Re-read the file record by record and raise the error of its first
    bad row: an overlong field, a wrong field count or an invalid weight,
    after the header's own errors. Rows are numbered by reader record, the
    header being row 1 and blank rows counted."""
    header: Tuple[str, ...] = ()
    widx: Optional[int] = None
    row_no = 0
    with open(path, newline="") as fh:
        try:
            for row_no, raw in enumerate(csv.reader(fh), start=1):
                if row_no == 1:
                    header, widx = _parse_header(path, raw, weight_column)
                elif _blank_record(raw):
                    continue
                elif len(raw) != len(header):
                    raise IngestError(
                        f"{path}:{row_no}: expected {len(header)} fields, "
                        f"got {len(raw)}"
                    )
                elif widx is not None:
                    _parse_weight(raw[widx].strip(), row_no, path)
        except csv.Error as exc:
            # With the default dialect, on a file opened with `newline=""`,
            # the reader's errors are a field past its size limit and,
            # before Python 3.11, a NUL.
            raise IngestError(f"{path}:{row_no + 1}: {exc}") from None
    raise IngestError(f"{path}: changed while it was read")


@_gc_paused
def load_vertex_weights(path: str) -> Dict[str, int]:
    """Read a headerless two-column `constant,weight` file.

    Constants missing from the file default to weight 0 at lookup time;
    the same constant listed twice with different weights is an error.
    """
    out: Dict[str, int] = {}
    row_no = 0
    with open(path, newline="") as fh:
        try:
            for row_no, raw in enumerate(csv.reader(fh), start=1):
                if _blank_record(raw):
                    continue
                if len(raw) != 2:
                    raise IngestError(f"{path}:{row_no}: expected constant,weight")
                constant = raw[0].strip()
                weight = _parse_weight(raw[1], row_no, path)
                if constant in out and out[constant] != weight:
                    raise IngestError(
                        f"{path}:{row_no}: constant {constant!r} already has "
                        f"weight {out[constant]}, conflicting {weight}"
                    )
                out[constant] = weight
        except csv.Error as exc:  # an overlong field, or a NUL before 3.11
            raise IngestError(f"{path}:{row_no + 1}: {exc}") from None
    return out


@dataclass(frozen=True)
class Relation:
    """An encoded relation: rows are tuples of constant ids over `schema`,
    and `weights`, when given, holds row i's weight at position i.

    The rows are distinct: `Database.build` encodes the rows of deduplicated
    tables with an injective map, and `semijoin` only drops rows. Bag
    materialization relies on this to take a relation's rows, and their
    weights, as a bag."""

    name: str
    schema: Tuple[str, ...]
    rows: Tuple[Tuple[int, ...], ...]
    weights: Optional[Tuple[int, ...]] = field(default=None, compare=False)

    @cached_property
    def weight_map(self) -> Dict[Tuple[int, ...], int]:
        """Row -> weight, built on first use and kept; empty when the
        relation has no weights."""
        return dict(zip(self.rows, self.weights or ()))

    def weight_of(self, row: Tuple[int, ...]) -> int:
        # Tuples outside the relation contribute the additive identity 0.
        return self.weight_map.get(row, 0)


class Database:
    """Immutable after construction; safe to share across readers."""

    def __init__(
        self,
        relations: Dict[str, Relation],
        decode_list: Sequence[str],
        vertex_weights: Optional[Dict[int, int]] = None,
    ):
        self.relations = dict(relations)
        # The decode table: constant id -> its text.
        self.constants = tuple(decode_list)
        self.vertex_weights = dict(vertex_weights) if vertex_weights else {}

    @classmethod
    @_gc_paused
    def build(
        cls,
        tables: Iterable[Table],
        vertex_weights: Optional[Dict[str, int]] = None,
    ) -> "Database":
        tables = list(tables)
        # Every constant of the tables once, in order of first appearance,
        # column after column. Columns come in file order, so the sorts below
        # meet the runs a file already holds. The ids are written into the
        # same dict once the order is known.
        columns = chain.from_iterable(t.column_values for t in tables)
        encode = dict.fromkeys(chain.from_iterable(columns))
        # One total order for the whole domain: numeric when everything is an
        # integer literal, bytewise otherwise (a pairwise mixed rule would not
        # be transitive). Equal numbers tie-break on their text, so the order
        # depends on the values alone, not on the order they were read in.
        # `str` order is code-point order, which UTF-8 byte order preserves.
        # A domain whose join is `isdecimal` holds only unsigned digit strings
        # (`\d` and `isdecimal` accept the same characters); only a domain
        # failing that is matched value by value. Plain ASCII numerals order
        # by length, then text; other literals by a stable sort by `int` over
        # the text order, which is the key (int(v), v).
        decode = sorted(encode)
        joined = "".join(decode)
        digits = "" not in encode and joined.isdecimal()
        if digits and joined.isascii() and not _leading_zero(decode):
            decode.sort(key=len)
        elif digits or all(map(_INT_RE.match, decode)):
            try:
                decode.sort(key=int)
            except ValueError:
                # A literal past the interpreter's digit limit for `int`.
                decode.sort(key=_int_order)
        encode.update(zip(decode, range(len(decode))))
        lookup = encode.__getitem__
        relations = {}
        for t in tables:
            # Each column is encoded on its own, then the id columns are
            # zipped into rows once. Table rows are distinct and the encoding
            # is injective, so the encoded rows are distinct too (see
            # `Relation`).
            ids = [list(map(lookup, column)) for column in t.column_values]
            rows = tuple(zip(*ids)) if ids else t.rows
            relations[t.name] = Relation(t.name, t.columns, rows, t.weights)
        # A constant in no table is read by no output: its weight is dropped.
        vw = {encode[c]: w for c, w in (vertex_weights or {}).items() if c in encode}
        return cls(relations, decode, vw)

    def relation(self, name: str) -> Relation:
        if name not in self.relations:
            raise SchemaError(f"unknown relation {name!r}")
        return self.relations[name]

    def decode(self, cid: int) -> str:
        return self.constants[cid]

    def vertex_weight(self, cid: int) -> int:
        return self.vertex_weights.get(cid, 0)


def semijoin(left: Relation, right: Relation, on: Sequence[str]) -> Relation:
    """Tuples of `left` whose projection on `on` occurs in `right`."""
    for col in on:
        if col not in left.schema:
            raise SchemaError(f"semijoin: column {col!r} not in {left.schema}")
        if col not in right.schema:
            raise SchemaError(f"semijoin: column {col!r} not in {right.schema}")
    lpos = [left.schema.index(c) for c in on]
    keys = set(map(key_getter([right.schema.index(c) for c in on]), right.rows))
    # One selector for the rows and their weights alike.
    found = list(map(keys.__contains__, map(key_getter(lpos), left.rows)))
    if all(found):
        return left
    weights = None
    if left.weights is not None:
        weights = tuple(compress(left.weights, found))
    return Relation(left.name, left.schema, tuple(compress(left.rows, found)), weights)
