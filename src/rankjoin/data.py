"""Relational data model: dictionary-encoded relations, CSV ingestion, semijoin.

Constants are interned into a per-database dictionary of dense integer ids.
The id order agrees with the raw-value order (numeric when every domain value
parses as an integer, bytewise lexicographic otherwise) and is frozen once the
database is built, so lexicographic rankings are well-defined. Integer literals
of equal value ("7", "07", "+7") are distinct constants, ordered by their text,
so the order depends on the values alone: not on the string hash seed, nor on
the order rows are read in. `Database.build` collects the domain once, in
first-appearance order, into the dict that then maps each value to its id.
Whether the domain is all integers is decided by one `isdecimal` test over its
join, and value by value only when that test fails. Both orders are computed
by C-level sorts: the integer order as a stable sort by `int` (by length, for
plain ASCII numerals) over the text-sorted domain, and the bytewise order as
plain `str` order, which equals UTF-8 byte order for every encodable string. A
domain holding a literal past the interpreter's digit limit for `int` is
sorted by the same order computed from the digits (`_int_order`).

Row work is done by getters compiled once per projection (`row_getter`) and
mapped over the rows, never by a per-row generator.

`load_csv` reads the file through `csv.reader` in blocks of records. A block
whose records all have the header's width holds no blank row (past one field
a row cannot be blank), so its rows are projected and its weight column
checked and converted by C-level maps over the block. Only a block with a
blank row or a wrong width, a one-column file, or a file whose fields need
stripping (decided once per file) is checked row by row. A failed check
re-reads the file row by row, so an error names the same row either way.

`load_csv`, `load_vertex_weights`, `Database.build` and `preprocess.prepare`
run with the cyclic GC paused (`_gc_paused`). What they build forms no
reference cycle, so a collection during set-up would only traverse it and
free nothing. On the way out every tracked object, the caller's young ones
included, moves to the oldest generation without a traversal; a later full
collection is the first to examine it.

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
import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property, partial, wraps
from itertools import chain, compress, islice
from operator import itemgetter
from typing import (
    Callable, Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple,
)

from .errors import IngestError, SchemaError

_INT_RE = re.compile(r"^[+-]?\d+$")
# A weight column's texts joined by newlines, each one an `_INT_RE` match.
_INT_COLUMN_RE = re.compile(r"[+-]?\d+(?:\n[+-]?\d+)*")
# Reader records are checked, projected and their weights parsed this many at
# a time. Weight texts kept to the end of the file would sit between the
# rows' values in memory, and `Database.build` reads values spread that way
# more slowly.
_WEIGHT_BLOCK = 4096
# What can make a field differ from its stripped text: whitespace other than
# line ends, which the reader consumes outside quotes, and the quote, inside
# which a field can hold anything. `\s` and `str.strip` test the same
# characters (`Py_UNICODE_ISSPACE`).
_STRIP_NEEDED_RE = re.compile(r'[^\S\r\n]|"')
# The same characters within ASCII, each found by a C-level substring search.
_ASCII_STRIP_NEEDED = '\t\x0b\x0c\x1c\x1d\x1e\x1f "'

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def _gc_paused(fn: Callable) -> Callable:
    """Run `fn` with the cyclic GC paused, then move every tracked object,
    the caller's young ones included, to the oldest generation.

    Set-up builds many thousands of tuples, lists and dicts that form no
    reference cycle; collections during it would traverse them again and
    again and free nothing. `gc.freeze()` followed by `gc.unfreeze()`
    promotes them without a traversal and resets the youngest generation's
    count, so the next allocation does not start a collection over all of
    them; they are examined at the next full collection. A caller that
    disabled the GC, or that froze objects of its own, keeps that state: the
    GC is then left as it is, or unfrozen objects are not promoted."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        promote = not gc.get_freeze_count()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if promote:
                gc.freeze()
                gc.unfreeze()
            gc.enable()

    return paused


def _parse_weight(text: str, row_no: int, path: str) -> int:
    try:
        value = int(text) if _INT_RE.match(text.strip()) else None
    except ValueError:  # past the interpreter's digit limit for `int`
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


def _take_weights(texts: List[str], weights: List[int]) -> bool:
    """Move the values of a block of stripped weight texts onto `weights`.
    False, with nothing moved, when one of them is not a 64-bit integer
    literal (`_parse_weight` then names it)."""
    if not texts:
        return True
    # Unsigned digit strings pass the `isdecimal` test of their join without
    # the regex; an empty text, which the join hides, then fails at `int`.
    if not "".join(texts).isdecimal() and not _INT_COLUMN_RE.fullmatch(
        "\n".join(texts)
    ):
        return False
    try:
        values = list(map(int, texts))
    except ValueError:
        # A quoted text holding the separator ("1\n2"), or one past the
        # interpreter's digit limit.
        return False
    if min(values) < INT64_MIN or max(values) > INT64_MAX:
        return False
    weights += values
    return True


def _strip_needed(fh) -> bool:
    """Whether any field of the open file can differ from its stripped text.
    Reads the file in chunks, never all of it at once, and rewinds it."""
    chunks = iter(partial(fh.read, 1 << 20), "")
    found = any(map(_chunk_strip_needed, chunks))
    fh.seek(0)
    return found


def _chunk_strip_needed(chunk: str) -> bool:
    """Whether `_STRIP_NEEDED_RE` matches somewhere in `chunk`. An ASCII
    chunk is searched once per character, in C, which is faster than the
    regex's negated class."""
    if chunk.isascii():
        return any(map(chunk.__contains__, _ASCII_STRIP_NEEDED))
    return _STRIP_NEEDED_RE.search(chunk) is not None


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


@dataclass(frozen=True)
class Table:
    """A parsed CSV file: raw string values, weight column already split off."""

    name: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]
    weights: Optional[Tuple[int, ...]] = None

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
        return _dedup_table(name, columns, str_rows, w, source=name)


def _dedup_table(
    name: str,
    columns: Tuple[str, ...],
    rows: Sequence[Tuple[str, ...]],
    weights: Optional[Sequence[int]],
    source: str,
) -> Table:
    """Keep the first occurrence of each row; a repeat must repeat its weight."""
    if weights is None:
        return Table(name=name, columns=columns, rows=tuple(dict.fromkeys(rows)))
    first: Dict[Tuple[str, ...], int] = dict(zip(rows, weights))
    if len(first) < len(rows):
        # Some row repeats; `first` holds its last weight, so check and
        # rebuild row by row.
        first = {}
        for row, w in zip(rows, weights):
            if first.setdefault(row, w) != w:
                raise IngestError(
                    f"{source}: duplicated row {row} with conflicting weights "
                    f"{first[row]} vs {w}"
                )
    return Table(
        name=name,
        columns=columns,
        rows=tuple(first),
        weights=tuple(first.values()),
    )


@_gc_paused
def load_csv(path: str, name: str, weight_column: Optional[str] = None) -> Table:
    """Read a relation from a CSV file with a mandatory header row.

    If `weight_column` is given, that column must parse as a 64-bit integer on
    every row; it is removed from the join schema and attached as the tuple
    weight. Duplicate rows are collapsed (set semantics); duplicates with
    conflicting weights are an ingestion error. Fields are stripped of
    surrounding whitespace, and blank lines are skipped.
    """
    with open(path, newline="") as fh:
        strip = _strip_needed(fh)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: missing header row") from None
        header = tuple(map(str.strip, header))
        width = len(header)
        widx: Optional[int] = None
        if weight_column is not None:
            if weight_column not in header:
                raise SchemaError(
                    f"{path}: weight column {weight_column!r} not in header "
                    f"{list(header)}"
                )
            widx = header.index(weight_column)
        keep = row_getter([i for i in range(width) if i != widx])
        columns = keep(header)
        # Past one field a row cannot be blank, so unless fields need
        # stripping, a block whose rows all have the header's width needs no
        # per-row check.
        bulk = width > 1 and not strip
        rows: List[Tuple[str, ...]] = []
        weights: List[int] = []
        while True:
            block = list(islice(reader, _WEIGHT_BLOCK))
            if not block:
                break
            if not bulk or set(map(len, block)) != {width}:
                block = _checked_rows(block, width, strip, path, widx)
            rows += map(keep, block)
            if widx is not None and not _take_weights(
                list(map(itemgetter(widx), block)), weights
            ):
                _raise_first_bad_row(path, width, widx)
    if len(columns) < 2:
        # One position is read by a slice, which keeps a reader row a list.
        rows = list(map(tuple, rows))
    return _dedup_table(
        name, columns, rows, weights if widx is not None else None, source=path
    )


def _checked_rows(
    block: List[List[str]], width: int, strip: bool, path: str,
    widx: Optional[int],
) -> List[Sequence[str]]:
    """The block's rows without its blank ones, stripped if `strip`; the
    first bad row's error if a row has the wrong width."""
    out: List[Sequence[str]] = []
    for raw in block:
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue
        if len(raw) != width:
            _raise_first_bad_row(path, width, widx)
        out.append(tuple(map(str.strip, raw)) if strip else raw)
    return out


def _raise_first_bad_row(path: str, width: int, widx: Optional[int]) -> NoReturn:
    """Re-read the file row by row and raise the error of its first bad row,
    a wrong field count or an invalid weight. Rows are numbered by reader
    record, the header being row 1 and blank rows counted."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_no, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != width:
                raise IngestError(
                    f"{path}:{row_no}: expected {width} fields, got {len(raw)}"
                )
            if widx is not None:
                _parse_weight(raw[widx].strip(), row_no, path)
    raise IngestError(f"{path}: changed while it was read")


@_gc_paused
def load_vertex_weights(path: str) -> Dict[str, int]:
    """Read a headerless two-column `constant,weight` file.

    Constants missing from the file default to weight 0 at lookup time;
    the same constant listed twice with different weights is an error.
    """
    out: Dict[str, int] = {}
    with open(path, newline="") as fh:
        for row_no, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != 2:
                raise IngestError(f"{path}:{row_no}: expected constant,weight")
            constant = raw[0].strip()
            weight = _parse_weight(raw[1], row_no, path)
            if constant in out and out[constant] != weight:
                raise IngestError(
                    f"{path}:{row_no}: constant {constant!r} already has weight "
                    f"{out[constant]}, conflicting {weight}"
                )
            out[constant] = weight
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
        # Every constant once, in order of first appearance. Rows come in
        # file order, so the sorts below meet the runs a file already holds.
        # The ids are written into the same dict once the order is known.
        table_rows = chain.from_iterable(t.rows for t in tables)
        encode = dict.fromkeys(
            chain(chain.from_iterable(table_rows), vertex_weights or ())
        )
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
            # Every row has len(t.columns) values, so zipping one iterator
            # over the encoded values with itself regroups them into rows.
            # Table rows are distinct and the encoding is injective, so the
            # encoded rows are distinct too (see `Relation`).
            ids = map(lookup, chain.from_iterable(t.rows))
            rows = tuple(zip(*[ids] * len(t.columns))) if t.columns else t.rows
            relations[t.name] = Relation(t.name, t.columns, rows, t.weights)
        vw = None
        if vertex_weights:
            vw = {encode[c]: w for c, w in vertex_weights.items()}
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
    keys = set(map(row_getter([right.schema.index(c) for c in on]), right.rows))
    # One selector for the rows and their weights alike.
    found = list(map(keys.__contains__, map(row_getter(lpos), left.rows)))
    if all(found):
        return left
    weights = None
    if left.weights is not None:
        weights = tuple(compress(left.weights, found))
    return Relation(left.name, left.schema, tuple(compress(left.rows, found)), weights)
