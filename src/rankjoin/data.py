"""Relational data model: dictionary-encoded relations, CSV ingestion, semijoin.

Constants are interned into a per-database dictionary of dense integer ids.
The id order agrees with the raw-value order (numeric when every domain value
parses as an integer, bytewise lexicographic otherwise) and is frozen once the
database is built, so lexicographic rankings are well-defined.

Weights are 64-bit integers; users needing reals are expected to scale to
fixed-point. Tuples are plain python tuples of ids with a parallel weight map,
which keeps joins and hashing cheap.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import IngestError, SchemaError

_INT_RE = re.compile(r"^[+-]?\d+$")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def _parse_weight(text: str, row_no: int, path: str) -> int:
    if not _INT_RE.match(text.strip()):
        raise IngestError(f"{path}:{row_no}: weight {text!r} is not a 64-bit integer")
    value = int(text)
    if not (INT64_MIN <= value <= INT64_MAX):
        raise IngestError(f"{path}:{row_no}: weight {value} outside 64-bit range")
    return value


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
        str_rows = [tuple(str(v) for v in row) for row in rows]
        w = tuple(weights) if weights is not None else None
        return _dedup_table(name, tuple(columns), str_rows, w, source=name)


def _dedup_table(
    name: str,
    columns: Tuple[str, ...],
    rows: Sequence[Tuple[str, ...]],
    weights: Optional[Sequence[int]],
    source: str,
) -> Table:
    seen: Dict[Tuple[str, ...], Optional[int]] = {}
    out_rows = []
    out_weights = [] if weights is not None else None
    for i, row in enumerate(rows):
        w = weights[i] if weights is not None else None
        if row in seen:
            if seen[row] != w:
                raise IngestError(
                    f"{source}: duplicated row {row} with conflicting weights "
                    f"{seen[row]} vs {w}"
                )
            continue
        seen[row] = w
        out_rows.append(row)
        if out_weights is not None:
            out_weights.append(w)
    return Table(
        name=name,
        columns=columns,
        rows=tuple(out_rows),
        weights=tuple(out_weights) if out_weights is not None else None,
    )


def load_csv(path: str, name: str, weight_column: Optional[str] = None) -> Table:
    """Read a relation from a CSV file with a mandatory header row.

    If `weight_column` is given, that column must parse as a 64-bit integer on
    every row; it is removed from the join schema and attached as the tuple
    weight. Duplicate rows are collapsed (set semantics); duplicates with
    conflicting weights are an ingestion error.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: missing header row") from None
        header = [h.strip() for h in header]
        widx: Optional[int] = None
        if weight_column is not None:
            if weight_column not in header:
                raise SchemaError(
                    f"{path}: weight column {weight_column!r} not in header {header}"
                )
            widx = header.index(weight_column)
        columns = tuple(h for i, h in enumerate(header) if i != widx)
        rows = []
        weights = [] if widx is not None else None
        for row_no, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != len(header):
                raise IngestError(
                    f"{path}:{row_no}: expected {len(header)} fields, got {len(raw)}"
                )
            raw = [v.strip() for v in raw]
            if widx is not None:
                weights.append(_parse_weight(raw[widx], row_no, path))
            rows.append(tuple(v for i, v in enumerate(raw) if i != widx))
    return _dedup_table(name, columns, rows, weights, source=path)


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
    """An encoded relation: rows are tuples of constant ids over `schema`."""

    name: str
    schema: Tuple[str, ...]
    rows: Tuple[Tuple[int, ...], ...]
    weights: Optional[Dict[Tuple[int, ...], int]] = field(default=None, compare=False)

    def weight_of(self, row: Tuple[int, ...]) -> int:
        # Tuples outside the relation contribute the additive identity 0.
        if self.weights is None:
            return 0
        return self.weights.get(row, 0)

    def project_positions(self, positions: Sequence[int]) -> frozenset:
        return frozenset(tuple(r[p] for p in positions) for r in self.rows)


class Database:
    """Immutable after construction; safe to share across readers."""

    def __init__(
        self,
        relations: Dict[str, Relation],
        decode_list: Sequence[str],
        encode_map: Dict[str, int],
        vertex_weights: Optional[Dict[int, int]] = None,
    ):
        self.relations = dict(relations)
        self._decode = tuple(decode_list)
        self._encode = dict(encode_map)
        self.vertex_weights = dict(vertex_weights) if vertex_weights else {}

    @classmethod
    def build(
        cls,
        tables: Iterable[Table],
        vertex_weights: Optional[Dict[str, int]] = None,
    ) -> "Database":
        tables = list(tables)
        values = set()
        for t in tables:
            for row in t.rows:
                values.update(row)
        if vertex_weights:
            values.update(vertex_weights)
        # One total order for the whole domain: numeric when everything is an
        # integer literal, bytewise otherwise (a pairwise mixed rule would not
        # be transitive).
        if all(_INT_RE.match(v) for v in values):
            decode = sorted(values, key=int)
        else:
            decode = sorted(values, key=lambda v: v.encode("utf-8"))
        encode = {v: i for i, v in enumerate(decode)}
        relations = {}
        for t in tables:
            rows = tuple(tuple(encode[v] for v in row) for row in t.rows)
            weights = None
            if t.weights is not None:
                weights = {row: w for row, w in zip(rows, t.weights)}
            relations[t.name] = Relation(t.name, t.columns, rows, weights)
        vw = None
        if vertex_weights:
            vw = {encode[c]: w for c, w in vertex_weights.items()}
        return cls(relations, decode, encode, vw)

    def relation(self, name: str) -> Relation:
        if name not in self.relations:
            raise SchemaError(f"unknown relation {name!r}")
        return self.relations[name]

    def decode(self, cid: int) -> str:
        return self._decode[cid]

    def encode(self, value: str) -> int:
        return self._encode[value]

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
    rpos = [right.schema.index(c) for c in on]
    keys = right.project_positions(rpos)
    rows = tuple(r for r in left.rows if tuple(r[p] for p in lpos) in keys)
    weights = None
    if left.weights is not None:
        weights = {r: left.weights[r] for r in rows}
    return Relation(left.name, left.schema, rows, weights)
