"""Shared output record type for the engine, the union merge, and the oracle."""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .data import Database
from .ranking import RankingFunction


class OutputTuple(NamedTuple):
    """One result: constant ids in head-variable order plus the engine score.
    A named tuple: one is built per pull, and builds in under half the time
    of a frozen dataclass. Hot paths index it: on CPython 3.11 a named read
    is no faster than an index, and unpacking a tuple subclass is slower than
    either."""

    values: Tuple[int, ...]
    score: object

    def decoded(self, db: Database) -> Tuple[str, ...]:
        return tuple(map(db.constants.__getitem__, self.values))


def format_score(rf: RankingFunction, db: Database, score) -> str:
    if rf.kind == "lex":
        return ",".join(db.decode(cid) for _, cid in score)
    return str(score)


def format_record(rf: RankingFunction, db: Database, out: OutputTuple) -> str:
    values = ",".join(map(db.constants.__getitem__, out[0]))
    return f"{format_score(rf, db, out[1])}\t{values}"
