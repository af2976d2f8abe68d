"""Set-up entry points and tie-buffer fills run with the cyclic GC paused.

`load_csv`, `load_vertex_weights`, `Database.build`, `prepare` and each
tie-buffer fill of a `*_max` cursor disable the GC while they run and, on the
way out, promote every tracked object to the oldest generation. These tests
pin what a caller can observe: no collection runs, the GC's enabled state and
frozen objects are as they were, whether the call returns or raises, and the
youngest generation starts empty. Pausing is safe only because set-up and
enumeration make no reference cycles; the last test checks that on every
corpus shape and ranking."""

import gc
import random
import sys

import pytest

from rankjoin import (
    Database,
    DecompositionError,
    IngestError,
    RankedCursor,
    SchemaError,
    Table,
    UnionCursor,
    WeightError,
    load_csv,
    load_vertex_weights,
    parse_decomposition,
    parse_query,
    parse_ranking,
    prepare,
)
from rankjoin.cli import _gc_collections as _collections

from helpers import RANK_SPECS, SHAPES, long_path, random_instance

PATH_QUERY = parse_query("Q(x,y,z) :- R(x,y), S(y,z)").disjuncts[0]


@pytest.fixture
def gc_state():
    """Restore the GC's enabled state and frozen objects after the test."""
    enabled = gc.isenabled()
    yield
    gc.unfreeze()
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _path_db(r_weight=2):
    return Database.build([
        Table.from_rows("R", ("x", "y"), [("1", "2"), ("2", "2")],
                        weights=[1, r_weight]),
        Table.from_rows("S", ("y", "z"), [("2", "3")], weights=[4]),
    ])


def _calls(tmp_path):
    """(label, call that returns, call that raises, the error it raises)."""
    good = _write(tmp_path, "good.csv", "x,y,w\n1,2,3\n2,2,4\n")
    bad_weight = _write(tmp_path, "bad.csv", "x,y,w\n1,2,3\n2,2,x\n")
    vw_good = _write(tmp_path, "vw.csv", "1,5\n2,6\n")
    vw_bad = _write(tmp_path, "vw_bad.csv", "1,5\n2,x\n")
    deep_query, deep_decomp = long_path(sys.getrecursionlimit() // 2 + 2)
    deep_cq = parse_query(deep_query).disjuncts[0]
    return [
        ("load_csv, bad weight",
         lambda: load_csv(good, "R", weight_column="w"),
         lambda: load_csv(bad_weight, "R", weight_column="w"), IngestError),
        ("load_csv, missing weight column",
         lambda: load_csv(good, "R"),
         lambda: load_csv(good, "R", weight_column="v"), SchemaError),
        ("load_vertex_weights",
         lambda: load_vertex_weights(vw_good),
         lambda: load_vertex_weights(vw_bad), IngestError),
        ("Database.build",
         _path_db,
         lambda: Database.build([None]), AttributeError),
        ("prepare, too deep",
         lambda: prepare(_path_db(), PATH_QUERY, parse_ranking("tuple_sum")),
         lambda: prepare(Database.build([]), deep_cq, parse_ranking("tuple_sum"),
                         parse_decomposition(deep_decomp, deep_cq)),
         DecompositionError),
        ("prepare, non-positive product weight",
         lambda: prepare(_path_db(), PATH_QUERY, parse_ranking("tuple_product")),
         lambda: prepare(_path_db(0), PATH_QUERY, parse_ranking("tuple_product")),
         WeightError),
    ]


def test_set_up_runs_no_collection(tmp_path, gc_state):
    """Set-up runs no collection, and neither do a few hundred allocations
    after it: the youngest generation starts empty. On CPython 3.12 the
    permanent generation holds the interpreter's immortal objects, which are
    no objects of the caller's and must not stop the promotion."""
    rows = "".join(f"{i},{i % 97},{i}\n" for i in range(5000))
    path = _write(tmp_path, "big.csv", "x,y,w\n" + rows)
    gc.enable()
    before = _collections()
    db = Database.build([load_csv(path, "R", weight_column="w")])
    prepared = prepare(db, parse_query("Q(x,y) :- R(x,y)").disjuncts[0],
                       parse_ranking("tuple_sum"))
    young = [[] for _ in range(300)]
    assert _collections() == before


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_survives_return_and_raise(tmp_path, gc_state, enabled):
    """A caller's enabled GC is enabled again afterwards, and a caller's
    `gc.disable()` is never undone, on return and on raise alike."""
    for label, ok, fail, error in _calls(tmp_path):
        (gc.enable if enabled else gc.disable)()
        ok()
        assert gc.isenabled() is enabled, f"{label}: after return"
        with pytest.raises(error):
            fail()
        assert gc.isenabled() is enabled, f"{label}: after raise"


def test_set_up_leaves_the_youngest_generation_empty(tmp_path, gc_state):
    """Set-up allocates far more than one generation-0 threshold, and its
    objects are promoted on the way out, so the count starts again near 0."""
    rows = "".join(f"{i},{i % 97},{i}\n" for i in range(5000))
    path = _write(tmp_path, "big.csv", "x,y,w\n" + rows)
    gc.enable()
    for call in (
        lambda: load_csv(path, "R", weight_column="w"),
        lambda: Database.build([load_csv(path, "R", weight_column="w")]),
    ):
        result = call()
        assert gc.get_count()[0] < 50
        del result


def test_frozen_objects_stay_frozen(tmp_path, gc_state):
    """Objects the caller froze are not moved back into a generation."""
    gc.enable()
    gc.freeze()
    frozen = gc.get_freeze_count()
    assert frozen > 0
    prepare(_path_db(), PATH_QUERY, parse_ranking("tuple_sum"))
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_set_up_and_enumeration_leave_no_cycles(gc_state):
    """Every object set-up and a full drain make, of a cursor or of a union
    of cursors, is freed by its reference count: a collection afterwards
    finds nothing unreachable."""
    gc.enable()
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for shape in sorted(SHAPES):
            for spec in RANK_SPECS[shape]:
                db, uq, decomp = random_instance(shape, 7)
                rf = parse_ranking(spec)
                cursor = RankedCursor(prepare(db, uq.disjuncts[0], rf, decomp))
                assert cursor.drain()
                del db, uq, decomp, rf, cursor
        for spec in ("vertex_max", "vertex_sum", "tuple_sum"):
            cursor = _union_cursor(spec, m=60)
            assert cursor.drain()
            del cursor
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def _union_ties_cursor(seed=5, n=40, m=240):
    """A two-disjunct `vertex_max` union over random graphs whose vertex
    weights take 8 values, so nearly every pull is tied in score."""
    return _union_cursor("vertex_max", seed, n, m)


def _union_cursor(spec, seed=5, n=40, m=240):
    """A two-disjunct union under `spec` over random graphs with tuple
    weights and vertex weights of 8 values each."""
    rng = random.Random(seed)
    pairs = [(str(a), str(b)) for a in range(n) for b in range(n)]
    edges = [(name, cols, sorted(rng.sample(pairs, m)))
             for name, cols in (("R", ("x", "y")), ("S", ("y", "z")),
                                ("T", ("y", "z")))]
    vertex_weights = {str(c): rng.randrange(8) for c in range(n)}
    db = Database.build(
        [Table.from_rows(name, cols, rows, [rng.randrange(8) for _ in rows])
         for name, cols, rows in edges],
        vertex_weights,
    )
    uq = parse_query("Q(x,y,z) :- R(x,y), S(y,z) | R(x,y), T(y,z)")
    rf = parse_ranking(spec)
    return UnionCursor([RankedCursor(prepare(db, cq, rf)) for cq in uq.disjuncts])


def test_drains_that_fill_run_no_collection(gc_state):
    """Every engine pull under `vertex_max` runs inside a tie-buffer fill,
    which pauses the GC and promotes what it made, so a drain of thousands of
    results runs no collection of any generation."""
    gc.enable()
    cursor = _union_ties_cursor()
    before = _collections()
    results = cursor.drain()
    assert _collections() == before
    assert len(results) > 2000
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_fills_keep_the_gc_state_and_frozen_objects(gc_state, enabled):
    """A drain that fills leaves the GC enabled or disabled as it was, and
    does not move objects the caller froze back into a generation."""
    cursor = _union_ties_cursor(m=60)
    kept = []
    gc.freeze()
    (gc.enable if enabled else gc.disable)()
    assert cursor.drain()
    assert gc.isenabled() is enabled
    assert all(o is not kept for o in gc.get_objects())


@pytest.mark.parametrize("built_before_freeze", [True, False])
def test_frozen_caller_reads_the_freeze_count_once_per_cursor(
        gc_state, monkeypatch, built_before_freeze):
    """Reading `gc.get_freeze_count()` walks every frozen object. Once a
    cursor's fill has found objects the caller froze, its later fills neither
    read the count again nor promote, so a drain of hundreds of fills reads it
    at most once per disjunct cursor and moves no object into the permanent
    generation or out of it. A cursor built before the freeze reads it at its
    first fill after; its frozen entries that the drain consumes are freed,
    so there the count can only fall."""
    gc.enable()
    if built_before_freeze:
        cursor = _union_ties_cursor(m=120)
    kept = []
    gc.freeze()
    if not built_before_freeze:
        cursor = _union_ties_cursor(m=120)
    frozen = gc.get_freeze_count()
    reads = []
    count = gc.get_freeze_count

    def counted():
        reads.append(1)
        return count()

    monkeypatch.setattr(gc, "get_freeze_count", counted)
    results = cursor.drain()
    monkeypatch.undo()
    assert len(results) > 100 * len(cursor.cursors)
    if built_before_freeze:
        assert 0 < len(reads) <= len(cursor.cursors)
        assert gc.get_freeze_count() <= frozen
    else:
        assert reads == []  # each cursor's first fill, in set-up, read it
        assert gc.get_freeze_count() == frozen
    assert all(o is not kept for o in gc.get_objects())
    assert gc.isenabled()
