import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import rankjoin
from rankjoin import (
    Database,
    IngestError,
    Relation,
    SchemaError,
    Table,
    load_csv,
    load_vertex_weights,
    semijoin,
)
from rankjoin.data import _INT_RE, _int_order

from helpers import encode


def _write(tmp_path, name, text):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


class TestLoadCsv:
    def test_weighted_load(self, tmp_path):
        path = _write(tmp_path, "r1.csv", "w1,x,y\n1,1,1\n2,2,1\n")
        t = load_csv(path, "R1", weight_column="w1")
        assert t.columns == ("x", "y")
        assert t.rows == (("1", "1"), ("2", "1"))
        assert t.weights == (1, 2)

    def test_empty_body(self, tmp_path):
        path = _write(tmp_path, "r.csv", "x,y\n")
        t = load_csv(path, "R")
        assert t.rows == ()

    def test_duplicate_rows_collapse(self, tmp_path):
        path = _write(tmp_path, "r.csv", "x,y\n1,2\n1,2\n")
        assert len(load_csv(path, "R").rows) == 1

    def test_duplicate_conflicting_weights(self, tmp_path):
        path = _write(tmp_path, "r.csv", "w,x\n1,a\n2,a\n")
        with pytest.raises(IngestError):
            load_csv(path, "R", weight_column="w")

    def test_bad_weight_names_row(self, tmp_path):
        path = _write(tmp_path, "r.csv", "w,x\n1,a\nbogus,b\n")
        with pytest.raises(IngestError, match=":3"):
            load_csv(path, "R", weight_column="w")

    def test_missing_header(self, tmp_path):
        path = _write(tmp_path, "r.csv", "")
        with pytest.raises(IngestError):
            load_csv(path, "R")

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, "r.csv", "x,y\n1\n")
        with pytest.raises(IngestError, match=":2"):
            load_csv(path, "R")

    def test_unknown_weight_column(self, tmp_path):
        path = _write(tmp_path, "r.csv", "x,y\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(path, "R", weight_column="w")

    def test_deterministic(self, tmp_path):
        path = _write(tmp_path, "r.csv", "x,y\n3,1\n2,2\n")
        assert load_csv(path, "R") == load_csv(path, "R")


class TestTableFromRows:
    """In-memory tables are checked the way `load_csv` checks a file."""

    def test_extra_weights_rejected(self):
        with pytest.raises(IngestError, match="3 weights for 2 rows"):
            Table.from_rows("R", ("x",), [("1",), ("2",)], weights=[5, 6, 7])

    def test_missing_weights_rejected(self):
        with pytest.raises(IngestError, match="1 weights for 2 rows"):
            Table.from_rows("R", ("x",), [("1",), ("2",)], weights=[5])

    @pytest.mark.parametrize("row", [("1",), ("2", "3", "4")])
    def test_row_of_wrong_width_rejected(self, row):
        with pytest.raises(IngestError, match="columns"):
            Table.from_rows("R", ("x", "y"), [("0", "0"), row])


class TestVertexWeights:
    def test_parse(self, tmp_path):
        path = _write(tmp_path, "vw.csv", "a,3\nb,5\n")
        assert load_vertex_weights(path) == {"a": 3, "b": 5}

    def test_empty(self, tmp_path):
        path = _write(tmp_path, "vw.csv", "")
        assert load_vertex_weights(path) == {}

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _write(tmp_path, "vw.csv", "a,3\n\n  \nb,5\n")
        assert load_vertex_weights(path) == {"a": 3, "b": 5}

    @pytest.mark.parametrize("line", ["a", "a,1,2"])
    def test_row_of_another_width(self, tmp_path, line):
        path = _write(tmp_path, "vw.csv", f"b,1\n{line}\n")
        with pytest.raises(IngestError) as info:
            load_vertex_weights(path)
        assert str(info.value) == f"{path}:2: expected constant,weight"

    def test_conflict(self, tmp_path):
        path = _write(tmp_path, "vw.csv", "a,3\na,4\n")
        with pytest.raises(IngestError):
            load_vertex_weights(path)

    def test_weight_padding_is_stripped_like_a_data_file(self, tmp_path):
        """`str.strip` removes U+001C-U+001F, which `int` alone rejects; a
        weight padded with them loads as it does from a data file."""
        path = _write(tmp_path, "vw.csv", "a,\x1c5\nb, 6\x1f\n")
        assert load_vertex_weights(path) == {"a": 5, "b": 6}
        data = _write(tmp_path, "r.csv", "x,w\na,\x1c5\n")
        assert load_csv(data, "R", weight_column="w").weights == (5,)

    def test_overlong_weight_is_an_ingest_error(self, tmp_path):
        """A weight past the interpreter's digit limit for `int`."""
        path = _write(tmp_path, "vw.csv", "a,3\nb," + "9" * 5000 + "\n")
        with pytest.raises(IngestError, match=r":2: weight '9+' is not a 64-bit"):
            load_vertex_weights(path)


class TestDatabase:
    def test_numeric_domain_order(self):
        t = Table.from_rows("R", ("x",), [("10",), ("2",), ("1",)])
        db = Database.build([t])
        assert encode(db, "1") < encode(db, "2") < encode(db, "10")

    def test_vertex_weights_outside_the_data_leave_the_order(self):
        """A vertex weight for a constant in no table neither joins the
        domain nor switches its order from numeric to bytewise."""
        t = Table.from_rows("R", ("x", "y"), [("9", "1"), ("10", "1")])
        plain = Database.build([t], {"1": 1})
        extra = Database.build([t], {"1": 1, "zzz": 5})
        assert extra.constants == plain.constants == ("1", "9", "10")
        assert extra.vertex_weights == plain.vertex_weights == {0: 1}

    def test_equal_integer_literals_order_by_text(self):
        """Equal integers written differently ("7", "07", "+7") are distinct
        constants; their order must not follow the string hash seed."""
        script = (
            "from rankjoin import Database, Table\n"
            "vals = ['7', '07', '007', '+7', '8', '08']\n"
            "t = Table.from_rows('R', ('x',), [(v,) for v in vals])\n"
            "db = Database.build([t])\n"
            "print(','.join(db.decode(i) for i in range(len(vals))))\n"
        )
        src = os.path.dirname(os.path.dirname(rankjoin.__file__))
        orders = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            orders.add(run.stdout.strip())
        assert orders == {"+7,007,07,7,08,8"}

    @settings(max_examples=200, deadline=None)
    @given(values=st.sets(
        st.one_of(
            st.sampled_from(["7", "07", "+7", "-0", "0", "+0", "-7", "-07", "10"]),
            st.integers(-(10**20), 10**20).map(str),
            st.text(min_size=1, max_size=4),
        ),
        max_size=12,
    ))
    def test_constant_order_matches_its_definition(self, values):
        """Ids follow (int(v), v) on all-integer domains and UTF-8 bytes
        otherwise, whatever mix of literals, signs and text the domain has."""
        values = sorted(values)
        db = Database.build([Table.from_rows("R", ("x",), [(v,) for v in values])])
        if all(re.match(r"^[+-]?\d+$", v) for v in values):
            want = sorted(values, key=lambda v: (int(v), v))
        else:
            want = sorted(values, key=lambda v: v.encode("utf-8"))
        assert [db.decode(i) for i in range(len(values))] == want
        assert [encode(db, v) for v in want] == list(range(len(values)))

    def test_overlong_integer_constants_keep_numeric_order(self):
        """Literals past the interpreter's digit limit for `int` still order
        by value, then by text."""
        nines = "9" * 5000
        values = [nines, "-" + nines, "+" + nines, "0" * 4999 + "2", "10", "-3",
                  "0", "-" + nines[:-1], nines[:-1] + "8"]
        db = Database.build([Table.from_rows("R", ("x",), [(v,) for v in values])])
        want = ["-" + nines, "-" + nines[:-1], "-3", "0", "0" * 4999 + "2", "10",
                nines[:-1] + "8", "+" + nines, nines]
        assert [db.decode(i) for i in range(len(values))] == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 3),
        st.text(st.characters(categories=["Nd"]), min_size=1, max_size=6),
        st.sampled_from(["", "\n"]),
    ).map(lambda t: t[0] + "0" * t[1] + t[2] + t[3]), max_size=12))
    def test_int_order_without_int_matches_int(self, values):
        """`_int_order`, the order used when `int` refuses a literal, agrees
        with (int(v), v) on every literal `int` accepts: signs, leading
        zeros, non-ASCII decimal digits and the one trailing newline
        `_INT_RE` allows."""
        assert all(map(_INT_RE.match, values))
        assert sorted(values, key=_int_order) == sorted(
            values, key=lambda v: (int(v), v))

    def test_mixed_domain_is_bytewise(self):
        t = Table.from_rows("R", ("x",), [("10",), ("2",), ("a",)])
        db = Database.build([t])
        # one value fails to parse, so the whole domain orders bytewise
        assert encode(db, "10") < encode(db, "2") < encode(db, "a")

    def test_vertex_weight_defaults_to_zero(self):
        t = Table.from_rows("R", ("x",), [("a",), ("b",)])
        db = Database.build([t], {"a": 3})
        assert db.vertex_weight(encode(db, "a")) == 3
        assert db.vertex_weight(encode(db, "b")) == 0

    def test_unknown_relation(self):
        db = Database.build([Table.from_rows("R", ("x",), [("a",)])])
        with pytest.raises(SchemaError):
            db.relation("S")


NINES = "9" * 5000  # past the interpreter's digit limit for `int`

# Each domain's ids in order. The first cases pass the `isdecimal` test of
# the joined domain, the next ones fall back to the `_INT_RE` scan, and the
# last ones are not all integers and order bytewise.
DOMAIN_ORDERS = {
    "plain numerals": ["0", "1", "2", "9", "10", "100"],
    "leading zeros": ["0", "011", "20"],
    "leading zero first": ["011", "20"],
    "non-ASCII digits": ["٣", "5", "10"],
    "non-ASCII digits, leading zeros": ["0", "00", "٣", "07", "7", "10"],
    "past the digit limit": ["0" * 4999 + "2", "3", "10", NINES],
    "signs": ["-3", "-0", "0", "+7", "07", "7"],
    "trailing newline": ["7", "7\n", "10"],
    "signs past the digit limit": ["-" + NINES, "-0", "+7", "+" + NINES],
    "empty text": ["", "10", "9"],
    "mixed": ["", "+7", "7", "a", "٣"],
}


def _tables(rows_r, rows_s):
    """R(x, y) weighted by its rows' values, and S(y)."""
    weights = [sum(map(len, row)) for row in rows_r]
    return [
        Table.from_rows("R", ("x", "y"), rows_r, weights),
        Table.from_rows("S", ("y",), rows_s),
    ]


def _contents(db):
    """Constants, and each relation's rows with their weights."""
    return db.constants, {
        name: {row: rel.weight_of(row) for row in rel.rows}
        for name, rel in db.relations.items()
    }


class TestDomainOrder:
    """Ids depend on the domain's values alone: not on the order rows or
    tables are read in, nor on the string hash seed."""

    @pytest.mark.parametrize("case", sorted(DOMAIN_ORDERS))
    def test_literal_mixes_keep_their_order(self, case):
        want = DOMAIN_ORDERS[case]
        for values in (want, want[::-1], sorted(want)):
            db = Database.build([Table.from_rows("R", ("x",), [(v,) for v in values])])
            assert db.constants == tuple(want)

    @pytest.mark.parametrize("case", sorted(DOMAIN_ORDERS))
    def test_row_and_table_order_do_not_matter(self, case):
        values = DOMAIN_ORDERS[case]
        rng = random.Random(case)
        rows_r = [(a, b) for a in values for b in values if a != b]
        rows_s = [(v,) for v in values[::2]]
        shuffled_r, shuffled_s = rows_r[:], rows_s[:]
        rng.shuffle(shuffled_r)
        rng.shuffle(shuffled_s)
        builds = [
            Database.build(_tables(rows_r, rows_s)),
            Database.build(_tables(rows_r, rows_s)[::-1]),
            Database.build(_tables(rows_r[::-1], rows_s[::-1])),
            Database.build(_tables(shuffled_r, shuffled_s)),
        ]
        first = _contents(builds[0])
        assert first[0] == tuple(values)
        assert all(_contents(db) == first for db in builds[1:])

    def test_hash_seed_does_not_matter(self):
        script = (
            "import random\n"
            "from rankjoin import Database, Table\n"
            "vals = ['10', '+7', '07', '7', '-0', '0', '9', '011']\n"
            "random.Random(1).shuffle(vals)\n"
            "rows = [(a, b) for a in vals for b in vals]\n"
            "db = Database.build([\n"
            "    Table.from_rows('R', ('x', 'y'), rows, range(len(rows))),\n"
            "    Table.from_rows('S', ('y',), [(v,) for v in vals]),\n"
            "])\n"
            "print(db.constants)\n"
            "for name, rel in sorted(db.relations.items()):\n"
            "    print(name, rel.rows, rel.weights)\n"
        )
        src = os.path.dirname(os.path.dirname(rankjoin.__file__))
        outputs = set()
        for seed in (0, 1):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.add(run.stdout)
        assert len(outputs) == 1
        assert outputs.pop().startswith(
            "('-0', '0', '+7', '07', '7', '9', '10', '011')\n")


def _rel(name, schema, rows):
    return Relation(name, schema, tuple(tuple(r) for r in rows))


class TestSemijoin:
    def test_filters_left(self):
        r2 = _rel("R2", ("y", "z"), [(1, 1), (3, 1)])
        r1 = _rel("R1", ("x", "y"), [(1, 1), (2, 1)])
        out = semijoin(r2, r1, ("y",))
        assert out.rows == ((1, 1),)

    def test_idempotent_on_self(self):
        r = _rel("R", ("x", "y"), [(1, 2), (3, 4)])
        assert semijoin(r, r, ("x", "y")).rows == r.rows

    def test_empty_right(self):
        r = _rel("R", ("x",), [(1,), (2,)])
        assert semijoin(r, _rel("S", ("x",), []), ("x",)).rows == ()

    def test_subset_property(self):
        left = _rel("L", ("x", "y"), [(1, 1), (1, 2), (2, 2)])
        right = _rel("R", ("y",), [(2,)])
        assert set(semijoin(left, right, ("y",)).rows) <= set(left.rows)

    def test_unknown_column(self):
        r = _rel("R", ("x",), [(1,)])
        with pytest.raises(SchemaError):
            semijoin(r, r, ("zz",))

    def test_empty_on_means_existence_check(self):
        left = _rel("L", ("x",), [(1,)])
        assert semijoin(left, _rel("R", (), [()]), ()).rows == ((1,),)
        assert semijoin(left, _rel("R", (), []), ()).rows == ()

    @pytest.mark.parametrize("seed", range(30))
    def test_weights_stay_paired_with_rows(self, seed):
        """The kept weights are the left relation's, position for position:
        `weights[i]` is the weight `rows[i]` had in `left`. Random left and
        right relations reach every case, the unchanged left (returned as
        it is) and the empty result among them."""
        rng = random.Random(seed)
        dom = range(rng.randint(1, 4))
        rows = sorted({(rng.choice(dom), rng.choice(dom))
                       for _ in range(rng.randint(0, 12))})
        left = Relation("L", ("x", "y"), tuple(rows),
                        tuple(rng.randint(-9, 9) for _ in rows))
        right = _rel("R", ("y",), {(rng.choice(dom),)
                                  for _ in range(rng.randint(0, 4))})
        out = semijoin(left, right, ("y",))
        keys = set(right.rows)
        assert out.rows == tuple(r for r in left.rows if r[1:] in keys)
        assert len(out.weights) == len(out.rows)
        assert list(zip(out.rows, out.weights)) == [
            (r, left.weight_map[r]) for r in out.rows]
        if out.rows == left.rows:
            assert out is left

    def test_weights_of_unchanged_and_empty_results(self):
        left = Relation("L", ("x", "y"), ((1, 2), (3, 4)), (7, -1))
        assert semijoin(left, left, ("x", "y")) is left
        empty = semijoin(left, _rel("S", ("x",), []), ("x",))
        assert empty.rows == () and empty.weights == ()
        kept = semijoin(left, _rel("S", ("x",), [(3,)]), ("x",))
        assert (kept.rows, kept.weights) == (((3, 4),), (-1,))
        unweighted = semijoin(_rel("U", ("x",), [(1,), (3,)]), kept, ("x",))
        assert (unweighted.rows, unweighted.weights) == (((3,),), None)
