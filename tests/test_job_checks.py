"""One acceptance rule for a job: `check_ranking` decides, and `prepare`,
the oracle and `plan` refuse the same inputs with the same message."""

import pytest

from rankjoin import (
    Database,
    SchemaError,
    Table,
    WeightError,
    augment_for_bounded,
    brute_force_ranked,
    check_ranking,
    gyo_join_tree,
    parse_query,
    parse_ranking,
    prepare,
)
from rankjoin.cli import main

from helpers import RUNNING_QUERY

TWO_COLUMN = "Q(x,y) :- R(x,y)"


def _outcome(call):
    try:
        call()
    except (SchemaError, WeightError) as e:
        return type(e).__name__, str(e)
    return "ok"


@pytest.mark.parametrize("columns", [("x", "y", "z"), ("x",)])
def test_relation_arity_must_match_its_atom(columns):
    """A relation with a column more or fewer than its atom has variables is
    refused by the engine and the oracle alike, naming both."""
    rows = [tuple("125"[: len(columns)]), tuple("122"[: len(columns)])]
    db = Database.build([Table.from_rows("R", columns, rows)])
    uq = parse_query(TWO_COLUMN)
    rf = parse_ranking("tuple_sum")
    want = (f"relation R needs one column per variable of atom R(x,y); "
            f"it has {list(columns)}")
    with pytest.raises(SchemaError) as engine:
        prepare(db, uq.disjuncts[0], rf)
    with pytest.raises(SchemaError) as oracle:
        brute_force_ranked(db, uq, rf)
    assert str(engine.value) == str(oracle.value) == want


@pytest.mark.parametrize(
    "header, rows", [("x,y,z", ["1,2,5", "1,2,2"]), ("x", ["1"])]
)
@pytest.mark.parametrize("command", ["enumerate", "oracle"])
def test_cli_refuses_a_relation_of_another_arity(
    tmp_path, capsys, header, rows, command
):
    data = tmp_path / "data"
    data.mkdir()
    (data / "R.csv").write_text("\n".join([header] + rows) + "\n")
    (tmp_path / "query.txt").write_text(TWO_COLUMN + "\n")
    args = ["--query", str(tmp_path / "query.txt"), "--data", str(data),
            "--rank", "tuple_sum"]
    assert main([command, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "relation R needs one column per variable of atom R(x,y)" in captured.err


@pytest.fixture
def running(tmp_path, capsys):
    """The running example on disk; R3's second row weighs 0."""
    tables = {
        "R1": ("wt,x,y", ["1,1,1", "2,2,1"]),
        "R2": ("wt,y,z", ["1,1,1", "1,3,1"]),
        "R3": ("wt,z,w", ["1,1,1", "0,1,2"]),
        "R4": ("wt,z,u", ["1,1,1", "5,1,2"]),
    }
    data = tmp_path / "data"
    data.mkdir()
    for name, (header, rows) in tables.items():
        (data / f"{name}.csv").write_text("\n".join([header] + rows) + "\n")
    (tmp_path / "query.txt").write_text(RUNNING_QUERY + "\n")
    (tmp_path / "d.txt").write_text(
        "node 1: {x,y} cover R1\nnode 2: {y,z} cover R2\n"
        "node 3: {z,w} cover R3\nnode 4: {z,u} cover R4\n"
        "root 1\nedge 1 2\nedge 2 3\nedge 2 4\n"
    )

    def run(command, spec, *extra):
        code = main([command, "--query", str(tmp_path / "query.txt"),
                     "--data", str(data), "--weight-col", "wt",
                     "--rank", spec, *extra])
        return code, capsys.readouterr().err

    run.decomp = str(tmp_path / "d.txt")
    return run


@pytest.mark.parametrize("spec", ["lex(w,x,y,z)", "lex(x)"])
def test_plan_refuses_a_lex_order_that_enumerate_refuses(running, spec):
    code, err = running("enumerate", spec)
    assert code == 2 and "lex order must list every head variable" in err
    assert running("plan", spec) == (2, err)


@pytest.mark.parametrize(
    "spec, err",
    [
        ("lex(w,x,y,z)", "lex order must list every head variable; missing ['u']"),
        ("lex(x)", "lex order must list every head variable; missing "
                   "['u', 'w', 'y', 'z']"),
        ("bounded(vertex_max; q)", "bounded ranking names unknown variables ['q']"),
        ("tuple_product", "product ranking needs strictly positive weights; "
                          "relation R3 row (0, 1) has weight 0"),
    ],
)
def test_oracle_refuses_what_the_engine_refuses(running, spec, err):
    assert running("oracle", spec) == (2, f"error: {err}\n")


def test_unknown_bounded_variable_under_decomp_is_a_validation_error(running):
    """Before the compatibility check: `q` is in no bag because it is no
    variable, which is a validation error (exit 2), not an incompatible
    decomposition (exit 3)."""
    code, err = running(
        "enumerate", "bounded(tuple_sum; q)", "--decomp", running.decomp
    )
    assert code == 2
    assert err == "error: bounded ranking names unknown variables ['q']\n"


@pytest.mark.parametrize("command", ["enumerate", "plan", "oracle"])
def test_unknown_bounded_variable_gets_one_text(running, command):
    """Without `--decomp` too, the job check runs before the join tree is
    built, so every command names the unknown variable the same way."""
    code, err = running(command, "bounded(tuple_sum; q)")
    assert code == 2
    assert err == "error: bounded ranking names unknown variables ['q']\n"


SPECS = [
    "tuple_sum", "tuple_product", "vertex_product", "vertex_max",
    "lex(u,w,z,y,x)", "lex(x,y,z,w,u,v)", "lex(x)",
    "bounded(tuple_product; x,y)", "bounded(vertex_sum; z)",
    "bounded(tuple_sum; q)",
]


def _running_db(r3_weights, r3_columns=("z", "w"), vertex_weights=None):
    width = len(r3_columns)
    r3_rows = [("1", "1", "9")[:width], ("1", "2", "9")[:width]]
    return Database.build([
        Table.from_rows("R1", ("x", "y"), [("1", "1"), ("2", "1")], weights=[1, 2]),
        Table.from_rows("R2", ("y", "z"), [("1", "1"), ("3", "1")], weights=[1, 1]),
        Table.from_rows("R3", r3_columns, r3_rows, weights=r3_weights),
        Table.from_rows("R4", ("z", "u"), [("1", "1"), ("1", "2")], weights=[1, 5]),
    ], vertex_weights)


DATABASES = {
    "valid": lambda: _running_db([1, 4], vertex_weights={"1": 1, "2": 2, "3": 3}),
    "zero_weight": lambda: _running_db([1, 0], vertex_weights={"1": 1, "2": 2}),
    "unweighted": lambda: _running_db(None, vertex_weights={"1": 1}),
    "wide_relation": lambda: _running_db([1, 4], ("z", "w", "t")),
}


@pytest.mark.parametrize("db_name", sorted(DATABASES))
@pytest.mark.parametrize("spec", SPECS)
def test_engine_oracle_and_plan_agree(spec, db_name):
    """On every pair, `prepare` (with a join tree and without) and the oracle
    both accept or both refuse with one message, and what `plan` refuses
    without data they refuse too."""
    db = DATABASES[db_name]()
    uq = parse_query(RUNNING_QUERY)
    cq = uq.disjuncts[0]
    rf = parse_ranking(spec)
    d = augment_for_bounded(gyo_join_tree(cq), rf.bound_vars & cq.variables)
    engine = _outcome(lambda: prepare(db, cq, rf, d))
    assert engine == _outcome(lambda: prepare(db, cq, rf))
    assert engine == _outcome(lambda: brute_force_ranked(db, uq, rf))
    assert engine == _outcome(lambda: check_ranking(rf, cq, db))
    plan = _outcome(lambda: check_ranking(rf, cq))
    assert plan == "ok" or plan == engine
