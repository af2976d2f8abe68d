import os
import subprocess
import sys

import pytest

import rankjoin
from rankjoin.cli import main

from helpers import RUNNING_QUERY, long_path, spider, star


RUNNING_TABLES = {
    "R1": ("wt,x,y", ["1,1,1", "2,2,1"]),
    "R2": ("wt,y,z", ["1,1,1", "1,3,1"]),
    "R3": ("wt,z,w", ["1,1,1", "4,1,2"]),
    "R4": ("wt,z,u", ["1,1,1", "5,1,2"]),
}


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for name, (header, rows) in RUNNING_TABLES.items():
        (data / f"{name}.csv").write_text("\n".join([header] + rows) + "\n")
    query = tmp_path / "query.txt"
    query.write_text(RUNNING_QUERY + "\n")
    return tmp_path


def _base_args(ws, *extra):
    return [
        "--query", str(ws / "query.txt"),
        "--data", str(ws / "data"),
        "--rank", "tuple_sum",
        "--weight-col", "wt",
        *extra,
    ]


def test_topk_records_and_truncation_exit(workspace, capsys):
    code = main(["topk", *_base_args(workspace), "-k", "2"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["4\t1,1,1,1,1", "5\t2,1,1,1,1"]
    assert code == 10  # truncated: more than two results exist


def test_topk_exhausted_exit_zero(workspace, capsys):
    code = main(["topk", *_base_args(workspace), "-k", "100"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 8


def test_topk_zero(workspace, capsys):
    main(["topk", *_base_args(workspace), "-k", "0"])
    assert capsys.readouterr().out == ""


def test_enumerate_matches_oracle(workspace, capsys):
    assert main(["enumerate", *_base_args(workspace)]) == 0
    engine_out = capsys.readouterr().out
    assert main(["oracle", *_base_args(workspace)]) == 0
    assert capsys.readouterr().out == engine_out


def test_plan_output(workspace, capsys):
    """The tree, its width and the verdicts; every ranking fits every
    decomposition, so no ranking line is printed."""
    assert main(["plan", *_base_args(workspace)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "width: 1" in out
    assert "node 0: bag {x,y} key [] val [x,y] cover R1" in out
    assert "edge condition: ok" in out
    assert not any(line.startswith("ranking ") for line in out)


def test_plan_cyclic_suggests_decomp(workspace, capsys):
    (workspace / "query.txt").write_text("Q(x,y,z) :- R1(x,y), R2(y,z), R3(z,x)\n")
    code = main(["plan", *_base_args(workspace)])
    assert code == 2
    assert "--decomp" in capsys.readouterr().err


def test_config_file_with_flag_override(workspace, capsys):
    conf = workspace / "job.conf"
    conf.write_text(
        f"query={workspace}/query.txt\n"
        f"data={workspace}/data\n"
        "rank=tuple_sum\n"
        "weight_col=wt\n"
        "k=1\n"
    )
    main(["topk", "--config", str(conf)])
    assert len(capsys.readouterr().out.strip().splitlines()) == 1
    main(["topk", "--config", str(conf), "-k", "3"])  # flag wins
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_config_k_not_an_integer(workspace, capsys):
    conf = workspace / "job.conf"
    conf.write_text("k=abc\n")
    assert main(["topk", *_base_args(workspace), "--config", str(conf)]) == 2
    assert capsys.readouterr().out == ""


def test_negative_k_flag(workspace, capsys):
    assert main(["topk", *_base_args(workspace), "-k", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


def test_bounded_ranking_runs_on_a_decomposition_without_its_set(
    workspace, tmp_path, capsys
):
    """A bounded ranking's set need not be in every bag: each node scores its
    own terms inside the set, and the output is the oracle's."""
    decomp = tmp_path / "d.txt"
    decomp.write_text(
        "node 1: {x,y} cover R1\nnode 2: {y,z} cover R2\n"
        "node 3: {z,w} cover R3\nnode 4: {z,u} cover R4\n"
        "root 1\nedge 1 2\nedge 2 3\nedge 2 4\n"
    )
    for spec in ("bounded(tuple_sum; w)", "bounded(tuple_sum; z,w)"):
        args = _base_args(workspace, "--decomp", str(decomp))
        args[args.index("tuple_sum")] = spec
        assert main(["enumerate", *args]) == 0
        engine_out = capsys.readouterr().out
        assert len(engine_out.splitlines()) == 8
        assert main(["oracle", *args]) == 0
        assert capsys.readouterr().out == engine_out, spec


def test_validation_error_exit_code(workspace, capsys):
    (workspace / "query.txt").write_text("Q(x,y :- broken\n")
    assert main(["topk", *_base_args(workspace), "-k", "1"]) == 2


def test_too_deep_decomposition_exit_code(tmp_path, capsys):
    query, decomp = long_path(1200)
    data = tmp_path / "data"
    data.mkdir()
    for i in range(1200):
        (data / f"R{i}.csv").write_text("a,b\n1,1\n")
    (tmp_path / "query.txt").write_text(query + "\n")
    (tmp_path / "decomp.txt").write_text(decomp)
    args = [
        "--query", str(tmp_path / "query.txt"),
        "--data", str(data),
        "--rank", "tuple_sum",
        "--decomp", str(tmp_path / "decomp.txt"),
    ]
    assert main(["topk", *args, "-k", "1"]) == 2
    assert "depth 1199" in capsys.readouterr().err


def test_oracle_cap_exit_code(workspace, capsys):
    assert main(["oracle", *_base_args(workspace), "--cap", "2"]) == 4


def test_missing_data_file(workspace, capsys):
    os.remove(workspace / "data" / "R3.csv")
    assert main(["topk", *_base_args(workspace), "-k", "1"]) == 2


@pytest.mark.parametrize(
    "part", ["config", "query", "data", "vertex_weights", "decomp"]
)
def test_missing_input_file_exit_code(workspace, capsys, part):
    """Whichever file of the job is missing, the CLI exits 2 naming it."""
    args = _base_args(workspace)
    missing = workspace / "missing.txt"
    if part == "data":
        missing = workspace / "data" / "R3.csv"
        os.remove(missing)
    elif part == "query":
        args[args.index("--query") + 1] = str(missing)
    else:
        args += [f"--{part.replace('_', '-')}", str(missing)]
    assert main(["enumerate", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize(
    "flag, path, opened, reason",
    [
        ("--query", "data", "data", "Is a directory"),
        ("--data", "query.txt", "query.txt/R1.csv", "Not a directory"),
    ],
)
def test_input_path_of_the_wrong_kind_exit_code(
    workspace, capsys, flag, path, opened, reason
):
    args = _base_args(workspace)
    args[args.index(flag) + 1] = str(workspace / path)
    assert main(["enumerate", *args]) == 2
    assert capsys.readouterr().err == f"error: {workspace / opened}: {reason}\n"


def _one_relation(tmp_path, text):
    data = tmp_path / "data"
    data.mkdir()
    (data / "R.csv").write_text(text)
    (tmp_path / "query.txt").write_text("Q(x,y) :- R(x,y)\n")
    return ["--query", str(tmp_path / "query.txt"), "--data", str(data)]


def test_weight_col_missing_from_a_table_loads_it_unweighted(workspace, capsys):
    """Under `--weight-col`, a table without that column weighs 0 per tuple
    under `tuple_sum`, as if it were loaded without the option."""
    (workspace / "data" / "R2.csv").write_text("y,z\n1,1\n3,1\n")
    assert main(["enumerate", *_base_args(workspace)]) == 0
    engine = capsys.readouterr().out
    assert engine.splitlines()[0] == "3\t1,1,1,1,1"
    assert main(["oracle", *_base_args(workspace)]) == 0
    assert capsys.readouterr().out == engine


def test_overlong_weight_is_a_validation_error(tmp_path, capsys):
    args = _one_relation(tmp_path, "x,y,wt\n1,2," + "9" * 5000 + "\n")
    assert main(["enumerate", *args, "--rank", "tuple_sum",
                 "--weight-col", "wt"]) == 2
    assert "R.csv:2: weight '999" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["data", "header"])
def test_field_past_the_size_limit_is_a_validation_error(tmp_path, capsys, where):
    """A field longer than `csv.field_size_limit()` names its file and row,
    and exits 2, wherever it is."""
    big = "b" * 140_000
    text = f"x,y,wt\n1,2,3\n{big},2,3\n"
    if where == "header":
        text = f"x,{big},wt\n1,2,3\n"
    args = _one_relation(tmp_path, text)
    assert main(["enumerate", *args, "--rank", "tuple_sum",
                 "--weight-col", "wt"]) == 2
    row = 3 if where == "data" else 1
    assert f"R.csv:{row}: field larger than field limit (131072)" in (
        capsys.readouterr().err)


def test_overlong_integer_constant_enumerates(tmp_path, capsys):
    nines = "9" * 5000
    args = _one_relation(tmp_path, f"x,y\n{nines},1\n2,1\n")
    assert main(["enumerate", *args, "--rank", "vertex_sum"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[1] for line in lines] == ["2,1", f"{nines},1"]


def test_bench_metrics(workspace, capsys):
    assert main(["bench", *_base_args(workspace)]) == 0
    out = capsys.readouterr().out
    metrics = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert int(metrics["pulls"]) == 8
    assert int(metrics["max_pops_per_pull"]) <= 4
    assert "preprocess_seconds" in metrics


def test_bench_reports_each_setup_phase(workspace, capsys):
    assert main(["bench", *_base_args(workspace)]) == 0
    out = capsys.readouterr().out
    metrics = dict(line.split("=", 1) for line in out.strip().splitlines())
    seconds = ["load_seconds", "encode_seconds", "materialize_seconds",
               "reduce_seconds", "init_queues_seconds", "preprocess_seconds",
               "enumerate_seconds"]
    assert list(metrics) == [
        "load_seconds", "encode_seconds", "materialize_seconds",
        "reduce_seconds", "init_queues_seconds", "bag_rows_in", "bag_rows_out",
        "preprocess_seconds", "setup_gc_collections", "enumerate_seconds",
        "pulls", "cells_initial",
        "cells_total", "cells_created_enum",
        "max_inserts_per_pull", "median_inserts_per_pull",
        "max_pops_per_pull", "median_pops_per_pull",
        "max_comparisons_per_pull", "median_comparisons_per_pull",
    ]
    assert all(float(metrics[key]) >= 0 for key in seconds)
    # The running example's bags are its four relations, two rows each, and
    # the reducer removes the dangling R2 row (3, 1).
    assert (int(metrics["bag_rows_in"]), int(metrics["bag_rows_out"])) == (8, 7)


def test_gen_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    assert main(["gen", "threepath", "--n", "5", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["enumerate", "--config", str(out_dir / "job.conf")]) == 0
    engine = capsys.readouterr().out
    assert main(["oracle", "--config", str(out_dir / "job.conf")]) == 0
    assert capsys.readouterr().out == engine
    assert len(engine.strip().splitlines()) == 25


def test_gen_refuses_an_out_path_that_is_a_file(tmp_path, capsys):
    target = tmp_path / "afile"
    target.write_text("")
    assert main(["gen", "threepath", "--n", "2", "--out", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {target}: File exists\n"
    assert target.read_text() == ""


def test_gen_refuses_a_negative_n(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    assert main(["gen", "threepath", "--n", "-3", "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        "error: --n must be a non-negative integer, got -3\n")
    assert not out_dir.exists()


def test_gen_antichain_writes_vertex_weights(tmp_path, capsys):
    out_dir = tmp_path / "anti"
    assert main(["gen", "antichain", "--n", "3", "--out", str(out_dir)]) == 0
    assert (out_dir / "vertex_weights.csv").exists()
    capsys.readouterr()
    assert main(["enumerate", "--config", str(out_dir / "job.conf")]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 9


def test_lex_rank_spec(workspace, capsys):
    args = _base_args(workspace)
    args[args.index("tuple_sum")] = "lex(u,w,z,y,x)"
    assert main(["enumerate", *args]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "1,1,1,1,1\t1,1,1,1,1"


def test_decomp_edge_to_unknown_child_exit_code(workspace, tmp_path, capsys):
    decomp = tmp_path / "d.txt"
    decomp.write_text(
        "node 1: {x,y} cover R1\nnode 2: {y,z} cover R2\n"
        "root 1\nedge 1 2\nedge 2 7\n"
    )
    args = _base_args(workspace, "--decomp", str(decomp))
    assert main(["topk", *args, "-k", "1"]) == 2
    assert "node 7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, err",
    [
        ("root zero", "line 3: cannot parse root line"),
        ("root 1\nedge 1", "line 4: cannot parse edge line"),
        ("root 1\nedge 1 x", "line 4: cannot parse edge line"),
        ("root 1\nedge 1 2 3", "line 4: cannot parse edge line"),
        ("root 1\nroot 2", "line 4: second root line"),
        ("node 1: {x,y} cover R1\nroot 1", "line 3: node 1 is repeated"),
        ("root 1\nedge 1 2\nedge 2 2", "line 5: node 2 already has parent 1"),
    ],
)
def test_malformed_decomp_lines_exit_code(workspace, tmp_path, capsys, lines, err):
    decomp = tmp_path / "d.txt"
    decomp.write_text(f"node 1: {{x,y}} cover R1\nnode 2: {{y,z}} cover R2\n{lines}\n")
    args = _base_args(workspace, "--decomp", str(decomp))
    assert main(["enumerate", *args]) == 2
    assert err in capsys.readouterr().err


def test_union_under_tuple_weights_prints_each_output_once(tmp_path, capsys):
    # Output 1,2,3 scores 10 through S and 5 through T: it ranks at 5.
    data = tmp_path / "data"
    data.mkdir()
    tables = {
        "R": ("x,y,w", ["1,2,0", "4,5,0"]),
        "S": ("y,z,w", ["2,3,10", "5,6,7"]),
        "T": ("y,z,w", ["2,3,5"]),
    }
    for name, (header, rows) in tables.items():
        (data / f"{name}.csv").write_text("\n".join([header] + rows) + "\n")
    query = tmp_path / "query.txt"
    query.write_text("Q(x,y,z) :- R(x,y), S(y,z) | R(x,y), T(y,z)\n")
    args = ["--query", str(query), "--data", str(data), "--rank", "tuple_sum",
            "--weight-col", "w"]
    assert main(["enumerate", *args]) == 0
    engine = capsys.readouterr().out
    assert engine.splitlines() == ["5\t1,2,3", "7\t4,5,6"]
    assert main(["oracle", *args]) == 0
    assert capsys.readouterr().out == engine


@pytest.mark.parametrize("spec, warned", [("vertex_max", True), ("tuple_sum", False)])
def test_plan_warns_when_ties_are_buffered(workspace, capsys, spec, warned):
    args = _base_args(workspace)
    args[args.index("tuple_sum")] = spec
    assert main(["plan", *args]) == 0
    out = capsys.readouterr().out
    assert ("buffered and sorted before the first of them" in out) == warned


@pytest.mark.parametrize("head, group", [
    # The root bag {x,y} holds the head prefix x,y: a group shares a score
    # and the values of both.
    ("Q(x,y,z)", "each group of outputs that share a score and values of x,y is"),
    # The prefix stops at z: a group shares a score and a value of x.
    ("Q(x,z,y)", "each group of outputs that share a score and a value of x is"),
    # The bag does not hold z: a group is the whole equal-score run.
    ("Q(z,y,x)", "each whole run of outputs that share a score is"),
])
def test_plan_warning_names_the_buffered_group(tmp_path, capsys, head, group):
    query = tmp_path / "query.txt"
    query.write_text(f"{head} :- R(x,y), S(y,z)\n")
    assert main(["plan", "--query", str(query), "--rank", "tuple_max"]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if "buffered and sorted before the first of them" in line]
    assert warnings == [f"warning: under tuple_max, {group} buffered and sorted "
                        "before the first of them is emitted, so the delay is "
                        "unbounded when many outputs tie"]


def test_plan_on_2000_atom_path(tmp_path, capsys):
    query, _ = long_path(2000)
    (tmp_path / "query.txt").write_text(query + "\n")
    assert main(["plan", "--query", str(tmp_path / "query.txt")]) == 0
    out = capsys.readouterr().out
    assert "  " * 1999 + "node 1999: bag {v1999,v2000} key [v1999]" in out


def test_plan_on_2000_arm_star(tmp_path, capsys):
    (tmp_path / "query.txt").write_text(star(2000) + "\n")
    assert main(["plan", "--query", str(tmp_path / "query.txt")]) == 0
    out = capsys.readouterr().out.splitlines()
    for line in ("width: 1", "diameters: 2", "coordinate condition: ok",
                 "edge condition: ok"):
        assert line in out


PLAIN_RUNNING_TREE = [
    f"query: {RUNNING_QUERY}",
    "width: 1",
    "node 0: bag {x,y} key [] val [x,y] cover R1",
    "  node 1: bag {y,z} key [y] val [z] cover R2",
    "    node 2: bag {z,w} key [z] val [w] cover R3",
    "    node 3: bag {z,u} key [z] val [u] cover R4",
]


def test_plan_of_a_bounded_ranking(workspace, capsys):
    """A bounded ranking runs on the plain join tree: its bags do not gain
    its variables, and the width stays 1."""
    args = _base_args(workspace)
    args[args.index("tuple_sum")] = "bounded(tuple_sum; x,u)"
    assert main(["plan", *args]) == 0
    assert capsys.readouterr().out.splitlines()[:7] == PLAIN_RUNNING_TREE + [
        "diameters: 3",
    ]


def test_plan_warns_of_ties_under_bounded_max(workspace, capsys):
    """`bounded(*_max; …)` buffers tied outputs as `*_max` does, and `plan`
    says so after the tree."""
    args = _base_args(workspace)
    args[args.index("tuple_sum")] = "bounded(tuple_max; x,u)"
    assert main(["plan", *args]) == 0
    assert capsys.readouterr().out.splitlines()[6:8] == [
        "warning: under bounded(tuple_max; u,x), each group of outputs that "
        "share a score and values of x,y is buffered and sorted before the "
        "first of them is emitted, so the delay is unbounded when many "
        "outputs tie",
        "diameters: 3",
    ]


def test_plan_witness_does_not_follow_the_hash_seed(tmp_path):
    """Every pair of the spider's leg ends is at its diameter; equally far
    vertices are told apart by name, whatever the set order."""
    (tmp_path / "query.txt").write_text(spider(5) + "\n")
    script = (
        "import sys\n"
        "from rankjoin.cli import main\n"
        "sys.exit(main(['plan', '--query', sys.argv[1]]))\n"
    )
    src = os.path.dirname(os.path.dirname(rankjoin.__file__))
    witnesses = set()
    for seed in (0, 3):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "query.txt")],
            env=env, capture_output=True, text=True, check=True,
        )
        witnesses |= {
            line for line in run.stdout.splitlines()
            if line.startswith("edge condition:")
        }
    assert witnesses == {"edge condition: violated (b0..b1 at distance 4)"}


@pytest.mark.parametrize(
    "command, drop, err",
    [
        ("enumerate", "--query", "no query file given (--query or query= in config)"),
        ("enumerate", "--data", "no data directory given (--data or data= in config)"),
        ("enumerate", "--rank", "no ranking given (--rank or rank= in config)"),
        ("topk", None, "topk needs -k (or k= in config)"),
    ],
)
def test_missing_job_part_exit_code(workspace, capsys, command, drop, err):
    args = _base_args(workspace)
    if drop is not None:
        del args[args.index(drop):args.index(drop) + 2]
    assert main([command, *args]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize(
    "command, decomp, err",
    [
        ("enumerate", True, "--decomp applies to single-disjunct queries only"),
        ("plan", True, "--decomp applies to single-disjunct queries only"),
        ("bench", False, "bench supports single-disjunct queries only"),
    ],
)
def test_single_disjunct_commands_refuse_a_union(
    workspace, capsys, command, decomp, err
):
    (workspace / "query.txt").write_text("Q(x,y) :- R1(x,y) | R1(y,x)\n")
    (workspace / "d.txt").write_text("node 1: {x,y} cover R1\nroot 1\n")
    extra = ["--decomp", str(workspace / "d.txt")] if decomp else []
    assert main([command, *_base_args(workspace), *extra]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def _cli(*args):
    src = os.path.dirname(os.path.dirname(rankjoin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return [sys.executable, "-m", "rankjoin.cli", *args], env


def test_reader_closing_the_pipe_stops_quietly(tmp_path, capsys):
    """`rankjoin enumerate … | head -1`: the reader takes one line and closes
    the pipe while 90,000 more are to come. The CLI stops without a
    traceback and exits 141, as a shell reports a process SIGPIPE ended."""
    assert main(["gen", "threepath", "--n", "300", "--out", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    cmd, env = _cli("enumerate", "--config", str(tmp_path / "t" / "job.conf"))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "2\ta001,b,c,d001\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == ""


def test_closed_stdout_before_the_first_line(tmp_path):
    """`rankjoin plan … | true`, with the reader gone before `plan` writes."""
    (tmp_path / "query.txt").write_text(RUNNING_QUERY + "\n")
    cmd, env = _cli("plan", "--query", str(tmp_path / "query.txt"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(cmd, env=env, stdout=write_end,
                             stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (141, "")
