"""`tools/bench_suite.py` reads its figures from `rankjoin bench`."""

import importlib.util
import pathlib

import pytest

from rankjoin.cli import main

SUITE = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_suite.py"


@pytest.fixture(scope="module")
def suite():
    spec = importlib.util.spec_from_file_location("bench_suite", SUITE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def threepath(tmp_path, capsys):
    out = tmp_path / "threepath"
    assert main(["gen", "threepath", "--n", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def test_measure_reports_every_figure(suite, threepath):
    figures = suite.measure(str(threepath / "job.conf"))
    assert list(figures) == list(suite.FIGURES)
    assert all(value >= 0 for value in figures.values())


def test_measure_fails_on_a_job_bench_refuses(suite, threepath, capsys):
    query = threepath / "query.txt"
    head, body = query.read_text().strip().split(" :- ")
    query.write_text(f"{head} :- {body} | {body}\n")
    with pytest.raises(RuntimeError, match="rankjoin bench exited 2"):
        suite.measure(str(threepath / "job.conf"))
    assert "bench supports single-disjunct queries only" in capsys.readouterr().err


def test_bounded_input_runs_its_own_rank(suite, threepath):
    """`bounded_threepath` is a `gen threepath` job whose rank spec is
    replaced; its figures come from the bounded ranking's set-up."""
    kind, n, rank = suite.GEN["bounded_threepath"]
    assert (kind, rank) == ("threepath", "bounded(tuple_sum; x,y)")
    conf = threepath / "job.conf"
    suite.rerank(str(conf), rank)
    lines = conf.read_text().splitlines()
    assert f"rank={rank}" in lines
    assert sum(line.startswith("rank=") for line in lines) == 1
    figures = suite.measure(str(conf))
    assert list(figures) == list(suite.FIGURES)
