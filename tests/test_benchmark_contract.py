"""The benchmark's import contract: `perfbench/workloads.py` imports names
from modasp at module level and runs the CLI on inputs it writes itself, so
a refactor that drops or renames one of those names breaks the benchmark.
This imports the workloads module as it is and runs `prepare` for the
three CLI workloads, and runs the generator of `random_compare`.  It also
runs each CLI workload's command in-process and checks its output as the
benchmark does, so that a broken output format fails here and not only as
the benchmark's failed operations."""

import contextlib
import importlib.util
import io
import random
from pathlib import Path

import pytest

from modasp.modular import theorem1_check

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CLI_WORKLOADS = ("property_chain", "even_loops", "module_chain")


@pytest.mark.parametrize("name", CLI_WORKLOADS)
def test_cli_workload_prepares(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name]
    workload.prepare(7, tmp_path)
    for path in workload.files(tmp_path):
        assert path.read_text(encoding="utf-8")
    assert (tmp_path / "names.json").is_file()
    assert workload.argv(tmp_path)[0] == workload.command


@pytest.mark.parametrize("name", CLI_WORKLOADS)
def test_cli_workload_output_passes_its_check(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    from modasp.cli import main

    workload = workloads.WORKLOADS[name]
    workload.prepare(7, tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(workload.argv(tmp_path))
    assert code == 0
    expected = workload._expected(tmp_path)
    assert expected
    assert workload._output_ok(stdout.getvalue(), expected)


def test_random_compare_generator_runs():
    # `random_compare` draws its programs from the benchmark's own copy of
    # the generator, which calls `signature`, `ground`, `extensional_region`
    # and `is_coherent`.  It is loaded by path: the test suite has a module
    # of the same name.
    spec = importlib.util.spec_from_file_location(
        "perfbench_randprog", PERFBENCH / "randprog.py"
    )
    randprog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(randprog)
    rng = random.Random(7)
    for _ in range(20):
        P, dom = randprog.random_coherent_program(rng)
        assert theorem1_check(P, dom, "reduct").equal
