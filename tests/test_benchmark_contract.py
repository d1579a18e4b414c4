"""The benchmark's import contract: `perfbench/workloads.py` imports names
from modasp at module level and runs the CLI on inputs it writes itself, so
a refactor that drops or renames one of those names breaks the benchmark.
This imports the workloads module as it is and runs `prepare` for the
three CLI workloads."""

from pathlib import Path

import pytest

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
