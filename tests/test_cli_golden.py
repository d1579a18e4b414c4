"""Golden CLI outputs: stdout and exit code of `parse` on every program
fixture, and of `solve`, `compare`, `check-coherence`, `instantiate` and
`check-model` over every program x control pairing of the fixtures.  Every
`solve` and `compare` entry also runs with `--cap 4`, which exposes which
inputs the relevant-base cap refuses (exit 3).  `parse` and `instantiate`
run in both output formats, `instantiate` in both modes, `check-model` in
both modes with both checking engines on three candidates, plus one answer
set of `terms.ctl` under that control file.  Machine output is pinned for
`solve` in both modes and `compare` with every engine at the default cap,
for `check-coherence`, and for `check-model` with `reduct` in both modes on
every candidate.

The expected outputs live in `fixtures/cli_golden.json`.  Regenerate them
with `PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
A warning that escapes the CLI fails its entry.  A few entries also run in
fresh interpreters, where record hashes and so set orders differ.
"""

import contextlib
import functools
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from childenv import child_env

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
SOLVE_ENGINES = ("brute", "reduct", "fixpoint", "topo")
CANDIDATES = ("", "q(0,0)", "q(0,0) q(1,1) q(2,2) q(3,3)")
# An answer set of `terms.lp` under `terms.ctl`: function terms and
# two-digit numerals in a candidate.
TERMS_MODEL = "both(a) in(a,9) in(a,10) in(f(b),10) item(a) item(f(b)) out(f(b),9)"
MACHINE = ["--output", "machine"]
# Pairs left out of the matrix: gamma1.ctl uses incremental.lp's `base` and
# leaves `at` and part of `q` extensional, so every subset of 23 atoms is an
# answer set.
UNPAIRED = {("incremental.lp", "gamma1.ctl")}


def matrix() -> list[list[str]]:
    """Argument vectors, with fixture paths relative to the fixtures."""
    out = []
    for lp in sorted(FIXTURES.glob("*.lp")):
        out += [["parse", lp.name], ["parse", lp.name, *MACHINE]]
        for ctl in sorted(FIXTURES.glob("*.ctl")):
            if (lp.name, ctl.name) in UNPAIRED:
                continue
            files = [lp.name, "--control", ctl.name]
            candidates = CANDIDATES
            if ctl.name == "terms.ctl":
                candidates += (TERMS_MODEL,)
            if ctl.name.startswith("property"):
                files += ["-c", "n=3"]
            for extra in ([], ["--cap", "4"], MACHINE):
                for mode in ("union", "modular"):
                    for engine in SOLVE_ENGINES:
                        out.append(
                            ["solve", *files, "--mode", mode, "--engine", engine, *extra]
                        )
                for engine in SOLVE_ENGINES:
                    out.append(["compare", *files, "--engine", engine, *extra])
            for extra in ([], MACHINE):
                out.append(["check-coherence", *files, *extra])
            for mode in ("union", "modular"):
                for output in ("text", "machine"):
                    out.append(
                        ["instantiate", *files, "--mode", mode, "--output", output]
                    )
                for engine, extra in (
                    ("brute", []), ("reduct", []), ("reduct", MACHINE)
                ):
                    for model in candidates:
                        out.append(
                            ["check-model", *files, "--mode", mode,
                             "--engine", engine, "--model", model, *extra]
                        )
    return out


def run_cli(argv: list[str]) -> dict:
    from modasp.cli import main

    resolved = [
        str(FIXTURES / a) if a.endswith((".lp", ".ctl")) else a for a in argv
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(resolved)
    return {"exit": code, "stdout": stdout.getvalue()}


def run_child(argv: list[str], *options: str, **env: str):
    """`python OPTIONS -m modasp.cli ARGV` in a fresh interpreter, in the
    fixtures directory, with `src` on its path and `env` added."""
    return subprocess.run(
        [sys.executable, *options, "-m", "modasp.cli", *argv],
        capture_output=True, text=True, env=child_env(**env), cwd=FIXTURES,
    )


@functools.cache
def _load_golden() -> dict:
    """The golden file, parsed once per test run (about 8 ms a parse)."""
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", matrix(), ids=" ".join)
def test_matches_golden(argv):
    assert run_cli(argv) == _load_golden()[" ".join(argv)]


def test_golden_covers_matrix():
    assert sorted(_load_golden()) == sorted(" ".join(a) for a in matrix())


PROCESS_COMMANDS = [
    ["solve", "--mode", "modular", "--engine", "reduct"],
    ["compare", "--engine", "reduct"],
    ["instantiate", "--mode", "modular", "--output", "text"],
    ["check-coherence"],
]


@pytest.mark.parametrize("name", ["tangle", "gamma1"])
@pytest.mark.parametrize("command", PROCESS_COMMANDS, ids=lambda c: c[0])
def test_stdout_does_not_depend_on_the_process(name, command):
    """A record's hash includes its class's, which lies elsewhere in every
    process, so any printed order that came from a set would show here."""
    argv = [command[0], f"{name}.lp", "--control", f"{name}.ctl", *command[1:]]
    expected = _load_golden()[" ".join(argv)]
    for seed in ("1", "2"):
        child = run_child(argv, PYTHONHASHSEED=seed)
        assert {"exit": child.returncode, "stdout": child.stdout} == expected


NOTE = (
    "warning: comparing an incoherent modular program; the union theorem "
    "does not apply"
)


@pytest.mark.parametrize(
    "options, env", [(["-W", "error"], {}), ([], {"PYTHONWARNINGS": "ignore"})],
    ids=["error", "ignore"],
)
def test_incoherence_note_is_one_stderr_line(options, env):
    """The warning filters of the interpreter neither hide the note of
    `compare` on an incoherent program nor turn it into a traceback."""
    files = ["tangle.lp", "--control", "tangle.ctl"]
    argv = ["compare", *files, "--engine", "reduct"]
    child = run_child(argv, *options, **env)
    assert child.returncode == 1
    assert child.stdout == _load_golden()[" ".join(argv)]["stdout"]
    assert child.stderr == NOTE + "\n"
    child = run_child(["compare", *files, "--engine", "topo"], *options, **env)
    assert child.returncode == 2
    first, second, *_ = child.stderr.splitlines()
    assert first == NOTE and second.startswith("error: the topological engine")


if __name__ == "__main__":
    golden = {" ".join(argv): run_cli(argv) for argv in matrix()}
    GOLDEN.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(golden)} entries to {GOLDEN}", file=sys.stderr)
