"""Generated control files, checked end to end through in-process
`cli.main` (`randctl.py` writes the program and control text).

Four oracles, each comparing two runs that reach their answer by
different paths:
- a ranged `use` line gives the same stdout and exit code as one plain
  `use` line per value, for `instantiate` and `solve` in both modes;
- `-c n=v` gives the same output as rewriting the `const` line;
- when `check-coherence` exits 0, `compare` exits 0 (Theorem 1);
- `check-model` accepts every answer set that `solve` prints, in both
  modes: it checks the one candidate, with no search.
"""

import random

import pytest

from modasp.cli import main
from randctl import MAX_N, random_case

SEEDS = range(50)
# Some generated bases pass the default cap of 24 atoms; none passes 40.
CAP = ("--cap", "40")


@pytest.fixture
def cli(tmp_path, capsys):
    """Run `main` on `program` and a control text; (exit code, stdout)."""
    lp = tmp_path / "gen.lp"
    ctl = tmp_path / "gen.ctl"

    def run(program, control, *argv):
        lp.write_text(program, encoding="utf-8")
        ctl.write_text(control, encoding="utf-8")
        code = main([argv[0], str(lp), "--control", str(ctl), *argv[1:]])
        return code, capsys.readouterr().out

    return run


@pytest.mark.parametrize("seed", SEEDS)
def test_ranged_use_is_its_plain_use_lines(cli, seed):
    case = random_case(random.Random(seed))
    for argv in (
        ("instantiate", "--mode", "union"),
        ("instantiate", "--mode", "modular"),
        ("solve", "--mode", "union", "--engine", "reduct", *CAP),
        ("solve", "--mode", "modular", "--engine", "reduct", *CAP),
    ):
        ranged = cli(case.program, case.control(), *argv)
        plain = cli(case.program, case.control(expanded=True), *argv)
        assert ranged == plain, (argv, case.control())


@pytest.mark.parametrize("seed", SEEDS)
def test_const_override_is_the_rewritten_const_line(cli, seed):
    rng = random.Random(seed)
    case = random_case(rng)
    n = rng.randint(0, MAX_N)
    for argv in (
        ("instantiate", "--mode", "modular"),
        ("solve", "--mode", "union", *CAP),
    ):
        overridden = cli(case.program, case.control(), *argv, "-c", f"n={n}")
        rewritten = cli(case.program, case.control(n), *argv)
        assert overridden == rewritten, (argv, n, case.control())


@pytest.mark.parametrize("seed", SEEDS)
def test_coherent_plans_compare_equal(cli, seed):
    case = random_case(random.Random(seed))
    coherent = cli(case.program, case.control(), "check-coherence")[0] == 0
    code, out = cli(case.program, case.control(), "compare", *CAP)
    assert code == 0 or not coherent, (out, case.program, case.control())


def test_check_model_accepts_each_printed_answer_set(cli):
    verdicts = {"union": "kappa-stable model\n", "modular": "answer set\n"}
    checked = dict.fromkeys(verdicts, 0)
    for seed in SEEDS:
        case = random_case(random.Random(seed))
        for mode, verdict in verdicts.items():
            code, out = cli(case.program, case.control(), "solve", "--mode", mode, *CAP)
            if code:
                continue  # no answer set, or a refused modular reading
            for line in out.splitlines():
                argv = ("check-model", "--mode", mode, "--model", line)
                assert cli(case.program, case.control(), *argv) == (0, verdict), (
                    seed, mode, line
                )
                checked[mode] += 1
    assert min(checked.values()) >= len(SEEDS)


def test_the_generator_reaches_each_construct(cli):
    """The oracles see empty and non-empty ranges, `allow empty` on both,
    `intensional` and `module` lines, two parametric subprograms, and
    coherent plans as well as incoherent or refused ones."""
    cases = [random_case(random.Random(seed)) for seed in SEEDS]
    uses = [(use, case.n) for case in cases for use in case.uses]
    assert any(use.lo >= n for use, n in uses)
    assert any(use.allow_empty and use.lo < n for use, n in uses)
    lines = [line for case in cases for line in case.statements]
    assert any(line.startswith("intensional") for line in lines)
    assert any(line.startswith("module") for line in lines)
    assert any(len(case.uses) == 2 for case in cases)
    verdicts = [cli(c.program, c.control(), "check-coherence")[0] for c in cases]
    assert min(verdicts.count(0), verdicts.count(1)) >= len(SEEDS) // 3
