"""Generated control files, checked end to end through in-process
`cli.main` (`randctl.py` writes the program and control text).

Five oracles, each comparing two runs that reach their answer by
different paths:
- a ranged `use` line gives the same stdout and exit code as one plain
  `use` line per value, for `instantiate` and `solve` in both modes;
- `-c n=v` gives the same output as rewriting the `const` line;
- when `check-coherence` exits 0, `compare` exits 0 (Theorem 1);
- every engine's `solve` gives the stdout and exit code of `brute`'s,
  where it applies;
- `check-model` accepts every answer set that `solve` prints, in both
  modes and under both of its engines: it checks the one candidate, with
  no search.  It rejects each with an atom of a predicate the plan never
  names added.

And three metamorphic cases, each changing the text of a case in a way
that must not change `solve` (both modes) or `check-coherence`:
- shuffling the plain `use` lines;
- repeating a `use` line: identical instantiations collapse into one
  module, and the union drops duplicate rules;
- renaming the predicates consistently, which renames the answer sets.
"""

import random
import re

import pytest

from modasp.cli import main
from randctl import MAX_N, random_case

SEEDS = range(50)
# Some generated bases pass the default cap of 24 atoms; none passes 40.
CAP = ("--cap", "40")
SOLVES = (("solve", "--mode", "union", *CAP), ("solve", "--mode", "modular", *CAP))
# A renaming of every predicate of `randctl` that reverses their order.
RENAMING = {"e": "w", "p": "c", "q": "b", "r": "a"}
# The engines each mode's `solve` compares with `brute`.
ENGINES = {"union": ("reduct", "fixpoint"), "modular": ("reduct", "topo")}


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


def test_every_engine_agrees_with_brute(cli):
    compared = dict.fromkeys(
        ((mode, engine) for mode, engines in ENGINES.items() for engine in engines), 0
    )
    for seed in SEEDS:
        case = random_case(random.Random(seed))
        for mode, engines in ENGINES.items():
            argv = ("solve", "--mode", mode, *CAP, "--engine")
            brute = cli(case.program, case.control(), *argv, "brute")
            for engine in engines:
                got = cli(case.program, case.control(), *argv, engine)
                if got[0] == 2:
                    continue  # the engine does not apply to this reading
                assert got == brute, (seed, mode, engine)
                compared[mode, engine] += 1
    assert min(compared.values()) >= 20, compared


def test_check_model_accepts_each_printed_answer_set(cli):
    verdicts = {
        "union": ("kappa-stable model\n", "not a kappa-stable model\n"),
        "modular": ("answer set\n", "not an answer set\n"),
    }
    checked = dict.fromkeys(verdicts, 0)
    for seed in SEEDS:
        case = random_case(random.Random(seed))
        for mode, (yes, no) in verdicts.items():
            code, out = cli(case.program, case.control(), "solve", "--mode", mode, *CAP)
            if code:
                continue  # no answer set, or a refused modular reading
            for line in out.splitlines():
                argv = ("check-model", "--mode", mode, "--engine")
                for engine in ("reduct", "brute"):
                    assert cli(
                        case.program, case.control(), *argv, engine, "--model", line
                    ) == (0, yes), (seed, mode, engine, line)
                # `zzz` is no predicate of the plan, so no answer set holds it.
                assert cli(
                    case.program, case.control(), *argv, "reduct", "--model",
                    f"{line} zzz(0)",
                ) == (1, no), (seed, mode, line)
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


def _with_uses(control, rearrange):
    """`control` with its `use` lines, which follow its first line,
    replaced by `rearrange` of them."""
    lines = control.splitlines()
    uses = [line for line in lines if line.startswith("use ")]
    rest = [line for line in lines if not line.startswith("use ")]
    return "\n".join(rest[:1] + rearrange(uses) + rest[1:]) + "\n"


def _renamed(text, renaming):
    """`text` with each predicate name of `renaming` replaced."""
    pattern = r"\b(" + "|".join(renaming) + r")\("
    return re.sub(pattern, lambda m: renaming[m[1]] + "(", text)


def _coherence_kinds(cli, program, control):
    """The exit code of `check-coherence` and the sorted kinds of its
    violations.  The report names modules by position and predicates by
    name, which a reordering or a renaming changes: the verdict and the
    kinds stay."""
    code, out = cli(program, control, "check-coherence")
    return code, sorted(line.split(":")[0] for line in out.splitlines())


@pytest.mark.parametrize("seed", SEEDS)
def test_use_line_order_changes_nothing(cli, seed):
    rng = random.Random(seed)
    case = random_case(rng)
    control = case.control(expanded=True)
    shuffled = _with_uses(control, lambda uses: rng.sample(uses, len(uses)))
    for argv in SOLVES:
        assert cli(case.program, control, *argv) == cli(case.program, shuffled, *argv)
    assert _coherence_kinds(cli, case.program, control) == _coherence_kinds(
        cli, case.program, shuffled
    ), (control, shuffled)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_repeated_use_line_changes_nothing(cli, seed):
    rng = random.Random(seed)
    case = random_case(rng)
    control = case.control(expanded=True)

    def repeat(uses):
        # After the first copy, so that the modules keep their order.
        i = rng.randrange(len(uses))
        j = rng.randint(i + 1, len(uses))
        return uses[:j] + [uses[i]] + uses[j:]

    repeated = _with_uses(control, repeat)
    for argv in (*SOLVES, ("check-coherence",)):
        assert cli(case.program, control, *argv) == cli(
            case.program, repeated, *argv
        ), (argv, repeated)


@pytest.mark.parametrize("seed", SEEDS)
def test_renaming_predicates_renames_the_answer_sets(cli, seed):
    case = random_case(random.Random(seed))
    control = case.control()
    program, renamed = _renamed(case.program, RENAMING), _renamed(control, RENAMING)
    back = {new: old for old, new in RENAMING.items()}
    for argv in SOLVES:
        code, out = cli(case.program, control, *argv)
        renamed_code, renamed_out = cli(program, renamed, *argv)
        assert renamed_code == code, argv
        assert sorted(sorted(line.split()) for line in out.splitlines()) == sorted(
            sorted(_renamed(line, back).split()) for line in renamed_out.splitlines()
        ), argv
    assert _coherence_kinds(cli, program, renamed) == _coherence_kinds(
        cli, case.program, control
    ), (control, renamed)
