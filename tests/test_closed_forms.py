"""The closed-form workloads at their smallest sizes.

Each workload is a program whose answers have a closed form in its size, so
that a scaling profile can grow it and still check what it prints.  Here
each runs at its smallest size through the CLI, under every engine of both
readings that applies, and the answer sets (or the exit code) must be the
closed form's.  The incremental plan and its variant with an underivable
goal are `test_cli.py::TestIncrementalPlan`.
"""

import json
from pathlib import Path

import pytest

from modasp.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
MODULAR = ("modular", ("brute", "reduct", "topo"))
ALL = (("union", ("brute", "reduct", "fixpoint")), MODULAR)
# `fixpoint` refuses negation and an extensional region.
ENUMERATING = (("union", ("brute", "reduct")), MODULAR)
# Two atoms that can be neither true nor false: no answer set.
CORE = "{a} :- not {b}.\n{b} :- not {a}.\n:- {a}.\n:- {b}.\n"


def control(k, *intensional):
    """`base` over the domain 0..k, with the given intensional patterns."""
    lines = [f"intensional {pattern}.\n" for pattern in intensional]
    return f"use base.\ndomain 0..{k}.\n" + "".join(lines)


def many_models(k):
    # s and t are extensional: each of the 2(k+1) atoms is a free choice.
    return "#program base.\np(0) :- s(0), t(0).\n", control(k, "p(X)")


def linked_conflict(k):
    # Every p(X) reads the core's c, so all atoms lie in one component.
    lp = "#program base.\np(X) :- s(X), c.\n" + CORE.format(a="c", b="d")
    return lp, control(k, "p(X)", "c", "d")


def split_unsat(k):
    # The core is a component of its own beside the p(X) :- s(X) choices.
    lp = "#program base.\np(X) :- s(X).\n" + CORE.format(a="a", b="b")
    return lp, control(k, "p(X)", "a", "b")


def choice_constraint(k):
    # Every s(X) is a free choice that the constraint forbids.
    return "#program base.\n:- s(X).\n", control(k, "p(X)")


def transitive_closure(n):
    # One edge subprogram instance per k: the path 0 -> 1 -> ... -> n.
    lp = (
        "#program base.\nt(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n"
        "#program edge(k).\ne(k,k+1).\n"
    )
    ctl = f"use base.\nuse edge(k) for k in 0..{n - 1}.\ndomain 0..{n}.\n"
    return lp, ctl


def solve(tmp_path, capsys, lp, ctl, mode, engine, *extra):
    (tmp_path / "w.lp").write_text(lp, encoding="utf-8")
    (tmp_path / "w.ctl").write_text(ctl, encoding="utf-8")
    return solve_files(
        capsys, str(tmp_path / "w.lp"), str(tmp_path / "w.ctl"), mode, engine, *extra
    )


def solve_files(capsys, lp, ctl, mode, engine, *extra):
    code = main(
        ["solve", lp, "--control", ctl, "--mode", mode, "--engine", engine,
         "--output", "machine", *extra]
    )
    out = capsys.readouterr().out
    return code, json.loads(out)["answer_sets"] if code == 0 else None


def each_engine(readings):
    return [(mode, engine) for mode, engines in readings for engine in engines]


@pytest.mark.parametrize("mode, engine", each_engine(ENUMERATING))
def test_many_models_has_4_to_the_k_plus_1(tmp_path, capsys, mode, engine):
    k = 1
    lp, ctl = many_models(k)
    code, answers = solve(tmp_path, capsys, lp, ctl, mode, engine, "--cap", "1000")
    assert code == 0
    assert len(answers) == len({json.dumps(a) for a in answers}) == 4 ** (k + 1)
    for answer in answers:
        assert ("p(0)" in answer) == ("s(0)" in answer and "t(0)" in answer)


@pytest.mark.parametrize("workload", [linked_conflict, split_unsat])
@pytest.mark.parametrize("mode, engine", each_engine(ENUMERATING))
def test_core_conflict_has_no_answer_set(tmp_path, capsys, workload, mode, engine):
    code, _ = solve(tmp_path, capsys, *workload(3), mode, engine, "--cap", "1000")
    assert code == 1


@pytest.mark.parametrize("mode, engine", each_engine(ENUMERATING))
def test_choice_constraint_has_one_empty_answer_set(tmp_path, capsys, mode, engine):
    assert solve(tmp_path, capsys, *choice_constraint(3), mode, engine) == (0, [[]])


@pytest.mark.parametrize("mode, engine", each_engine(ALL))
def test_transitive_closure_has_n_n_plus_1_over_2_paths(
    tmp_path, capsys, mode, engine
):
    n = 5
    code, answers = solve(tmp_path, capsys, *transitive_closure(n), mode, engine)
    assert code == 0
    expected = [f"e({k},{k + 1})" for k in range(n)]
    expected += [f"t({i},{j})" for i in range(n) for j in range(i + 1, n + 1)]
    assert len(answers) == 1 and sorted(answers[0]) == sorted(expected)
    assert sum(atom.startswith("t(") for atom in answers[0]) == n * (n + 1) // 2


@pytest.mark.parametrize("mode, engine", each_engine(ALL))
def test_property_chain_is_the_diagonal(capsys, mode, engine):
    n = 4
    code, answers = solve_files(
        capsys, str(FIXTURES / "property.lp"), str(FIXTURES / "property.ctl"),
        mode, engine, "-c", f"n={n}",
    )
    assert code == 0
    assert answers == [[f"q({k},{k})" for k in range(n + 1)]]
