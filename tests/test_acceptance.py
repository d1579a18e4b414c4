"""Acceptance criteria.

Each criterion runs at its stated tolerance and prints one PASS line when it
holds (run with `pytest -v -s tests/test_acceptance.py` to see them).  The
heavy random suites are computed once in module-scoped fixtures; the
support-check criterion re-reads every model they enumerated.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from modasp.engine import (
    Interpretation,
    check_support,
    enumerate_kappa_stable,
    is_kappa_stable,
)
from modasp.grounding import Domain
from modasp.instantiation import Module, ModularProgram, collective_modular
from modasp.intensionality import (
    IntensionalityStatement,
    check_requirement,
    lambda_formula,
)
from modasp.modular import (
    dependency_graph,
    is_coherent,
    modular_answer_sets,
    theorem1_check,
    union_program,
)
from modasp.parsing import parse_control, parse_program
from modasp.program import Literal, PredAtom, Program, make_rule
from modasp.terms import Numeral, SymbolicConstant, Variable

import randprog
from childenv import child_env

FIXTURES = Path(__file__).parent / "fixtures"
Q = ("q", 2)


def q(a, b):
    return PredAtom("q", (Numeral(a), Numeral(b)))


def interp(*atoms):
    return Interpretation.of(atoms)


def run_cli(*argv):
    """Run the CLI in `tests/fixtures`; the child gets an absolute `src`
    path, since a relative `PYTHONPATH=src` would resolve against that cwd."""
    return subprocess.run(
        [sys.executable, "-m", "modasp.cli", *argv],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES),
        env=child_env(),
    )


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


# --- shared suites ------------------------------------------------------------------


@pytest.fixture(scope="module")
def support_pool():
    """(statement, program, domain, models) tuples collected by criteria 2-6."""
    return []


@pytest.fixture(scope="module")
def gamma1_setup(support_pool):
    pi = parse_program(
        (FIXTURES / "gamma1.lp").read_text(encoding="utf-8")
    ).subprogram("base")
    kappa = IntensionalityStatement.of(
        {Q: [(Variable("X"), Numeral(1)), (Variable("X"), Numeral(2))]}
    )
    dom = Domain(0, 3)
    accepted = [interp(q(1, 3)), interp(q(0, 0), q(0, 1), q(0, 2))]
    support_pool.append((kappa, pi, dom, accepted))
    return kappa, pi, dom, accepted


@pytest.fixture(scope="module")
def property3_setup(support_pool):
    prog = parse_program((FIXTURES / "property.lp").read_text(encoding="utf-8"))
    plan = parse_control(
        (FIXTURES / "property3.ctl").read_text(encoding="utf-8"), prog
    )
    modular = collective_modular(prog, plan)
    dom = Domain(*plan.domain)
    union = union_program(modular)
    models = enumerate_kappa_stable(modular.kappa, union, dom, "reduct")
    support_pool.append((modular.kappa, union, dom, sorted(models, key=str)))
    return modular, dom


@pytest.fixture(scope="module")
def p1_setup(support_pool):
    prog = parse_program((FIXTURES / "p1.lp").read_text(encoding="utf-8"))
    plan = parse_control((FIXTURES / "p1.ctl").read_text(encoding="utf-8"), prog)
    modular = collective_modular(prog, plan)
    dom = Domain(*plan.domain)
    models = modular_answer_sets(modular, dom, "reduct")
    support_pool.append(
        (modular.kappa, union_program(modular), dom, sorted(models, key=str))
    )
    return modular, dom, models


@pytest.fixture(scope="module")
def theorem1_suite(support_pool):
    rng = random.Random(20240901)
    outcomes = []
    start = time.perf_counter()
    for _ in range(500):
        P, dom = randprog.random_coherent_program(rng)
        report_obj = theorem1_check(P, dom, "reduct")
        outcomes.append((P, dom, report_obj))
        support_pool.append(
            (
                P.kappa,
                union_program(P),
                dom,
                list(report_obj.union_sets),
            )
        )
    elapsed = time.perf_counter() - start
    return outcomes, elapsed


@pytest.fixture(scope="module")
def engine_agreement_suite(support_pool):
    rng = random.Random(77001)
    outcomes = []
    start = time.perf_counter()
    for _ in range(500):
        kappa, pi, dom = randprog.random_ground_instance(rng)
        brute = enumerate_kappa_stable(kappa, pi, dom, "brute")
        reduct = enumerate_kappa_stable(kappa, pi, dom, "reduct")
        outcomes.append((kappa, pi, dom, brute, reduct))
        support_pool.append((kappa, pi, dom, sorted(brute, key=str)))
    elapsed = time.perf_counter() - start
    return outcomes, elapsed


# --- criteria -----------------------------------------------------------------------


def test_criterion_1_property_end_to_end():
    start = time.perf_counter()
    result = run_cli(
        "solve",
        "property.lp",
        "--control",
        "property.ctl",
        "-c",
        "n=100",
        "--mode",
        "union",
        "--engine",
        "fixpoint",
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    expected = " ".join(f"q({i},{i})" for i in range(101)) + "\n"
    assert result.stdout == expected
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"unique answer set q(0,0)..q(100,100) in {elapsed:.2f}s")


def test_criterion_2_modular_equivalence_desk_scale(property3_setup):
    start = time.perf_counter()
    result = run_cli(
        "compare",
        "property.lp",
        "--control",
        "property3.ctl",
        "--engine",
        "brute",
        "--output",
        "machine",
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    expected = [["q(0,0)", "q(1,1)", "q(2,2)", "q(3,3)"]]
    assert doc["equal"] is True
    assert doc["modular"] == expected
    assert doc["union"] == expected
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(2, f"modular == union == {{q(0,0) q(1,1) q(2,2) q(3,3)}} in {elapsed:.2f}s")


def test_criterion_3_kappa_stability_fixtures(gamma1_setup):
    kappa, pi, dom, accepted = gamma1_setup
    start = time.perf_counter()
    for engine in ("brute", "reduct"):
        for model in accepted:
            assert is_kappa_stable(model, kappa, pi, dom, engine)
        assert not is_kappa_stable(interp(q(0, 1)), kappa, pi, dom, engine)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(3, f"fixtures accepted/rejected as stated in {elapsed:.2f}s")


def test_criterion_4_p1_golden(p1_setup):
    modular, dom, models = p1_setup
    start = time.perf_counter()
    expected = interp(q(0, 0), q(0, 1), q(0, 2), q(0, 3), q(0, 4))
    assert models == frozenset({expected})
    graph = dependency_graph(modular)
    assert set(graph.vertices) == {("q", 0), ("q", 1), ("q", 2)}
    assert graph.edges == frozenset({(("q", 2), ("q", 1)), (("q", 1), ("q", 0))})
    coherence = is_coherent(modular)
    assert coherence.coherent
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(4, f"unique model, exact graph, coherent in {elapsed:.2f}s")


def test_criterion_5_theorem1_property_suite(theorem1_suite):
    outcomes, elapsed = theorem1_suite
    assert len(outcomes) >= 500
    failures = [
        (P, rep) for P, _, rep in outcomes if not rep.equal
    ]
    assert not failures, f"{len(failures)} programs broke modular/union equality"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(5, f"{len(outcomes)} coherent programs, exact equality, {elapsed:.1f}s")


def test_criterion_6_engine_cross_validation(engine_agreement_suite):
    outcomes, elapsed = engine_agreement_suite
    assert len(outcomes) >= 500
    mismatches = [
        (kappa, pi) for kappa, pi, _, brute, reduct in outcomes if brute != reduct
    ]
    assert not mismatches, f"{len(mismatches)} instances disagreed between engines"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(6, f"{len(outcomes)} ground instances, engines agree, {elapsed:.1f}s")


def test_criterion_7_support_property(
    gamma1_setup,
    property3_setup,
    p1_setup,
    theorem1_suite,
    engine_agreement_suite,
    support_pool,
):
    checked = 0
    for kappa, pi, dom, models in support_pool:
        for model in models:
            for atom in randprog.true_intensional_atoms(model, kappa):
                assert check_support(model, kappa, pi, atom, dom), (
                    f"unsupported intensional atom {atom} in model {{{model}}} "
                    f"of program:\n{pi}"
                )
                checked += 1
    assert checked > 500
    report(7, f"{checked} true intensional atoms all supported")


def test_criterion_8_coverage_vs_grid_oracle():
    grid = [Numeral(i) for i in range(-2, 3)] + [
        SymbolicConstant("a"),
        SymbolicConstant("b"),
    ]
    rng = random.Random(4242)

    def random_patterns(arity, count):
        out = []
        for _ in range(count):
            out.append(
                tuple(
                    Variable(f"X{pos + 1}")
                    if rng.random() < 0.5
                    else rng.choice(grid)
                    for pos in range(arity)
                )
            )
        return out

    disagreements = 0
    for _ in range(200):
        arity = rng.randint(1, 2)
        key = ("p", arity)
        # Three global patterns cannot saturate a seven-value grid axis, so
        # the finite grid decides validity exactly.
        kappa = IntensionalityStatement.of({key: random_patterns(arity, rng.randint(0, 3))})
        module = IntensionalityStatement.of({key: random_patterns(arity, rng.randint(1, 2))})
        got = check_requirement(kappa, [module]) is None
        lam_global = lambda_formula(kappa, key)
        lam_module = lambda_formula(module, key)
        want = all(
            lam_global.holds(args)
            for args in itertools.product(grid, repeat=arity)
            if lam_module.holds(args)
        )
        if got != want:
            disagreements += 1
    assert disagreements == 0
    report(8, "200 pattern configurations, subsumption matches the grid oracle")


def test_criterion_9_coherence_scaling(monkeypatch):
    import modasp.engine as engine_mod
    import modasp.modular as modular_mod

    modules = []
    for i in range(100):
        kappa = IntensionalityStatement.of(
            {("s", 2): [(Variable("X1"), Numeral(i))]}
        )
        rules = [
            make_rule(
                PredAtom("s", (Numeral(c), Numeral(i))),
                [Literal(PredAtom("s", (Numeral(c), Numeral(i - 1))))],
            )
            for c in range(10)
        ]
        modules.append(Module(kappa, Program.of(rules)))
    P = ModularProgram(
        IntensionalityStatement.purely_intensional([("s", 2)]), tuple(modules)
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("coherence checking must not evaluate semantics")

    for target in (engine_mod, modular_mod):
        monkeypatch.setattr(target, "is_kappa_stable", forbidden)
        monkeypatch.setattr(target, "CompiledParts", forbidden, raising=True)
    monkeypatch.setattr(engine_mod, "enumerate_kappa_stable", forbidden)
    monkeypatch.setattr(engine_mod, "StabilityChecker", forbidden, raising=True)
    monkeypatch.setattr(engine_mod.Interpretation, "of", forbidden)

    start = time.perf_counter()
    result = is_coherent(P)
    elapsed = time.perf_counter() - start
    assert result.coherent
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    report(9, f"100 modules x 10 rules checked syntactically in {elapsed:.2f}s")
