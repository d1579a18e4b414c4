"""The dependency graph against the ground program.

`dependency_graph` is a non-ground analysis that claims to over-approximate:
a ground rule with head `a` and positive body atom `b` projects onto the
edge `((a.name, i), (b.name, j))` for every module i whose region holds `a`
and every module j whose region holds `b` (`lambda_holds`), and each such
edge, loops aside, must be an edge of the analysis.  The rules come from
two groundings of the modules: the one `_solve` makes, with the modular
seeds, and `ground`'s instances over the whole domain, which hold the
first and are made without `_match`, the matcher the analysis itself uses.
"""

import random
from pathlib import Path

import pytest

import modasp.engine as engine_mod
import randctl
import randprog
from modasp.engine import _solve
from modasp.errors import ModaspError
from modasp.grounding import Domain, ground, ground_reachable
from modasp.instantiation import Module, ModularProgram, collective_modular
from modasp.intensionality import lambda_holds
from modasp.modular import dependency_graph
from modasp.parsing import parse_control, parse_program
from modasp.program import PredAtom, Program
from modasp.terms import Arith, subterms

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_PLANS = [
    ("gamma1.lp", "gamma1.ctl"),
    ("p1.lp", "p1.ctl"),
    ("property.lp", "property3.ctl"),
    ("tangle.lp", "tangle.ctl"),
    ("terms.lp", "terms.ctl"),
]


def ground_graph(P, grounded) -> set:
    """The edges that the ground rules of `grounded` (one ground program
    per module, or any list of them) project onto the modules of `P`,
    without loops."""
    held: dict = {}

    def modules(atom):
        if atom not in held:
            held[atom] = [i for i, m in enumerate(P.modules) if lambda_holds(m.kappa, atom)]
        return held[atom]

    edges = set()
    for gp in grounded:
        for rule in gp.rules:
            if rule.head is None:
                continue
            for b in rule.pos:
                for i in modules(rule.head):
                    for j in modules(b):
                        edge = ((rule.head.name, i), (b.name, j))
                        if edge[0] != edge[1]:
                            edges.add(edge)
    return edges


class _Grounded(Exception):
    pass


def solve_grounding(P, dom, monkeypatch):
    """The ground programs of `P`'s modules exactly as `_solve` makes them,
    with its seeds; `_solve` stops there and searches nothing."""

    def stop(programs, dom, seeds):
        raise _Grounded(ground_reachable(programs, dom, seeds))

    with monkeypatch.context() as patched:
        patched.setattr(engine_mod, "ground_reachable", stop)
        with pytest.raises(_Grounded) as grounded:
            _solve(P, dom, "reduct", 0)
    return grounded.value.args[0]


def _arithmetic(atom) -> bool:
    return any(isinstance(s, Arith) for t in atom.args for s in subterms(t))


def _plan(program: str, control: str):
    prog = parse_program(program)
    plan = parse_control(control, prog)
    P = collective_modular(prog, plan)
    return P, Domain.build([m.pi for m in P.modules], *plan.domain)


def _grounds(rule, dom) -> bool:
    try:
        ground(Program((rule,)), dom)
    except ModaspError:  # an unsafe rule
        return False
    return True


def programs():
    """`(P, dom)`: the fixture plans, generated control-file pairs (less
    those the modular reading refuses), seeded pattern programs with their
    unsafe rules left out (arithmetic such as `N+1` and `N+N` in heads and
    bodies) and seeded coherent programs."""
    for lp, ctl in FIXTURE_PLANS:
        yield _plan(*((FIXTURES / f).read_text(encoding="utf-8") for f in (lp, ctl)))
    rng = random.Random(1818)
    for _ in range(60):
        case = randctl.random_case(rng)
        try:
            yield _plan(case.program, case.control())
        except ModaspError:  # a module pattern no global pattern covers
            pass
    dom = Domain(0, 2, frozenset(randprog.PATTERN_VALUES[3:]))
    for _ in range(200):
        P = randprog.random_pattern_program(rng)
        modules = tuple(
            Module(m.kappa, Program.of(r for r in m.pi.rules if _grounds(r, dom)))
            for m in P.modules
        )
        yield ModularProgram(P.kappa, modules), dom
    for _ in range(40):
        yield randprog.random_coherent_program(rng)


@pytest.fixture(scope="module")
def corpus():
    return [(P, dom, [ground(m.pi, dom) for m in P.modules]) for P, dom in programs()]


def test_corpus(corpus):
    """At least 200 programs, many of several modules with arithmetic in a
    rule head and in a positive body atom."""
    arithmetic = 0
    for P, _, _ in corpus:
        rules = [r for m in P.modules for r in m.pi.rules if r.head is not None]
        arithmetic += (
            len(P.modules) > 1
            and any(_arithmetic(r.head) for r in rules)
            and any(
                _arithmetic(lit.atom)
                for r in rules
                for lit in r.body
                if lit.negations == 0 and isinstance(lit.atom, PredAtom)
            )
        )
    assert len(corpus) >= 200 and arithmetic >= 50, (len(corpus), arithmetic)


def test_every_ground_edge_is_an_analysis_edge(corpus, monkeypatch):
    cross = 0
    for P, dom, full in corpus:
        analysed = dependency_graph(P).edges
        solved = ground_graph(P, solve_grounding(P, dom, monkeypatch))
        every = ground_graph(P, full)
        assert solved <= every <= analysed, P
        cross += any(i != j for (_, i), (_, j) in every)
    assert cross >= 100, cross
