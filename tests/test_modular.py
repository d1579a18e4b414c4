"""Modular semantics: closure, simplicity, dependency graph, coherence,
answer sets and the union comparison harness."""

import warnings
from pathlib import Path

import pytest

import modasp.engine as engine_mod
import modasp.grounding as grounding_mod
import modasp.modular as modular_mod
from modasp.engine import (
    DEFAULT_CAP,
    Interpretation,
    _solve,
    enumerate_kappa_stable,
    is_answer_set,
)
from modasp.errors import CapacityError, EngineError, ModaspError, SafetyError
from modasp.grounding import Domain, ground, ground_reachable
from modasp.instantiation import (
    Module,
    ModularProgram,
    collective_modular,
    collective_union,
)
from modasp.intensionality import IntensionalityStatement, PatternIndex
from modasp.modular import (
    ComparisonReport,
    _coherence,
    _module_order_refusal,
    closure_holds,
    dependency_graph,
    is_coherent,
    is_model_of_module,
    is_simple_module,
    modular_answer_sets,
    strongly_connected_components,
    theorem1_check,
    union_program,
)
from modasp.parsing import parse_control, parse_program
from modasp.program import PredAtom, Program, atom_order_key
from modasp.terms import Numeral, Sort, SymbolicConstant, Variable

Q = ("q", 2)
FIXTURES = Path(__file__).parent / "fixtures"


def num(n):
    return Numeral(n)


def var(name):
    return Variable(name)


def q(a, b):
    return PredAtom("q", (num(a), num(b)))


def interp(*atoms):
    return Interpretation.of(atoms)


def rules(text):
    return parse_program(text).subprogram("base")


def delta0():
    return Module(IntensionalityStatement.of({Q: [(num(0), num(0))]}), rules("q(0,0)."))


def delta1():
    return Module(
        IntensionalityStatement.of({Q: [(var("X"), num(1)), (var("X"), num(2))]}),
        rules("q(X,1) :- q(X,0). q(X,2) :- q(X,1)."),
    )


def delta2():
    return Module(
        IntensionalityStatement.of({Q: [(var("X"), num(3)), (var("X"), num(4))]}),
        rules("q(0,3) :- q(0,2). q(0,4) :- q(0,3)."),
    )


def p1():
    kappa = IntensionalityStatement.of({Q: [(var("X"), var("Y"))]})
    return ModularProgram(kappa, (delta0(), delta1(), delta2()))


P1_MODEL = {q(0, 0), q(0, 1), q(0, 2), q(0, 3), q(0, 4)}

PROPERTY_LP = """\
#program base.
q(0,0).
#program property(k).
q(N,k+1) :- q(N-1,k).
"""


def mpproperty(n):
    prog = parse_program(PROPERTY_LP)
    plan = parse_control(
        f"const n = {n}. use base. use property(k) for k in 0..n-1.", prog
    )
    return collective_modular(prog, plan)


class TestClosure:
    def test_p1_stable_set_satisfies_closure(self):
        P = p1()
        I = interp(*P1_MODEL)
        assert closure_holds(I, P.kappa, [m.kappa for m in P.modules])

    def test_atom_outside_all_modules_fails(self):
        P = p1()
        assert not closure_holds(
            interp(q(1, 5)), P.kappa, [m.kappa for m in P.modules]
        )

    def test_property_program_bound(self):
        P = mpproperty(3)
        assert not closure_holds(
            interp(q(0, 4)), P.kappa, [m.kappa for m in P.modules]
        )


class TestIsModelOfModule:
    def test_delta0_model(self):
        assert is_model_of_module(interp(q(0, 0)), delta0(), Domain(0, 4))

    def test_delta1_model(self):
        I = interp(q(0, 0), q(0, 1), q(0, 2))
        assert is_model_of_module(I, delta1(), Domain(0, 4))

    def test_delta1_missing_consequence(self):
        assert not is_model_of_module(interp(q(0, 0)), delta1(), Domain(0, 4))


class TestIsSimple:
    def test_delta1_simple(self):
        simple, witness = is_simple_module(delta1())
        assert simple and witness is None

    def test_module_8_simple(self):
        module = Module(
            IntensionalityStatement.of({Q: [(var("X"), num(1))]}),
            rules("q(N,0+1) :- q(N-1,0)."),
        )
        simple, _ = is_simple_module(module)
        assert simple

    def test_uncovered_head_reported(self):
        module = Module(
            IntensionalityStatement.of({Q: [(var("X"), num(1))]}),
            rules("q(0,2)."),
        )
        simple, witness = is_simple_module(module)
        assert not simple
        assert witness == q(0, 2)


class TestDependencyGraph:
    def test_p1_graph(self):
        graph = dependency_graph(p1())
        assert set(graph.vertices) == {("q", 0), ("q", 1), ("q", 2)}
        assert graph.edges == frozenset(
            {(("q", 2), ("q", 1)), (("q", 1), ("q", 0))}
        )

    def test_fact_only_module_has_no_edges(self):
        kappa = IntensionalityStatement.of({Q: [(num(0), num(0))]})
        P = ModularProgram(
            IntensionalityStatement.of({Q: [(var("X"), var("Y"))]}),
            (Module(kappa, rules("q(0,0).")),),
        )
        graph = dependency_graph(P)
        assert graph.vertices == (("q", 0),)
        assert graph.edges == frozenset()

    def test_mpproperty_chain(self):
        # n=2 gives modules D, D_0, D_1 and a chain of dependencies.
        graph = dependency_graph(mpproperty(2))
        assert graph.edges == frozenset(
            {(("q", 2), ("q", 1)), (("q", 1), ("q", 0))}
        )


class TestTarjan:
    def test_components_and_order(self):
        vertices = [("a", 0), ("b", 0), ("c", 1), ("d", 2)]
        edges = [
            (("a", 0), ("b", 0)),
            (("b", 0), ("a", 0)),
            (("b", 0), ("c", 1)),
            (("c", 1), ("d", 2)),
        ]
        components = strongly_connected_components(vertices, edges)
        assert sorted(map(tuple, components)) == [
            (("a", 0), ("b", 0)),
            (("c", 1),),
            (("d", 2),),
        ]

    def test_deep_chain_no_recursion_error(self):
        vertices = [("p", i) for i in range(3000)]
        edges = [(("p", i), ("p", i + 1)) for i in range(2999)]
        components = strongly_connected_components(vertices, edges)
        assert len(components) == 3000


class TestCoherence:
    def test_p1_coherent(self):
        report = is_coherent(p1())
        assert report.coherent and report.violations == ()

    def test_identical_patterns_unify(self):
        kappa = IntensionalityStatement.of({Q: [(var("X"), num(1))]})
        P = ModularProgram(
            IntensionalityStatement.of({Q: [(var("X"), var("Y"))]}),
            (
                Module(kappa, rules("q(0,1).")),
                Module(kappa, rules("q(1,1).")),
            ),
        )
        report = is_coherent(P)
        assert not report.coherent
        assert {v.kind for v in report.violations} == {"tuples-unify"}

    def test_every_predicate_is_checked_for_unifying_tuples(self):
        # Only q, the last predicate in order, has tuples that unify.
        P, _ = plan_program(
            "#program a.\np(0).\nq(0).\n#program b.\np(1).\nq(X) :- p(X).\n",
            "use a. use b. domain 0..1. module a: p(0), q(X). module b: p(1), q(X).",
        )
        assert [(v.kind, v.detail) for v in is_coherent(P).violations] == [
            ("tuples-unify", "q(X) of module 0 unifies with q(X) of module 1")
        ]

    def test_integer_sorted_pattern_variable_unifies_with_a_symbol(self):
        # `patterns_unify` ignores sorts, so p(X) with X integer-sorted
        # unifies with p(a); a lookup that kept X's sort would never match
        # it against the symbol.
        p = ("p", 1)
        integer = IntensionalityStatement.of({p: [(Variable("X", Sort.INTEGER),)]})
        symbol = IntensionalityStatement.of({p: [(SymbolicConstant("a"),)]})
        P = ModularProgram(
            IntensionalityStatement.of({p: [(var("Y"),)]}),
            (Module(integer, Program()), Module(symbol, Program())),
        )
        assert str(is_coherent(P)) == (
            "incoherent\n  tuples-unify: p(X) of module 0 unifies with p(a) of module 1"
        )

    def test_cross_module_cycle(self):
        module_a = Module(
            IntensionalityStatement.of({Q: [(var("X"), num(2))]}),
            rules("q(X,2) :- q(X,1)."),
        )
        module_b = Module(
            IntensionalityStatement.of({Q: [(var("X"), num(1))]}),
            rules("q(X,1) :- q(X,2)."),
        )
        P = ModularProgram(
            IntensionalityStatement.of({Q: [(var("X"), var("Y"))]}),
            (module_a, module_b),
        )
        report = is_coherent(P)
        assert not report.coherent
        assert {v.kind for v in report.violations} == {"scc-spans-modules"}

    def test_repeated_variable_cycle(self):
        # q(1) :- p(N+N) reaches p(2) at N=2, which module b derives from
        # q(1): a cycle across modules, and {p(2), q(1)} is a modular answer
        # set that topological evaluation would miss.
        P, dom = plan_program(
            "#program a.\nq(1) :- p(N+N).\n#program b.\np(2) :- q(1).\n",
            "use a. use b. domain 0..2. intensional p(X). intensional q(X). "
            "module a: q(1). module b: p(2).",
        )
        report = is_coherent(P)
        assert not report.coherent
        assert {v.kind for v in report.violations} == {"scc-spans-modules"}
        with pytest.raises(EngineError):
            modular_answer_sets(P, dom, "topo")
        p2, q1 = PredAtom("p", (num(2),)), PredAtom("q", (num(1),))
        assert interp(p2, q1) in modular_answer_sets(P, dom, "brute")

    def test_not_simple_reported(self):
        P = ModularProgram(
            IntensionalityStatement.of({Q: [(var("X"), var("Y"))]}),
            (
                Module(
                    IntensionalityStatement.of({Q: [(var("X"), num(1))]}),
                    rules("q(0,2)."),
                ),
            ),
        )
        report = is_coherent(P)
        assert not report.coherent
        assert {v.kind for v in report.violations} == {"module-not-simple"}

    def test_no_semantic_evaluation(self, monkeypatch):
        import modasp.engine as engine_mod
        import modasp.modular as modular_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("coherence checking must stay syntactic")

        monkeypatch.setattr(engine_mod, "is_kappa_stable", forbidden)
        monkeypatch.setattr(engine_mod, "enumerate_kappa_stable", forbidden)
        monkeypatch.setattr(modular_mod, "is_kappa_stable", forbidden)
        monkeypatch.setattr(engine_mod.Interpretation, "of", forbidden)
        assert is_coherent(p1()).coherent


class TestUnionProgram:
    def test_p1_union(self):
        union = union_program(p1())
        expected = rules(
            "q(0,0). q(X,1) :- q(X,0). q(X,2) :- q(X,1). "
            "q(0,3) :- q(0,2). q(0,4) :- q(0,3)."
        )
        assert union == expected

    def test_single_module(self):
        P = ModularProgram(
            IntensionalityStatement.of({Q: [(var("X"), var("Y"))]}),
            (delta0(),),
        )
        assert union_program(P) == rules("q(0,0).")


def _counted(calls, name, function):
    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return counted


def _count_grounding(monkeypatch):
    """Calls of `ground` and `ground_reachable`, counted wherever the
    solving code reaches them (`ground_reachable` falls back on `ground`)."""
    calls = {"ground": 0, "ground_reachable": 0}
    for target in (engine_mod, grounding_mod):
        monkeypatch.setattr(target, "ground", _counted(calls, "ground", ground))
    monkeypatch.setattr(
        engine_mod,
        "ground_reachable",
        _counted(calls, "ground_reachable", ground_reachable),
    )
    return calls


def plan_program(program_text, control_text):
    prog = parse_program(program_text)
    plan = parse_control(control_text, prog)
    dom = Domain.build([collective_union(prog, plan.specs)], *plan.domain)
    return collective_modular(prog, plan), dom


class TestOneModuleReading:
    """A program under kappa alone is solved as the one-module program: no
    component can span modules, so the solve builds no modular analysis."""

    @pytest.mark.parametrize("engine", ["brute", "reduct", "fixpoint"])
    def test_builds_no_analysis(self, engine, monkeypatch):
        P, dom = plan_program(
            (FIXTURES / "property.lp").read_text(encoding="utf-8"),
            (FIXTURES / "property3.ctl").read_text(encoding="utf-8"),
        )
        expected = modular_answer_sets(P, dom, "reduct")

        def forbidden(P):
            raise AssertionError("a one-module solve analyses no program")

        monkeypatch.setattr(modular_mod, "_analyse", forbidden)
        union = union_program(P)
        assert enumerate_kappa_stable(P.kappa, union, dom, engine) == expected
        one = ModularProgram(P.kappa, (Module(P.kappa, union),))
        assert modular_answer_sets(one, dom, "reduct") == expected


class TestModularAnswerSets:
    @pytest.mark.parametrize("engine", ["brute", "reduct", "topo"])
    def test_p1_unique_model(self, engine):
        models = modular_answer_sets(p1(), Domain(0, 4), engine)
        assert models == frozenset({interp(*P1_MODEL)})

    @pytest.mark.parametrize("engine", ["reduct", "topo"])
    def test_mpproperty_n3(self, engine):
        models = modular_answer_sets(mpproperty(3), Domain(0, 4), engine)
        assert models == frozenset({interp(q(0, 0), q(1, 1), q(2, 2), q(3, 3))})

    def test_single_empty_module(self):
        kappa = IntensionalityStatement.of({Q: [(var("X"), var("Y"))]})
        P = ModularProgram(kappa, (Module(kappa, Program.of(())),))
        models = modular_answer_sets(P, Domain(0, 2))
        assert models == frozenset({Interpretation(frozenset())})

    def test_topo_requires_coherence(self):
        kappa = IntensionalityStatement.of({Q: [(var("X"), num(1))]})
        P = ModularProgram(
            IntensionalityStatement.of({Q: [(var("X"), var("Y"))]}),
            (
                Module(kappa, rules("q(0,1).")),
                Module(kappa, rules("q(1,1).")),
            ),
        )
        with pytest.raises(EngineError):
            modular_answer_sets(P, Domain(0, 2), "topo")

    def test_topo_agrees_with_definition(self):
        for n in (1, 2, 3):
            P = mpproperty(n)
            dom = Domain(0, n + 1)
            assert modular_answer_sets(P, dom, "topo") == modular_answer_sets(
                P, dom, "reduct"
            )

    def test_topo_agrees_on_random_coherent_programs(self):
        import random

        import randprog

        rng = random.Random(90210)
        applicable = 0
        for _ in range(60):
            P, dom = randprog.random_coherent_program(rng)
            try:
                topo = modular_answer_sets(P, dom, "topo")
            except EngineError:
                continue  # cyclic module order; the engine refuses honestly
            applicable += 1
            assert topo == modular_answer_sets(P, dom, "reduct")
        assert applicable >= 20

    def test_early_constraint_on_later_atom(self):
        # The dependency graph skips headless rules, so nothing orders the
        # constraint of `base` after the fact of `def(1)`; `topo` still
        # rejects {p(1)}, because its one block checks every module on
        # every candidate.
        P, dom = plan_program(
            "#program base.\n:- p(1).\n#program def(k).\np(k).\n",
            "use base. use def(1). domain 0..1.",
        )
        assert is_coherent(P).coherent
        for engine in ("topo", "reduct", "brute"):
            assert modular_answer_sets(P, dom, engine) == frozenset()

    def test_topo_refuses_negative_module_cycle(self):
        # The modules depend on each other only through negated atoms: the
        # program is coherent, but no module can be evaluated first.
        P, dom = plan_program(
            "#program a.\np :- not q.\n#program b.\nq :- not p.\n",
            "use a. use b. domain 0..0.",
        )
        assert is_coherent(P).coherent
        with pytest.raises(EngineError, match="module dependencies are cyclic"):
            modular_answer_sets(P, dom, "topo")
        assert modular_answer_sets(P, dom, "brute") == frozenset(
            {interp(PredAtom("p")), interp(PredAtom("q"))}
        )

    @pytest.mark.parametrize("engine", ["brute", "reduct", "topo"])
    def test_capacity_error(self, engine):
        # The relevant base of p1 over 0..4 has the 5 atoms its modules
        # reach from q(0,0); the 8 heads q(1..4,1) and q(1..4,2) are not
        # reached.
        with pytest.raises(CapacityError, match=r"5 atoms \(cap 4\)"):
            modular_answer_sets(p1(), Domain(0, 4), engine, cap=4)
        assert modular_answer_sets(p1(), Domain(0, 4), engine, cap=5)

    @pytest.mark.parametrize("engine", ["brute", "reduct", "topo"])
    def test_grounds_each_module_once(self, engine, monkeypatch):
        # `solve` and `check-model` make one `ground_reachable` call, which
        # grounds every module, or the union in the union reading; nothing
        # is ground in full.
        P, dom = plan_program(
            (FIXTURES / "property.lp").read_text(encoding="utf-8"),
            (FIXTURES / "property3.ctl").read_text(encoding="utf-8"),
        )
        calls = _count_grounding(monkeypatch)
        calls["dependency_graph"] = 0
        monkeypatch.setattr(
            modular_mod,
            "dependency_graph",
            _counted(calls, "dependency_graph", dependency_graph),
        )
        model = interp(q(0, 0), q(1, 1), q(2, 2), q(3, 3))
        union = union_program(P)
        one = ModularProgram(P.kappa, (Module(P.kappa, union),))
        check = "reduct" if engine == "topo" else engine
        runs = [
            lambda: modular_answer_sets(P, dom, engine) == {model},
            lambda: enumerate_kappa_stable(P.kappa, union, dom, check) == {model},
            lambda: is_answer_set(model, P, dom, check),
            lambda: is_answer_set(model, one, dom, check),
        ]
        for run in runs:
            calls.update(ground=0, ground_reachable=0)
            assert run()
            assert (calls["ground"], calls["ground_reachable"]) == (0, 1)
        assert calls["dependency_graph"] == 1

    @pytest.mark.parametrize("engine", ["brute", "reduct", "topo"])
    def test_comparison_grounds_each_module_once(self, engine, monkeypatch):
        # Both readings share one grounding of the modules, one dependency
        # graph and one extensional region, read off `P.patterns`; no
        # component spans modules, so no seeds are read, and the union
        # program is never ground.
        P, dom = plan_program(
            (FIXTURES / "property.lp").read_text(encoding="utf-8"),
            (FIXTURES / "property3.ctl").read_text(encoding="utf-8"),
        )
        calls = _count_grounding(monkeypatch)
        calls.update(outside=0, dependency_graph=0)

        def forbidden(*args, **kwargs):
            raise AssertionError("the union side must reuse the module grounding")

        monkeypatch.setattr(
            PatternIndex, "outside", _counted(calls, "outside", PatternIndex.outside)
        )
        monkeypatch.setattr(engine_mod, "enumerate_kappa_stable", forbidden)
        monkeypatch.setattr(
            modular_mod,
            "dependency_graph",
            _counted(calls, "dependency_graph", dependency_graph),
        )
        report = theorem1_check(P, dom, engine)
        assert calls == {
            "ground": 0,
            "ground_reachable": 1,
            "outside": 1,
            "dependency_graph": 1,
        }
        assert report.equal
        assert report.union_sets == (interp(q(0, 0), q(1, 1), q(2, 2), q(3, 3)),)

    @pytest.mark.parametrize("engine", ["brute", "reduct", "topo"])
    def test_comparison_compiles_each_module_ground_rule_once(
        self, engine, monkeypatch
    ):
        # The union reading joins the module checkers: the rules handed to
        # `_compile` are exactly the module ground rules, once each.
        P, dom = plan_program(
            (FIXTURES / "property.lp").read_text(encoding="utf-8"),
            (FIXTURES / "property3.ctl").read_text(encoding="utf-8"),
        )
        counts = {"grounded": 0, "compiled": 0}
        compile_rules = engine_mod._compile

        def grounding(*args):
            grounded = ground_reachable(*args)
            counts["grounded"] += sum(len(gp.rules) for gp in grounded)
            return grounded

        def compiling(rules, index):
            rules = list(rules)
            counts["compiled"] += len(rules)
            return compile_rules(rules, index)

        monkeypatch.setattr(engine_mod, "ground_reachable", grounding)
        monkeypatch.setattr(engine_mod, "_compile", compiling)
        assert theorem1_check(P, dom, engine).equal
        assert counts["grounded"] > 0
        assert counts["compiled"] == counts["grounded"]

    @pytest.mark.parametrize("engine", ["brute", "reduct", "topo"])
    def test_one_split_serves_both_readings(self, engine, monkeypatch):
        # The comparison splits the module tables into components once; the
        # union reading searches the same parts, each with its forward
        # table, and no search builds a checker.
        P, dom = plan_program(
            (FIXTURES / "property.lp").read_text(encoding="utf-8"),
            (FIXTURES / "property3.ctl").read_text(encoding="utf-8"),
        )
        assert len(P.modules) >= 2 and is_coherent(P).coherent
        splits, searching, built = [], [], []
        split, search = engine_mod._split, engine_mod._search
        init = engine_mod.StabilityChecker.__init__

        def splitting(*args):
            splits.append(split(*args))
            return splits[-1]

        def recording(mask, parts, free, leaf_engine):
            searching.append(parts)
            try:
                return search(mask, parts, free, leaf_engine)
            finally:
                searching.append(None)

        def building(self, *args):
            built.append(bool(searching) and searching[-1] is not None)
            init(self, *args)

        monkeypatch.setattr(engine_mod, "_split", splitting)
        monkeypatch.setattr(engine_mod, "_search", recording)
        monkeypatch.setattr(modular_mod, "_search", recording)
        monkeypatch.setattr(engine_mod.StabilityChecker, "__init__", building)
        assert theorem1_check(P, dom, engine).equal
        assert len(splits) == 1 and built and not any(built)
        (parts, _), (modular, union) = splits[0], searching[::2]
        assert modular is parts
        assert [(atoms, [forward], forward) for atoms, _, forward in parts] == union


class TestTopoSearch:
    """`topo` is its coherence and module-order checks followed by the
    search of modular `reduct`: one block of every allowed atom, checked by
    every module."""

    def test_choices_under_a_constraint_take_one_extension_call(self, monkeypatch):
        # s(0..9) are global choices that the constraint rejects one by one:
        # each s(X) is a component of its own, searched with a root and two
        # propagations.  A first block of choices without a checker would
        # list all 2^10 subsets before any module prunes them.
        import modasp.engine as engine_mod

        P, dom = plan_program(":- s(X).\n", "use base. domain 0..9. intensional p(X).")
        calls = [0]
        propagate = engine_mod._propagate

        def counted(*args):
            calls[0] += 1
            return propagate(*args)

        monkeypatch.setattr(engine_mod, "_propagate", counted)
        assert modular_answer_sets(P, dom, "topo") == frozenset({Interpretation()})
        assert calls[0] == 30

    @pytest.mark.parametrize("engine", ["brute", "reduct", "topo"])
    def test_every_modular_path_searches_one_block(self, engine, monkeypatch):
        P, dom = plan_program(
            (FIXTURES / "property.lp").read_text(encoding="utf-8"),
            (FIXTURES / "property3.ctl").read_text(encoding="utf-8"),
        )
        blocks = []
        search = engine_mod._search

        def recording(mask, parts, free, leaf_engine):
            blocks.append([len(checkers) for _, checkers, _ in parts])
            return search(mask, parts, free, leaf_engine)

        # `_solve` searches the modules, `theorem1_check` the union checker.
        monkeypatch.setattr(engine_mod, "_search", recording)
        monkeypatch.setattr(modular_mod, "_search", recording)
        modular_answer_sets(P, dom, engine)
        assert theorem1_check(P, dom, engine).equal
        # One search a call over one component: the modules with rules or
        # own atoms in it, in `solve` and `compare`, then the union checker
        # of `compare`.
        assert blocks == [[4], [4], [1]]


class TestDefinitionalReference:
    def test_fast_path_matches_public_api_reference(self):
        # Reference: enumerate every subset of the relevant base and apply
        # the definition through the public operations only.
        import itertools
        import random

        import randprog
        from modasp.engine import extensional_region
        from modasp.grounding import ground as ground_fn

        rng = random.Random(555)
        checked = 0
        for _ in range(40):
            P, dom = randprog.random_coherent_program(rng, max_base=8)
            base = set()
            for module in P.modules:
                base |= ground_fn(module.pi, dom).heads()
            base |= extensional_region(P.kappa, P.signature().predicates, dom)
            base = sorted(base, key=str)
            module_kappas = [m.kappa for m in P.modules]
            expected = set()
            for size in range(len(base) + 1):
                for combo in itertools.combinations(base, size):
                    I = Interpretation.of(combo)
                    if all(
                        is_model_of_module(I, m, dom, "brute") for m in P.modules
                    ) and closure_holds(I, P.kappa, module_kappas):
                        expected.add(I)
            assert modular_answer_sets(P, dom, "reduct") == frozenset(expected)
            checked += 1
        assert checked == 40


class TestModularMembership:
    """Membership through the shared compile step (each module ground only
    where the candidate reaches) against the brute enumeration, which
    grounds every module in full: an independent reference, on coherent
    and incoherent programs alike."""

    @staticmethod
    def assert_membership_matches(P, dom):
        import itertools

        from modasp.engine import extensional_region

        base = extensional_region(P.kappa, P.signature().predicates, dom)
        for module in P.modules:
            base |= ground(module.pi, dom).heads()
        # Two atoms outside the relevant base, which no answer set holds.
        outside = [
            PredAtom(name, args)
            for name, arity in sorted(P.signature().predicates)
            for args in itertools.product(dom.terms_sorted(), repeat=arity)
            if PredAtom(name, args) not in base
        ]
        atoms = sorted(base, key=str) + outside[:2]
        answer_sets = modular_answer_sets(P, dom, "brute")
        members = 0
        for size in range(len(atoms) + 1):
            for combo in itertools.combinations(atoms, size):
                I = interp(*combo)
                expected = I in answer_sets
                members += expected
                for engine in ("brute", "reduct"):
                    assert is_answer_set(I, P, dom, engine) == expected
        assert members == len(answer_sets)

    def test_random_coherent_programs(self):
        import random

        import randprog

        rng = random.Random(2718)
        for _ in range(25):
            self.assert_membership_matches(*randprog.random_coherent_program(rng, max_base=7))

    def test_cross_module_cycle(self):
        # Incoherent: {p(2), q(1)} supports itself across the two modules.
        P, dom = plan_program(
            "#program a.\nq(1) :- p(N+N).\n#program b.\np(2) :- q(1).\n",
            "use a. use b. domain 0..2. intensional p(X). intensional q(X). "
            "module a: q(1). module b: p(2).",
        )
        p2, q1 = PredAtom("p", (num(2),)), PredAtom("q", (num(1),))
        assert interp(p2, q1) in modular_answer_sets(P, dom, "brute")
        self.assert_membership_matches(P, dom)

    def test_negative_module_cycle(self):
        P, dom = plan_program(
            "#program a.\np :- not q.\n#program b.\nq :- not p.\n",
            "use a. use b. domain 0..0.",
        )
        self.assert_membership_matches(P, dom)


class TestTheorem1:
    def test_p1_equal(self):
        report = theorem1_check(p1(), Domain(0, 4))
        assert report.equal
        assert report.modular_sets == (interp(*P1_MODEL),)
        assert report.union_sets == (interp(*P1_MODEL),)

    def test_mpproperty_equal(self):
        report = theorem1_check(mpproperty(3), Domain(0, 4))
        assert report.equal
        (model,) = report.modular_sets
        assert model == interp(q(0, 0), q(1, 1), q(2, 2), q(3, 3))

    def test_incoherent_warns_and_reports(self):
        module_a = Module(
            IntensionalityStatement.of({Q: [(var("X"), num(2))]}),
            rules("q(X,2) :- q(X,1)."),
        )
        module_b = Module(
            IntensionalityStatement.of({Q: [(var("X"), num(1))]}),
            rules("q(X,1) :- q(X,2)."),
        )
        P = ModularProgram(
            IntensionalityStatement.of({Q: [(var("X"), var("Y"))]}),
            (module_a, module_b),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = theorem1_check(P, Domain(0, 2))
        assert any("incoherent" in str(w.message) for w in caught)
        assert isinstance(report.equal, bool)

    @pytest.mark.parametrize("engine", ["brute", "reduct", "topo"])
    def test_builds_one_dependency_graph(self, engine, monkeypatch):
        import modasp.modular as modular_mod

        P, dom = plan_program(
            (FIXTURES / "property.lp").read_text(encoding="utf-8"),
            (FIXTURES / "property3.ctl").read_text(encoding="utf-8"),
        )
        graphs = []

        def counting_graph(P):
            graphs.append(P)
            return dependency_graph(P)

        monkeypatch.setattr(modular_mod, "dependency_graph", counting_graph)
        report = theorem1_check(P, dom, engine)
        assert len(graphs) == 1
        assert report.equal
        assert report.modular_sets == (interp(q(0, 0), q(1, 1), q(2, 2), q(3, 3)),)

    def test_topo_incoherent_warns_then_refuses(self):
        kappa = IntensionalityStatement.of({Q: [(var("X"), num(1))]})
        P = ModularProgram(
            IntensionalityStatement.of({Q: [(var("X"), var("Y"))]}),
            (
                Module(kappa, rules("q(0,1).")),
                Module(kappa, rules("q(1,1).")),
            ),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(
                EngineError, match="requires a coherent modular program:\nincoherent"
            ):
                theorem1_check(P, Domain(0, 2), "topo")
        assert [str(w.message) for w in caught] == [
            "comparing an incoherent modular program; the union theorem "
            "does not apply"
        ]

    @pytest.mark.parametrize("engine", ["brute", "reduct", "topo"])
    def test_capacity_names_the_modular_base(self, engine):
        # The modular base of p1 over 0..4 is ground reachably: its 5 atoms
        # are those of the union's base, the atoms of its model.
        with pytest.raises(CapacityError, match=r"5 atoms \(cap 4\)"):
            theorem1_check(p1(), Domain(0, 4), engine, cap=4)
        assert theorem1_check(p1(), Domain(0, 4), engine, cap=5).equal

    def test_topo_incoherent_warning_precedes_the_report(self):
        kappa = IntensionalityStatement.of({Q: [(var("X"), num(1))]})
        P = ModularProgram(
            IntensionalityStatement.of({Q: [(var("X"), var("Y"))]}),
            (
                Module(kappa, rules("q(0,1).")),
                Module(kappa, rules("q(1,1).")),
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="incoherent modular program"):
                theorem1_check(P, Domain(0, 2), "topo")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(EngineError) as refused:
                theorem1_check(P, Domain(0, 2), "topo")
        assert str(refused.value) == (
            "the topological engine requires a coherent modular program:\n"
            + str(is_coherent(P))
        )

    def test_union_side_matches_direct_enumeration(self):
        P = p1()
        dom = Domain(0, 4)
        direct = enumerate_kappa_stable(P.kappa, union_program(P), dom, "reduct")
        report = theorem1_check(P, dom)
        assert frozenset(report.union_sets) == direct


def _fixture_program(stem):
    return plan_program(
        (FIXTURES / f"{stem}.lp").read_text(encoding="utf-8"),
        (FIXTURES / f"{stem}.ctl").read_text(encoding="utf-8"),
    )


def _analysed_programs():
    """The random coherent and pattern programs and the `tangle` and
    `gamma1` fixtures, each with a domain."""
    import random

    import randprog

    rng = random.Random(7373)
    programs = [randprog.random_coherent_program(rng) for _ in range(60)]
    for _ in range(60):
        P = randprog.random_pattern_program(rng)
        programs.append((P, Domain.build([m.pi for m in P.modules], 0, 1)))
    return programs + [_fixture_program("tangle"), _fixture_program("gamma1")]


CYCLIC_MODULES = (
    "module dependencies are cyclic; the topological engine is not applicable"
)


class TestKeptAnalysis:
    """`ModularProgram.analysis` is built once per program from one
    dependency graph and says what a fresh analysis says."""

    def test_matches_a_fresh_analysis(self):
        verdicts = set()
        for P, _ in _analysed_programs():
            graph = dependency_graph(P)
            report = _coherence(P, graph)
            assert P.analysis.report == report
            assert is_coherent(P) is P.analysis.report
            order = _module_order_refusal(P, graph)
            assert order in (None, CYCLIC_MODULES)
            expected = order
            if not report.coherent:
                expected = (
                    "the topological engine requires a coherent modular "
                    "program:\n" + str(report)
                )
            assert P.analysis.topo_refusal == expected
            names = {p for component in graph.spanning for p, _ in component}
            assert P.analysis.spanning == {
                key for key in P.signature().predicates if key[0] in names
            }
            verdicts.add((report.coherent, order is None, bool(names)))
        assert {(True, True, False), (True, False, False)} <= verdicts
        assert {(False, True, True), (False, False, True)} & verdicts

    def test_comparison_and_topo_build_one_graph(self, monkeypatch):
        P, dom = plan_program(
            (FIXTURES / "property.lp").read_text(encoding="utf-8"),
            (FIXTURES / "property3.ctl").read_text(encoding="utf-8"),
        )
        graphs = []

        def counting_graph(P):
            graphs.append(P)
            return dependency_graph(P)

        monkeypatch.setattr(modular_mod, "dependency_graph", counting_graph)
        report = theorem1_check(P, dom, "reduct")
        assert modular_answer_sets(P, dom, "topo") == frozenset(report.modular_sets)
        assert len(graphs) == 1

    def test_each_refusal_is_a_new_error(self):
        refused = 0
        for P, dom in _analysed_programs():
            if P.analysis.topo_refusal is None:
                continue
            errors = []
            for _ in range(2):
                with pytest.raises(EngineError) as caught:
                    modular_answer_sets(P, dom, "topo")
                errors.append(caught.value)
            first, second = errors
            assert first is not second
            assert str(first) == str(second) == P.analysis.topo_refusal
            refused += 1
        assert refused >= 2

    def test_every_comparison_of_an_incoherent_program_warns(self):
        P, dom = _fixture_program("tangle")
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                theorem1_check(P, dom)
            assert [str(w.message) for w in caught] == [
                "comparing an incoherent modular program; the union theorem "
                "does not apply"
            ]
            # The warning points at the caller of `theorem1_check`.
            assert [w.filename for w in caught] == [__file__]
            assert caught[0].message.args == (modular_mod.INCOHERENCE_NOTE,)

    def test_only_the_public_harness_warns(self):
        # The masks under `theorem1_check` and `compare` are plain values:
        # the note is the public harness's to issue, or the CLI's to print.
        P, dom = _fixture_program("tangle")
        assert not is_coherent(P).coherent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compiled, modular, union = modular_mod._theorem1_masks(
                P, dom, "reduct", DEFAULT_CAP
            )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = theorem1_check(P, dom)
        assert len(caught) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning):  # before the cap refuses
                theorem1_check(P, dom, cap=0)
        assert report == ComparisonReport.of(
            compiled.ordered(modular + union), modular, union
        )


def _has_atom_outside_allowed(P, dom, cap):
    """Does the modular relevant base of `P` hold an atom outside
    `allowed`, one that the closure condition makes false?"""
    compiled, _ = _solve(P, dom, "reduct", cap)
    return compiled.allowed != compiled.full


def _two_pipelines(P, dom, engine, cap=DEFAULT_CAP):
    """The comparison as two separate solves: the modular answer sets, and
    the stable models of the union program on its own reachable base."""
    modular = _key_order(modular_answer_sets(P, dom, engine, cap))
    union_engine = "reduct" if engine == "topo" else engine
    union = _key_order(
        enumerate_kappa_stable(P.kappa, union_program(P), dom, union_engine, cap)
    )
    modular_set, union_set = set(modular), set(union)
    return ComparisonReport(
        modular,
        union,
        modular_set == union_set,
        tuple(I for I in modular if I not in union_set),
        tuple(I for I in union if I not in modular_set),
    )


class TestOneCompile:
    """`theorem1_check` solves both readings over one grounding and one
    base; every report must equal the one two separate solves give, in
    the order of its models too, and the `brute` oracle must agree."""

    WARNING = (
        "comparing an incoherent modular program; the union theorem does not "
        "apply"
    )

    def assert_matches_two_pipelines(self, P, dom, engines, cap=DEFAULT_CAP):
        coherent = is_coherent(P).coherent
        oracle = None
        for engine in engines:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    report = theorem1_check(P, dom, engine, cap)
                except EngineError as refused:
                    # `topo` refuses a cyclic module order, as `solve` does.
                    with pytest.raises(EngineError, match=str(refused)):
                        modular_answer_sets(P, dom, engine, cap)
                    continue
            assert [str(w.message) for w in caught] == (
                [] if coherent else [self.WARNING]
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                expected = _two_pipelines(P, dom, engine, cap)
            assert report == expected
            oracle = oracle or report
            assert report == oracle
        return report

    def test_random_coherent_programs(self):
        import random

        import randprog

        rng = random.Random(5151)
        several = topo = 0
        for _ in range(60):
            P, dom = randprog.random_coherent_program(rng)
            report = self.assert_matches_two_pipelines(
                P, dom, ("brute", "reduct", "topo")
            )
            several += len(report.union_sets) > 1
            topo += _module_order_refusal(P, dependency_graph(P)) is None
        assert several >= 20
        assert topo >= 30

    def test_random_pattern_programs(self):
        import random

        import randprog

        rng = random.Random(6262)
        checked = incoherent = unequal = coarser = 0
        while checked < 25:
            P = randprog.random_pattern_program(rng)
            dom = Domain.build([m.pi for m in P.modules], 0, 1)
            try:
                modular_answer_sets(P, dom, "reduct", cap=12)
            except (CapacityError, SafetyError):
                continue
            report = self.assert_matches_two_pipelines(
                P, dom, ("brute", "reduct"), cap=12
            )
            checked += 1
            incoherent += not is_coherent(P).coherent
            unequal += not report.equal
            coarser += _has_atom_outside_allowed(P, dom, 12)
        assert incoherent >= 12
        assert unequal >= 3
        assert coarser >= 1

    # sha256 of the `brute` outcomes below, as the search split over
    # `allowed` alone gave them; 2,840 answer-set lines, no refusal.
    COARSER_BRUTE = "98f34701aa00a81b639804395e4935c20e4acd39338d9f19f3f46ab0daa3d5e4"

    def test_random_pattern_programs_with_atoms_outside_allowed(self):
        # The search splits the whole base, which is coarser than a split
        # over `allowed` only where a base atom lies outside `allowed`: a
        # head of a module that is not simple.  On ten such programs the
        # reports and refusals of `brute` are pinned, and both engines
        # match the two separate solves.
        import hashlib
        import random

        import randprog

        rng = random.Random(6262)
        outcomes = []
        while len(outcomes) < 10:
            P = randprog.random_pattern_program(rng)
            dom = Domain.build([m.pi for m in P.modules], 0, 1)
            try:
                if not _has_atom_outside_allowed(P, dom, 12):
                    continue
            except (CapacityError, SafetyError):
                continue
            assert not is_coherent(P).coherent
            self.assert_matches_two_pipelines(P, dom, ("brute", "reduct"), cap=12)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    outcomes.append(str(theorem1_check(P, dom, "brute", 12)))
                except ModaspError as refused:
                    outcomes.append(f"{type(refused).__name__}: {refused}")
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.COARSER_BRUTE

    def test_tangle(self):
        P, dom = plan_program(
            (FIXTURES / "tangle.lp").read_text(encoding="utf-8"),
            (FIXTURES / "tangle.ctl").read_text(encoding="utf-8"),
        )
        assert not is_coherent(P).coherent
        report = self.assert_matches_two_pipelines(P, dom, ("brute", "reduct"))
        assert not report.equal


def _key_order(models):
    """The output order by atom keys alone: each model's atoms sorted by
    `atom_order_key`, and the models by those lists of keys."""

    def key(I):
        return [atom_order_key(a) for a in sorted(I.atoms, key=atom_order_key)]

    return tuple(sorted(models, key=key))


class TestOutputOrder:
    """The answer sets leave the engine ordered by bit position over the
    sorted base; that must be the order of the atom-key oracle, on every
    tuple of the comparison report and on each model's own atoms."""

    @staticmethod
    def assert_key_order(report):
        for models in (
            report.modular_sets,
            report.union_sets,
            report.only_modular,
            report.only_union,
        ):
            assert models == _key_order(models)
            for I in models:
                assert list(I.sorted_atoms()) == sorted(I.atoms, key=atom_order_key)

    def test_random_coherent_programs(self):
        import random

        import randprog

        rng = random.Random(4242)
        several = 0
        for _ in range(60):
            P, dom = randprog.random_coherent_program(rng)
            report = theorem1_check(P, dom)
            self.assert_key_order(report)
            several += len(report.modular_sets) > 2
        assert several >= 20

    def test_even_loop(self):
        P, dom = plan_program(
            "p(X) :- not r(X), s(X).\nr(X) :- not p(X), s(X).\n",
            "use base. domain 0..5. intensional p(X). intensional r(X).",
        )
        report = theorem1_check(P, dom)
        assert len(report.modular_sets) == len(report.union_sets) == 729
        self.assert_key_order(report)

    def test_models_on_one_side_only(self):
        # Modules a and b support p(2) and q(1) through each other, which
        # the union cannot; r(1) is outside module c's region, so modular
        # answer sets keep s(0) false, while the union derives r(1) from it.
        P, dom = plan_program(
            "#program a.\nq(1) :- p(2).\n#program b.\np(2) :- q(1).\n"
            "#program c.\nr(1) :- s(0).\n",
            "use a. use b. use c. domain 0..2. intensional p(X). "
            "intensional q(X). intensional r(X). "
            "module a: q(1). module b: p(2). module c: r(0).",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = theorem1_check(P, dom)
        assert len(report.only_modular) == len(report.only_union) == 4
        self.assert_key_order(report)
