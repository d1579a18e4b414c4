"""Valuations over programs, parametric modules, and the two collective readings."""

import pytest

from modasp.errors import (
    PatternError,
    RequirementError,
    UnboundPlaceholderError,
    UnknownSubprogramError,
)
from modasp.instantiation import (
    Module,
    ModularProgram,
    ParametricModule,
    apply_valuation,
    collective_modular,
    collective_union,
    default_chi,
    instantiate_module,
)
from modasp.intensionality import IntensionalityStatement, ParametricIntensionality
from modasp.parsing import parse_control, parse_program
from modasp.program import Literal, PredAtom, Program, make_rule
from modasp.subprograms import ControlPlan, SubprogramSpec
from modasp.terms import (
    Arith,
    Numeral,
    SymbolicConstant,
    Valuation,
    Variable,
)

Q = ("q", 2)

PROPERTY_LP = """\
#program base.
q(0,0).
#program property(k).
q(N,k+1) :- q(N-1,k).
"""


def num(n):
    return Numeral(n)


def sym(name):
    return SymbolicConstant(name)


def var(name):
    return Variable(name)


def property_rule():
    head = PredAtom("q", (var("N"), Arith("+", sym("k"), num(1))))
    body = [Literal(PredAtom("q", (Arith("-", var("N"), num(1)), sym("k"))))]
    return make_rule(head, body)


def instantiated_property_rule(k):
    head = PredAtom("q", (var("N"), Arith("+", num(k), num(1))))
    body = [Literal(PredAtom("q", (Arith("-", var("N"), num(1)), num(k))))]
    return make_rule(head, body)


def chi1():
    return ParametricIntensionality.of(
        ["k"], {Q: [(var("X"), Arith("+", sym("k"), num(1)))]}
    )


def d_k():
    return ParametricModule(frozenset(["k"]), chi1(), Program.of([property_rule()]))


class TestApplyValuation:
    def test_substitutes_without_simplifying(self):
        rule = apply_valuation(property_rule(), Valuation.of({"k": num(42)}))
        assert rule == instantiated_property_rule(42)
        # The head keeps 42+1 unevaluated.
        assert rule.head.args[1] == Arith("+", num(42), num(1))

    def test_fact_without_placeholders_unchanged(self):
        rule = make_rule(PredAtom("q", (num(0), num(0))))
        assert apply_valuation(rule, Valuation.of({"k": num(9)})) == rule

    def test_theta1(self):
        rule = apply_valuation(property_rule(), Valuation.of({"k": num(1)}))
        assert rule == instantiated_property_rule(1)

    def test_unbound_placeholder_named(self):
        with pytest.raises(UnboundPlaceholderError, match="k"):
            apply_valuation(property_rule(), Valuation(), placeholders=["k"])


class TestInstantiateModule:
    def test_theta0_coincides_with_module_8(self):
        module = instantiate_module(d_k(), Valuation.of({"k": num(0)}))
        assert module.kappa == IntensionalityStatement.of({Q: [(var("X"), num(1))]})
        assert module.pi == Program.of([instantiated_property_rule(0)])

    def test_theta1(self):
        module = instantiate_module(d_k(), Valuation.of({"k": num(1)}))
        assert module.kappa == IntensionalityStatement.of({Q: [(var("X"), num(2))]})
        assert module.pi == Program.of([instantiated_property_rule(1)])

    def test_empty_placeholder_module_is_its_own_instance(self):
        base = ParametricModule(
            frozenset(),
            ParametricIntensionality.of([], {Q: [(num(0), num(0))]}),
            Program.of([make_rule(PredAtom("q", (num(0), num(0))))]),
        )
        module = instantiate_module(base, Valuation())
        assert module.kappa == IntensionalityStatement.of({Q: [(num(0), num(0))]})
        assert module.pi == base.pi

    def test_instance_program_has_no_placeholders(self):
        module = instantiate_module(d_k(), Valuation.of({"k": num(3)}))
        for rule in module.pi.rules:
            for term in rule.terms():
                from modasp.terms import constants_of

                assert "k" not in constants_of(term)

    def test_integer_placeholder_requires_numeral(self):
        with pytest.raises(PatternError, match="integer-sorted"):
            instantiate_module(d_k(), Valuation.of({"k": sym("a")}))

    def test_commutes_with_union(self):
        # Instantiating each module then unioning the rules equals applying
        # the valuation to the unioned rules.
        other = ParametricModule(
            frozenset(["k"]),
            ParametricIntensionality.of(["k"], {Q: [(num(0), sym("k"))]}),
            Program.of([make_rule(PredAtom("q", (num(0), sym("k"))))]),
        )
        theta = Valuation.of({"k": num(5)})
        unioned = Program.of(d_k().pi.rules + other.pi.rules)
        left = Program.of(
            instantiate_module(d_k(), theta).pi.rules
            + instantiate_module(other, theta).pi.rules
        )
        right = apply_valuation(unioned, theta, ["k"])
        assert left == right


class TestDefaultChi:
    def test_property_head_gives_paper_pattern(self):
        chi = default_chi("property", ["k"], Program.of([property_rule()]))
        assert chi.patterns_for(Q) == (
            (var("X1"), Arith("+", sym("k"), num(1))),
        )

    def test_base_fact_gives_ground_pattern(self):
        chi = default_chi("base", [], Program.of([make_rule(PredAtom("q", (num(0), num(0))))]))
        assert chi.patterns_for(Q) == ((num(0), num(0)),)

    def test_gamma1_heads(self):
        rules = [
            make_rule(
                PredAtom("q", (var("X"), num(1))),
                [Literal(PredAtom("q", (var("X"), num(0))))],
            ),
            make_rule(
                PredAtom("q", (var("X"), num(2))),
                [Literal(PredAtom("q", (var("X"), num(1))))],
            ),
        ]
        chi = default_chi("base", [], Program.of(rules))
        assert set(chi.patterns_for(Q)) == {
            (var("X1"), num(1)),
            (var("X1"), num(2)),
        }

    def test_variable_mixed_with_placeholder_rejected(self):
        rule = make_rule(
            PredAtom("q", (Arith("+", var("N"), sym("k")), num(0))),
            [Literal(PredAtom("q", (var("N"), num(0))))],
        )
        with pytest.raises(PatternError):
            default_chi("property", ["k"], Program.of([rule]))

    def test_deduplicates_patterns(self):
        rules = [
            make_rule(
                PredAtom("q", (var("X"), num(1))),
                [Literal(PredAtom("q", (var("X"), num(0))))],
            ),
            make_rule(
                PredAtom("q", (var("Y"), num(1))),
                [Literal(PredAtom("r", (var("Y"),)))],
            ),
        ]
        chi = default_chi("base", [], Program.of(rules))
        assert chi.patterns_for(Q) == ((var("X1"), num(1)),)


class TestCollectiveUnion:
    def setup_method(self):
        self.prog = parse_program(PROPERTY_LP)

    def test_display_2_for_n_100(self):
        plan = parse_control(
            "const n = 100. use base. use property(k) for k in 0..n-1.", self.prog
        )
        union = collective_union(self.prog, plan.specs)
        expected = [make_rule(PredAtom("q", (num(0), num(0))))]
        expected += [instantiated_property_rule(k) for k in range(100)]
        assert union == Program.of(expected)

    def test_single_base_spec(self):
        plan = parse_control("use base.", self.prog)
        union = collective_union(self.prog, plan.specs)
        assert union == Program.of([make_rule(PredAtom("q", (num(0), num(0))))])

    def test_duplicate_specs_idempotent(self):
        plan = parse_control("use base. use base.", self.prog)
        union = collective_union(self.prog, plan.specs)
        assert union == Program.of([make_rule(PredAtom("q", (num(0), num(0))))])


class TestCollectiveModular:
    def setup_method(self):
        self.prog = parse_program(PROPERTY_LP)

    def test_property_with_control_a(self):
        plan = parse_control(
            "const n = 3. use base. use property(k) for k in 0..n-1.", self.prog
        )
        modular = collective_modular(self.prog, plan)
        assert modular.kappa == IntensionalityStatement.purely_intensional([Q])
        assert len(modular.modules) == 4
        base_module = modular.modules[0]
        assert base_module.kappa == IntensionalityStatement.of({Q: [(num(0), num(0))]})
        for k, module in enumerate(modular.modules[1:]):
            assert module.kappa == IntensionalityStatement.of(
                {Q: [(var("X1"), num(k + 1))]}
            )
            assert module.pi == Program.of([instantiated_property_rule(k)])

    def test_identical_instantiations_collapse(self):
        plan = parse_control("use base. use property(1). use property(1).", self.prog)
        modular = collective_modular(self.prog, plan)
        assert len(modular.modules) == 2

    def test_requirement_violation_reported(self):
        plan = parse_control(
            "use property(1). intensional q(X,1).", self.prog
        )
        # Module pattern (X,2) escapes the global statement (X,1).
        with pytest.raises(RequirementError) as err:
            collective_modular(self.prog, plan)
        assert err.value.predicate == Q
        assert err.value.pattern == (var("X1"), num(2))

    def test_union_of_modular_rules_matches_collective_union(self):
        plan = parse_control(
            "const n = 5. use base. use property(k) for k in 0..n-1.", self.prog
        )
        modular = collective_modular(self.prog, plan)
        union = collective_union(self.prog, plan.specs)
        rules = Program.of(r for module in modular.modules for r in module.pi.rules)
        assert rules == union

    @pytest.mark.parametrize("reading", ["union", "modular"])
    def test_undeclared_subprogram_is_refused_by_name(self, reading):
        plan = ControlPlan((SubprogramSpec("nope"),))
        with pytest.raises(UnknownSubprogramError, match="'nope'"):
            if reading == "union":
                collective_union(parse_program("p(1)."), plan.specs)
            else:
                collective_modular(parse_program("p(1)."), plan)

    def test_plan_statements_are_read_as_parsed(self):
        plan = parse_control(
            "use base. use property(1). intensional q(X,Y). module property: q(X,k+1).",
            self.prog,
        )
        chi = dict(plan.module_chi)["property"]
        assert chi == ParametricIntensionality.of(
            {"k"}, {Q: [(var("X"), Arith("+", SymbolicConstant("k"), num(1)))]}
        )
        modular = collective_modular(self.prog, plan)
        assert modular.kappa is plan.global_kappa
        assert modular.modules[1].kappa == IntensionalityStatement.of(
            {Q: [(var("X"), num(2))]}
        )


class TestModularProgramValidation:
    def test_constructor_checks_coverage(self):
        kappa = IntensionalityStatement.of({Q: [(var("X"), num(1))]})
        module = Module(
            IntensionalityStatement.of({Q: [(var("X"), num(2))]}),
            Program.of([make_rule(PredAtom("q", (var("X"), num(2))))]),
        )
        with pytest.raises(RequirementError):
            ModularProgram(kappa, (module,))
