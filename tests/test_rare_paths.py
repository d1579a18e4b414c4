"""Paths that the rest of tier-1 never took (`line_trace.py` listed them),
each held to its behaviour."""

import pytest

from modasp.engine import (
    HTInterpretation,
    Interpretation,
    check_support,
    classical_satisfies,
    ht_satisfies,
)
from modasp.errors import (
    DomainError,
    NotPrecomputedError,
    PatternError,
    SortError,
    UnboundPlaceholderError,
)
from modasp.grounding import Domain, GroundProgram, GroundRule
from modasp.instantiation import ParametricModule, apply_valuation, instantiate_module
from modasp.intensionality import (
    IntensionalityStatement,
    LambdaFormula,
    ParametricIntensionality,
    may_share_instance,
    pattern_match,
    pattern_subsumes,
    patterns_unify,
)
from modasp.parsing import parse_program
from modasp.program import Comparison, Literal, PredAtom
from modasp.subprograms import SubprogramSpec
from modasp.terms import (
    Arith,
    Func,
    Numeral,
    Sort,
    SymbolicConstant,
    Valuation,
    Variable,
    order_key,
    sort_of,
)

X, Y = Variable("X"), Variable("Y")


def atom(name, *args):
    return PredAtom(name, tuple(Numeral(a) if isinstance(a, int) else a for a in args))


def base(text):
    return parse_program(text).subprogram("base")


# --- engine.py -------------------------------------------------------------------


class TestInterpretations:
    def test_an_atom_with_a_variable_is_refused(self):
        with pytest.raises(DomainError, match="not precomputed"):
            Interpretation.of([atom("p", X)])

    def test_membership_and_iteration_in_atom_order(self):
        I = Interpretation.of([atom("q"), atom("p", 2), atom("p", 1)])
        assert atom("p", 1) in I and atom("p", 3) not in I
        assert list(I) == [atom("p", 1), atom("p", 2), atom("q")]

    def test_here_world_outside_there_world_is_refused(self):
        with pytest.raises(DomainError, match="subset"):
            HTInterpretation.of([atom("p")], Interpretation.of([]))

    def test_here_and_there_reads_a_comparison_literal(self):
        hi = HTInterpretation.of([], Interpretation.of([]))
        one, two = Numeral(1), Numeral(2)
        assert ht_satisfies(hi, Literal(Comparison("<", one, two), 0))
        assert not ht_satisfies(hi, Comparison(">", one, two))


class TestSatisfactionInputs:
    def test_a_ground_rule(self):
        rule = GroundRule(atom("p", 1), (atom("q"),))
        assert not classical_satisfies(Interpretation.of([atom("q")]), rule)
        assert classical_satisfies(Interpretation.of([atom("q"), atom("p", 1)]), rule)
        there = Interpretation.of([atom("q"), atom("p", 1)])
        assert not ht_satisfies(HTInterpretation.of([atom("q")], there), rule)

    def test_a_non_ground_rule_needs_a_domain(self):
        (rule,) = base("p(X) :- q(X).").rules
        I = Interpretation.of([atom("q", 1)])
        with pytest.raises(DomainError, match="needs a domain"):
            classical_satisfies(I, rule)
        assert not classical_satisfies(I, rule, Domain(0, 1))
        I = Interpretation.of([atom("q", 1), atom("p", 1)])
        assert classical_satisfies(I, rule, Domain(0, 1))

    def test_an_unknown_object_is_a_type_error(self):
        with pytest.raises(TypeError, match="int"):
            classical_satisfies(Interpretation.of([]), 42)

    def test_a_false_literal(self):
        I = Interpretation.of([atom("q")])
        assert not classical_satisfies(I, atom("p"))
        assert classical_satisfies(I, Literal(atom("p"), 1))
        assert not classical_satisfies(I, Literal(atom("q"), 1))


class TestSupportHeads:
    def test_a_repeated_head_variable_binds_once(self):
        pi = base("p(X,X) :- q(X).")
        kappa = IntensionalityStatement.purely_intensional([("p", 2)])
        I = Interpretation.of([atom("q", 1), atom("q", 2)])
        dom = Domain(0, 2)
        assert check_support(I, kappa, pi, atom("p", 1, 1), dom)
        assert not check_support(I, kappa, pi, atom("p", 1, 2), dom)

    def test_an_integer_head_variable_meets_no_symbol(self):
        pi = base("p(X) :- q(X+1).")
        kappa = IntensionalityStatement.purely_intensional([("p", 1)])
        I = Interpretation.of([atom("q", 2)])
        dom = Domain.build([pi], 0, 3)
        assert check_support(I, kappa, pi, atom("p", 1), dom)
        assert not check_support(I, kappa, pi, atom("p", SymbolicConstant("a")), dom)


# --- grounding.py ----------------------------------------------------------------


def test_ground_program_text_is_one_rule_a_line():
    rule = GroundRule(atom("p", 1), (atom("q"),), (atom("r"),))
    gp = GroundProgram((rule, GroundRule(atom("q"))))
    assert str(gp) == "p(1) :- q, not r.\nq."


def test_arithmetic_over_a_symbol_cannot_reach_a_numeral():
    x = Variable("X", Sort.INTEGER)
    x_plus_a = Arith("+", x, SymbolicConstant("a"))
    assert not may_share_instance((Numeral(3),), (x_plus_a,))
    assert may_share_instance((Numeral(3),), (Arith("+", x, Numeral(1)),))
    assert may_share_instance((X,), (x_plus_a,))


# --- instantiation.py --------------------------------------------------------------


def test_a_valuation_applies_to_a_bare_term():
    k = SymbolicConstant("k")
    term = Arith("+", k, Numeral(1))
    got = apply_valuation(term, Valuation.of({"k": Numeral(2)}))
    assert got == Arith("+", Numeral(2), Numeral(1))  # not simplified


def test_a_module_instance_needs_every_placeholder():
    chi = ParametricIntensionality.of(["k"], {("p", 1): [(SymbolicConstant("k"),)]})
    phi = ParametricModule(frozenset(["k"]), chi, base("p(k)."))
    with pytest.raises(UnboundPlaceholderError, match="placeholder k has no value"):
        instantiate_module(phi, Valuation())


# --- intensionality.py -------------------------------------------------------------


class TestPatternLengths:
    def test_a_tuple_of_another_length_never_matches(self):
        assert pattern_match((X,), ()) is None
        assert patterns_unify((X,), (X, Y)) is None
        assert not pattern_subsumes((X,), ())
        assert not may_share_instance((X,), ())

    def test_a_statement_refuses_a_pattern_of_another_length(self):
        with pytest.raises(PatternError, match="has length 1, expected 2"):
            IntensionalityStatement.of({("p", 2): [(X,)]})


def test_lambda_formula_text_of_falsity_and_truth():
    assert str(LambdaFormula(("p", 1), ())) == "false"
    assert str(LambdaFormula(("p", 1), ((),))) == "true"


def test_renaming_apart_primes_until_the_name_is_free():
    x1 = Variable("X'")
    theta = patterns_unify((X, x1), (X, Y))
    assert theta == {"X": Variable("X''"), "X'": Y}


# --- program.py, subprograms.py and terms.py ----------------------------------------


def test_an_unknown_comparison_relation_is_refused():
    with pytest.raises(SortError, match="unknown comparison relation"):
        Comparison("~", Numeral(1), Numeral(2))


def test_program_and_spec_text():
    assert str(base("p. q :- p, not r.")) == "p.\nq :- p, not r."
    spec = SubprogramSpec("s", ("k",), Valuation.of({"k": Numeral(1)}))
    assert str(spec) == "[s,{k},(k->1)]"


def test_a_function_term_needs_arguments():
    with pytest.raises(SortError, match="zero-argument function 'f'"):
        Func("f", ())


def test_the_sort_of_a_variable_is_its_own():
    assert sort_of(Variable("N", Sort.INTEGER)) is Sort.INTEGER
    assert sort_of(X) is Sort.GENERAL


def test_only_precomputed_function_terms_are_ordered():
    assert order_key(Func("f", (Numeral(1),))) < order_key(Func("g", (Numeral(0),)))
    with pytest.raises(NotPrecomputedError):
        order_key(Func("f", (X,)))


def test_a_valuation_without_the_name_is_a_key_error():
    theta = Valuation.of({"k": Numeral(1)})
    assert theta["k"] == Numeral(1)
    with pytest.raises(KeyError):
        theta["m"]

