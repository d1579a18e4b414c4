"""Term layer: sorts, evaluation, simplification and the total order."""

import pytest
from hypothesis import given, strategies as st

from modasp.errors import NotGroundError, NotPrecomputedError, SortError
from modasp.program import PredAtom, make_rule, Literal
from modasp.terms import (
    EQ,
    GT,
    LT,
    Arith,
    Func,
    Numeral,
    Sort,
    SymbolicConstant,
    Valuation,
    Variable,
    compare,
    eval_ground,
    is_precomputed,
    simplify,
    sort_of,
    substitute_constants,
)


def num(n):
    return Numeral(n)


def sym(name):
    return SymbolicConstant(name)


def var(name, sort=Sort.GENERAL):
    return Variable(name, sort)


class TestSorts:
    def test_numeral_is_integer(self):
        assert sort_of(num(0)) is Sort.INTEGER

    def test_arith_is_integer(self):
        assert sort_of(Arith("+", num(1), num(2))) is Sort.INTEGER

    def test_symbolic_constant_defaults_to_general(self):
        assert sort_of(sym("a")) is Sort.GENERAL

    def test_rule_context_forces_integer_sort(self):
        # q(N,k+1) :- q(N-1,k): N and k appear under arithmetic.
        head = PredAtom("q", (var("N"), Arith("+", sym("k"), num(1))))
        body = [Literal(PredAtom("q", (Arith("-", var("N"), num(1)), sym("k"))))]
        rule = make_rule(head, body)
        head_var = rule.head.args[0]
        assert head_var == Variable("N", Sort.INTEGER)

    def test_function_term_under_arith_rejected(self):
        with pytest.raises(SortError):
            Arith("+", Func("f", (num(1),)), num(1))

    def test_head_arith_nested_under_function_rejected(self):
        head = PredAtom("q", (Func("f", (Arith("+", var("X"), num(1)),)),))
        with pytest.raises(SortError):
            make_rule(head, [Literal(PredAtom("p", (var("X"),)))])


class TestGroundAndPrecomputed:
    def test_precomputed_examples(self):
        assert is_precomputed(Func("f", (num(1),)))
        assert not is_precomputed(Arith("+", num(1), num(2)))
        assert eval_ground(Arith("+", num(1), num(2))) == num(3)
        with pytest.raises(NotGroundError):
            eval_ground(var("X"))


class TestEvalGround:
    def test_five_plus_three_is_eight(self):
        assert eval_ground(Arith("+", num(5), num(3))) == num(8)

    def test_function_terms_denote_themselves(self):
        assert eval_ground(Func("f", (num(1),))) == Func("f", (num(1),))

    def test_nested_arithmetic(self):
        # (1+1)*3 = 6, by integer arithmetic.
        t = Arith("*", Arith("+", num(1), num(1)), num(3))
        assert eval_ground(t) == num(6)

    def test_arith_inside_function_argument(self):
        t = Func("f", (Arith("+", num(1), num(1)),))
        assert eval_ground(t) == Func("f", (num(2),))

    def test_non_ground_rejected(self):
        with pytest.raises(NotGroundError):
            eval_ground(Arith("+", var("X"), num(1)))

    def test_unsubstituted_integer_constant_rejected(self):
        with pytest.raises(SortError):
            eval_ground(Arith("+", sym("k"), num(1)))


class TestSimplify:
    def test_zero_plus_one_folds(self):
        assert simplify(Arith("+", num(0), num(1))) == num(1)

    def test_variable_operand_blocks_folding(self):
        t = Arith("+", var("X"), num(1))
        assert simplify(t) == t

    def test_ground_subterm_folds_under_variable(self):
        # (2*3)+X simplifies to 6+X: the ground subterm folds by integer
        # arithmetic while the variable blocks the outer operation.
        t = Arith("+", Arith("*", num(2), num(3)), var("X"))
        assert simplify(t) == Arith("+", num(6), var("X"))

    def test_placeholder_arithmetic_is_kept(self):
        t = Arith("+", sym("k"), num(1))
        assert simplify(t) == t

    def test_function_arguments_simplify_elementwise(self):
        t = Func("f", (Arith("+", num(0), num(1)),))
        assert simplify(t) == Func("f", (num(1),))

    def test_precomputed_terms_are_fixed(self):
        for t in (num(7), sym("a"), Func("g", (sym("a"), num(2)))):
            assert simplify(t) == t


class TestCompare:
    def test_numerals_by_value(self):
        assert compare(num(1), num(2)) == LT

    def test_numerals_precede_symbols(self):
        assert compare(num(5), sym("a")) == LT

    def test_reflexive_equality(self):
        assert compare(sym("a"), sym("a")) == EQ

    def test_symbols_precede_function_terms(self):
        assert compare(sym("z"), Func("a", (num(0),))) == LT

    def test_function_terms_by_name_arity_args(self):
        assert compare(Func("f", (num(1),)), Func("f", (num(2),))) == LT
        assert compare(Func("f", (num(1),)), Func("f", (num(1), num(1)))) == LT
        assert compare(Func("g", (num(9),)), Func("f", (num(1), num(1)))) == GT

    def test_non_precomputed_rejected(self):
        with pytest.raises(NotPrecomputedError):
            compare(Arith("+", num(1), num(1)), num(2))


# Random ground/precomputed term generators for the property checks.

_precomputed = st.deferred(
    lambda: st.one_of(
        st.integers(-6, 6).map(Numeral),
        st.sampled_from("abc").map(SymbolicConstant),
        st.tuples(st.sampled_from("fg"), st.lists(_precomputed, min_size=1, max_size=2)).map(
            lambda p: Func(p[0], tuple(p[1]))
        ),
    )
)

_ground = st.deferred(
    lambda: st.one_of(
        _precomputed,
        st.tuples(st.sampled_from("+-*"), _ground_int, _ground_int).map(
            lambda p: Arith(p[0], p[1], p[2])
        ),
    )
)

_ground_int = st.deferred(
    lambda: st.one_of(
        st.integers(-6, 6).map(Numeral),
        st.tuples(st.sampled_from("+-*"), _ground_int, _ground_int).map(
            lambda p: Arith(p[0], p[1], p[2])
        ),
    )
)

_term = st.deferred(
    lambda: st.one_of(
        _ground,
        st.sampled_from("XYZ").map(Variable),
        st.tuples(st.sampled_from("+-*"), _int_term, _int_term).map(
            lambda p: Arith(p[0], p[1], p[2])
        ),
    )
)

_int_term = st.deferred(
    lambda: st.one_of(
        st.integers(-6, 6).map(Numeral),
        st.sampled_from("XYZ").map(lambda n: Variable(n, Sort.INTEGER)),
        st.tuples(st.sampled_from("+-*"), _int_term, _int_term).map(
            lambda p: Arith(p[0], p[1], p[2])
        ),
    )
)


class TestProperties:
    @given(_term)
    def test_simplify_idempotent(self, t):
        assert simplify(simplify(t)) == simplify(t)

    @given(_ground)
    def test_simplify_preserves_evaluation(self, t):
        assert eval_ground(simplify(t)) == eval_ground(t)

    @given(_precomputed)
    def test_precomputed_fixed_by_simplify(self, t):
        assert simplify(t) == t

    @given(_precomputed, _precomputed, _precomputed)
    def test_total_order(self, a, b, c):
        assert compare(a, b) == -compare(b, a)
        assert (compare(a, b) == EQ) == (a == b)
        if compare(a, b) != GT and compare(b, c) != GT:
            assert compare(a, c) != GT

    @given(_precomputed, st.integers(-6, 6))
    def test_numerals_contiguous(self, t, n):
        # No precomputed non-numeral sits strictly between n and n+1.
        if not isinstance(t, Numeral):
            between = compare(num(n), t) == LT and compare(t, num(n + 1)) == LT
            assert not between


class TestValuation:
    def test_values_must_be_precomputed(self):
        with pytest.raises(NotPrecomputedError):
            Valuation.of({"k": Arith("+", num(1), num(1))})

    def test_substitution_round_trip(self):
        v = Valuation.of({"k": num(42)})
        t = Arith("+", sym("k"), num(1))
        assert substitute_constants(t, v.as_dict()) == Arith("+", num(42), num(1))

    def test_lookup(self):
        v = Valuation.of({"k": num(0)})
        assert "k" in v and v["k"] == num(0)
        assert len(v) == 1


class TestRendering:
    @pytest.mark.parametrize(
        "term,expected",
        [
            (Arith("-", var("N"), num(1)), "N-1"),
            (Arith("+", Arith("*", num(2), num(3)), var("X")), "2*3+X"),
            (Arith("*", num(2), Arith("+", num(3), var("X"))), "2*(3+X)"),
            (Arith("-", var("N"), Arith("-", num(1), num(2))), "N-(1-2)"),
            (Func("f", (num(-1), sym("a"))), "f(-1,a)"),
        ],
    )
    def test_render(self, term, expected):
        assert str(term) == expected
