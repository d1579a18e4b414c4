"""Program and control file parsing, scopes, and round-tripping."""

import pytest

from modasp.cli import main
from modasp.errors import (
    ArityMismatchError,
    DeclarationConflictError,
    ParseError,
    PatternError,
    RangeError,
    SortError,
    UnboundConstantError,
    UnknownSubprogramError,
)
from modasp.intensionality import IntensionalityStatement, ParametricIntensionality
from modasp.parsing import (
    MAX_TERM_DEPTH,
    parse_control,
    parse_ground_atom,
    parse_program,
    parse_term,
)
from modasp.program import Comparison, Literal, PredAtom, Program, make_rule
from modasp.subprograms import SubprogramSpec
from modasp.terms import Arith, Numeral, SymbolicConstant, Valuation, Variable

PROPERTY_LP = """\
#program base.
q(0,0).
#program property(k).
q(N,k+1) :- q(N-1,k).
"""


def property_rule():
    head = PredAtom(
        "q", (Variable("N"), Arith("+", SymbolicConstant("k"), Numeral(1)))
    )
    body = [
        Literal(
            PredAtom(
                "q", (Arith("-", Variable("N"), Numeral(1)), SymbolicConstant("k"))
            )
        )
    ]
    return make_rule(head, body)


class TestParseProgram:
    def test_property_program_structure(self):
        prog = parse_program(PROPERTY_LP)
        assert prog.declarations() == {"base": (), "property": ("k",)}
        assert len(prog.subprogram("base")) == 1
        assert len(prog.subprogram("property")) == 1

    def test_rule_before_declaration_is_base(self):
        prog = parse_program("q(0,0).")
        assert prog.subprogram("base") == Program.of(
            [make_rule(PredAtom("q", (Numeral(0), Numeral(0))))]
        )

    def test_conflicting_parameter_lists(self):
        with pytest.raises(DeclarationConflictError):
            parse_program("#program p(a). #program p(a,b).")

    def test_programmatic_construction_checks_declarations(self):
        from modasp.subprograms import ClingoProgram, ProgramDeclaration

        with pytest.raises(DeclarationConflictError):
            ClingoProgram(
                (ProgramDeclaration("p", ("a",)), ProgramDeclaration("p", ()))
            )

    def test_base_cannot_take_parameters(self):
        with pytest.raises(DeclarationConflictError):
            parse_program("#program base(x).")

    def test_scopes_union_over_repeated_declarations(self):
        text = "#program p. a. #program q. b. #program p. c."
        prog = parse_program(text)
        assert prog.subprogram("p") == Program.of(
            [make_rule(PredAtom("a")), make_rule(PredAtom("c"))]
        )

    def test_subprogram_base_of_property(self):
        prog = parse_program(PROPERTY_LP)
        assert prog.subprogram("base") == Program.of(
            [make_rule(PredAtom("q", (Numeral(0), Numeral(0))))]
        )

    def test_subprogram_property_rule(self):
        prog = parse_program(PROPERTY_LP)
        assert prog.subprogram("property") == Program.of([property_rule()])

    def test_unknown_subprogram_lists_names(self):
        prog = parse_program(PROPERTY_LP)
        with pytest.raises(UnknownSubprogramError, match="base, property"):
            prog.subprogram("nope")

    def test_comments_and_literals(self):
        text = """\
        % a comment
        p(X) :- q(X), not r(X), not not s(X), X < 3.
        :- p(1).
        """
        prog = parse_program(text)
        rules = prog.subprogram("base").rules
        assert len(rules) == 2
        (constraint_rule,) = [r for r in rules if r.head is None]
        assert constraint_rule.body[0].atom == PredAtom("p", (Numeral(1),))
        (rule,) = [r for r in rules if r.head is not None]
        negs = sorted(lit.negations for lit in rule.body)
        assert negs == [0, 0, 1, 2]
        comparisons = [l.atom for l in rule.body if isinstance(l.atom, Comparison)]
        assert comparisons == [Comparison("<", Variable("X"), Numeral(3))]

    def test_comparison_head_rejected(self):
        with pytest.raises(ParseError):
            parse_program("X = 1 :- p(X).")

    def test_triple_negation_rejected(self):
        with pytest.raises(ParseError):
            parse_program("a :- not not not b.")

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(X) :- q(X)")
        assert "line 1" in str(err.value)

    def test_scope_partition(self):
        prog = parse_program("a. #program p. b. #program q. c. d.")
        names = list(prog.declarations())
        all_rules = [rule for _, rule in prog.scopes()]
        collected = []
        for name in names:
            collected.extend(prog.subprogram(name).rules)
        assert sorted(map(str, collected)) == sorted(map(str, all_rules))

    def test_round_trip(self):
        for text in (
            PROPERTY_LP,
            "p(f(1),a) :- not q(a), f(X) = g(Y,2), X <= 2*Y+1.",
            ":- p(1), not not q(2).\n#program w(u,v).\nr(u+1,v) :- r(u,v).",
        ):
            prog = parse_program(text)
            assert parse_program(str(prog)) == prog

    def test_round_trip_random_programs(self):
        import random

        from modasp.program import make_rule
        from modasp.terms import Arith, Func, Numeral, SymbolicConstant, Variable

        rng = random.Random(61)

        def term(depth=0):
            roll = rng.random()
            if roll < 0.3:
                return Numeral(rng.randint(-9, 9))
            if roll < 0.5:
                return SymbolicConstant(rng.choice("abk"))
            if roll < 0.65:
                return Variable(rng.choice("XYZN"))
            if roll < 0.85 and depth < 3:
                return Arith(rng.choice("+-*"), int_term(depth + 1), int_term(depth + 1))
            if depth < 3:
                return Func(rng.choice("fg"), tuple(term(depth + 1) for _ in range(rng.randint(1, 2))))
            return Numeral(rng.randint(0, 9))

        def int_term(depth):
            roll = rng.random()
            if roll < 0.5 or depth >= 3:
                return Numeral(rng.randint(-9, 9))
            if roll < 0.7:
                return Variable(rng.choice("XYZN"))
            return Arith(rng.choice("+-*"), int_term(depth + 1), int_term(depth + 1))

        def atom():
            return PredAtom(rng.choice("pqr"), tuple(term() for _ in range(rng.randint(0, 3))))

        for _ in range(150):
            items = []
            if rng.random() < 0.5:
                params = tuple(sorted(rng.sample(["u", "v", "w"], rng.randint(0, 2))))
                items.append(f"#program m({','.join(params)})." if params else "#program m.")
            for _ in range(rng.randint(1, 3)):
                head = atom() if rng.random() < 0.85 else None
                body = [
                    Literal(
                        atom()
                        if rng.random() < 0.7
                        else Comparison(rng.choice(("=", "!=", "<", "<=", ">", ">=")), term(), term()),
                        rng.choice((0, 0, 1, 2)),
                    )
                    for _ in range(rng.randint(0, 3))
                ]
                if head is None and not body:
                    continue
                try:
                    items.append(str(make_rule(head, body)))
                except SortError:
                    continue  # heads nesting arithmetic under functions are rejected
            text = "\n".join(items)
            prog = parse_program(text)
            assert parse_program(str(prog)) == prog


class TestParseTerm:
    def test_precedence(self):
        assert parse_term("1+2*3") == Arith(
            "+", Numeral(1), Arith("*", Numeral(2), Numeral(3))
        )

    def test_left_associative_subtraction(self):
        assert parse_term("N-1-2") == Arith(
            "-", Arith("-", Variable("N"), Numeral(1)), Numeral(2)
        )

    def test_parentheses(self):
        assert parse_term("(1+2)*3") == Arith(
            "*", Arith("+", Numeral(1), Numeral(2)), Numeral(3)
        )

    def test_negative_numeral(self):
        assert parse_term("-5") == Numeral(-5)

    def test_ground_atom(self):
        assert parse_ground_atom("q(0,1)") == PredAtom("q", (Numeral(0), Numeral(1)))
        with pytest.raises(ParseError):
            parse_ground_atom("q(X)")


def nested_functions(levels):
    """`p(f(...f(1)...))`: the atom's argument list plus `levels - 1`
    function argument lists."""
    return "p(" + "f(" * (levels - 1) + "1" + ")" * levels


def nested_parentheses(levels):
    return "p(" + "(" * (levels - 1) + "1" + ")" * levels


def long_sum(levels):
    """`p(1+...+1)`: the argument list plus `levels - 1` operators."""
    return "p(" + "+".join(["1"] * levels) + ")"


def opener_column(text, level):
    """Column of the token that opens nesting level `level` of `text`."""
    opened = 0
    for index, ch in enumerate(text):
        if ch in "(+":
            opened += 1
            if opened == level:
                return index + 1
    raise AssertionError("text is not nested that deep")


class TestTermDepth:
    """Terms nest at most MAX_TERM_DEPTH parentheses, function argument
    lists and arithmetic operators; deeper ones are refused with a
    location instead of exhausting the Python stack."""

    SHAPES = [nested_functions, nested_parentheses, long_sum]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_depth_at_the_bound_parses(self, shape):
        prog = parse_program(shape(MAX_TERM_DEPTH) + ".")
        assert len(prog.subprogram("base")) == 1

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_past_the_bound_is_refused(self, shape):
        text = shape(MAX_TERM_DEPTH + 1)
        with pytest.raises(ParseError) as err:
            parse_program("a.\n" + text + ".")
        column = opener_column(text, MAX_TERM_DEPTH + 1)
        assert (err.value.line, err.value.column) == (2, column)

    @pytest.mark.parametrize(
        "shape,size", [(nested_functions, 3000), (nested_parentheses, 3000), (long_sum, 5000)]
    )
    def test_cli_probe_exits_2_with_location(self, shape, size, tmp_path, capsys):
        text = shape(size)
        lp = tmp_path / "deep.lp"
        lp.write_text(text + ".\n", encoding="utf-8")
        assert main(["parse", str(lp)]) == 2
        err = capsys.readouterr().err
        column = opener_column(text, MAX_TERM_DEPTH + 1)
        assert f"line 1, column {column}:" in err

    def test_siblings_do_not_add_up(self):
        inner = "f(" * (MAX_TERM_DEPTH - 2) + "1" + ")" * (MAX_TERM_DEPTH - 2)
        parse_program(f"p({inner},{inner}) :- q({inner}), {inner} = {inner}.")

    def test_control_terms_are_bounded(self):
        prog = parse_program(PROPERTY_LP)
        sum_ = "+".join(["1"] * (MAX_TERM_DEPTH + 2))  # one operator too many
        with pytest.raises(ParseError):
            parse_control(f"domain 0..{sum_}.", prog)
        with pytest.raises(ParseError):
            parse_control(f"use property({sum_}).", prog)
        with pytest.raises(ParseError):
            parse_control(f"intensional q(X,{sum_}).", prog)


CONTROL_A = """\
# collective control for the running example
const n = 100.
use base.
use property(k) for k in 0..n-1.
"""


class TestParseControl:
    def setup_method(self):
        self.prog = parse_program(PROPERTY_LP)

    def test_control_a_expansion(self):
        plan = parse_control(CONTROL_A, self.prog)
        assert len(plan.specs) == 101
        assert plan.specs[0] == SubprogramSpec("base", (), Valuation())
        assert plan.specs[1] == SubprogramSpec(
            "property", ("k",), Valuation.of({"k": Numeral(0)})
        )
        assert plan.specs[-1] == SubprogramSpec(
            "property", ("k",), Valuation.of({"k": Numeral(99)})
        )

    def test_use_base_alone(self):
        plan = parse_control("use base.", self.prog)
        assert plan.specs == (SubprogramSpec("base", (), Valuation()),)

    def test_positional_valuation(self):
        plan = parse_control("use property(7).", self.prog)
        assert plan.specs == (
            SubprogramSpec("property", ("k",), Valuation.of({"k": Numeral(7)})),
        )

    def test_range_expansion_count(self):
        plan = parse_control("use property(k) for k in 2..5.", self.prog)
        values = [spec.valuation["k"] for spec in plan.specs]
        assert values == [Numeral(2), Numeral(3), Numeral(4), Numeral(5)]

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            parse_control("use property.", self.prog)
        with pytest.raises(ArityMismatchError):
            parse_control("use base(1).", self.prog)

    def test_undeclared_subprogram(self):
        with pytest.raises(UnknownSubprogramError):
            parse_control("use nothing.", self.prog)

    def test_unbound_constant(self):
        with pytest.raises(UnboundConstantError):
            parse_control("use property(k) for k in 0..m.", self.prog)

    def test_reversed_range_needs_allow_empty(self):
        with pytest.raises(RangeError):
            parse_control("use property(k) for k in 3..1.", self.prog)
        plan = parse_control("use property(k) for k in 3..1 allow empty.", self.prog)
        assert plan.specs == ()

    def test_overrides_shadow_const_lines(self):
        plan = parse_control(CONTROL_A, self.prog, overrides={"n": 3})
        assert len(plan.specs) == 4

    def test_domain_line(self):
        plan = parse_control("const n = 4. domain 0..n.", self.prog)
        assert plan.domain == (0, 4)
        with pytest.raises(RangeError):
            parse_control("domain 3..1.", self.prog)

    def test_intensional_patterns(self):
        plan = parse_control(
            "intensional q(X,1). intensional q(X,2).", self.prog
        )
        kappa = plan.global_kappa_dict()
        assert kappa == {
            ("q", 2): (
                (Variable("X"), Numeral(1)),
                (Variable("X"), Numeral(2)),
            )
        }

    def test_module_chi_override_keeps_placeholders(self):
        plan = parse_control("module property: q(X, k+1).", self.prog)
        chi = dict(dict(plan.module_chi)["property"].entries)
        assert chi == {
            ("q", 2): (
                (Variable("X"), Arith("+", SymbolicConstant("k"), Numeral(1))),
            )
        }

    def test_symbolic_value(self):
        prog = parse_program("#program tag(k). t(k).")
        plan = parse_control("use tag(a).", prog)
        assert plan.specs[0].valuation["k"] == SymbolicConstant("a")

    def test_symbolic_value_under_arithmetic_is_refused_at_its_use_line(self):
        with pytest.raises(PatternError) as err:
            parse_control("use base.\n  use property(a).", self.prog)
        assert str(err.value) == (
            "line 2, column 3: placeholder k is integer-sorted (it occurs "
            "under arithmetic) but the valuation assigns a"
        )

    def test_constant_arithmetic_in_values(self):
        plan = parse_control("const n = 3. use property(n*2+1).", self.prog)
        assert plan.specs[0].valuation["k"] == Numeral(7)

    def test_duplicate_const_rejected(self):
        with pytest.raises(ParseError):
            parse_control("const n = 1. const n = 2.", self.prog)


# Control-file errors found past the syntax, each on a statement that is
# not the first, with the line and column of that statement.
CONTROL_ERRORS = [
    (PatternError, "use base.\n  intensional q(X,X).", 2, 3),
    (UnknownSubprogramError, "use base.\nuse nosuch.", 2, 1),
    (ArityMismatchError, "const n = 1.\n\n use property(1,2).", 3, 2),
    (RangeError, "use base.\nuse property(k) for k in 3..1.", 2, 1),
    (UnboundConstantError, "use base.\n\ndomain 0..m.", 3, 1),
]


@pytest.mark.parametrize(
    "error, text, line, column", CONTROL_ERRORS, ids=[e[0].__name__ for e in CONTROL_ERRORS]
)
def test_control_error_carries_position(error, text, line, column):
    with pytest.raises(error) as err:
        parse_control(text, parse_program(PROPERTY_LP))
    assert str(err.value).startswith(f"line {line}, column {column}: ")


# Rule construction errors in program files, each on a rule that is not the
# first, with the line and column of that rule's first token.
RULE_ERRORS = [
    ("q.\n p(f(1)+1).", 2, 2, "function term f(1) used as an argument"),
    ("q.\n\np(f(X+1)) :- q(X).", 3, 1, "head term f(X+1) nests arithmetic"),
    ("q.\n:- p(f(1)*2).", 2, 1, "function term f(1) used as an argument"),
]


@pytest.mark.parametrize("text, line, column, message", RULE_ERRORS)
def test_rule_error_carries_position(text, line, column, message):
    with pytest.raises(SortError) as err:
        parse_program(text)
    assert str(err.value).startswith(f"line {line}, column {column}: {message}")


# Malformed patterns: a repeated variable, an element that is not
# precomputed, and placeholder arithmetic mixed with a variable.
MALFORMED_PATTERNS = ["q(X,X)", "q(X,Y+1)", "q(X,k+Y)"]


class TestMalformedPatterns:
    """One table of malformed patterns, refused the same way by every entry
    point that accepts a pattern."""

    def setup_method(self):
        self.prog = parse_program(PROPERTY_LP)

    @staticmethod
    def pattern(text):
        return parse_term(text).args

    @staticmethod
    def assert_names_pattern(err, pattern):
        message = str(err.value)
        assert f"({','.join(str(e) for e in pattern)})" in message
        assert "Variable(" not in message

    @pytest.mark.parametrize("text", MALFORMED_PATTERNS)
    def test_intensional_line(self, text):
        with pytest.raises(PatternError) as err:
            parse_control(f"use base. intensional {text}.", self.prog)
        self.assert_names_pattern(err, self.pattern(text))

    @pytest.mark.parametrize("text", MALFORMED_PATTERNS)
    def test_module_line(self, text):
        with pytest.raises(PatternError) as err:
            parse_control(f"use property(0). module property: {text}.", self.prog)
        self.assert_names_pattern(err, self.pattern(text))

    @pytest.mark.parametrize("text", MALFORMED_PATTERNS)
    def test_statement(self, text):
        pattern = self.pattern(text)
        with pytest.raises(PatternError) as err:
            IntensionalityStatement.of({("q", 2): [pattern]})
        self.assert_names_pattern(err, pattern)

    @pytest.mark.parametrize("text", MALFORMED_PATTERNS)
    def test_parametric_statement(self, text):
        pattern = self.pattern(text)
        with pytest.raises(PatternError) as err:
            ParametricIntensionality.of(["k"], {("q", 2): [pattern]})
        self.assert_names_pattern(err, pattern)

    @pytest.mark.parametrize("text", MALFORMED_PATTERNS)
    @pytest.mark.parametrize(
        "line", ["intensional {}.", "module property: {}."]
    )
    def test_instantiate_union_exits_2(self, text, line, tmp_path, capsys):
        lp = tmp_path / "p.lp"
        lp.write_text(PROPERTY_LP, encoding="utf-8")
        ctl = tmp_path / "p.ctl"
        ctl.write_text(
            "use base. use property(0). domain 0..2. " + line.format(text),
            encoding="utf-8",
        )
        code = main(["instantiate", str(lp), "--control", str(ctl), "--mode", "union"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Variable(" not in captured.err
