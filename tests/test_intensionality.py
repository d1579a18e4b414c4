"""Intensionality statements, membership formulas, matching and coverage."""

import itertools
import random
from collections import Counter

import pytest

import randprog
from modasp.engine import extensional_region
from modasp.grounding import Domain
from modasp.instantiation import Module, ModularProgram

from modasp.errors import PatternError, UnboundPlaceholderError
from modasp.intensionality import (
    IntensionalityStatement,
    ParametricIntensionality,
    check_requirement,
    extensional_axioms,
    instantiate_chi,
    lambda_formula,
    lambda_holds,
    may_share_instance,
    pattern_match,
    patterns_unify,
)
from modasp.program import PredAtom, Program, Signature
from modasp.terms import (
    Arith,
    Func,
    Numeral,
    SymbolicConstant,
    Valuation,
    Variable,
    is_precomputed,
    simplify,
    substitute_variables,
)

Q = ("q", 2)


def num(n):
    return Numeral(n)


def sym(name):
    return SymbolicConstant(name)


def var(name):
    return Variable(name)


def kappa1():
    # q/2 intensional exactly on tuples with second element 1 or 2.
    return IntensionalityStatement.of({Q: [(var("X"), num(1)), (var("X"), num(2))]})


# The grid used by the brute-force validity oracle: small integers plus two
# symbolic constants, enough to distinguish every pattern shape we generate.
GRID = [num(i) for i in range(-2, 3)] + [sym("a"), sym("b")]


def grid_tuples(arity):
    return itertools.product(GRID, repeat=arity)


def formula_holds_classically(statement, key, args):
    """Independent oracle: evaluate the membership formula literally."""
    lam = lambda_formula(statement, key)
    return lam.holds(tuple(args))


class TestLambdaFormula:
    def test_kappa1_formula_shape(self):
        lam = lambda_formula(kappa1(), Q)
        assert lam.disjuncts == (((1, num(1)),), ((1, num(2)),))
        assert str(lam) == "X2 = 1 or X2 = 2"

    def test_empty_statement_is_falsity(self):
        lam = lambda_formula(IntensionalityStatement.of({}), Q)
        assert lam.is_false()

    def test_all_variable_pattern_is_truth(self):
        statement = IntensionalityStatement.of({Q: [(var("X"), var("Y"))]})
        lam = lambda_formula(statement, Q)
        assert () in lam.disjuncts


class TestLambdaHolds:
    def test_matches_first_disjunct(self):
        assert lambda_holds(kappa1(), PredAtom("q", (num(7), num(1))))

    def test_tuple_1_3_not_intensional(self):
        assert not lambda_holds(kappa1(), PredAtom("q", (num(1), num(3))))

    def test_tuple_0_0_not_intensional(self):
        assert not lambda_holds(kappa1(), PredAtom("q", (num(0), num(0))))

    def test_agrees_with_formula_evaluation_on_grid(self):
        rng = random.Random(7)
        for _ in range(50):
            arity = rng.randint(1, 3)
            key = ("p", arity)
            patterns = []
            for _ in range(rng.randint(0, 3)):
                elems = []
                for pos in range(arity):
                    if rng.random() < 0.4:
                        elems.append(var(f"X{pos + 1}"))
                    else:
                        elems.append(rng.choice(GRID))
                patterns.append(tuple(elems))
            statement = IntensionalityStatement.of({key: patterns})
            for args in grid_tuples(arity):
                atom = PredAtom("p", tuple(args))
                assert lambda_holds(statement, atom) == formula_holds_classically(
                    statement, key, args
                )


# Predicates of the table tests: `PATTERN_PREDS` (arities 0 to 2) and one of
# arity 3, for patterns with several ground positions.
TABLE_PREDS = randprog.PATTERN_PREDS + (("s", 3),)


def _random_statement(rng):
    """A statement over some of `TABLE_PREDS`, each with one to four
    patterns of one ground share: all-variable, mixed or ground."""
    mapping = {}
    for key in rng.sample(TABLE_PREDS, rng.randint(0, 4)):
        share = rng.choice((0.0, 0.4, 0.7, 1.0))
        mapping[key] = [
            tuple(
                rng.choice(randprog.PATTERN_VALUES)
                if rng.random() < share
                else var(f"X{k + 1}")
                for k in range(key[1])
            )
            for _ in range(rng.randint(1, 4))
        ]
    return IntensionalityStatement.of(mapping)


def _random_atom(rng):
    """An atom of `TABLE_PREDS` over pattern values, or, half the time, one
    whose arguments may be variables or arithmetic (`random_pattern_atom`)."""
    if rng.random() < 0.5:
        return randprog.random_pattern_atom(rng)
    name, arity = rng.choice(TABLE_PREDS)
    return PredAtom(
        name, tuple(rng.choice(randprog.PATTERN_VALUES) for _ in range(arity))
    )


def _random_program(rng):
    """A modular program under a random global statement (`_random_statement`)
    whose modules are under it, under some of its patterns, or under none."""
    kappa = _random_statement(rng)
    statements = [kappa]
    for _ in range(rng.randint(1, 3)):
        statements.append(
            IntensionalityStatement.of(
                {
                    key: rng.sample(patterns, rng.randint(0, len(patterns)))
                    for key, patterns in kappa.entries
                }
            )
        )
    rng.shuffle(statements)
    return ModularProgram(
        kappa, tuple(Module(st, Program.of(())) for st in statements)
    )


class TestRegionLookup:
    """Every region the solvers read comes from `P.patterns`: its bit of
    each module and of the global statement, and `extensional_region`, must
    say what the membership formula (`lambda_holds`) says."""

    def test_each_bit_is_lambda_holds(self):
        rng = random.Random(2024)
        seen = Counter()
        for _ in range(400):
            P = _random_program(rng)
            statements = [*(m.kappa for m in P.modules), P.kappa]
            for _ in range(25):
                atom = _random_atom(rng)
                expected = lambda_formula(P.kappa, atom.pred).holds(atom.args)
                assert lambda_holds(P.kappa, atom) == expected
                found = P.patterns.holding(atom.pred, atom.args)
                for s, statement in enumerate(statements):
                    assert found >> s & 1 == lambda_holds(statement, atom)
                assert not found >> len(statements)
                patterns = P.kappa.patterns_for(atom.pred)
                seen["held" if expected else "not held"] += 1
                seen["some module not"] += 0 < found.bit_count() < len(statements)
                if not patterns:
                    seen["no entry"] += 1
                elif any(all(isinstance(e, Variable) for e in u) for u in patterns):
                    seen["open"] += 1
                else:
                    seen["shaped"] += 1
                    seen["held by a shape"] += expected
                    shapes = {
                        tuple(not isinstance(e, Variable) for e in u) for u in patterns
                    }
                    seen["several shapes"] += len(shapes) > 1
                    seen["several positions"] += any(
                        sum(not isinstance(e, Variable) for e in u) > 1
                        for u in patterns
                    )
                seen["arity 0"] += not atom.args
                seen["not precomputed"] += not all(map(is_precomputed, atom.args))
        assert min(seen.values()) >= 100 and len(seen) == 11, seen

    def test_extensional_region_is_a_product_scan(self):
        rng = random.Random(2025)
        regions = Counter()
        for _ in range(300):
            statement = _random_statement(rng)
            preds = rng.sample(TABLE_PREDS, rng.randint(0, len(TABLE_PREDS)))
            dom = Domain(0, rng.randint(0, 2), frozenset(randprog.PATTERN_VALUES[3:]))
            expected = {
                PredAtom(name, args)
                for name, arity in preds
                for args in itertools.product(dom.terms_sorted(), repeat=arity)
                if not lambda_formula(statement, (name, arity)).holds(args)
            }
            assert extensional_region(statement, preds, dom) == expected
            regions["empty" if not expected else "some"] += 1
            regions["cut"] += any(
                statement.patterns_for(key)
                and all(
                    any(not isinstance(e, Variable) for e in u)
                    for u in statement.patterns_for(key)
                )
                for key in preds
            )
        assert min(regions.values()) >= 50, regions


class TestExtensionalAxioms:
    def test_one_axiom_per_predicate(self):
        sig = Signature(predicates=frozenset({Q, ("r", 1)}))
        axioms = extensional_axioms(kappa1(), sig)
        assert [a.pred for a in axioms] == [Q, ("r", 1)]

    def test_kappa1_axiom_text(self):
        sig = Signature(predicates=frozenset({Q}))
        (axiom,) = extensional_axioms(kappa1(), sig)
        assert str(axiom) == (
            "forall X1,X2: not (X2 = 1 or X2 = 2) -> q(X1,X2) or not q(X1,X2)"
        )

    def test_purely_intensional_axiom_is_vacuous(self):
        statement = IntensionalityStatement.of({Q: [(var("X"), var("Y"))]})
        (axiom,) = extensional_axioms(statement, Signature(predicates=frozenset({Q})))
        assert () in axiom.lam.disjuncts

    def test_purely_extensional_axiom_is_unconditional(self):
        (axiom,) = extensional_axioms(
            IntensionalityStatement.of({}), Signature(predicates=frozenset({Q}))
        )
        assert axiom.lam.is_false()


class TestPatternMatch:
    def test_variable_position_binds(self):
        # (X,1) against (N, 0+1): X binds to N and 0+1 simplifies to 1.
        theta = pattern_match(
            (var("X"), num(1)),
            (Variable("N"), Arith("+", num(0), num(1))),
        )
        assert theta == {"X": Variable("N")}

    def test_ground_identity(self):
        assert pattern_match((num(0), num(0)), (num(0), num(0))) == {}

    def test_ground_mismatch_fails(self):
        assert pattern_match(
            (var("X"), num(3)),
            (Variable("N"), Arith("+", num(0), num(1))),
        ) is None

    def test_variable_in_term_at_ground_position_fails(self):
        assert pattern_match((num(0), num(0)), (Variable("X"), num(0))) is None


class TestPatternsUnify:
    def test_positionwise(self):
        theta = patterns_unify((var("X"), num(1)), (num(0), var("Y")))
        assert theta == {"X": num(0), "Y": num(1)}

    def test_distinct_ground_elements_fail(self):
        assert patterns_unify((var("X"), num(1)), (var("X"), num(3))) is None

    def test_ground_vs_pattern_fails(self):
        assert patterns_unify((num(0), num(0)), (var("X"), num(1))) is None

    def test_unifier_equalises_after_renaming(self):
        rng = random.Random(11)
        pool = GRID + [var("X"), var("Y")]
        for _ in range(200):
            arity = rng.randint(1, 3)

            def gen():
                elems, used = [], set()
                for _ in range(arity):
                    e = rng.choice(pool)
                    while isinstance(e, Variable) and e.name in used:
                        e = rng.choice(pool)
                    if isinstance(e, Variable):
                        used.add(e.name)
                    elems.append(e)
                return tuple(elems)

            u1, u2 = gen(), gen()
            theta = patterns_unify(u1, u2)
            # Symmetry of success/failure.
            assert (theta is None) == (patterns_unify(u2, u1) is None)
            if theta is not None:
                from modasp.intensionality import _rename_clashes

                renamed = _rename_clashes(u1, u2)

                def apply(pattern):
                    out = []
                    for e in pattern:
                        while isinstance(e, Variable) and e.name in theta:
                            e = theta[e.name]
                        out.append(e)
                    return tuple(out)

                assert apply(u1) == apply(renamed)


class TestCheckRequirement:
    def test_p1_configuration_is_covered(self):
        kappa = IntensionalityStatement.of({Q: [(var("X"), var("Y"))]})
        module_kappas = [
            IntensionalityStatement.of({Q: [(num(0), num(0))]}),
            kappa1(),
            IntensionalityStatement.of({Q: [(var("X"), num(3)), (var("X"), num(4))]}),
        ]
        assert check_requirement(kappa, module_kappas) is None

    def test_uncovered_pattern_reported(self):
        kappa = IntensionalityStatement.of({Q: [(var("X"), num(1))]})
        module = IntensionalityStatement.of({Q: [(var("X"), num(2))]})
        violation = check_requirement(kappa, [module])
        assert violation is not None
        assert violation.pred == Q
        assert violation.module_index == 0
        assert violation.pattern == (var("X"), num(2))

    def test_a_statement_covers_itself_without_a_walk(self, monkeypatch):
        # The one-module reading of a union puts kappa under kappa; walking
        # its patterns against themselves would cost their count squared.
        import modasp.intensionality as intensionality_mod
        from modasp.instantiation import Module, ModularProgram
        from modasp.program import Program

        def forbidden(*args):
            raise AssertionError("a statement equal to kappa is not walked")

        patterns = {("p", 1): [(num(i),) for i in range(1000)]}
        kappa = IntensionalityStatement.of(patterns)
        monkeypatch.setattr(intensionality_mod, "pattern_subsumes", forbidden)
        ModularProgram(kappa, (Module(kappa, Program.of([])),))
        assert check_requirement(kappa, [IntensionalityStatement.of(patterns)]) is None

    def test_other_modules_keep_their_index(self):
        kappa = IntensionalityStatement.of({Q: [(var("X"), num(1))]})
        module = IntensionalityStatement.of({Q: [(var("X"), num(2))]})
        violation = check_requirement(kappa, [kappa, module, kappa])
        assert violation is not None
        assert violation.module_index == 1
        assert violation.pattern == (var("X"), num(2))

    def test_single_pattern_subsumption(self):
        kappa = kappa1()
        module = IntensionalityStatement.of({Q: [(num(0), num(1))]})
        assert check_requirement(kappa, [module]) is None

    def brute_force_covered(self, kappa, module, key):
        """Oracle: check the coverage implication over every grid tuple."""
        for args in grid_tuples(key[1]):
            if formula_holds_classically(module, key, args):
                if not formula_holds_classically(kappa, key, args):
                    return False
        return True

    def test_agrees_with_bounded_domain_oracle(self):
        # Up to three global patterns cannot saturate a seven-value grid
        # axis, so grid agreement matches the infinite-domain answer.
        rng = random.Random(23)
        checked_ok = checked_bad = 0
        for _ in range(250):
            arity = rng.randint(1, 2)
            key = ("p", arity)

            def gen_patterns(count):
                pats = []
                for _ in range(count):
                    elems = []
                    for pos in range(arity):
                        if rng.random() < 0.5:
                            elems.append(var(f"X{pos + 1}"))
                        else:
                            elems.append(rng.choice(GRID))
                    pats.append(tuple(elems))
                return pats

            kappa = IntensionalityStatement.of({key: gen_patterns(rng.randint(0, 3))})
            module = IntensionalityStatement.of({key: gen_patterns(rng.randint(1, 2))})
            got = check_requirement(kappa, [module]) is None
            want = self.brute_force_covered(kappa, module, key)
            assert got == want
            checked_ok += got
            checked_bad += not got
        assert checked_ok > 10 and checked_bad > 10


class TestInstantiateChi:
    def chi1(self):
        return ParametricIntensionality.of(
            ["k"], {Q: [(var("X"), Arith("+", sym("k"), num(1)))]}
        )

    def test_theta1_gives_two(self):
        result = instantiate_chi(self.chi1(), Valuation.of({"k": num(1)}))
        assert result == IntensionalityStatement.of({Q: [(var("X"), num(2))]})

    def test_theta0_gives_one(self):
        result = instantiate_chi(self.chi1(), Valuation.of({"k": num(0)}))
        assert result == IntensionalityStatement.of({Q: [(var("X"), num(1))]})

    def test_no_placeholders_identity(self):
        chi = ParametricIntensionality.of([], {Q: [(num(0), num(0))]})
        assert instantiate_chi(chi, Valuation.of({"z": num(5)})) == (
            IntensionalityStatement.of({Q: [(num(0), num(0))]})
        )

    def test_missing_placeholder_rejected(self):
        with pytest.raises(UnboundPlaceholderError):
            instantiate_chi(self.chi1(), Valuation())

    def test_integer_placeholder_needs_numeral(self):
        with pytest.raises(PatternError):
            instantiate_chi(self.chi1(), Valuation.of({"k": sym("a")}))

    def test_results_contain_no_placeholders_or_arithmetic(self):
        rng = random.Random(5)
        for _ in range(100):
            arity = rng.randint(1, 2)
            key = ("p", arity)
            elems = []
            for pos in range(arity):
                choice = rng.random()
                if choice < 0.3:
                    elems.append(var(f"X{pos + 1}"))
                elif choice < 0.6:
                    elems.append(rng.choice(GRID))
                else:
                    elems.append(Arith("+", sym("k"), num(rng.randint(0, 3))))
            chi = ParametricIntensionality.of(["k"], {key: [tuple(elems)]})
            out = instantiate_chi(chi, Valuation.of({"k": num(rng.randint(-2, 2))}))
            for pattern in out.patterns_for(key):
                for elem in pattern:
                    assert isinstance(elem, Variable) or is_precomputed(elem)

    def test_parametric_pattern_validation(self):
        with pytest.raises(PatternError):
            ParametricIntensionality.of(
                [], {Q: [(var("X"), Arith("+", sym("k"), num(1)))]}
            )
        with pytest.raises(PatternError):
            ParametricIntensionality.of(
                ["k"], {Q: [(var("X"), Func("f", (sym("k"),)))]}
            )


class TestStatementBasics:
    def test_linearity_enforced(self):
        with pytest.raises(PatternError):
            IntensionalityStatement.of({Q: [(var("X"), var("X"))]})

    def test_purely_intensional_factory(self):
        statement = IntensionalityStatement.purely_intensional([Q])
        assert statement.patterns_for(Q) == ((var("X1"), var("X2")),)

    def test_missing_predicate_is_extensional(self):
        assert not kappa1().patterns_for(("r", 1))


class TestMayShareInstance:
    def oracle(self, pattern, terms, values):
        """Enumerate all substitutions of the rule variables over `values`."""
        names = sorted({n for t in terms for n in _vars(t)})
        for combo in itertools.product(values, repeat=len(names)):
            theta = dict(zip(names, combo))
            ok = True
            for p, t in zip(pattern, terms):
                if isinstance(p, Variable):
                    continue
                try:
                    value = simplify(substitute_variables(t, theta))
                except Exception:
                    ok = False
                    break
                if value != p:
                    ok = False
                    break
            if ok:
                return True
        return False

    def test_ground_vs_rule_variable(self):
        # (0,0) overlaps (X,0): instance X=0.
        assert may_share_instance((num(0), num(0)), (Variable("X"), num(0)))

    def test_arithmetic_solved(self):
        # (0,0) overlaps (N-1, 0) at N=1.
        assert may_share_instance(
            (num(0), num(0)), (Arith("-", Variable("N"), num(1)), num(0))
        )

    def test_mismatched_ground_fails(self):
        assert not may_share_instance((var("X"), num(3)), (Variable("N"), num(2)))

    def test_shared_variable_consistency(self):
        terms = (Variable("N"), Arith("-", Variable("N"), num(1)))
        assert may_share_instance((num(2), num(1)), terms)
        assert not may_share_instance((num(2), num(2)), terms)

    def test_multiplication_divisibility(self):
        assert may_share_instance((num(6),), (Arith("*", Variable("N"), num(2)),))
        assert not may_share_instance((num(7),), (Arith("*", Variable("N"), num(2)),))

    def test_repeated_variable_is_undecided(self):
        # N+N = 4 at N=2 and N*N = 4 at N=2: one variable occurring twice
        # cannot be inverted, so the overlap must stay possible.
        n = Variable("N")
        assert may_share_instance((num(4),), (Arith("+", n, n),))
        assert may_share_instance((num(4),), (Arith("*", n, n),))

    def test_agrees_with_enumeration_oracle(self):
        # Window is wide enough that every solvable one-variable equation
        # generated below (targets in -3..3, offsets in 0..2) solves inside it.
        rng = random.Random(31)
        values = [num(i) for i in range(-6, 7)]
        hits = misses = 0
        for _ in range(300):
            arity = rng.randint(1, 2)
            pattern = []
            for pos in range(arity):
                r = rng.random()
                if r < 0.3:
                    pattern.append(var(f"X{pos + 1}"))
                else:
                    pattern.append(num(rng.randint(-3, 3)))
            terms = []
            for _ in range(arity):
                r = rng.random()
                v = Variable(rng.choice("NM"))
                if r < 0.3:
                    terms.append(v)
                elif r < 0.6:
                    terms.append(num(rng.randint(-3, 3)))
                else:
                    op = rng.choice("+-")
                    terms.append(Arith(op, v, num(rng.randint(0, 2))))
            got = may_share_instance(tuple(pattern), tuple(terms))
            want = self.oracle(tuple(pattern), tuple(terms), values)
            # One-variable +/- equations always solve within the enumeration
            # window here, so the oracle is exact on this family.
            assert got == want
            hits += want
            misses += not want
        assert hits > 20 and misses > 20


def _vars(t):
    from modasp.terms import variables_of

    return variables_of(t)
