"""Reachable grounding: `ground_reachable` keeps, for each program, exactly
the instances of its `ground` whose positive body lies in the least model of
the instances of all the programs plus the seeds, and the union engines
built on it keep their answers."""

import random
from pathlib import Path

import pytest

from modasp.engine import (
    CompiledParts,
    Interpretation,
    _search,
    enumerate_kappa_stable,
    extensional_region,
    least_model,
)
from modasp.errors import ModaspError, SafetyError, SortError
from modasp.grounding import (
    Domain,
    GroundProgram,
    GroundRule,
    ground,
    ground_reachable,
)
from modasp.instantiation import (
    Module,
    ModularProgram,
    collective_union,
    global_statement,
)
from modasp.intensionality import IntensionalityStatement, lambda_holds
from modasp.modular import union_program
from modasp.parsing import parse_control, parse_program
from modasp.program import Literal, PredAtom, Program, Rule, atom_order_key, make_rule
from modasp.terms import Arith, Func, Numeral, Sort, SymbolicConstant, Variable

FIXTURES = Path(__file__).parent / "fixtures"


def num(n):
    return Numeral(n)


def atom(name, *args):
    return PredAtom(name, tuple(num(a) if isinstance(a, int) else a for a in args))


def rules(text):
    return parse_program(text).subprogram("base")


def by_text(rules):
    """The ground rules in text order, duplicates kept: `ground_reachable`
    promises the instances, not their order."""
    return sorted(rules, key=str)


def oracle(programs, dom, seeds):
    """The contract: for each program, the instances of its full grounding
    whose positive body lies in the least model of the instances of all
    the programs plus the seeds as facts, in text order."""
    full = [ground(pi, dom) for pi in programs]
    facts = [GroundRule(a) for a in seeds]
    reach = least_model([r for gp in full for r in gp.rules] + facts)
    return [by_text(r for r in gp.rules if set(r.pos) <= reach) for gp in full]


def reachable_by_text(programs, dom, seeds):
    """`ground_reachable`, each program's instances in text order."""
    return [by_text(gp.rules) for gp in ground_reachable(programs, dom, seeds)]


def assert_contract(pi, dom, seeds):
    """Check the contract on one program; returns its instances in text
    order."""
    got = reachable_by_text([pi], dom, seeds)
    assert got == oracle([pi], dom, seeds)
    return GroundProgram(tuple(got[0]))


def region_of(kappa, pi, dom):
    preds = set(pi.signature().predicates) | set(kappa.predicates())
    return extensional_region(kappa, preds, dom)


# --- random non-ground programs ------------------------------------------------


def _term(rng, names):
    """A body or head argument over the rule's variables."""
    v = Variable(rng.choice(names))
    r = rng.random()
    if r < 0.35:
        return v
    if r < 0.5:
        return num(rng.randint(-1, 3))
    if r < 0.6:
        return Func("f", (v,))
    op = rng.choice("+-*")
    if rng.random() < 0.2:
        return Arith(op, v, v)  # repeated variable: N+N, N-N, N*N
    c = num(rng.randint(0, 2))
    return Arith(op, v, c) if rng.random() < 0.7 else Arith(op, c, v)


def random_rule_program(rng):
    """Up to five rules over p/1, q/2 and r/1 with arithmetic, function
    terms and negation; heads stay free of function terms over arithmetic."""
    preds = (("p", 1), ("q", 2), ("r", 1))
    out = []
    for _ in range(rng.randint(1, 5)):
        names = rng.sample(("N", "M", "K"), rng.randint(1, 2))
        body = []
        for _ in range(rng.randint(0, 3)):
            name, arity = rng.choice(preds)
            args = tuple(_term(rng, names) for _ in range(arity))
            body.append(Literal(PredAtom(name, args), rng.choice((0, 0, 0, 1, 2))))
        head = None
        if rng.random() > 0.15:
            name, arity = rng.choice(preds)
            args = []
            for _ in range(arity):
                t = _term(rng, names)
                if isinstance(t, Func):
                    t = t.args[0]
                args.append(t)
            head = PredAtom(name, tuple(args))
        if head is None and not body:
            continue
        rule = make_rule(head, body)
        try:
            ground(Program.of([rule]), Domain(0, 1))
        except ModaspError:
            continue  # unsafe: a general variable outside the positive body
        out.append(rule)
    return Program.of(out)


def _ground_atom(rng):
    """A variable-free atom over p/1, q/2 and t/0; its arguments may fall
    outside 0..3, be a sum of numerals or the constant a."""
    name, arity = rng.choice((("p", 1), ("q", 2), ("t", 0)))
    args = []
    for _ in range(arity):
        r = rng.random()
        if r < 0.7:
            args.append(str(rng.randint(-1, 4)))
        elif r < 0.85:
            args.append(f"{rng.randint(0, 2)}+{rng.randint(0, 2)}")
        else:
            args.append("a")
    return f"{name}({','.join(args)})" if args else name


def random_variable_free_program(rng):
    """Up to eight variable-free rules with negation, double negation and
    comparisons that may be false."""
    out = []
    for _ in range(rng.randint(1, 8)):
        body = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.2:
                rel = rng.choice(("=", "!=", "<", ">="))
                comparison = f"{rng.randint(0, 3)} {rel} {rng.randint(0, 3)}"
                body.append(rng.choice(("", "not ")) + comparison)
            else:
                body.append(rng.choice(("", "", "", "not ", "not not ")) + _ground_atom(rng))
        head = _ground_atom(rng) if not body or rng.random() > 0.15 else ""
        out.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return rules("\n".join(out))


class TestContract:
    def test_random_ground_instances(self):
        import randprog

        rng = random.Random(11)
        for _ in range(80):
            kappa, pi, dom = randprog.random_ground_instance(rng)
            assert_contract(pi, dom, region_of(kappa, pi, dom))

    def test_random_coherent_unions(self):
        import randprog

        rng = random.Random(12)
        for _ in range(60):
            P, dom = randprog.random_coherent_program(rng)
            union = union_program(P)
            assert_contract(union, dom, region_of(P.kappa, union, dom))

    def test_random_rule_programs(self):
        rng = random.Random(13)
        dom = Domain(0, 3)
        nonempty = 0
        for _ in range(150):
            pi = random_rule_program(rng)
            seeds = {
                atom(name, *(rng.randint(0, 3) for _ in range(arity)))
                for name, arity in (("p", 1), ("q", 2), ("r", 1))
                for _ in range(rng.randint(0, 2))
            }
            got = assert_contract(pi, dom, seeds)
            nonempty += bool(got.rules)
        assert nonempty > 50

    def test_random_module_lists(self):
        # One call for all modules: each keeps its own instances, over the
        # one derived set of them all.
        import randprog

        rng = random.Random(16)
        shared = 0
        for _ in range(80):
            P, dom = randprog.random_coherent_program(rng)
            programs = [m.pi for m in P.modules]
            region = sorted(region_of(P.kappa, union_program(P), dom), key=str)
            seeds = rng.sample(region, len(region) // 2)
            expected = oracle(programs, dom, seeds)
            assert reachable_by_text(programs, dom, seeds) == expected
            alone = [reachable_by_text([pi], dom, seeds)[0] for pi in programs]
            shared += alone != expected
        assert shared > 5

    def test_random_variable_free_programs(self):
        # Variable-free rules are evaluated once and wait for their positive
        # atoms; out-of-domain atoms and false comparisons drop the rule.
        rng = random.Random(17)
        dropped = nonempty = 0
        for _ in range(200):
            pi = random_variable_free_program(rng)
            extra = {SymbolicConstant("a")} if rng.random() < 0.5 else set()
            dom = Domain(0, 3, frozenset(extra))
            seeds = {atom("p", rng.randint(0, 3)) for _ in range(rng.randint(0, 2))}
            got = assert_contract(pi, dom, seeds)
            nonempty += bool(got.rules)
            dropped += len(ground(pi, dom).rules) < len(pi.rules)
            half = len(pi.rules) // 2
            programs = [Program(pi.rules[:half]), Program(pi.rules[half:])]
            expected = oracle(programs, dom, seeds)
            assert reachable_by_text(programs, dom, seeds) == expected
        assert nonempty > 100
        assert dropped > 50

    def test_fixture_unions(self):
        loaded = 0
        for lp in sorted(FIXTURES.glob("*.lp")):
            for ctl in sorted(FIXTURES.glob("*.ctl")):
                prog = parse_program(lp.read_text(encoding="utf-8"))
                consts = {"n": 3} if ctl.name.startswith("property") else {}
                try:
                    plan = parse_control(ctl.read_text(encoding="utf-8"), prog, consts)
                except ModaspError:
                    continue  # the control file uses subprograms lp lacks
                union = collective_union(prog, plan.specs)
                dom = Domain.build([union], *plan.domain)
                kappa = global_statement(plan, union.signature().predicates)
                assert_contract(union, dom, region_of(kappa, union, dom))
                loaded += 1
        assert loaded == 10

    def test_property_chain_grounds_linearly(self):
        prog = parse_program((FIXTURES / "property.lp").read_text(encoding="utf-8"))
        plan = parse_control(
            (FIXTURES / "property.ctl").read_text(encoding="utf-8"), prog, {"n": 400}
        )
        union = collective_union(prog, plan.specs)
        (gp,) = ground_reachable([union], Domain.build([union], *plan.domain), ())
        assert len(gp.rules) == 401


class TestHandCases:
    def test_repeated_variable_left_unbound(self):
        # p(N+N) cannot be solved for N by inversion; N runs over 0..3 and
        # the instances whose body atom is derived stay.
        pi = rules("r(N) :- p(N+N).")
        gp = assert_contract(pi, Domain(0, 3), {atom("p", 2), atom("p", 3)})
        assert [str(r) for r in gp.rules] == ["r(1) :- p(2)."]

    def test_zero_coefficient_left_unbound(self):
        pi = rules("r(N) :- p(0*N).")
        gp = assert_contract(pi, Domain(0, 2), {atom("p", 0)})
        assert [str(r) for r in gp.rules] == [
            "r(0) :- p(0).",
            "r(1) :- p(0).",
            "r(2) :- p(0).",
        ]

    def test_arithmetic_inverted(self):
        pi = rules("r(N) :- p(2*N-1). s(N) :- p(3-N).")
        gp = assert_contract(pi, Domain(0, 3), {atom("p", 3), atom("p", 2)})
        assert [str(r) for r in gp.rules] == [
            "r(2) :- p(3).",
            "s(0) :- p(3).",
            "s(1) :- p(2).",
        ]

    def test_empty_positive_body_grounds_fully(self):
        pi = rules("p(X+1) :- not r(X).")
        gp = assert_contract(pi, Domain(0, 1), ())
        assert [str(r) for r in gp.rules] == ["p(1) :- not r(0)."]

    def test_constraint_kept_only_when_reachable(self):
        pi = rules("q(0). :- q(X), p(X). :- q(X).")
        gp = assert_contract(pi, Domain(0, 1), ())
        assert [str(r) for r in gp.rules] == [":- q(0).", "q(0)."]

    def test_double_negation(self):
        pi = rules("q(0). p(X) :- q(X), not not r(X). s(X) :- r(X), not not q(X).")
        gp = assert_contract(pi, Domain(0, 1), ())
        assert [str(r) for r in gp.rules] == ["p(0) :- q(0), not not r(0).", "q(0)."]

    def test_function_terms(self):
        pi = rules("p(f(0)). q(X) :- p(f(X)). r(X) :- q(X), p(f(g(X))).")
        dom = Domain.build([pi], 0, 1)
        gp = assert_contract(pi, dom, ())
        assert [str(r) for r in gp.rules] == ["p(f(0)).", "q(0) :- p(f(0))."]

    def test_atoms_outside_the_domain(self):
        # q(N+1) for N=2 and the seed p(5) lie outside 0..2.
        pi = rules("p(0). p(N+1) :- p(N). r(X) :- p(X).")
        gp = assert_contract(pi, Domain(0, 2), {atom("p", 5)})
        assert [str(r) for r in gp.rules] == [
            "p(0).",
            "p(1) :- p(0).",
            "p(2) :- p(1).",
            "r(0) :- p(0).",
            "r(1) :- p(1).",
            "r(2) :- p(2).",
        ]

    def test_values_outside_the_variable_pools(self):
        # `ground` gives N only 0..1 and X only domain terms: neither the
        # numeral 5 nor the constant a inside f(a) may bind them.
        a, f, g = SymbolicConstant("a"), "f", "g"
        dom = Domain(0, 1, frozenset({num(5), Func(f, (a,)), Func(g, (a,))}))
        pi = rules("r(N+0) :- p(N). q(g(X)) :- p(f(X)).")
        gp = assert_contract(pi, dom, {atom("p", 5), atom("p", Func(f, (a,)))})
        assert gp.rules == ()

    def test_unevaluable_arithmetic_fails_as_in_ground(self):
        # No p atom is derivable, but `ground` evaluates N+a and fails.
        pi = rules("r(N) :- p(N+a).")
        with pytest.raises(SortError):
            ground(pi, Domain(0, 1))
        with pytest.raises(SortError):
            ground_reachable([pi], Domain(0, 1), ())

    def test_unevaluable_arithmetic_instantiated_as_in_ground(self):
        # A general variable in arithmetic (built without `make_rule`)
        # takes every domain term; the domain here holds numerals only.
        n = Variable("X")
        rule = Rule(atom("r", n), (Literal(atom("p", Arith("+", n, num(1)))),))
        dom = Domain(0, 1, frozenset({num(5), num(6)}))
        gp = assert_contract(Program.of([rule]), dom, {atom("p", 6), atom("p", 1)})
        assert [str(r) for r in gp.rules] == ["r(0) :- p(1).", "r(5) :- p(6)."]

    def test_variable_of_two_sorts_grounds_as_in_ground(self):
        # A variable integer in the head and general in the body (built
        # without `make_rule`) is not matched: the rule is grounded in full.
        head, body = Variable("X", Sort.INTEGER), Variable("X")
        rule = Rule(atom("r", head), (Literal(atom("p", body)),))
        dom = Domain(0, 1, frozenset({SymbolicConstant("a")}))
        seeds = {atom("p", 1), atom("p", SymbolicConstant("a"))}
        gp = assert_contract(Program.of([rule]), dom, seeds)
        assert [str(r) for r in gp.rules] == ["r(1) :- p(1).", "r(a) :- p(a)."]

    def test_variable_free_rules(self):
        # p(5) lies outside 0..3, and 1 > 2 is false; the repeated q(1) is
        # one atom to wait for.
        pi = rules(
            "q(1). p(5) :- q(1). r :- q(1), 1 > 2. s :- q(1), not 1 > 2. "
            "u :- q(1), q(1), not not q(2). v :- s, u. w :- q(3)."
        )
        gp = assert_contract(pi, Domain(0, 3), {atom("q", 2)})
        assert [str(r) for r in gp.rules] == [
            "q(1).", "s :- q(1).", "u :- q(1), not not q(2).", "v :- s, u."
        ]

    def test_long_variable_free_chain(self):
        n = 1500
        pi = rules("p(0). " + " ".join(f"p({i + 1}) :- p({i})." for i in range(n)))
        (gp,) = ground_reachable([pi], Domain(0, n), ())
        assert len(gp.rules) == n + 1

    def test_unsafe_general_variable_rejected(self):
        pi = rules("p(X) :- not r(X).")
        with pytest.raises(SafetyError, match="X"):
            ground_reachable([pi], Domain(0, 1), ())


class TestUnionEngines:
    def test_brute_matches_full_grounding(self):
        import randprog

        rng = random.Random(14)
        for _ in range(60):
            kappa, pi, dom = randprog.random_ground_instance(rng)
            gp = ground(pi, dom)
            region = region_of(kappa, pi, dom)
            base = sorted(gp.heads() | region, key=atom_order_key)
            one = ModularProgram(kappa, (Module(kappa, pi),))
            extensional = [atom for atom in base if not lambda_holds(kappa, atom)]
            compiled = CompiledParts(base, one, [gp.rules], extensional)
            parts, free = compiled.split
            masks = _search(compiled.full, parts, free & compiled.ext_masks[0], "brute")
            expected = set(compiled.ordered(masks).values())
            assert enumerate_kappa_stable(kappa, pi, dom, "brute") == expected

    def test_cap_counts_reachable_base(self):
        # q(X,1) and q(X,2) for X in 0..3 are heads, but only q(0,*) is
        # reachable from q(0,0): a 3-atom base under cap 3.
        pi = rules("q(0,0). q(X,1) :- q(X,0). q(X,2) :- q(X,1).")
        kappa = IntensionalityStatement.purely_intensional([("q", 2)])
        (model,) = enumerate_kappa_stable(kappa, pi, Domain(0, 3), "reduct", cap=3)
        assert str(model) == "q(0,0) q(0,1) q(0,2)"

    def test_fixpoint_ignores_unreachable_negation(self):
        pi = rules("q(0). p(X) :- r(X), not q(X).")
        kappa = IntensionalityStatement.purely_intensional([("p", 1), ("q", 1), ("r", 1)])
        (model,) = enumerate_kappa_stable(kappa, pi, Domain(0, 1), "fixpoint")
        assert str(model) == "q(0)"

    def test_fixpoint_equals_least_model_of_full_grounding(self):
        # `fixpoint` reads the least model off the reachable grounding; it
        # must equal the least model of every instance, and a constraint
        # whose positive body lies in it must reject it.
        rng = random.Random(15)
        dom = Domain(0, 3)
        checked = models = 0
        for _ in range(400):
            pi = random_rule_program(rng)
            if any(lit.negations for rule in pi.rules for lit in rule.body):
                continue
            kappa = IntensionalityStatement.purely_intensional(
                pi.signature().predicates
            )
            full = ground(pi, dom)
            lm = least_model(full.rules)
            rejected = any(r.head is None and set(r.pos) <= lm for r in full.rules)
            expected = frozenset() if rejected else frozenset({Interpretation(lm)})
            assert enumerate_kappa_stable(kappa, pi, dom, "fixpoint") == expected
            checked += 1
            models += len(expected)
        assert checked > 100 and 0 < models < checked
