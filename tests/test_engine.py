"""Grounding, HT satisfaction, stability checking and enumeration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from modasp.engine import (
    CompiledParts,
    HTInterpretation,
    StabilityChecker,
    Interpretation,
    _compile,
    _output_order,
    _search,
    _solve,
    _split,
    check_support,
    classical_satisfies,
    enumerate_kappa_stable,
    extensional_region,
    ht_satisfies,
    is_kappa_stable,
    least_model,
)
from modasp.errors import (
    CapacityError,
    DomainError,
    EngineError,
    NotIntensionalError,
    SafetyError,
)
from modasp.grounding import Domain, GroundRule, ground
from modasp.instantiation import (
    Module,
    ModularProgram,
    collective_modular,
    collective_union,
    global_statement,
)
from modasp.intensionality import IntensionalityStatement, PatternIndex, lambda_holds
from modasp.modular import dependency_graph, modular_answer_sets
from modasp.parsing import parse_control, parse_program
from modasp.program import (
    Comparison,
    Literal,
    PredAtom,
    Program,
    atom_order_key,
    make_rule,
)
from modasp.terms import Numeral, SymbolicConstant, Variable

Q = ("q", 2)


def num(n):
    return Numeral(n)


def var(name):
    return Variable(name)


def q(a, b):
    return PredAtom("q", (num(a), num(b)))


def interp(*atoms):
    return Interpretation.of(atoms)


def gamma1():
    # q(X,1) :- q(X,0).  q(X,2) :- q(X,1).
    return parse_program("q(X,1) :- q(X,0). q(X,2) :- q(X,1).").subprogram("base")


def kappa1():
    return IntensionalityStatement.of({Q: [(var("X"), num(1)), (var("X"), num(2))]})


def kappa_int():
    return IntensionalityStatement.purely_intensional([Q])


class TestDomain:
    def test_contains_interval_numerals(self):
        dom = Domain(0, 3)
        assert num(2) in dom and num(4) not in dom

    def test_build_collects_program_terms(self):
        prog = parse_program("p(a, f(1)). q(X) :- p(X, f(1)).").subprogram("base")
        dom = Domain.build([prog], 0, 2)
        assert SymbolicConstant("a") in dom
        from modasp.terms import Func

        assert Func("f", (num(1),)) in dom

    def test_reversed_interval_rejected(self):
        from modasp.errors import RangeError

        with pytest.raises(RangeError):
            Domain(3, 1)


class TestGround:
    def test_hand_grounding_with_truncation(self):
        # q(N,1) :- q(N-1,0) over 0..2: the N=0 instance mentions q(-1,0),
        # which lies outside the domain, so it is dropped.
        pi = parse_program("q(N,1) :- q(N-1,0).").subprogram("base")
        gp = ground(pi, Domain(0, 2))
        expected = {
            GroundRule(q(1, 1), (q(0, 0),)),
            GroundRule(q(2, 1), (q(1, 0),)),
        }
        assert set(gp.rules) == expected

    def test_fact_grounds_to_itself(self):
        pi = parse_program("q(0,0).").subprogram("base")
        gp = ground(pi, Domain(0, 2))
        assert set(gp.rules) == {GroundRule(q(0, 0))}

    def test_comparison_restricts_instances(self):
        pi = parse_program("p(X) :- q(X,0), X < 1.").subprogram("base")
        gp = ground(pi, Domain(0, 2))
        assert set(gp.rules) == {
            GroundRule(PredAtom("p", (num(0),)), (q(0, 0),))
        }

    def test_head_outside_domain_dropped(self):
        # Over 0..1: N=0 has body q(-1,0) outside, N=1 has head q(1,2) outside.
        pi = parse_program("q(N,N+1) :- q(N-1,N).").subprogram("base")
        gp = ground(pi, Domain(0, 1))
        assert gp.rules == ()

    def test_negated_out_of_domain_literal_is_true(self):
        pi = parse_program("p(0) :- not q(5,5).").subprogram("base")
        gp = ground(pi, Domain(0, 1))
        assert set(gp.rules) == {GroundRule(PredAtom("p", (num(0),)))}

    def test_unsafe_general_variable_rejected(self):
        pi = parse_program("p(X) :- not r(X).").subprogram("base")
        with pytest.raises(SafetyError, match="X"):
            ground(pi, Domain(0, 1))

    def test_integer_variables_are_domain_bounded(self):
        pi = parse_program("p(X+1) :- not r(X).").subprogram("base")
        gp = ground(pi, Domain(0, 1))
        assert len(gp.rules) == 1  # X=0 gives p(1); X=1's head p(2) is outside


class TestHTSatisfaction:
    def test_atom_requires_here_world(self):
        hi = HTInterpretation.of([], interp(q(0, 0)))
        assert not ht_satisfies(hi, q(0, 0))

    def test_classical_model_gives_ht_model(self):
        I = interp(q(0, 0), q(0, 1))
        rule = parse_program("q(0,1) :- q(0,0).").subprogram("base").rules[0]
        assert classical_satisfies(I, rule)
        assert ht_satisfies(HTInterpretation.of(I.atoms, I), rule)

    def test_there_condition_fails(self):
        # <{}, {q(0,0)}> does not satisfy q(0,0) -> q(0,1): the there-world
        # violates the implication classically.
        hi = HTInterpretation.of([], interp(q(0, 0)))
        rule = parse_program("q(0,1) :- q(0,0).").subprogram("base").rules[0]
        assert not classical_satisfies(interp(q(0, 0)), rule)
        assert not ht_satisfies(hi, rule)

    def test_persistence_on_random_ground_rules(self):
        rng = random.Random(3)
        atoms = [q(i, j) for i in range(2) for j in range(2)]
        for _ in range(300):
            there = frozenset(a for a in atoms if rng.random() < 0.5)
            here = frozenset(a for a in there if rng.random() < 0.6)
            hi = HTInterpretation.of(here, Interpretation(there))
            body = [
                Literal(rng.choice(atoms), rng.randint(0, 2))
                for _ in range(rng.randint(0, 2))
            ]
            head = rng.choice([None] + atoms)
            rule = make_rule(head, body)
            if ht_satisfies(hi, rule):
                assert classical_satisfies(Interpretation(there), rule)

    def test_non_ground_rule_expands_over_domain(self):
        rule = parse_program("q(X,1) :- q(X,0).").subprogram("base").rules[0]
        I = interp(q(0, 0), q(0, 1))
        hi = HTInterpretation.of(I.atoms, I)
        assert ht_satisfies(hi, rule, Domain(0, 1))
        bad = interp(q(0, 0))
        assert not ht_satisfies(HTInterpretation.of(bad.atoms, bad), rule, Domain(0, 1))

    def test_whole_program_expands_rulewise(self):
        pi = gamma1()
        I = interp(q(0, 0), q(0, 1), q(0, 2))
        assert classical_satisfies(I, pi, Domain(0, 2))
        assert ht_satisfies(HTInterpretation.of(I.atoms, I), pi, Domain(0, 2))
        assert not classical_satisfies(interp(q(0, 0)), pi, Domain(0, 2))


class TestExtensionalRegion:
    def test_kappa1_region(self):
        region = extensional_region(kappa1(), [Q], Domain(0, 1))
        assert region == frozenset({q(0, 0), q(1, 0)})

    def test_purely_intensional_is_empty(self):
        assert extensional_region(kappa_int(), [Q], Domain(0, 3)) == frozenset()


class TestIsKappaStable:
    @pytest.mark.parametrize("engine", ["brute", "reduct"])
    def test_free_atom_model_accepted(self, engine):
        assert is_kappa_stable(interp(q(1, 3)), kappa1(), gamma1(), Domain(0, 3), engine)

    @pytest.mark.parametrize("engine", ["brute", "reduct"])
    def test_chain_model_accepted(self, engine):
        I = interp(q(0, 0), q(0, 1), q(0, 2))
        assert is_kappa_stable(I, kappa1(), gamma1(), Domain(0, 3), engine)

    @pytest.mark.parametrize("engine", ["brute", "reduct"])
    def test_underivable_intensional_atom_rejected(self, engine):
        assert not is_kappa_stable(
            interp(q(0, 1)), kappa1(), gamma1(), Domain(0, 3), engine
        )

    def test_atom_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            is_kappa_stable(interp(q(9, 9)), kappa1(), gamma1(), Domain(0, 3))

    def test_classical_failure_rejected(self):
        # q(0,0) true but q(0,1) false violates the first rule classically.
        assert not is_kappa_stable(
            interp(q(0, 0)), kappa1(), gamma1(), Domain(0, 3)
        )


class TestEnumerate:
    def test_gamma1_enumeration_includes_and_excludes(self):
        models = enumerate_kappa_stable(kappa1(), gamma1(), Domain(0, 3), "reduct")
        assert interp(q(1, 3)) in models
        assert interp(q(0, 0), q(0, 1), q(0, 2)) in models
        assert interp(q(0, 1)) not in models

    def test_empty_program_purely_intensional(self):
        models = enumerate_kappa_stable(
            kappa_int(), Program.of(()), Domain(0, 2), "reduct"
        )
        assert models == frozenset({Interpretation(frozenset())})

    def test_brute_and_reduct_agree_on_gamma1_small(self):
        dom = Domain(0, 1)
        brute = enumerate_kappa_stable(kappa1(), gamma1(), dom, "brute")
        reduct = enumerate_kappa_stable(kappa1(), gamma1(), dom, "reduct")
        assert brute == reduct

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            enumerate_kappa_stable(kappa1(), gamma1(), Domain(0, 3), "brute", cap=4)

    def test_fixpoint_property_program(self):
        text = "q(0,0)." + "".join(
            f"q(N,{k}+1) :- q(N-1,{k})." for k in range(100)
        )
        pi = parse_program(text).subprogram("base")
        models = enumerate_kappa_stable(kappa_int(), pi, Domain(0, 100), "fixpoint")
        (model,) = models
        assert model == interp(*[q(i, i) for i in range(101)])

    def test_fixpoint_rejects_negation(self):
        pi = parse_program("p(0) :- not q(0,0).").subprogram("base")
        kappa = IntensionalityStatement.purely_intensional([("p", 1), Q])
        with pytest.raises(EngineError):
            enumerate_kappa_stable(kappa, pi, Domain(0, 1), "fixpoint")

    def test_fixpoint_rejects_extensional_region(self):
        with pytest.raises(EngineError):
            enumerate_kappa_stable(kappa1(), gamma1(), Domain(0, 1), "fixpoint")

    def test_fixpoint_constraint_rejects_least_model(self):
        pi = parse_program("q(0,0). :- q(0,0).").subprogram("base")
        assert enumerate_kappa_stable(kappa_int(), pi, Domain(0, 1), "fixpoint") == (
            frozenset()
        )

    def test_monotone_fixpoint_matches_reduct(self):
        pi = parse_program("q(0,0). q(N,1) :- q(N-1,0).").subprogram("base")
        dom = Domain(0, 2)
        assert enumerate_kappa_stable(kappa_int(), pi, dom, "fixpoint") == (
            enumerate_kappa_stable(kappa_int(), pi, dom, "reduct")
        )


class TestChoiceSoundness:
    def test_flipping_extensional_atoms_tracks_reduct(self):
        dom = Domain(0, 1)
        models = enumerate_kappa_stable(kappa1(), gamma1(), dom, "brute")
        region = extensional_region(kappa1(), [Q], dom)
        for model in models:
            for atom in region:
                flipped = Interpretation(model.atoms ^ {atom})
                by_brute = is_kappa_stable(flipped, kappa1(), gamma1(), dom, "brute")
                by_reduct = is_kappa_stable(flipped, kappa1(), gamma1(), dom, "reduct")
                assert by_brute == by_reduct
                assert by_brute == (flipped in models)


class TestReferenceAgreement:
    def _reference_stable(self, I, kappa, gp):
        """Literal stability: classical satisfaction of every ground rule,
        then no proper here-world subset that satisfies all rules under the
        two-world semantics while keeping every true extensional atom (the
        instantiated choice axiom for such an atom forces it into the
        here-world; all other instances hold vacuously)."""
        from modasp.intensionality import lambda_holds

        rules = [r.as_rule() for r in gp.rules]
        if not all(classical_satisfies(I, r) for r in rules):
            return False
        ext = [a for a in I.atoms if not lambda_holds(kappa, a)]
        atoms = sorted(I.atoms, key=str)
        for bits in range((1 << len(atoms)) - 1):
            here = frozenset(a for i, a in enumerate(atoms) if bits & (1 << i))
            if not all(a in here for a in ext):
                continue
            hi = HTInterpretation.of(here, I)
            if all(ht_satisfies(hi, r) for r in rules):
                return False
        return True

    def test_compiled_checker_matches_literal_evaluation(self):
        import randprog

        rng = random.Random(41)
        compared = 0
        for _ in range(60):
            kappa, pi, dom = randprog.random_ground_instance(rng)
            gp = ground(pi, dom)
            base = sorted(
                gp.heads()
                | extensional_region(kappa, pi.signature().predicates, dom),
                key=str,
            )
            candidates = [
                Interpretation.of(a for a in base if rng.random() < 0.4)
                for _ in range(12)
            ]
            candidates += list(enumerate_kappa_stable(kappa, pi, dom, "reduct"))
            for I in candidates:
                if len(I) > 8:
                    continue
                want = self._reference_stable(I, kappa, gp)
                assert is_kappa_stable(I, kappa, pi, dom, "brute") == want
                assert is_kappa_stable(I, kappa, pi, dom, "reduct") == want
                compared += 1
        assert compared > 200


def _search_checkers(mask, checkers, engine):
    """The search of `checkers` over `mask` as `_solve` runs it: one
    `_split` of their tables over `mask`, then `_search` with the atoms
    that no rule mentions and every checker holds extensional."""
    tables = [c.compiled for c in checkers]
    ext_masks = [c.ext_mask for c in checkers]
    parts, free = _split(mask, tables, ext_masks, mask)
    for ext_mask in ext_masks:
        free &= ext_mask
    return _search(mask, parts, free, engine)


def _sweep(mask, checkers, engine):
    """The reference for `_search`: every subset of `mask` that all
    `checkers` accept (`check`), found by trying all of `range(1 << n)`."""
    return {
        T
        for T in range(1 << mask.bit_length())
        if not T & ~mask and all(c.check(T, engine) for c in checkers)
    }


def _compiled_parts(universe, kappa, parts):
    """`CompiledParts` of the program under `kappa` with one module per
    part `(ground rules, statement)`, given `kappa`'s extensional atoms by
    `lambda_holds`."""
    P = ModularProgram(kappa, tuple(Module(st, Program.of(())) for _, st in parts))
    region = [atom for atom in universe if not lambda_holds(kappa, atom)]
    return CompiledParts(universe, P, [rules for rules, _ in parts], region)


def _full_base(grounded, region, cap=24):
    """Every head of the full groundings `grounded` plus the extensional
    region, sorted; refuses more than `cap` atoms, as the solvers do."""
    atoms = set(region).union(*(gp.heads() for gp in grounded))
    if len(atoms) > cap:
        raise CapacityError(f"{len(atoms)} atoms (cap {cap})")
    return sorted(atoms, key=atom_order_key)


def _modular_parts(P, dom, cap=24):
    """The compiled modules of `P`, each ground in full, over the heads of
    those groundings plus the extensional region."""
    grounded = [ground(m.pi, dom) for m in P.modules]
    region = extensional_region(P.kappa, P.signature().predicates, dom)
    return _compiled_parts(
        _full_base(grounded, region, cap),
        P.kappa,
        [(gp.rules, m.kappa) for gp, m in zip(grounded, P.modules)],
    )


def _pattern_parts(rng, wanted, max_base=12):
    """Compiled modules of mostly incoherent `random_pattern_program`s whose
    relevant base has at most `max_base` atoms; unsafe draws are skipped."""
    import randprog

    out = []
    while len(out) < wanted:
        P = randprog.random_pattern_program(rng)
        dom = Domain.build([m.pi for m in P.modules], 0, 1)
        try:
            out.append(_modular_parts(P, dom, max_base))
        except (CapacityError, SafetyError):
            continue
    return out


def _hand_checker(rules, universe, intensional):
    """One checker over `universe` for ground `rules`; the atoms of
    `intensional` form its region."""
    kappa = IntensionalityStatement.of(
        {(a.name, len(a.args)): [a.args] for a in intensional}
    )
    (checker,) = _compiled_parts(universe, kappa, [(rules, kappa)]).checkers
    return checker


def _loop_parts(rng):
    """One or two compiled parts of a random ground program over `a(0..n-1)`
    in which each part's region holds a positive loop, entered from outside
    it by a rule that may be blocked; the other rules are random, with
    negation, double negation and constraints."""
    atoms = [PredAtom("a", (num(i),)) for i in range(rng.randint(5, 8))]

    def statement(region):
        return IntensionalityStatement.of({("a", 1): [a.args for a in region]})

    def some(k):
        return tuple(rng.sample(atoms, rng.randint(0, k)))

    parts = []
    for _ in range(rng.randint(1, 2)):
        region = rng.sample(atoms, rng.randint(2, len(atoms) - 2))
        loop = region[: rng.randint(2, min(3, len(region)))]
        rules = [
            GroundRule(head, (body,) + (some(1) if rng.random() < 0.3 else ()))
            for head, body in zip(loop, loop[1:] + loop[:1])
        ]
        entry = rng.choice([a for a in atoms if a not in loop])
        rules.append(GroundRule(rng.choice(loop), (entry,), some(1)))
        for _ in range(rng.randint(2, 4)):
            head = None if rng.random() < 0.1 else rng.choice(atoms)
            negneg = some(1) if rng.random() < 0.3 else ()
            rules.append(GroundRule(head, some(2), some(1), negneg))
        parts.append((rules, statement(region)))
    intensional = {a for _, st in parts for a in atoms if lambda_holds(st, a)}
    undefined = [a for a in atoms if a not in intensional]
    if undefined and rng.random() < 0.5:
        # A globally intensional atom that no part defines is never true.
        intensional.add(undefined[0])
    return _compiled_parts(atoms, statement(intensional), parts)


def _split_parts(rng):
    """One or two compiled parts of a random ground program over `a(0..n-1)`
    whose rules fall into up to three groups of atoms that share no rule,
    and a block mask that leaves up to two atoms out; with a flag that
    tells whether a rule of the empty part always fires.

    Some atoms of the mask lie in no rule: each is extensional in every
    part (a choice) or in some part's region (false).  The empty part
    holds the rules that touch no atom of the mask: `:- not b.`, with `b`
    outside the index, and a rule whose negated atom lies outside the mask
    always fire; a constraint on an atom outside the mask never does."""
    atoms = [PredAtom("a", (num(i),)) for i in range(rng.randint(5, 9))]
    outside = rng.sample(atoms, rng.randint(0, 2))
    inside = [a for a in atoms if a not in outside]
    rng.shuffle(inside)
    ruled = inside[rng.randint(0, 2) :]
    groups = [ruled[i::3] for i in range(rng.randint(1, 3))]

    def statement(region):
        return IntensionalityStatement.of({("a", 1): [a.args for a in region]})

    def some(group, k):
        return tuple(rng.sample(group, rng.randint(0, min(k, len(group)))))

    fires = rng.random() < 0.2
    parts = []
    for _ in range(rng.randint(1, 2)):
        rules = []
        for group in filter(None, groups):
            for _ in range(rng.randint(1, 3)):
                head = rng.choice(group)
                negneg = some(group, 1) if rng.random() < 0.3 else ()
                rules.append(GroundRule(head, some(group, 2), some(group, 1), negneg))
            body = some(group, 2), some(group, 1)
            if any(body) and rng.random() < 0.5:
                rules.append(GroundRule(None, *body))
        if fires and outside:
            rules.append(GroundRule(rng.choice([None, *outside]), neg=(outside[0],)))
        elif fires:
            rules.append(GroundRule(None, neg=(PredAtom("b", ()),)))
        elif outside:
            rules.append(GroundRule(None, (outside[0],)))
        rng.shuffle(rules)
        region = [a for a in atoms if rng.random() < 0.4]
        parts.append((rules, statement(region)))
    intensional = {a for _, st in parts for a in atoms if lambda_holds(st, a)}
    compiled = _compiled_parts(atoms, statement(intensional), parts)
    mask = compiled.allowed
    for atom in outside:
        mask &= ~(1 << atoms.index(atom))
    return compiled, mask, fires


def _cross_module_program(rng):
    """Two or three modules that split the atoms `a(0..2)` between them and
    derive their own atoms from anyone's, so that positive loops often run
    through several modules; the rules are ground, with negation, double
    negation and constraints."""
    atoms = [PredAtom("a", (num(i),)) for i in range(3)]
    owners = [rng.randrange(rng.randint(2, 3)) for _ in atoms]
    modules = []
    for i in range(max(owners) + 1):
        own = [a for a, owner in zip(atoms, owners) if owner == i]
        rules = []
        for _ in range(rng.randint(1, 4)):
            body = [
                Literal(rng.choice(atoms), rng.choice((0, 0, 0, 1, 2)))
                for _ in range(rng.randint(0, 2))
            ]
            head = rng.choice(own) if own and rng.random() < 0.9 else None
            if head is not None or body:
                rules.append(make_rule(head, body))
        kappa = IntensionalityStatement.of({("a", 1): [a.args for a in own]})
        modules.append(Module(kappa, Program.of(rules)))
    global_kappa = IntensionalityStatement.purely_intensional([("a", 1)])
    return ModularProgram(global_kappa, tuple(modules))


P0, Q0 = PredAtom("p", ()), PredAtom("q", ())


class TestSearch:
    """`_search` propagates and branches; it must accept exactly what the
    subset walk over `check` accepts."""

    ENGINES = ("brute", "reduct")

    def test_blocks_match_plain_sweep(self):
        import randprog

        rng = random.Random(7)
        for _ in range(40):
            kappa, pi, dom = randprog.random_ground_instance(rng)
            gp = ground(pi, dom)
            region = extensional_region(kappa, pi.signature().predicates, dom)
            base = _full_base([gp], region)
            compiled = _compiled_parts(base, kappa, [(gp.rules, kappa)])
            (checker,) = compiled.checkers
            full = (1 << len(base)) - 1
            for engine in self.ENGINES:
                sweep = {
                    T for T in range(1 << len(base)) if checker.check(T, engine)
                }
                one_block = _search_checkers(full, [checker], engine)
                assert sorted(one_block) == sorted(sweep)

    def test_modular_parts_match_sweep(self):
        import randprog

        rng = random.Random(11)
        parts = [
            _modular_parts(*randprog.random_coherent_program(rng))
            for _ in range(25)
        ]
        parts += _pattern_parts(rng, 25)
        multi = 0
        for compiled in parts:
            block = compiled.allowed, compiled.checkers
            multi += len(compiled.checkers) > 1
            # As `_solve` searches: split over the whole base, searched over
            # `allowed`.
            split, free = compiled.split
            for ext_mask in compiled.ext_masks:
                free &= ext_mask
            for engine in self.ENGINES:
                swept = _sweep(*block, engine)
                for found in (
                    _search_checkers(*block, engine),
                    _search(compiled.allowed, split, free, engine),
                ):
                    assert len(found) == len(set(found))
                    assert set(found) == swept
        assert multi >= 20

    def test_rule_order_changes_nothing(self):
        # Grounding returns its instances in no promised order: over the
        # rules of every part reversed, `_search` finds the same masks in
        # the same order.
        import randprog

        rng = random.Random(41)
        cases = [randprog.random_coherent_program(rng) for _ in range(60)]
        while len(cases) < 120:
            kappa, pi, dom = randprog.random_ground_instance(rng)
            cases.append((ModularProgram(kappa, (Module(kappa, pi),)), dom))
        multi = several = 0
        for P, dom in cases:
            grounded = [ground(m.pi, dom) for m in P.modules]
            region = extensional_region(P.kappa, P.signature().predicates, dom)
            base = _full_base(grounded, region)
            orders = [
                _compiled_parts(
                    base,
                    P.kappa,
                    [(rules(gp.rules), m.kappa) for gp, m in zip(grounded, P.modules)],
                )
                for rules in (tuple, lambda rules: rules[::-1])
            ]
            multi += len(P.modules) > 1
            for engine in self.ENGINES:
                forward, backward = (
                    _search_checkers(c.allowed, c.checkers, engine) for c in orders
                )
                assert forward == backward
                several += len(forward) > 1
        assert multi >= 40 and several >= 40

    def test_reachable_modular_grounding_matches_full_sweep(self):
        # Modular solving grounds every module in one `ground_reachable`
        # call, seeded with the atoms of the module-spanning components; its
        # answer sets must be those of the sweep over the full groundings.
        import randprog

        rng = random.Random(19)
        cases = [randprog.random_coherent_program(rng, 10) for _ in range(40)]
        pattern = 0
        while pattern < 40:
            P = randprog.random_pattern_program(rng)
            dom = Domain.build([m.pi for m in P.modules], 0, 1)
            try:
                _modular_parts(P, dom, 10)
            except (CapacityError, SafetyError):
                continue
            cases.append((P, dom))
            pattern += 1
        cases += [(_cross_module_program(rng), Domain(0, 2)) for _ in range(40)]
        spanning = 0
        for P, dom in cases:
            spanning += bool(dependency_graph(P).spanning)
            compiled = _modular_parts(P, dom, 10)
            for engine in self.ENGINES:
                swept = _sweep(compiled.allowed, compiled.checkers, engine)
                expected = frozenset(compiled.ordered(swept).values())
                assert modular_answer_sets(P, dom, engine, 10) == expected
        assert spanning >= 10

    def test_positive_loops_match_sweep(self):
        rng = random.Random(29)
        multi = 0
        for _ in range(40):
            compiled = _loop_parts(rng)
            block = compiled.allowed, compiled.checkers
            multi += len(compiled.checkers) > 1
            for engine in self.ENGINES:
                found = _search_checkers(*block, engine)
                assert sorted(found) == sorted(_sweep(*block, engine))
        assert multi >= 10

    @pytest.mark.parametrize("engine", ENGINES)
    def test_self_loop_is_rejected_only_by_minimality(self, engine):
        # p :- p.  {p} is a classical model; only minimality rejects it.
        checker = _hand_checker([GroundRule(P0, (P0,))], [P0], [P0])
        assert checker.classical(1) and not checker.check(1, engine)
        assert _search_checkers(1, [checker], engine) == [0]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_double_negation_keeps_both(self, engine):
        # p :- not not p.  Both {} and {p} are stable.
        checker = _hand_checker([GroundRule(P0, negneg=(P0,))], [P0], [P0])
        assert sorted(_search_checkers(1, [checker], engine)) == [0, 1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_derived_atom_fires_its_double_negation(self, engine):
        # a :- b.  h :- not not a.  b :- not not b.  Over bits h, b, a the
        # search decides h false, then b true; the forward step derives a,
        # and only another round finds `h :- not not a` violated.  Without
        # it, `minimal_brute` would accept the non-model {a, b}.
        h, b, a = (PredAtom(name, ()) for name in "hba")
        rules = [
            GroundRule(a, (b,)), GroundRule(h, negneg=(a,)), GroundRule(b, negneg=(b,))
        ]
        checker = _hand_checker(rules, [h, b, a], [h, b, a])
        assert sorted(_search_checkers(0b111, [checker], engine)) == [0, 0b111]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_head_outside_index_is_a_constraint(self, engine):
        # q :- p.  over the universe {p}, p extensional: q is not indexed,
        # so the rule compiles to the constraint `:- p`, whose head is the
        # bit above the one atom of the index.
        checker = _hand_checker([GroundRule(Q0, (P0,))], [P0], [])
        assert checker.compiled == [(2, 1, 0, 0)]
        assert _search_checkers(1, [checker], engine) == [0]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_block_mask_checks_the_partial(self, engine):
        # p.  over {p}: with an empty mask only the empty candidate is
        # checked, and it fails.
        checker = _hand_checker([GroundRule(P0)], [P0], [P0])
        assert _search_checkers(0, [checker], engine) == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_block_without_checkers_keeps_every_subset(self, engine):
        assert sorted(_search_checkers(0b1011, [], engine)) == [
            0, 1, 2, 3, 8, 9, 10, 11,
        ]


def _components(mask, checkers):
    """The atom masks of the connected components of `mask` whose atoms
    share a rule of `checkers`, by merging rule masks."""
    components = []
    for c in checkers:
        for entry in c.compiled:
            joined = (entry[0] | entry[1] | entry[2] | entry[3]) & mask
            if joined:
                apart = [m for m in components if not m & joined]
                for m in components:
                    if m & joined:
                        joined |= m
                components = apart + [joined]
    return components


SPLIT_UNSAT = """
p(X) :- s(X).
a :- not b.
b :- not a.
:- a.
:- b.
"""


class TestSplit:
    """`_search` searches each component once and takes the product of the
    answers; the sweep over `check` with `brute` leaves, which calls no
    search, must find the same sets."""

    ENGINES = ("brute", "reduct")

    def test_components_match_brute_sweep(self):
        rng = random.Random(53)
        several = choice = own = empty = answered = 0
        for _ in range(300):
            compiled, mask, fires = _split_parts(rng)
            checkers = compiled.checkers
            swept = _sweep(mask, checkers, "brute")
            for engine in self.ENGINES:
                found = _search_checkers(mask, checkers, engine)
                assert len(found) == len(set(found))
                assert set(found) == swept
            components = _components(mask, checkers)
            free = mask
            for m in components:
                free &= ~m
            choices = free
            for c in checkers:
                choices &= c.ext_mask
            several += len(components) > 1
            choice += bool(choices)
            own += bool(free & ~choices)
            empty += fires and len(components) > 1
            answered += len(swept) > 1
        assert min(several, choice, own, answered) >= 60 and empty >= 20

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_part_removes_every_answer(self, engine):
        # p :- not not p.  q :- not not q.  Two components over the mask
        # {p, q}, each with two answers; r lies in the index but outside
        # the mask, b outside the index.  `:- not b.` and `:- not r.` always
        # fire, and so does `r :- not r.`; `:- r.` never does.
        p, q, r, b = (PredAtom(name, ()) for name in "pqrb")
        choose = [GroundRule(p, negneg=(p,)), GroundRule(q, negneg=(q,))]
        for empty, answers in [
            ((), [0, 1, 2, 3]),
            ((GroundRule(None, (r,)),), [0, 1, 2, 3]),
            ((GroundRule(None, neg=(b,)),), []),
            ((GroundRule(None, neg=(r,)),), []),
            ((GroundRule(r, neg=(r,)),), []),
        ]:
            for rules in (choose + list(empty), list(empty) + choose):
                checker = _hand_checker(rules, [p, q, r], [p, q, r])
                assert sorted(_search_checkers(0b011, [checker], engine)) == answers

    def test_split_unsat_propagations_grow_linearly(self, monkeypatch):
        # The core a, b has no answer set; each p(X), s(X) is a component of
        # its own.  One search over all of them doubles per domain value.
        import modasp.engine as engine_mod

        calls = [0]
        propagate = engine_mod._propagate

        def counted(*args):
            calls[0] += 1
            return propagate(*args)

        monkeypatch.setattr(engine_mod, "_propagate", counted)
        for hi in (3, 7, 11):
            kappa, union, modular, dom = _plan(
                SPLIT_UNSAT,
                f"domain 0..{hi}. intensional p(X). intensional a. intensional b.",
            )
            calls[0] = 0
            assert enumerate_kappa_stable(kappa, union, dom, "reduct", 100) == set()
            assert modular_answer_sets(modular, dom, "reduct", 100) == set()
            assert calls[0] <= 4 * (hi + 1)


class TestKappaRegion:
    """`_solve` hands `CompiledParts` the extensional region, so that the
    global statement is not looked up: every base atom outside the region
    is a head, and so intensional.  The masks must be those of a direct
    scan of the base with `lambda_holds`."""

    def test_region_masks_match_the_direct_scan(self, monkeypatch):
        import randprog

        def forbidden(*args):
            raise AssertionError("union solving looks up no pattern")

        rng = random.Random(61)
        union = modular = 0
        for _ in range(60):
            P, dom = randprog.random_coherent_program(rng)
            pi = Program.of(rule for m in P.modules for rule in m.pi.rules)
            one = ModularProgram(P.kappa, (Module(P.kappa, pi),))
            with monkeypatch.context() as patched:
                patched.setattr(PatternIndex, "sharing", forbidden)
                compiled, _ = _solve(one, dom, "reduct", 24)
            scanned = _compiled_parts(compiled.base, P.kappa, [((), P.kappa)])
            assert compiled.intensional == scanned.intensional
            assert compiled.allowed == scanned.allowed
            union += compiled.intensional != compiled.full
            compiled, _ = _solve(P, dom, "reduct", 24)
            parts = [((), m.kappa) for m in P.modules]
            scanned = _compiled_parts(compiled.base, P.kappa, parts)
            assert compiled.intensional == scanned.intensional
            assert compiled.allowed == scanned.allowed
            assert [c.ext_mask for c in compiled.checkers] == [
                c.ext_mask for c in scanned.checkers
            ]
            modular += len(P.modules) > 1
        assert union >= 20 and modular >= 20


class TestForwardTables:
    """The forward tables of the split of the module tables hold every
    compiled module rule once, in module order within each part, under the
    global statement's extensional atoms: the union reading searches them
    and compiles no rule again."""

    def test_forward_tables_partition_the_concatenated_rules(self):
        import randprog

        rng = random.Random(37)
        cases = [randprog.random_coherent_program(rng) for _ in range(30)]
        while len(cases) < 60:
            P = randprog.random_pattern_program(rng)
            cases.append((P, Domain.build([m.pi for m in P.modules], 0, 1)))
        checked = multi = constraints = several = 0
        for P, dom in cases:
            try:
                grounded = [ground(m.pi, dom) for m in P.modules]
                region = extensional_region(P.kappa, P.signature().predicates, dom)
                base = _full_base(grounded, region)
            except (CapacityError, SafetyError):
                continue
            parts = [(gp.rules, m.kappa) for gp, m in zip(grounded, P.modules)]
            compiled = _compiled_parts(base, P.kappa, parts)
            ext_mask = compiled.full & ~compiled.intensional
            index = {atom: 1 << i for i, atom in enumerate(base)}
            rules = [rule for gp in grounded for rule in gp.rules]
            alone = _compile(rules, index)
            split, _ = compiled.split

            def part_of(entry):
                m = (entry[0] | entry[1] | entry[2] | entry[3]) & compiled.full
                parts = (k for k, (atoms, _, _) in enumerate(split) if atoms & m)
                return next(parts, 0)

            for k, (_, _, forward) in enumerate(split):
                assert forward.compiled == [e for e in alone if part_of(e) == k]
                assert forward.ext_mask == ext_mask
                assert (forward.watch, forward.negneg) == _scanned_index(forward)
            checked += 1
            multi += len(compiled.checkers) > 1
            several += len(split) > 1
            constraints += any(e[0] == 1 << len(base) for e in alone)
        assert checked >= 30 and multi >= 20 and constraints >= 10 and several >= 5


def _scanned_index(checker):
    """`watch` and `negneg` of `checker` by a direct scan of its table:
    `watch[bit]` holds every `i` with `compiled[i][1] & bit`."""
    compiled = checker.compiled
    width = max((pos.bit_length() for _, pos, _, _ in compiled), default=0)
    watch = {}
    for k in range(width):
        positions = [i for i, entry in enumerate(compiled) if entry[1] >> k & 1]
        if positions:
            watch[1 << k] = positions
    negneg = 0
    for entry in compiled:
        negneg |= entry[3]
    return watch, negneg


class TestIndex:
    """Every checker indexes its own table: its `watch` and `negneg` are
    those of a direct scan of `compiled`, wherever it was built."""

    def test_compiled_parts_index_their_tables(self):
        import randprog

        rng = random.Random(43)
        parts = [
            _modular_parts(*randprog.random_coherent_program(rng))
            for _ in range(20)
        ]
        parts += _pattern_parts(rng, 20)
        parts += [_loop_parts(rng) for _ in range(20)]
        watched = negnegs = 0
        for compiled in parts:
            split, _ = compiled.split
            forward = [f for _, _, f in split]
            sliced = [c for _, checkers, _ in split for c in checkers]
            for checker in [*compiled.checkers, *forward, *sliced]:
                watch, negneg = _scanned_index(checker)
                assert checker.watch == watch and checker.negneg == negneg
                watched += bool(watch)
                negnegs += bool(negneg)
        assert watched >= 60 and negnegs >= 10

    def test_sliced_checkers_index_their_tables(self, monkeypatch):
        # `_search` hands each component's checkers and forward table to
        # `_branch`.
        import modasp.engine as engine_mod

        branch = engine_mod._branch
        seen = []

        def recording(mask, checkers, forward, engine):
            seen.append([*checkers, forward])
            return branch(mask, checkers, forward, engine)

        monkeypatch.setattr(engine_mod, "_branch", recording)
        rng = random.Random(47)
        several = 0
        for _ in range(100):
            compiled, mask, _ = _split_parts(rng)
            seen.clear()
            _search_checkers(mask, compiled.checkers, "reduct")
            several += len(seen) > 1
            for checkers in seen:
                for checker in checkers:
                    watch, negneg = _scanned_index(checker)
                    assert checker.watch == watch and checker.negneg == negneg
        assert several >= 20


def _set_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# A width, and masks of that width with repeats, the empty and the full mask.
_widths_and_masks = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=40)
    )
)


def _wide_masks(rng, count):
    """Seeded masks wider than 256 bits with the empty mask, each beside a
    copy cut at a random bit and one with a random bit flipped, so that
    some lists are prefixes of others and some differ late."""
    masks = [0]
    for _ in range(count):
        mask = rng.getrandbits(rng.randint(257, 320)) | 1 << 256
        masks += [mask, mask & ((1 << rng.randint(0, 320)) - 1)]
        masks.append(mask ^ 1 << rng.randint(0, 319))
    return masks


class TestOutputOrder:
    """`_output_order` is the one ordering of answer masks, which `ordered`
    and `rendered` use: it must sort masks as their lists of set-bit
    positions, ascending, do, and decoding a mask must give the atoms at
    its set bits, on bases as wide as `fixpoint` and a high `--cap` make."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_widths_and_masks, st.randoms(use_true_random=False))
    def test_agrees_with_sorting_by_set_bits(self, width_and_masks, rng):
        width, masks = width_and_masks
        masks = masks + masks[: len(masks) // 2] + [0, (1 << width) - 1, 0]
        rng.shuffle(masks)
        assert _output_order(masks) == sorted(set(masks), key=_set_bits)

    def test_every_mask_below_2_to_the_12(self):
        masks = list(range(1 << 12))
        random.Random(89).shuffle(masks)
        assert _output_order(masks) == sorted(masks, key=_set_bits)

    def test_wide_masks(self):
        masks = _wide_masks(random.Random(97), 500)
        assert _output_order(masks) == sorted(set(masks), key=_set_bits)

    def test_decoding_agrees_with_a_per_bit_walk(self):
        universe = [PredAtom("p", (Numeral(i),)) for i in range(320)]
        compiled = _no_parts(universe)
        masks = _wide_masks(random.Random(101), 100)
        masks += [compiled.full, *masks[:20]]
        decoded = {m: [universe[i] for i in _set_bits(m)] for m in masks}
        in_order = sorted(decoded, key=_set_bits)
        ordered = compiled.ordered(masks)
        assert list(ordered) == in_order
        assert all(ordered[m] == Interpretation.of(decoded[m]) for m in masks)
        assert compiled.interpretations(masks) == frozenset(ordered.values())
        rendered = compiled.rendered(masks)
        assert list(rendered) == in_order
        assert all(rendered[m] == [str(a) for a in decoded[m]] for m in masks)

    def test_a_bit_outside_the_base_raises(self):
        universe = [PredAtom("p", (Numeral(i),)) for i in range(3)]
        compiled = _no_parts(universe)
        assert compiled.rendered([compiled.full]) == {7: ["p(0)", "p(1)", "p(2)"]}
        for mask in (1 << 3, 0b101 | 1 << 3, 1 << 70):
            for decode in (
                compiled.ordered, compiled.rendered, compiled.interpretations
            ):
                with pytest.raises(IndexError):
                    decode([0, mask])


def _no_parts(universe):
    """Compiled parts over `universe` with no module, for decoding only."""
    return CompiledParts(universe, ModularProgram(IntensionalityStatement(), ()), [], [])


EVEN_LOOP = """
p(X) :- not r(X), s(X).
r(X) :- not p(X), s(X).
"""


POSITIVE_LOOPS = """
p(X) :- e(X).
p(X) :- q(X).
q(X) :- p(X).
"""


def _plan(text, control):
    """The union reading of `use base.` plus `control`, its global
    statement, the modular reading and the domain."""
    prog = parse_program(text)
    plan = parse_control("use base. " + control, prog)
    union = collective_union(prog, plan.specs)
    kappa = global_statement(plan, union.signature().predicates)
    dom = Domain.build([union], *plan.domain)
    return kappa, union, collective_modular(prog, plan), dom


def _even_loop(hi):
    """Two even negative loops over `domain 0..hi`: 3 * (hi + 1) atoms and
    3 ** (hi + 1) answer sets."""
    return _plan(EVEN_LOOP, f"domain 0..{hi}. intensional p(X). intensional r(X).")


class TestCandidateCount:
    """The search examines about as many candidates as its components have
    answer sets, summed: each minimality test is one candidate that reached
    a leaf of one component, and the answers are the product."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = [0]
        minimal_reduct = StabilityChecker.minimal_reduct

        def counted(self, T):
            counter[0] += 1
            return minimal_reduct(self, T)

        monkeypatch.setattr(StabilityChecker, "minimal_reduct", counted)
        return counter

    def test_even_loop_minimality_calls(self, calls):
        # Six components s(X), p(X), r(X), each with three answer sets:
        # 18 leaves for 3 ** 6 = 729 answer sets, of 2 ** 18 subsets.
        kappa, union, modular, dom = _even_loop(5)
        assert len(enumerate_kappa_stable(kappa, union, dom, "reduct")) == 729
        assert calls[0] == 18
        calls[0] = 0
        assert len(modular_answer_sets(modular, dom, "reduct")) == 729
        assert calls[0] == 18

    def test_even_loop_at_the_default_cap(self):
        kappa, union, _, dom = _even_loop(7)
        assert len(enumerate_kappa_stable(kappa, union, dom, "reduct")) == 6561

    def test_positive_loops_leaf_calls(self, calls):
        # Each false e(X) leaves the loop p(X), q(X) unfounded, so it is made
        # false before any leaf: one leaf per answer set of each of the ten
        # components e(X), p(X), q(X), for 2 ** 10 answer sets.
        kappa, union, modular, dom = _plan(
            POSITIVE_LOOPS, "domain 0..9. intensional p(X). intensional q(X)."
        )
        assert len(enumerate_kappa_stable(kappa, union, dom, "reduct", 30)) == 1024
        assert calls[0] == 20
        calls[0] = 0
        assert len(modular_answer_sets(modular, dom, "reduct", 30)) == 1024
        assert calls[0] == 20

    def test_fixpoint_decides_the_chain_at_the_root(self, calls):
        text = "q(0,0)." + "".join(f"q(N,{k}+1) :- q(N-1,{k})." for k in range(100))
        pi = parse_program(text).subprogram("base")
        (model,) = enumerate_kappa_stable(kappa_int(), pi, Domain(0, 100), "fixpoint")
        assert len(model) == 101
        assert calls[0] == 1

    def test_fixpoint_reaching_a_constraint_tests_no_leaf(self, calls):
        pi = parse_program("q(0,0). q(1,1) :- q(0,0). :- q(1,1).").subprogram("base")
        assert enumerate_kappa_stable(kappa_int(), pi, Domain(0, 1), "fixpoint") == (
            frozenset()
        )
        assert calls[0] == 0

    def test_fixpoint_matches_reduct_on_the_descending_chain(self):
        # Derived against rule order: q(2000), then q(1999) and so on.
        kappa, union, _, dom = _plan(
            "#program top(m). q(m). #program step(k). q(k) :- q(k+1).",
            "const n = 2000. use top(n). use step(k) for k in 0..n-1. domain 0..n.",
        )
        (model,) = enumerate_kappa_stable(kappa, union, dom, "fixpoint")
        assert len(model) == 2001
        assert enumerate_kappa_stable(kappa, union, dom, "reduct", 2001) == {model}


class TestLeastModel:
    def test_propagation(self):
        rules = (
            GroundRule(q(0, 0)),
            GroundRule(q(0, 1), (q(0, 0),)),
            GroundRule(q(1, 1), (q(0, 0), q(0, 1))),
            GroundRule(q(2, 2), (q(5, 5),)),
        )
        assert least_model(rules) == frozenset({q(0, 0), q(0, 1), q(1, 1)})


class TestCheckSupport:
    def test_supported_atom(self):
        I = interp(q(0, 0), q(0, 1), q(0, 2))
        assert check_support(I, kappa1(), gamma1(), q(0, 1), Domain(0, 3))

    def test_unsupported_atom(self):
        assert not check_support(
            interp(q(0, 1)), kappa1(), gamma1(), q(0, 1), Domain(0, 3)
        )

    def test_fact_supports_itself(self):
        pi = parse_program("q(0,0). q(X,1) :- q(X,0).").subprogram("base")
        kappa = kappa_int()
        assert check_support(interp(q(0, 0)), kappa, pi, q(0, 0), Domain(0, 3))

    def test_extensional_atom_rejected(self):
        with pytest.raises(NotIntensionalError):
            check_support(interp(q(0, 0)), kappa1(), gamma1(), q(0, 0), Domain(0, 3))

    def test_arithmetic_head_matching(self):
        pi = parse_program("q(N,N+1) :- q(N-1,N).").subprogram("base")
        I = interp(q(0, 1), q(1, 2))
        assert check_support(I, kappa_int(), pi, q(1, 2), Domain(0, 3))
        assert not check_support(I, kappa_int(), pi, q(3, 3), Domain(0, 3))

    def test_agrees_with_enumeration_oracle(self):
        # Oracle: enumerate every substitution of the rule variables over
        # the domain and evaluate head equality and body truth directly.
        import itertools

        from modasp.terms import Sort, subterms, substitute_variables, eval_ground

        rng = random.Random(17)
        pi = parse_program(
            "q(X,1) :- q(X,0). q(N,N+1) :- q(N-1,N). q(0,2) :- q(0,1), not q(1,1)."
        ).subprogram("base")
        dom = Domain(0, 2)
        kappa = kappa_int()
        atoms = [q(i, j) for i in range(3) for j in range(3)]

        def oracle(I, target):
            for rule in pi.rules:
                if rule.head is None or rule.head.pred != target.pred:
                    continue
                sorts = {
                    s.name: s.sort
                    for t in rule.terms()
                    for s in subterms(t)
                    if isinstance(s, Variable)
                }
                names = sorted(sorts)
                pools = [
                    dom.integers()
                    if sorts[n] is Sort.INTEGER
                    else dom.terms_sorted()
                    for n in names
                ]
                for combo in itertools.product(*pools):
                    theta = dict(zip(names, combo))
                    head = tuple(
                        eval_ground(substitute_variables(a, theta))
                        for a in rule.head.args
                    )
                    if head != target.args:
                        continue
                    ok = True
                    for lit in rule.body:
                        value = _literal_value(I, lit, theta)
                        if not value:
                            ok = False
                            break
                    if ok:
                        return True
            return False

        def _literal_value(I, lit, theta):
            from modasp.program import Comparison

            atom = lit.atom
            if isinstance(atom, Comparison):
                value = Comparison(
                    atom.rel,
                    eval_ground(substitute_variables(atom.lhs, theta)),
                    eval_ground(substitute_variables(atom.rhs, theta)),
                ).holds()
            else:
                value = (
                    PredAtom(
                        atom.name,
                        tuple(
                            eval_ground(substitute_variables(a, theta))
                            for a in atom.args
                        ),
                    )
                    in I.atoms
                )
            return (not value) if lit.negations == 1 else value

        for _ in range(60):
            I = Interpretation.of(a for a in atoms if rng.random() < 0.4)
            target = rng.choice(atoms)
            assert check_support(I, kappa, pi, target, dom) == oracle(I, target)
