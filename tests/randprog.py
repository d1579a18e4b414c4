"""Seeded random generators backing the property suites.

Coherent modular programs are built to satisfy coherence by construction:
module regions per predicate are either one all-variable pattern owned by a
single module or disjoint ground values spread over modules (so no two
patterns across modules unify), heads are drawn from the owning module's
region (so modules are simple), and positive body atoms only reach regions
of modules with a lower or equal index (so strongly connected components
stay inside one module).  Negated literals may point anywhere.

`random_pattern_program` drops those guarantees: it mixes ground and
variable pattern positions over predicates of arity 0 to 2 and writes rule
arguments such as `N+1`, `N+N` and `f(X)`, so its programs are mostly
incoherent.
"""

import random

from modasp.engine import extensional_region
from modasp.grounding import Domain, ground
from modasp.instantiation import Module, ModularProgram
from modasp.intensionality import IntensionalityStatement, lambda_holds
from modasp.modular import is_coherent
from modasp.program import Comparison, Literal, PredAtom, Program, make_rule
from modasp.terms import Arith, Func, Numeral, Sort, SymbolicConstant, Variable

PREDS = ("p", "q")


def _atom(name, value):
    return PredAtom(name, (Numeral(value),))


def _relevant_base_size(P, dom):
    atoms = set()
    for module in P.modules:
        atoms |= ground(module.pi, dom).heads()
    # kappa is the last statement of the program's own pattern index.
    atoms |= P.patterns.outside(1 << len(P.modules), P.signature().predicates, dom)
    return len(atoms)


def random_coherent_program(rng: random.Random, max_base: int = 12):
    """A coherent modular program over unary predicates and domain 0..3."""
    for _ in range(200):
        candidate = _try_coherent_program(rng)
        if candidate is None:
            continue
        P, dom = candidate
        if _relevant_base_size(P, dom) > max_base:
            continue
        report = is_coherent(P)
        assert report.coherent, f"generator produced an incoherent program:\n{report}"
        return P, dom
    raise AssertionError("generator failed to produce a program within bounds")


def _try_coherent_program(rng: random.Random):
    n_modules = rng.randint(1, 3)
    dom = Domain(0, 3)
    values = (0, 1, 2, 3)
    module_patterns = [{} for _ in range(n_modules)]
    global_map = {}
    # Highest module index defining each predicate; positive body atoms may
    # only look at predicates settled at or below the rule's module.
    highest_owner = {}

    used = rng.sample(PREDS, rng.randint(1, 2))
    for name in used:
        key = (name, 1)
        if rng.random() < 0.3:
            owner = rng.randrange(n_modules)
            module_patterns[owner][key] = [(Variable("X1"),)]
            highest_owner[key] = owner
            global_map[key] = [(Variable("X1"),)]
        else:
            chosen = rng.sample(values, rng.randint(1, 3))
            owners = [rng.randrange(n_modules) for _ in chosen]
            for value, owner in zip(chosen, owners):
                module_patterns[owner].setdefault(key, []).append((Numeral(value),))
            highest_owner[key] = max(owners)
            if rng.random() < 0.4:
                global_map[key] = [(Variable("X1"),)]
            else:
                global_map[key] = [(Numeral(v),) for v in chosen]
    extensional_pred = None
    if rng.random() < 0.35:
        # One predicate left entirely extensional: free choice atoms.
        extensional_pred = "r"

    modules = []
    for i in range(n_modules):
        rules = []
        for _ in range(rng.randint(0, 3)):
            rule = _random_rule(
                rng, i, module_patterns, highest_owner, extensional_pred, values
            )
            if rule is not None:
                rules.append(rule)
        modules.append(
            Module(IntensionalityStatement.of(module_patterns[i]), Program.of(rules))
        )
    if all(len(m.pi) == 0 for m in modules) and extensional_pred is None:
        return None
    kappa = IntensionalityStatement.of(global_map)
    return ModularProgram(kappa, tuple(modules)), dom


def _random_rule(rng, i, module_patterns, highest_owner, extensional_pred, values):
    own = module_patterns[i]
    make_constraint = rng.random() < 0.15 or not own
    head = None
    head_var = None
    if not make_constraint:
        key = rng.choice(sorted(own))
        pattern = rng.choice(own[key])
        if isinstance(pattern[0], Variable):
            if rng.random() < 0.5:
                head_var = Variable("X")
                head = PredAtom(key[0], (head_var,))
            else:
                head = _atom(key[0], rng.choice(values))
        else:
            head = PredAtom(key[0], pattern)

    body = []
    if head_var is not None:
        # Safety needs the variable in a positive body atom, which must not
        # look upward: pick a predicate settled at or below this module.
        candidates = [
            key for key, owner in highest_owner.items() if owner <= i
        ]
        if extensional_pred is not None:
            candidates.append((extensional_pred, 1))
        if not candidates:
            return None
        key = rng.choice(sorted(candidates))
        body.append(Literal(PredAtom(key[0], (head_var,)), 0))
        if rng.random() < 0.3:
            body.append(
                Literal(
                    Comparison(
                        rng.choice(("<", "<=", ">", ">=")),
                        head_var,
                        Numeral(rng.choice(values)),
                    ),
                    0,
                )
            )
    for _ in range(rng.randint(0, 2)):
        name = rng.choice(
            sorted({k[0] for k in highest_owner})
            + ([extensional_pred] if extensional_pred else [])
        )
        atom = _atom(name, rng.choice(values))
        negations = rng.choice((0, 0, 1, 1, 2))
        if negations == 0:
            owner = highest_owner.get((name, 1), -1)
            if owner > i and head is not None:
                negations = 1  # positive look-ahead would break stratification
        body.append(Literal(atom, negations))
    if head is None and not body:
        return None
    return make_rule(head, body)


def random_ground_instance(rng: random.Random, max_base: int = 12):
    """A ground program with negation plus a random simple statement."""
    values = (0, 1, 2)
    dom = Domain(0, 2)
    for _ in range(200):
        patterns = {}
        for name in PREDS:
            key = (name, 1)
            style = rng.random()
            if style < 0.4:
                patterns[key] = [(Variable("X1"),)]
            elif style < 0.8:
                chosen = rng.sample(values, rng.randint(1, 2))
                patterns[key] = [(Numeral(v),) for v in chosen]
            # else: leave the predicate purely extensional
        kappa = IntensionalityStatement.of(patterns)
        rules = []
        for _ in range(rng.randint(1, 6)):
            head = None
            if rng.random() > 0.15:
                head = _atom(rng.choice(PREDS), rng.choice(values))
            body = [
                Literal(
                    _atom(rng.choice(PREDS), rng.choice(values)),
                    rng.choice((0, 0, 0, 1, 1, 2)),
                )
                for _ in range(rng.randint(0, 3))
            ]
            if head is None and not body:
                continue
            rules.append(make_rule(head, body))
        if not rules:
            continue
        pi = Program.of(rules)
        gp = ground(pi, dom)
        base = set(gp.heads()) | set(
            extensional_region(kappa, pi.signature().predicates, dom)
        )
        if 0 < len(base) <= max_base:
            return kappa, pi, dom
    raise AssertionError("generator failed to produce an instance within bounds")


def true_intensional_atoms(I, kappa):
    return [atom for atom in I.sorted_atoms() if lambda_holds(kappa, atom)]


# Predicates and values of `random_pattern_program`.
PATTERN_PREDS = (("e", 0), ("p", 1), ("q", 2), ("r", 2))
PATTERN_VALUES = (
    Numeral(0),
    Numeral(1),
    Numeral(2),
    SymbolicConstant("a"),
    Func("f", (Numeral(0),)),
)


def _random_pattern(rng, arity, ground_share):
    return tuple(
        rng.choice(PATTERN_VALUES) if rng.random() < ground_share else Variable(f"X{k + 1}")
        for k in range(arity)
    )


def _random_rule_term(rng):
    """A rule argument: a value, a variable, `N+1`, `N+N`, `f(X)`, or ground
    arithmetic such as `0+1`, which instantiating `k+1` leaves behind."""
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(PATTERN_VALUES)
    if roll < 0.4:
        return Arith("+", Numeral(rng.randint(0, 1)), Numeral(1))
    if roll < 0.55:
        return Variable(rng.choice("XY"))
    n = Variable("N", Sort.INTEGER)
    if roll < 0.7:
        return Arith("+", n, Numeral(1))
    if roll < 0.8:
        return Arith("+", n, n)
    if roll < 0.9:
        return Func("f", (Variable("X"),))
    return n


def random_pattern_atom(rng):
    name, arity = rng.choice(PATTERN_PREDS)
    return PredAtom(name, tuple(_random_rule_term(rng) for _ in range(arity)))


def random_pattern_program(rng: random.Random):
    """A modular program over `PATTERN_PREDS` with 1 to 5 modules whose
    patterns mix ground and variable positions.

    Module patterns are drawn at random, so pairs often unify; heads are
    drawn from every predicate, so modules are often not simple; bodies
    point anywhere, so components often span modules.  The global statement
    covers every module pattern, with variables only or with the module
    patterns themselves plus some more.
    """
    statements = []
    for _ in range(rng.randint(1, 5)):
        mapping = {}
        for key in rng.sample(PATTERN_PREDS, rng.randint(0, 3)):
            share = rng.choice((0.0, 0.5, 1.0))
            mapping[key] = [
                _random_pattern(rng, key[1], share) for _ in range(rng.randint(1, 3))
            ]
        statements.append(mapping)
    global_map = {}
    for mapping in statements:
        for key, patterns in mapping.items():
            global_map.setdefault(key, []).extend(patterns)
    for key in list(global_map):
        if rng.random() < 0.5:
            global_map[key] = [tuple(Variable(f"X{k + 1}") for k in range(key[1]))]
        else:
            global_map[key] += [_random_pattern(rng, key[1], 0.5)]
    modules = []
    for mapping in statements:
        rules = []
        for _ in range(rng.randint(0, 4)):
            head = None if rng.random() < 0.15 else random_pattern_atom(rng)
            body = [
                Literal(random_pattern_atom(rng), rng.choice((0, 0, 1, 2)))
                for _ in range(rng.randint(0, 3))
            ]
            if head is None and not body:
                continue
            rules.append(make_rule(head, body))
        modules.append(
            Module(IntensionalityStatement.of(mapping), Program.of(rules))
        )
    return ModularProgram(IntensionalityStatement.of(global_map), tuple(modules))
