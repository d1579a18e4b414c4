"""Intensionality statements: which argument tuples of a predicate are
defined by rules (intensional) and which are free choices (extensional).

A simple statement maps each predicate to a set of linear patterns whose
elements are variables or precomputed terms.  The induced membership
formula for a predicate is a disjunction over its patterns of equality
constraints at the non-variable positions; the extensional axioms turn
every tuple outside that formula into an unconditional choice.
"""

import itertools
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import PatternError, RequirementError, UnboundPlaceholderError
from .grounding import Domain, _match
from .program import PredAtom, Signature
from .terms import (
    Func,
    Numeral,
    SymbolicConstant,
    Term,
    Valuation,
    Value,
    Variable,
    constants_of,
    is_precomputed,
    simplify,
    substitute_constants,
    variables_of,
)

Pattern = tuple[Term, ...]
PredKey = tuple[str, int]


def pattern_str(pattern: Pattern) -> str:
    return f"({','.join(str(e) for e in pattern)})"


def validate_pattern(pattern: Pattern, placeholders: Iterable[str] = ()):
    """A pattern holds each variable at most once; every other element is
    precomputed or, when it mentions a placeholder, ground over the
    placeholders (combining them only with numerals and arithmetic)."""
    names = set(placeholders)
    seen: set[str] = set()
    for elem in pattern:
        if isinstance(elem, Variable):
            if elem.name in seen:
                raise PatternError(
                    f"variable {elem.name} occurs twice in {pattern_str(pattern)}"
                )
            seen.add(elem.name)
        elif not (
            is_placeholder_ground(elem, names)
            if names and constants_of(elem) & names
            else is_precomputed(elem)
        ):
            allowed = "a variable or a precomputed term"
            if names:
                allowed = (
                    "a variable, a precomputed term, or ground over "
                    f"{{{','.join(sorted(names))}}}"
                )
            raise PatternError(
                f"element {elem} of {pattern_str(pattern)} must be {allowed}"
            )


def is_placeholder_ground(t: Term, placeholders: set[str]) -> bool:
    """True when `t` is ground over placeholders, numerals and arithmetic."""
    if isinstance(t, (Variable, Func)):
        return False
    if isinstance(t, Numeral):
        return True
    if isinstance(t, SymbolicConstant):
        return t.name in placeholders
    return is_placeholder_ground(t.left, placeholders) and is_placeholder_ground(
        t.right, placeholders
    )


def _canonical_entries(
    mapping: Mapping[PredKey, Iterable[Pattern]]
) -> tuple[tuple[PredKey, tuple[Pattern, ...]], ...]:
    out = []
    for key, patterns in mapping.items():
        unique = tuple(dict.fromkeys(patterns))
        for p in unique:
            if len(p) != key[1]:
                raise PatternError(
                    f"pattern {pattern_str(p)} has length {len(p)}, expected "
                    f"{key[1]} for predicate {key[0]}/{key[1]}"
                )
        if unique:
            out.append((key, tuple(sorted(unique, key=pattern_str))))
    return tuple(sorted(out))


_PREDICATE = itemgetter(0)  # of an entry `(predicate, patterns)`


class _PatternTable:
    """Validation and lookups shared by plain and parametric statements over
    their `entries`, whose predicates are distinct (`_canonical_entries`)."""

    placeholders: frozenset[str] = frozenset()  # none in a plain statement

    def __post_init__(self):
        for _, patterns in self.entries:
            for p in patterns:
                validate_pattern(p, self.placeholders)

    def patterns_for(self, key: PredKey) -> tuple[Pattern, ...]:
        """The patterns of `key`, found by bisection: `entries` are sorted
        by predicate (`_canonical_entries`)."""
        i = bisect_left(self.entries, key, key=_PREDICATE)
        if i < len(self.entries) and self.entries[i][0] == key:
            return self.entries[i][1]
        return ()


class IntensionalityStatement(_PatternTable, Value):
    """Map from predicates to sets of simple patterns.

    Predicates without an entry are purely extensional (empty pattern set).
    """

    entries: tuple[tuple[PredKey, tuple[Pattern, ...]], ...] = ()

    @classmethod
    def of(cls, mapping: Mapping[PredKey, Iterable[Pattern]]) -> "IntensionalityStatement":
        return cls(_canonical_entries(mapping))

    @classmethod
    def purely_intensional(cls, predicates: Iterable[PredKey]) -> "IntensionalityStatement":
        mapping = {
            key: [tuple(Variable(f"X{i + 1}") for i in range(key[1]))]
            for key in predicates
        }
        return cls.of(mapping)

    def predicates(self) -> tuple[PredKey, ...]:
        return tuple(k for k, _ in self.entries)

    def __str__(self):
        parts = []
        for (name, arity), patterns in self.entries:
            pats = ", ".join(f"{name}{pattern_str(p)}" for p in patterns)
            parts.append(f"{name}/{arity}: {pats}")
        return "; ".join(parts) if parts else "(purely extensional)"


class ParametricIntensionality(_PatternTable, Value):
    """Intensionality patterns whose ground elements may mention placeholders."""

    placeholders: frozenset[str] = frozenset()
    entries: tuple[tuple[PredKey, tuple[Pattern, ...]], ...] = ()

    @classmethod
    def of(
        cls, placeholders: Iterable[str], mapping: Mapping[PredKey, Iterable[Pattern]]
    ) -> "ParametricIntensionality":
        return cls(frozenset(placeholders), _canonical_entries(mapping))


def instantiate_chi(
    chi: ParametricIntensionality, theta: Valuation
) -> IntensionalityStatement:
    """Substitute placeholder values into every pattern and simplify.

    The valuation must cover the placeholders that actually occur; an
    integer-sorted occurrence (inside arithmetic) must receive a numeral,
    otherwise simplification cannot fold the term to a precomputed one.
    """
    mapping = theta.as_dict()
    out: dict[PredKey, list[Pattern]] = {}
    for key, patterns in chi.entries:
        new = []
        for p in patterns:
            elems = []
            for elem in p:
                missing = (constants_of(elem) & chi.placeholders) - set(mapping)
                if missing:
                    raise UnboundPlaceholderError(
                        f"placeholder {sorted(missing)[0]} of pattern "
                        f"{pattern_str(p)} is not assigned by the valuation"
                    )
                value = simplify(substitute_constants(elem, mapping))
                if not (isinstance(value, Variable) or is_precomputed(value)):
                    raise PatternError(
                        f"pattern element {elem} instantiates to {value}, which "
                        "is not precomputed (integer placeholder assigned a "
                        "non-numeral?)"
                    )
                elems.append(value)
            new.append(tuple(elems))
        out[key] = new
    return IntensionalityStatement.of(out)


# --- membership formulas -------------------------------------------------------


class LambdaFormula(Value):
    """Disjunction over patterns of equality constraints at ground positions.

    An empty disjunction is falsity; a disjunct with no constraints is truth.
    """

    pred: PredKey
    disjuncts: tuple[tuple[tuple[int, Term], ...], ...]

    def is_false(self) -> bool:
        return not self.disjuncts

    def holds(self, args: Sequence[Term]) -> bool:
        """Classical satisfaction at a tuple of precomputed terms."""
        return any(
            all(args[i] == value for i, value in disjunct)
            for disjunct in self.disjuncts
        )

    def __str__(self):
        if self.is_false():
            return "false"
        parts = []
        for disjunct in self.disjuncts:
            if not disjunct:
                return "true"
            eqs = [f"X{i + 1} = {value}" for i, value in disjunct]
            parts.append(" and ".join(eqs) if len(eqs) == 1 else f"({' and '.join(eqs)})")
        return " or ".join(parts)


def lambda_formula(kappa: IntensionalityStatement, pred: PredKey) -> LambdaFormula:
    """The membership formula of `pred` under `kappa`, one disjunct per pattern."""
    disjuncts = []
    for pattern in kappa.patterns_for(pred):
        disjuncts.append(
            tuple(
                (i, elem)
                for i, elem in enumerate(pattern)
                if not isinstance(elem, Variable)
            )
        )
    return LambdaFormula(pred, tuple(disjuncts))


def lambda_holds(kappa: IntensionalityStatement, atom: PredAtom) -> bool:
    """True when some pattern of the atom's predicate matches its arguments.

    Ground pattern positions must equal the argument exactly; variable
    positions are unconstrained (`pattern_subsumes`).  Equals classical
    satisfaction of the membership formula at the argument tuple; the
    reference that the region lookups of `PatternIndex` are held to.
    """
    return any(pattern_subsumes(u, atom.args) for u in kappa.patterns_for(atom.pred))


class ExtensionalAxiom(Value):
    """For tuples outside the membership formula, the atom is a free choice."""

    pred: PredKey
    lam: LambdaFormula

    def __str__(self):
        name, arity = self.pred
        xs = ",".join(f"X{i + 1}" for i in range(arity))
        atom = f"{name}({xs})" if arity else name
        return f"forall {xs or '()'}: not ({self.lam}) -> {atom} or not {atom}"


def extensional_axioms(
    kappa: IntensionalityStatement, sig: Signature
) -> tuple[ExtensionalAxiom, ...]:
    """One choice axiom per predicate of the signature."""
    preds = sorted(set(sig.predicates) | set(kappa.predicates()))
    return tuple(ExtensionalAxiom(p, lambda_formula(kappa, p)) for p in preds)


# --- matching and unification ---------------------------------------------------


def pattern_match(pattern: Pattern, terms: Sequence[Term]) -> Optional[dict[str, Term]]:
    """One-way matching of a pattern against a (simplified) term tuple.

    Returns a substitution from the pattern's variables to terms, possibly
    non-ground, making the pattern equal the elementwise simplification of
    `terms`; ground pattern positions must match exactly.  Returns None on
    failure.
    """
    if len(pattern) != len(terms):
        return None
    theta: dict[str, Term] = {}
    for elem, term in zip(pattern, terms):
        target = simplify(term)
        if isinstance(elem, Variable):
            theta[elem.name] = target
        elif elem != target:
            return None
    return theta


def _rename_clashes(left: Pattern, right: Pattern) -> Pattern:
    taken = {v for e in left for v in variables_of(e)}
    renamed = []
    for elem in right:
        if isinstance(elem, Variable) and elem.name in taken:
            name = elem.name + "'"
            while name in taken:
                name += "'"
            renamed.append(Variable(name, elem.sort))
        else:
            renamed.append(elem)
    return tuple(renamed)


def patterns_unify(u1: Pattern, u2: Pattern) -> Optional[dict[str, Term]]:
    """Unify two patterns, renaming shared variable names apart first.

    Patterns are linear and their ground elements precomputed, so positionwise
    resolution is complete: a variable on either side takes the other side's
    element, and two ground elements must be equal.  The returned substitution
    applied to both (renamed) tuples makes them elementwise equal.
    """
    if len(u1) != len(u2):
        return None
    u2 = _rename_clashes(u1, u2)
    theta: dict[str, Term] = {}
    for a, b in zip(u1, u2):
        if isinstance(a, Variable) and isinstance(b, Variable):
            theta[a.name] = b
        elif isinstance(a, Variable):
            theta[a.name] = b
        elif isinstance(b, Variable):
            theta[b.name] = a
        elif a != b:
            return None
    return theta


def pattern_subsumes(general: Pattern, special: Pattern) -> bool:
    """True when every instance of `special` is an instance of `general`.

    Holds exactly when `general` has a variable, or an equal precomputed
    term, at every position.
    """
    if len(general) != len(special):
        return False
    return all(
        isinstance(g, Variable) or g == s for g, s in zip(general, special)
    )


class RequirementViolation(Value):
    pred: PredKey
    module_index: int
    pattern: Pattern

    def __str__(self):
        name, arity = self.pred
        return (
            f"pattern {name}{pattern_str(self.pattern)} of module "
            f"{self.module_index} is not subsumed by any global pattern "
            f"for {name}/{arity}"
        )


def check_requirement(
    kappa: IntensionalityStatement,
    module_kappas: Sequence[IntensionalityStatement],
) -> Optional[RequirementViolation]:
    """Verify that every module pattern is covered by the global statement.

    Over the infinite term sorts, a pattern's instance set lies inside a
    finite union of patterns exactly when a single pattern of the union
    subsumes it: any strictly more constrained pattern fixes finitely many
    values along a free axis and a finite union of those cannot cover it.
    Returns None on success, else the first violating (predicate, module
    index, pattern) triple.  A module statement equal to `kappa` covers
    itself and is skipped, so the one-module reading of a union costs no
    walk over its patterns.
    """
    for index, module_kappa in enumerate(module_kappas):
        if module_kappa == kappa:
            continue
        for key, patterns in module_kappa.entries:
            global_patterns = kappa.patterns_for(key)
            for u in patterns:
                if not any(pattern_subsumes(g, u) for g in global_patterns):
                    return RequirementViolation(key, index, u)
    return None


def require_coverage(
    kappa: IntensionalityStatement,
    module_kappas: Sequence[IntensionalityStatement],
):
    violation = check_requirement(kappa, module_kappas)
    if violation is not None:
        raise RequirementError(
            str(violation),
            predicate=violation.pred,
            module_index=violation.module_index,
            pattern=violation.pattern,
        )


# --- instance overlap (dependency analysis) -------------------------------------


class PatternIndex:
    """The patterns of a list of statements, merged into one lookup: per
    predicate, the mask of the statements open on it (bit s for statement
    s: a pattern with a variable at every position, arity 0 included) and,
    per shape (the tuple of ground positions of some pattern), its
    `itemgetter` and the mask of the statements holding each value there (a
    term at one position, a tuple at several).

    `holding(pred, args)` decides the regions of a ground atom exactly,
    `outside` lists the atoms over a domain in none of some statements'
    regions, and `sharing(pred, args)` gives the statements with a pattern
    that may share an instance with `args`, whose terms may hold variables
    and arithmetic.
    """

    def __init__(self, statements: Sequence[IntensionalityStatement]):
        by_pred: dict[PredKey, list] = {}
        for s, statement in enumerate(statements):
            for pred, patterns in statement.entries:
                entry = by_pred.setdefault(pred, [0, {}])
                for u in patterns:
                    positions = tuple(
                        [k for k, e in enumerate(u) if not isinstance(e, Variable)]
                    )
                    if not positions:
                        entry[0] |= 1 << s
                        continue
                    if positions not in entry[1]:
                        entry[1][positions] = (itemgetter(*positions), {})
                    get, at = entry[1][positions]
                    value = get(u)
                    at[value] = at.get(value, 0) | 1 << s
        self._lookup: dict[PredKey, tuple[int, tuple]] = {
            pred: (opened, tuple((k, *shape) for k, shape in shaped.items()))
            for pred, (opened, shaped) in by_pred.items()
        }

    def holding(self, pred: PredKey, args: Sequence[Term]) -> int:
        """The mask of the statements whose region holds the ground atom of
        `pred` with the precomputed `args` (`lambda_holds`), bit s for
        statement s."""
        entry = self._lookup.get(pred)
        if entry is None:
            return 0
        found, shapes = entry
        for _, get, at in shapes:
            found |= at.get(get(args), 0)
        return found

    def outside(
        self, statements: int, predicates: Iterable[PredKey], dom: Domain
    ) -> frozenset[PredAtom]:
        """The atoms of `predicates` over the terms of the domain `dom` that
        no statement of the mask `statements` holds (`holding`); none of a
        predicate that one of them is open on."""
        out = set()
        terms = dom.terms_sorted()
        for pred in set(predicates):
            entry = self._lookup.get(pred)
            if entry is not None and entry[0] & statements:
                continue
            for args in itertools.product(terms, repeat=pred[1]):
                if not self.holding(pred, args) & statements:
                    out.add(PredAtom(pred[0], args))
        return frozenset(out)

    def sharing(self, pred: PredKey, args: Sequence[Term]) -> int:
        """The mask of the statements with a pattern of `pred` that may
        share an instance with `args` (`may_share_instance`), bit s for
        statement s.  A shape whose positions hold precomputed simplified
        arguments is one dict lookup; at any other, each value whose mask
        adds a statement is tried with `may_share_instance`."""
        entry = self._lookup.get(pred)
        if entry is None:
            return 0
        found, shapes = entry
        args = tuple(map(simplify, args))
        loose = {k for k, t in enumerate(args) if not is_precomputed(t)}
        for positions, get, at in shapes:
            if loose.isdisjoint(positions):
                found |= at.get(get(args), 0)
                continue
            terms = [args[k] for k in positions]
            for value, statements in at.items():
                if statements & ~found and may_share_instance(
                    value if len(positions) > 1 else (value,), terms
                ):
                    found |= statements
        return found


def may_share_instance(pattern: Pattern, terms: Sequence[Term]) -> bool:
    """Could some ground instance of `terms` land in the pattern's region?

    Pattern elements are variables or precomputed terms; term elements may
    also carry arithmetic over rule variables.  Because patterns are linear,
    a variable position of the pattern constrains nothing; at a ground
    position the rule term must be able to evaluate to that value under a
    consistent assignment of rule variables.  Arithmetic against a numeral
    is inverted exactly while one variable occurs once; with several free
    variables, or one occurring several times, the answer is yes without
    recording bindings (an over-approximation that can only add dependency
    edges).
    """
    if len(pattern) != len(terms):
        return False
    theta: dict[str, Term] = {}
    return all(
        isinstance(p, Variable) or _match(simplify(t), p, theta, None)
        for p, t in zip(pattern, terms)
    )
