"""Atoms, literals, rules and programs over the many-sorted term language."""

from typing import Iterable, Optional, Union

from .errors import SortError
from .terms import (
    Arith,
    Func,
    Sort,
    Term,
    Value,
    Variable,
    compare,
    is_precomputed,
    order_key,
    subterms,
    substitute_variables,
    variables_of,
)

COMPARISON_RELS = ("=", "!=", "<", "<=", ">", ">=")

_REL_TESTS = {
    "=": lambda c: c == 0,
    "!=": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


class PredAtom(Value):
    name: str
    args: tuple[Term, ...] = ()

    @property
    def pred(self) -> tuple[str, int]:
        return (self.name, len(self.args))

    def __str__(self):
        if not self.args:
            return self.name
        return f"{self.name}({','.join(str(a) for a in self.args)})"


class Comparison(Value):
    rel: str
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.rel not in COMPARISON_RELS:
            raise SortError(f"unknown comparison relation {self.rel!r}")

    def holds(self) -> bool:
        """Truth of a comparison between precomputed terms under the fixed order."""
        return _REL_TESTS[self.rel](compare(self.lhs, self.rhs))

    def __str__(self):
        return f"{self.lhs} {self.rel} {self.rhs}"


Atom = Union[PredAtom, Comparison]


class Literal(Value):
    atom: Atom
    negations: int = 0

    def __post_init__(self):
        if self.negations not in (0, 1, 2):
            raise SortError("a literal carries at most two occurrences of `not`")

    def __str__(self):
        return "not " * self.negations + str(self.atom)


class Rule(Value):
    """A rule ``head :- body``; a ``None`` head stands for falsity (a constraint)."""

    head: Optional[PredAtom]
    body: tuple[Literal, ...] = ()

    def atoms(self) -> list[Atom]:
        """The head, if any, and the body atoms, in order."""
        body = [lit.atom for lit in self.body]
        return body if self.head is None else [self.head, *body]

    def terms(self) -> list[Term]:
        """The arguments of `atoms()`, both sides of a comparison, in order."""
        out: list[Term] = []
        for atom in self.atoms():
            if isinstance(atom, PredAtom):
                out += atom.args
            else:
                out += (atom.lhs, atom.rhs)
        return out

    def variables(self) -> set[str]:
        out: set[str] = set()
        for t in self.terms():
            out |= variables_of(t)
        return out

    def __str__(self):
        body = ", ".join(str(lit) for lit in self.body)
        if self.head is None:
            return f":- {body}."
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {body}."


def _map_atom(atom: Atom, fn) -> Atom:
    if isinstance(atom, PredAtom):
        return PredAtom(atom.name, tuple(fn(a) for a in atom.args))
    return Comparison(atom.rel, fn(atom.lhs), fn(atom.rhs))


def map_rule_terms(rule: Rule, fn) -> Rule:
    head = None if rule.head is None else _map_atom(rule.head, fn)
    body = tuple(Literal(_map_atom(l.atom, fn), l.negations) for l in rule.body)
    return Rule(head, body)


def substitute_rule(rule: Rule, theta) -> Rule:
    return map_rule_terms(rule, lambda t: substitute_variables(t, theta))


def make_rule(head: Optional[PredAtom], body: Iterable[Literal] = ()) -> Rule:
    """Build a rule, inferring variable sorts from arithmetic contexts.

    Every variable occurring as an argument of an arithmetic operator is
    integer-sorted throughout the rule; the remaining variables are general.
    Head atoms containing arithmetic nested under an uninterpreted function
    are rejected: their reading as formulas would need the general
    rule-to-formula translation, which is out of scope.
    """
    rule = Rule(head, tuple(body))
    names: set[str] = set()
    integer_vars: set[str] = set()
    for t in rule.terms():
        for s in subterms(t):
            if isinstance(s, Arith):
                for side in (s.left, s.right):
                    integer_vars |= variables_of(side)
            elif isinstance(s, Variable):
                names.add(s.name)
                if s.sort is Sort.INTEGER:
                    integer_vars.add(s.name)
    if rule.head is not None:
        for arg in rule.head.args:
            for s in subterms(arg):
                if isinstance(s, Func) and any(
                    isinstance(inner, Arith) for a in s.args for inner in subterms(a)
                ):
                    raise SortError(
                        f"head term {s} nests arithmetic under a function symbol"
                    )
    sorts = {
        name: Variable(name, Sort.INTEGER if name in integer_vars else Sort.GENERAL)
        for name in names
    }
    return substitute_rule(rule, sorts)


class Signature(Value):
    """The predicate symbols occurring in a program, as (name, arity)."""

    predicates: frozenset[tuple[str, int]] = frozenset()

    def __or__(self, other: "Signature") -> "Signature":
        return Signature(self.predicates | other.predicates)


class Program(Value):
    """A set of rules, stored deduplicated in a canonical order."""

    rules: tuple[Rule, ...] = ()

    @classmethod
    def of(cls, rules: Iterable[Rule]) -> "Program":
        unique = dict.fromkeys(rules)
        return cls(tuple(sorted(unique, key=str)))

    def signature(self) -> Signature:
        return Signature(
            frozenset(
                atom.pred
                for rule in self.rules
                for atom in rule.atoms()
                if isinstance(atom, PredAtom)
            )
        )

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __str__(self):
        return "\n".join(str(r) for r in self.rules)


def atom_order_key(atom: PredAtom):
    """Sort key for precomputed atoms: predicate name, arity, then arguments
    in term order."""
    return (atom.name, len(atom.args), tuple(map(order_key, atom.args)))


def atom_is_precomputed(atom: PredAtom) -> bool:
    return all(is_precomputed(a) for a in atom.args)
