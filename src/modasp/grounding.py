"""Bounded-domain grounding.

The paper-level semantics quantifies integer variables over all numerals and
general variables over all precomputed terms.  A `Domain` is the finite
stand-in: numerals of a declared interval plus the precomputed terms the
program itself mentions; no function terms are generated.  Grounding
instantiates rule variables over the domain, evaluates arithmetic, resolves
comparison literals, and drops every rule instance that mentions an atom
outside the domain in its head or positively in its body (such atoms are
false in every representable interpretation; a negated out-of-domain atom
is simply true).

`ground` is the full instantiation, kept as the reference.  Every solving
path and every model check use `ground_reachable`, which keeps only the
instances whose positive body can be derived, and finds them by joining
body atoms against derived atoms instead of enumerating the cross product;
it falls back on `ground` only for rules it cannot match.
"""

import itertools
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import RangeError, SafetyError
from .program import (
    Comparison,
    Literal,
    PredAtom,
    Program,
    Rule,
    atom_order_key,
    substitute_rule,
)
from .terms import (
    Arith,
    Func,
    Numeral,
    Sort,
    SymbolicConstant,
    Term,
    Value,
    Variable,
    eval_ground,
    is_precomputed,
    order_key,
    simplify,
    substitute_variables,
    subterms,
    variables_of,
)


class Domain(Value):
    """Finite universe: an integer interval plus a set of general terms."""

    int_lo: int
    int_hi: int
    general_terms: frozenset[Term]

    def __new__(
        cls, int_lo: int, int_hi: int, general_terms: frozenset[Term] = frozenset()
    ):
        """The interval's numerals are added to `general_terms`."""
        if int_lo > int_hi:
            raise RangeError(f"reversed domain {int_lo}..{int_hi}")
        numerals = {Numeral(i) for i in range(int_lo, int_hi + 1)}
        return tuple.__new__(cls, (cls, int_lo, int_hi, general_terms | numerals))

    @classmethod
    def build(cls, programs: Iterable[Program], lo: int, hi: int) -> "Domain":
        """Domain for a set of programs: numerals lo..hi plus the symbolic
        constants and precomputed function terms occurring in the rules."""
        terms: set[Term] = set()
        for program in programs:
            for rule in program.rules:
                for t in rule.terms():
                    for s in subterms(t):
                        if isinstance(s, SymbolicConstant) or (
                            isinstance(s, Func) and is_precomputed(s)
                        ):
                            terms.add(s)
        return cls(lo, hi, frozenset(terms))

    def integers(self) -> tuple[Term, ...]:
        return self._pools[0]

    def terms_sorted(self) -> tuple[Term, ...]:
        return self._pools[1]

    @cached_property
    def _pools(self) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
        """The interval's numerals and all terms in term order, built on
        first use and kept: every call of `ground` reads both."""
        terms = tuple(sorted(self.general_terms, key=order_key))
        integers = tuple(
            t
            for t in terms
            if isinstance(t, Numeral) and self.int_lo <= t.value <= self.int_hi
        )
        return integers, terms

    def __contains__(self, term: Term) -> bool:
        return term in self.general_terms

    def contains_atom(self, atom: PredAtom) -> bool:
        return self.general_terms.issuperset(atom.args)


class GroundRule(Value):
    """A fully instantiated rule: precomputed atoms, comparisons resolved.

    Body literals are split by negation count: `pos` holds the plain atoms,
    `neg` the singly negated ones, `negneg` the doubly negated ones.
    """

    head: Optional[PredAtom]
    pos: tuple[PredAtom, ...] = ()
    neg: tuple[PredAtom, ...] = ()
    negneg: tuple[PredAtom, ...] = ()

    def __str__(self):
        parts = [str(a) for a in self.pos]
        parts += [f"not {a}" for a in self.neg]
        parts += [f"not not {a}" for a in self.negneg]
        body = ", ".join(parts)
        if self.head is None:
            return f":- {body}."
        if not body:
            return f"{self.head}."
        return f"{self.head} :- {body}."

    def as_rule(self) -> Rule:
        body = [Literal(a, 0) for a in self.pos]
        body += [Literal(a, 1) for a in self.neg]
        body += [Literal(a, 2) for a in self.negneg]
        return Rule(self.head, tuple(body))


class GroundProgram(Value):
    """Ground image of a program over a domain."""

    rules: tuple[GroundRule, ...] = ()

    def heads(self) -> frozenset[PredAtom]:
        return frozenset(r.head for r in self.rules if r.head is not None)

    def __len__(self):
        return len(self.rules)

    def __str__(self):
        return "\n".join(str(r) for r in self.rules)


def _variable_sorts(rule: Rule) -> dict[str, Sort]:
    sorts: dict[str, Sort] = {}
    for t in rule.terms():
        if isinstance(t, (Numeral, SymbolicConstant)):
            continue
        for s in subterms(t):
            if isinstance(s, Variable):
                sorts[s.name] = s.sort
    return sorts


def _check_safety(rule: Rule, sorts: dict[str, Sort]):
    bound: set[str] = set()
    for lit in rule.body:
        if lit.negations == 0 and isinstance(lit.atom, PredAtom):
            for arg in lit.atom.args:
                for s in subterms(arg):
                    if isinstance(s, Variable):
                        bound.add(s.name)
    for name, sort in sorted(sorts.items()):
        if sort is Sort.INTEGER:
            continue  # integer variables are bounded by the interval
        if name not in bound:
            raise SafetyError(
                f"variable {name} in rule `{rule}` occurs in no positive "
                "body atom and is not integer-sorted"
            )


def _eval_atom(atom: PredAtom) -> PredAtom:
    """The atom with its ground arguments evaluated; the atom itself when
    they are all numerals and symbolic constants already."""
    for arg in atom.args:
        if not isinstance(arg, (Numeral, SymbolicConstant)):
            return PredAtom(atom.name, tuple(eval_ground(a) for a in atom.args))
    return atom


def _comparison_holds(comparison: Comparison) -> bool:
    """Truth of a ground comparison, its sides evaluated first."""
    return Comparison(
        comparison.rel, eval_ground(comparison.lhs), eval_ground(comparison.rhs)
    ).holds()


def _finish_instance(rule: Rule, dom: Domain) -> Optional[GroundRule]:
    terms = dom.general_terms
    head = rule.head
    if head is not None:
        head = _eval_atom(head)
        if not terms.issuperset(head.args):
            return None
    pos: list[PredAtom] = []
    neg: list[PredAtom] = []
    negneg: list[PredAtom] = []
    for lit in rule.body:
        atom = lit.atom
        if isinstance(atom, Comparison):
            if _comparison_holds(atom) == (lit.negations == 1):
                return None
            continue
        atom = _eval_atom(atom)
        in_domain = terms.issuperset(atom.args)
        if lit.negations == 0:
            if not in_domain:
                return None
            pos.append(atom)
        elif lit.negations == 1:
            if in_domain:
                neg.append(atom)
        else:
            if not in_domain:
                return None
            negneg.append(atom)
    return GroundRule(head, _canonical(pos), _canonical(neg), _canonical(negneg))


def _canonical(atoms: list[PredAtom]) -> tuple[PredAtom, ...]:
    """`atoms` without repeats, in atom order."""
    if len(atoms) < 2:
        return tuple(atoms)
    return tuple(sorted(dict.fromkeys(atoms), key=atom_order_key))


def _assignments(
    sorts: dict[str, Sort], theta: dict[str, Term], dom: Domain
) -> Iterator[dict[str, Term]]:
    """Every extension of `theta` to the variables of `sorts`: integer
    variables over the interval's numerals, general ones over all terms."""
    free = sorted(set(sorts) - set(theta))
    pools = {Sort.INTEGER: dom.integers(), Sort.GENERAL: dom.terms_sorted()}
    for combo in itertools.product(*(pools[sorts[v]] for v in free)):
        yield {**theta, **dict(zip(free, combo))}


def ground(pi: Program, dom: Domain) -> GroundProgram:
    """Instantiate every rule over the domain, in text order.

    Integer variables range over the interval's numerals, general variables
    over the domain's terms; general variables must additionally occur in a
    positive body atom (range restriction), or the rule is rejected.
    """
    out: dict[GroundRule, None] = {}
    for rule in pi.rules:
        sorts = _variable_sorts(rule)
        _check_safety(rule, sorts)
        for theta in _assignments(sorts, {}, dom):
            finished = _finish_instance(substitute_rule(rule, theta), dom)
            if finished is not None:
                out[finished] = None
    return GroundProgram(tuple(sorted(out, key=str)))


def _matchable(rule: Rule, sorts: dict[str, Sort]) -> bool:
    """Can `_match` bind the rule's variables as `ground` assigns them?
    Not when an occurrence disagrees with the variable's sort, or when
    arithmetic mentions a symbolic constant or a general variable, which
    may leave it without a value (`make_rule` rules out all but the last)."""
    for t in rule.terms():
        for s in subterms(t):
            if isinstance(s, Variable) and s.sort is not sorts[s.name]:
                return False
            if isinstance(s, Arith) and any(
                isinstance(x, SymbolicConstant)
                or (isinstance(x, Variable) and x.sort is not Sort.INTEGER)
                for x in subterms(s)
            ):
                return False
    return True


def _match(t: Term, value: Term, theta: dict[str, Term], dom: Optional[Domain]) -> bool:
    """Extend `theta` towards an assignment under which `t` evaluates to
    `value`; False when no assignment `ground` would try can.

    Variables met directly or inside function terms are bound to the
    matching part of `value`, if `ground` would give them that value (any
    value of their sort when `dom` is None); an arithmetic term whose only
    variable occurs once is solved for it.  Any other arithmetic leaves its
    variables unbound, to be enumerated.
    """
    if isinstance(t, Variable):
        if t.name in theta:
            return theta[t.name] == value
        if t.sort is Sort.INTEGER:
            if not isinstance(value, Numeral) or (
                dom is not None and not dom.int_lo <= value.value <= dom.int_hi
            ):
                return False
        elif dom is not None and value not in dom:
            return False
        theta[t.name] = value
        return True
    if isinstance(t, Func):
        return (
            isinstance(value, Func)
            and value.name == t.name
            and len(value.args) == len(t.args)
            and all(_match(a, v, theta, dom) for a, v in zip(t.args, value.args))
        )
    if isinstance(t, Arith):
        if not isinstance(value, Numeral):
            return False
        t = simplify(substitute_variables(t, theta))
        free = [s.name for s in subterms(t) if isinstance(s, Variable)]
        if not free:
            return t == value
        if len(free) > 1:
            return True  # as in `N+N`, which `_invert` cannot peel apart
        solved: dict[str, Term] = {}
        # The one variable of `t`, if solved (not under `*0`), is bound like
        # any other.
        return _invert(t, value.value, solved) and all(
            _match(Variable(name, Sort.INTEGER), bound, theta, dom)
            for name, bound in solved.items()
        )
    return t == value


def _invert(t: Term, target: int, bindings: dict[str, Term]) -> bool:
    # `t` holds its one variable once, so it is that variable or arithmetic
    # (which takes no function term) with the variable in one operand.
    if isinstance(t, Variable):
        bindings[t.name] = Numeral(target)
        return True
    left, right = simplify(t.left), simplify(t.right)
    var_on_left = bool(variables_of(left))
    side, other = (left, right) if var_on_left else (right, left)
    if not isinstance(other, Numeral):
        return False
    c = other.value
    if t.op == "+":
        return _invert(side, target - c, bindings)
    if t.op == "-":
        if var_on_left:
            return _invert(side, target + c, bindings)
        return _invert(side, c - target, bindings)
    if c == 0:
        return target == 0
    if target % c != 0:
        return False
    return _invert(side, target // c, bindings)


def ground_reachable(
    programs: Sequence[Program], dom: Domain, seeds: Iterable[PredAtom]
) -> list[GroundProgram]:
    """For each of the `programs`, the instances of its `ground(pi, dom)`
    whose positive body lies in `R`, in no promised order.  `R` is one
    least model for all of them: that of every instance of every program
    (negated literals read as true) plus the seeds as facts.

    Every stable model whose extensional atoms are among the seeds lies
    inside `R`, so the instances left out are vacuous in all of them.

    Semi-naive evaluation: each derived atom, once taken from the queue,
    is matched against the positive body literals of its predicate that
    agree with it at their ground positions, and the rule's other positive
    literals are joined against the atoms taken so far, indexed by
    predicate and by the value at each argument position.  Variables left
    unbound run over their domain pool, as in `ground`; an instance is kept
    only if all of its positive atoms are derived.  A variable-free rule,
    and each instance of a rule that `_match` cannot bind, is evaluated once
    instead, and kept when the last of its positive atoms is taken.
    """
    out: list[dict[GroundRule, None]] = [{} for _ in programs]
    derived: set[PredAtom] = set()
    queue: list[PredAtom] = []
    # Atoms taken from the queue, under (pred,) and (pred, position, value).
    taken: dict[tuple, list[PredAtom]] = {}
    # Positive body literals, under (pred,) or their first ground position.
    watch: dict[tuple, list[tuple]] = {}
    # Variable-free instances as [positive atoms not yet taken, owner,
    # instance], under each of their positive atoms.
    waiting: dict[PredAtom, list[list]] = {}

    def derive(atom: PredAtom):
        if atom not in derived:
            derived.add(atom)
            queue.append(atom)

    def keep(owner: int, finished: GroundRule):
        out[owner][finished] = None
        if finished.head is not None:
            derive(finished.head)

    def emit(rule: Rule, sorts: dict[str, Sort], owner: int, theta: dict[str, Term]):
        for full in _assignments(sorts, theta, dom):
            finished = _finish_instance(substitute_rule(rule, full), dom)
            if finished is not None and all(a in derived for a in finished.pos):
                keep(owner, finished)

    def join(rule, sorts, owner, rest: list[PredAtom], theta: dict[str, Term]):
        if not rest:
            emit(rule, sorts, owner, theta)
            return
        literal = rest[0]
        args = [simplify(substitute_variables(a, theta)) for a in literal.args]
        bucket = taken.get((literal.pred,), ())
        for k, arg in enumerate(args):
            if is_precomputed(arg):
                candidates = taken.get((literal.pred, k, arg), ())
                if len(candidates) < len(bucket):
                    bucket = candidates
        for atom in bucket:
            extended = dict(theta)
            if all(_match(a, v, extended, dom) for a, v in zip(args, atom.args)):
                join(rule, sorts, owner, rest[1:], extended)

    instantiable: list[tuple[Rule, dict[str, Sort], int]] = []
    for owner, pi in enumerate(programs):
        for rule in pi.rules:
            sorts = _variable_sorts(rule)
            if not sorts:
                finished = _finish_instance(rule, dom)
                instances = () if finished is None else (finished,)
            else:
                _check_safety(rule, sorts)
                if _matchable(rule, sorts):
                    instantiable.append((rule, sorts, owner))
                    continue
                # Instantiate in full, failing exactly where `ground` fails.
                instances = ground(Program((rule,)), dom).rules
            for finished in instances:
                if not finished.pos:
                    keep(owner, finished)
                entry = [len(finished.pos), owner, finished]
                for atom in finished.pos:
                    waiting.setdefault(atom, []).append(entry)
    for rule, sorts, owner in instantiable:
        pos = [
            lit.atom
            for lit in rule.body
            if lit.negations == 0 and isinstance(lit.atom, PredAtom)
        ]
        if not pos:
            emit(rule, sorts, owner, {})
        for i, atom in enumerate(pos):
            key: tuple = (atom.pred,)
            for k, arg in enumerate(atom.args):
                arg = simplify(arg)
                if is_precomputed(arg):
                    key = (atom.pred, k, arg)
                    break
            watch.setdefault(key, []).append((rule, sorts, owner, pos, i))
    for atom in seeds:
        derive(atom)
    while queue:
        atom = queue.pop()
        for entry in waiting.pop(atom, ()):
            entry[0] -= 1
            if not entry[0]:
                keep(entry[1], entry[2])
        if not watch:
            continue  # no rule with variables: nothing to match or take
        keys = [(atom.pred,)] + [(atom.pred, k, v) for k, v in enumerate(atom.args)]
        if not any(key in watch for key in keys):
            continue  # no positive body literal can match it
        for key in keys:
            taken.setdefault(key, []).append(atom)
        for key in keys:
            for rule, sorts, owner, pos, i in watch.get(key, ()):
                theta: dict[str, Term] = {}
                if all(_match(a, v, theta, dom) for a, v in zip(pos[i].args, atom.args)):
                    join(rule, sorts, owner, pos[:i] + pos[i + 1 :], theta)
    return [GroundProgram(tuple(instances)) for instances in out]
