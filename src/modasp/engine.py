"""Model checking and enumeration under the here-and-there criterion.

An interpretation is a finite set of precomputed atoms (everything outside
it is false).  Stability of a model is checked either by brute force over
the proper here-world subsets, or through the program reduct: delete every
rule with a refuted negated literal, strip the remaining negated literals,
add one fact per true extensional atom, and compare the least model with
the candidate.  Both engines share the ground program and one search
(`_search`) and differ only in the minimality test at its leaves; the test
suite holds them to identical answers.  One linear routine, `_closure`,
computes every least model over masks: the reduct's, and both propagation
steps of the search.  `fixpoint` is the search's deterministic case: on a
negation-free program with no choices, propagation at the root decides
every atom, so the search never branches.
"""

import itertools
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import CapacityError, DomainError, EngineError, NotIntensionalError
from .grounding import (
    Domain,
    GroundRule,
    _assignments,
    _comparison_holds,
    _eval_atom,
    _variable_sorts,
    ground,
    ground_reachable,
)
from .instantiation import Module, ModularProgram
from .intensionality import IntensionalityStatement, PatternIndex, lambda_holds
from .program import (
    Comparison,
    Literal,
    PredAtom,
    Program,
    Rule,
    atom_is_precomputed,
    atom_order_key,
    substitute_rule,
)
from .terms import (
    Numeral,
    Sort,
    Term,
    Value,
    Variable,
    eval_ground,
    subterms,
)

ENGINES = ("brute", "reduct", "fixpoint")
# The engines that decide the stability of one given candidate.
CHECK_ENGINES = ("brute", "reduct")
# The atom cap of enumeration (`--cap`) and of `brute` membership checks.
DEFAULT_CAP = 24


class Interpretation(Value):
    """A finite set of precomputed atoms, standing for everything true."""

    atoms: frozenset[PredAtom] = frozenset()

    @classmethod
    def of(cls, atoms: Iterable[PredAtom]) -> "Interpretation":
        atoms = frozenset(atoms)
        for atom in atoms:
            if not isinstance(atom, PredAtom) or not atom_is_precomputed(atom):
                raise DomainError(f"interpretation atom {atom} is not precomputed")
        return cls(atoms)

    def sorted_atoms(self) -> Sequence[PredAtom]:
        return sorted(self.atoms, key=atom_order_key)

    def __contains__(self, atom: PredAtom) -> bool:
        return atom in self.atoms

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.sorted_atoms())

    def __str__(self):
        return " ".join(str(a) for a in self.sorted_atoms())


class HTInterpretation(Value):
    """Two-world interpretation: `here` is a subset of the atoms true `there`."""

    here: frozenset[PredAtom]
    there: Interpretation

    def __post_init__(self):
        if not self.here <= self.there.atoms:
            raise DomainError("here-world must be a subset of the there-world atoms")

    @classmethod
    def of(cls, here: Iterable[PredAtom], there: Interpretation) -> "HTInterpretation":
        return cls(frozenset(here), there)


# --- direct satisfaction (reference implementations) ---------------------------


def _literal_holds(
    literal: Literal, here: frozenset[PredAtom], there: frozenset[PredAtom]
) -> bool:
    """Truth of `literal` at the here-world `here` of the there-world
    `there`: a plain atom is read at `here`, a negated or double-negated
    one at `there`, and a comparison holds at both or neither.  Classical
    truth in `I` is truth at `here == there == I` (Lifschitz, Pearce &
    Valverde, ACM TOCL 2001)."""
    atom = literal.atom
    if isinstance(atom, Comparison):
        value = _comparison_holds(atom)
    else:
        value = _eval_atom(atom) in (there if literal.negations else here)
    return not value if literal.negations == 1 else value


def _holds(
    item: Literal | Rule, here: frozenset[PredAtom], there: frozenset[PredAtom]
) -> bool:
    """Truth of a literal, or of a rule as an implication, at the here-world
    `here` of `there`: a rule holds when its body fails or its head holds
    at `here`."""
    if isinstance(item, Literal):
        return _literal_holds(item, here, there)
    if not all(_literal_holds(lit, here, there) for lit in item.body):
        return True
    return item.head is not None and _eval_atom(item.head) in here


def _as_rules(f, dom: Optional[Domain]) -> list[Literal | Rule]:
    if isinstance(f, GroundRule):
        return [f.as_rule()]
    if isinstance(f, Program):
        out: list[Rule] = []
        for rule in f.rules:
            out.extend(_as_rules(rule, dom))
        return out
    if isinstance(f, (PredAtom, Comparison)):
        f = Literal(f, 0)
    if isinstance(f, Literal):
        return [f]
    if isinstance(f, Rule):
        if not f.variables():
            return [f]
        if dom is None:
            raise DomainError(
                "a non-ground rule needs a domain for quantifier expansion"
            )
        return [gr.as_rule() for gr in ground(Program.of([f]), dom).rules]
    raise TypeError(f"cannot evaluate object of type {type(f).__name__}")


def classical_satisfies(I: Interpretation, f, dom: Optional[Domain] = None) -> bool:
    """Classical satisfaction of a rule, literal or atom, which is truth at
    ⟨I, I⟩; non-ground rules are expanded over the domain."""
    return all(_holds(item, I.atoms, I.atoms) for item in _as_rules(f, dom))


def ht_satisfies(hi: HTInterpretation, f, dom: Optional[Domain] = None) -> bool:
    """Here-and-there satisfaction of a rule, literal or atom: each holds at
    ⟨T, T⟩ (classically in the there-world T) and at ⟨H, T⟩."""
    there = hi.there.atoms
    return all(
        _holds(item, there, there) and _holds(item, hi.here, there)
        for item in _as_rules(f, dom)
    )


# --- extensional atoms over a domain --------------------------------------------


def extensional_region(
    kappa: IntensionalityStatement,
    predicates: Iterable[tuple[str, int]],
    dom: Domain,
) -> frozenset[PredAtom]:
    """All atoms over the domain whose argument tuple no pattern matches:
    those outside the region of `kappa` in its own `PatternIndex`
    (`PatternIndex.outside`), as `_solve` reads them from `P.patterns`."""
    return PatternIndex([kappa]).outside(1, predicates, dom)


# --- compiled stability checking -------------------------------------------------


class StabilityChecker:
    """Mask-compiled stability test of one program over a shared atom index.

    Candidates are bit masks over the index; `compiled` holds each rule as
    `(head, pos, neg, negneg)` (`_compile`).  The checker indexes its own
    table: `watch` files the position of each rule under each bit of its
    positive body, so that `_closure` looks at a rule again only when one
    of them is derived, and `negneg` holds every double-negated atom.
    `ext_mask` holds the atoms extensional under the program's own
    statement.
    """

    def __init__(self, compiled: list[tuple[int, int, int, int]], ext_mask: int):
        self.compiled = compiled
        self.ext_mask = ext_mask
        watch: dict[int, list[int]] = {}
        negnegs = 0
        for i, (_, pos, _, negneg) in enumerate(compiled):
            negnegs |= negneg
            while pos:
                bit = pos & -pos
                watch.setdefault(bit, []).append(i)
                pos ^= bit
        self.watch = watch
        self.negneg = negnegs

    def under(self, ext_mask: int) -> "StabilityChecker":
        """This checker's rules and index, not built again, with `ext_mask`."""
        other = object.__new__(StabilityChecker)
        other.__dict__.update(vars(self), ext_mask=ext_mask)
        return other

    def classical(self, T: int) -> bool:
        return all(head & T for _, head in self._live(T))

    def _live(self, T: int) -> list[tuple[int, int]]:
        # Rules whose negated literals and positive body hold at the
        # there-world T; only these constrain the here-world.
        return [
            (pos, head)
            for head, pos, neg, negneg in self.compiled
            if neg & T == 0 and negneg & T == negneg and pos & T == pos
        ]

    def minimal_brute(self, T: int) -> bool:
        """No proper subset of T containing its extensional atoms is closed
        under the live rules; subsets missing a true extensional atom
        violate that atom's choice axiom and need no enumeration."""
        int_mask = T & ~self.ext_mask
        if int_mask == 0:
            return True
        ext = T & self.ext_mask
        live = self._live(T)
        s = int_mask
        while True:
            s = (s - 1) & int_mask
            here = ext | s
            closed = True
            for pos, head in live:
                if pos & here == pos and not head & here:
                    closed = False
                    break
            if closed:
                return False
            if s == 0:
                return True

    def minimal_reduct(self, T: int) -> bool:
        """Least model of the reduct plus extensional facts equals T."""
        return _closure(T & self.ext_mask, self.compiled, self.watch, T, T) == T

    def check(self, T: int, engine: str) -> bool:
        if not self.classical(T):
            return False
        if engine == "brute":
            return self.minimal_brute(T)
        return self.minimal_reduct(T)


def _compile(
    rules: Iterable[GroundRule], index: dict[PredAtom, int]
) -> list[tuple[int, int, int, int]]:
    """Each rule of `rules` as `(head, pos, neg, negneg)`, bit masks over
    `index`.  Atoms outside the index are false in every candidate: a rule
    with one in its positive or double-negated body is dropped, and one in
    a negated literal makes that literal true.  A constraint, or a rule
    whose head falls outside the index, gets as head the bit above every
    atom of the index.  No candidate holds it, so no candidate making the
    body true is a classical model, and deriving it is a conflict."""
    bottom = 1 << len(index)
    compiled = []
    for rule in rules:
        pos = neg = negneg = 0
        try:
            for atom in rule.pos:
                pos |= index[atom]
            for atom in rule.negneg:
                negneg |= index[atom]
        except KeyError:
            continue
        for atom in rule.neg:
            neg |= index.get(atom, 0)
        compiled.append((index.get(rule.head, bottom), pos, neg, negneg))
    return compiled


def _closure(
    derived: int, rules, watch: dict[int, list[int]], blocked: int, need: int
) -> int:
    """The least superset of `derived` closed under the `rules` whose
    negated atoms avoid `blocked` and whose double-negated atoms lie in
    `need`.  Linear: a rule is looked at once, and again only when one of
    its positive atoms, under which `watch` files it, is derived."""
    queue = [
        head
        for head, pos, neg, negneg in rules
        if pos & derived == pos and not neg & blocked and negneg & need == negneg
    ]
    while queue:
        head = queue.pop()
        if head & derived:
            continue
        derived |= head
        for i in watch.get(head, ()):
            head, pos, neg, negneg = rules[i]
            if pos & derived == pos and not neg & blocked and negneg & need == negneg:
                queue.append(head)
    return derived


class CompiledParts:
    """The compiled rule tables of the modules of a modular program `P`
    over one atom universe.

    `rules[i]` holds the ground rules of module i, compiled into
    `tables[i]` over one shared atom-to-bit index.  Every region comes from
    one `P.patterns.holding` call per atom: `ext_masks[i]` holds the atoms
    outside module i's own region, and `intensional` the atoms in
    `P.kappa`'s.  `allowed` holds every atom but the intensional ones that
    lie in no module's region, which the closure condition makes false.
    Bit i stands for atom i of the universe; the solvers sort it by
    `atom_order_key`, so that `ordered` comes out in output order.
    `checkers` (whole modules, for a given candidate) and `split` (by
    component, for the search) are built on first use.
    """

    def __init__(
        self,
        universe: Sequence[PredAtom],
        P: ModularProgram,
        rules: Sequence[Sequence[GroundRule]],
    ):
        self.base = tuple(universe)
        index = {atom: 1 << i for i, atom in enumerate(self.base)}
        self.full = (1 << len(index)) - 1
        regions = [0] * (len(P.modules) + 1)  # each module's, then `P.kappa`'s
        holding = P.patterns.holding
        for atom, bit in index.items():
            found = holding(atom.pred, atom.args)
            while found:
                low = found & -found
                regions[low.bit_length() - 1] |= bit
                found ^= low
        self.intensional = regions.pop()
        self.tables = [_compile(table, index) for table in rules]
        self.ext_masks = [self.full & ~own for own in regions]
        defined = 0
        for own in regions:
            defined |= own
        self.allowed = self.full & ~(self.intensional & ~defined)

    @cached_property
    def checkers(self) -> list[StabilityChecker]:
        """One `StabilityChecker` per module, over the whole universe."""
        return [StabilityChecker(t, e) for t, e in zip(self.tables, self.ext_masks)]

    @cached_property
    def split(self) -> tuple[list, int]:
        """The components of the module tables over the whole universe
        (`_split`), each forward table under `P.kappa`'s extensional atoms:
        the modular search and the union reading search the same parts."""
        return _split(
            self.full, self.tables, self.ext_masks, self.full & ~self.intensional
        )

    def interpretations(self, masks: Iterable[int]) -> frozenset[Interpretation]:
        """The interpretation of each mask of `masks`, in no order."""
        base = self.base
        return frozenset(
            Interpretation(frozenset(_members(base, mask))) for mask in masks
        )

    def ordered(self, masks: Iterable[int]) -> dict[int, Interpretation]:
        """Each distinct mask of `masks` with its interpretation, in output
        order (`_output_order`)."""
        base = self.base
        return {
            mask: Interpretation(frozenset(_members(base, mask)))
            for mask in _output_order(masks)
        }

    def rendered(self, masks: Iterable[int]) -> dict[int, list[str]]:
        """Each distinct mask of `masks` with the text of its atoms, in
        output order (`_output_order`); each base atom is rendered once."""
        names = [str(atom) for atom in self.base]
        return {mask: list(_members(names, mask)) for mask in _output_order(masks)}


def _output_order(masks: Iterable[int]) -> list[int]:
    """The distinct masks of `masks`, sorted as their lists of set-bit
    positions, ascending.  Over a universe sorted by `atom_order_key` that
    is the order of the models' lists of sorted atoms: output order."""
    return sorted(set(masks), key=_order_key)


_FLIP = str.maketrans("01", "10")


def _order_key(mask: int) -> str:
    """The binary digits of `mask` from bit 0 up, "0" for a set bit and "1"
    for a clear one; "" for the empty mask, whose list comes first.  At the
    lowest bit where two masks differ, the mask that holds it has the
    smaller next position and key, or the other has no bit left and a key
    that is a proper prefix of its key."""
    return bin(mask)[:1:-1].translate(_FLIP) if mask else ""


_SELECT = bytes.maketrans(b"01", b"\0\1")


def _members(items: Sequence, mask: int) -> Iterable:
    """The items of `items` at the set bits of `mask`, in order, picked by
    `compress` from its binary digits, bit 0 first.  A bit at or above
    `len(items)` raises `IndexError`, which `compress` alone would drop."""
    if mask >> len(items):
        raise IndexError(
            f"mask bit {mask.bit_length() - 1} lies outside {len(items)} items"
        )
    return itertools.compress(items, bin(mask)[:1:-1].encode().translate(_SELECT))


def _require_engine(engine: str, allowed: tuple[str, ...]):
    if engine not in allowed:
        raise EngineError(
            f"engine {engine!r} is not applicable here; choose one of "
            f"{', '.join(allowed)}"
        )


def is_kappa_stable(
    I: Interpretation,
    kappa: IntensionalityStatement,
    pi: Program,
    dom: Domain,
    engine: str = "reduct",
) -> bool:
    """Is `I` a stable model of the program joined with the choice axioms?
    It is an answer set of the one-module program (`is_answer_set`)."""
    return is_answer_set(I, ModularProgram(kappa, (Module(kappa, pi),)), dom, engine)


def is_answer_set(
    I: Interpretation, P: ModularProgram, dom: Domain, engine: str
) -> bool:
    """Is `I` an answer set of the modular program `P`: stable in every
    module under its own statement, with each true atom intensional under
    `P.kappa` in some module's region?

    Classical satisfaction of the rules is checked first (the choice axioms
    are classical tautologies), then minimality with `engine`.  One
    `ground_reachable` call seeded with `I` grounds every module: an
    instance left out has a positive body atom outside `I`.  `brute`
    refuses, before it walks any subsets, a module with more than
    `DEFAULT_CAP` intensional atoms in `I`.  An atom of a predicate that
    `P` never mentions is read as any other, extensional under every
    statement that has no pattern for it: `is_model_of_module` must read
    the predicates of other modules that way, so the verdict does not check
    the signature of `P`, and `check-model` rejects such atoms itself.
    """
    _require_engine(engine, CHECK_ENGINES)
    universe = I.sorted_atoms()
    for atom in universe:
        if not dom.contains_atom(atom):
            raise DomainError(f"atom {atom} lies outside the declared domain")
    grounded = ground_reachable([m.pi for m in P.modules], dom, I.atoms)
    compiled = CompiledParts(universe, P, [gp.rules for gp in grounded])
    T = compiled.full
    if engine == "brute":
        _refuse_brute_walk(T, compiled.checkers)
    return compiled.allowed == T and all(c.check(T, engine) for c in compiled.checkers)


def _refuse_brute_walk(T: int, checkers: Sequence[StabilityChecker]):
    """`minimal_brute` walks the subsets of the atoms of `T` that one of the
    `checkers` holds intensional: refuse more than `DEFAULT_CAP` of them
    before walking any.  `is_answer_set` passes one checker per module, so
    it counts one module's intensional atoms in the candidate; a leaf of
    the search passes a component's checkers and true atoms, so it counts
    one module's intensional atoms of that component."""
    walked = max(((T & ~c.ext_mask).bit_count() for c in checkers), default=0)
    if walked > DEFAULT_CAP:
        raise CapacityError(
            f"brute would walk the subsets of {walked} intensional atoms "
            f"of one part (cap {DEFAULT_CAP}); use the reduct engine"
        )


def least_model(rules: Iterable[GroundRule]) -> frozenset[PredAtom]:
    """Least model of the definite rules (negated literals are ignored)."""
    definite = [(r.head, r.pos) for r in rules if r.head is not None]
    watchers: dict[PredAtom, list[int]] = {}
    counts: list[int] = []
    queue: list[PredAtom] = []
    for idx, (head, pos) in enumerate(definite):
        unique = set(pos)
        counts.append(len(unique))
        for atom in unique:
            watchers.setdefault(atom, []).append(idx)
        if not unique:
            queue.append(head)
    derived: set[PredAtom] = set()
    while queue:
        atom = queue.pop()
        if atom in derived:
            continue
        derived.add(atom)
        for idx in watchers.get(atom, ()):
            counts[idx] -= 1
            if counts[idx] == 0:
                queue.append(definite[idx][0])
    return frozenset(derived)


def _split(
    mask: int,
    tables: Sequence[list[tuple[int, int, int, int]]],
    ext_masks: Sequence[int],
    ext_mask: int,
) -> tuple[list[tuple[int, list[StabilityChecker], StabilityChecker]], int]:
    """The connected components of the rule `tables` over the atoms of
    `mask`, as `(parts, unmentioned)`, for `_search`.

    Two atoms of `mask` lie in one component when a rule of some table
    mentions both; a rule's atoms outside `mask`, a constraint's head among
    them, join nothing.  Each part is `(atoms, checkers, forward)`: the
    component's atoms; a `StabilityChecker` for each table over its rules
    in the component, with the table's mask of `ext_masks`, but none for a
    table with no rule there and no own atom among `atoms`, which accepts
    every candidate; and `forward`, the checker of all those rules, table
    after table, under `ext_mask`, which shares the rules and index of the
    one checker with rules when there is one.  The rules that touch no atom
    of `mask` form the empty part, which joins the first component, or has
    atoms 0 when there is none.  Parts come in the order of their lowest
    atom, so they do not depend on the order of the rules.  `unmentioned`
    holds the atoms of `mask` that no rule mentions.
    """
    # Union-find over the bit positions of `mask`: the atoms of a rule join
    # the one at its highest position.
    parent = list(range(mask.bit_length()))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    mentioned = 0
    for table in tables:
        for head, pos, neg, negneg in table:
            m = (head | pos | neg | negneg) & mask
            mentioned |= m
            if m & (m - 1):  # two atoms or more
                root = find(m.bit_length() - 1)
                while m:
                    i = m.bit_length() - 1
                    m ^= 1 << i
                    parent[find(i)] = root
    # Each component's atoms, under its root, in the order of its lowest bit.
    members: dict[int, int] = {}
    m = mentioned
    while m:
        bit = m & -m
        m ^= bit
        root = find(bit.bit_length() - 1)
        members[root] = members.get(root, 0) | bit
    atoms = list(members.values()) or [0]
    # Each table's rules by component, the empty part's in the first.
    part_of = {root: k for k, root in enumerate(members)}
    rows = [[[] for _ in tables] for _ in atoms]
    for j, table in enumerate(tables):
        for entry in table:
            m = (entry[0] | entry[1] | entry[2] | entry[3]) & mask
            k = part_of[find(m.bit_length() - 1)] if m else 0
            rows[k][j].append(entry)
    parts = []
    for part, row in zip(atoms, rows):
        checkers = [
            StabilityChecker(t, e) for t, e in zip(row, ext_masks) if t or part & ~e
        ]
        ruled = [c for c in checkers if c.compiled]
        if len(ruled) == 1:
            forward = ruled[0].under(ext_mask)
        else:
            forward = StabilityChecker([entry for t in row for entry in t], ext_mask)
        parts.append((part, checkers, forward))
    return parts, mask & ~mentioned


def _search(
    mask: int,
    parts: Sequence[tuple[int, Sequence[StabilityChecker], StabilityChecker]],
    free: int,
    engine: str,
) -> list[int]:
    """Every subset of `mask` that all checkers of a part accept (`check`
    with `engine`); atoms outside `mask` stay false.  `parts` is a `_split`
    of tables over some superset of `mask`, or that split with each part's
    checkers replaced by its forward table; `free` holds the atoms that no
    rule mentions and that every table (or every forward table) holds
    extensional.

    Each part is searched once over its atoms in `mask`, and the answers
    are the product of the parts' answers (splitting: Lifschitz & Turner,
    ICLP 1994; Oikarinen & Janhunen, TPLP 2008).  Let `T` be a candidate
    and `T_k` its atoms in part k.  Every test of `check` decomposes:
    * classical satisfaction is a conjunction over rules, and each rule
      reads the atoms of one part, or none of the split's mask;
    * the least model of the reduct from `T`'s extensional atoms is the
      union over parts of the least model of its rules from `T_k`'s, since
      a rule derives its head from atoms of its own part, and an atom that
      no rule mentions lies in it exactly when it is extensional (the
      unfounded step of `_propagate` splits the same way);
    * under `minimal_brute`, a proper closed here-world of one `T_k`, with
      the rest of a classical model `T` added, stays closed under the rules
      of the other parts live at `T`, whose heads lie in `T`; and a proper
      closed here-world of `T` is proper in some part.
    So `T` is accepted exactly when each `T_k` is accepted by the checkers
    of part k, and each atom of `T` that no rule mentions is extensional in
    every table: such atoms, `free`, need no search, each doubles the
    answers, and the others are false.  A split over a superset of `mask`
    is at most coarser than one over `mask`, which the argument allows.
    The empty part reads only false atoms, so that a constraint that
    always fires still removes every answer.

    Every part is decided at its root first: `_propagate` runs on each,
    and a conflict in any part means no answer at all.  The parts are then
    searched from their propagated roots, fewest open atoms first, and an
    empty answer list ends the search; the product is taken only when
    every list is non-empty.  So a part with no answer costs no
    enumeration of the others.  Neither the answers nor their output order
    can move with the order of the parts: the product of the answer lists
    is one set of masks whatever the order of its factors, and every
    caller decodes masks in `_output_order`, which sorts them (or into a
    set).  `_branch` searches each part, so the refusal of `brute` at a
    leaf counts one part's atoms; it is raised only from a part searched
    before a part is found empty.
    """
    roots = []
    for part, checkers, forward in parts:
        root = _propagate(0, part & mask, forward, checkers)
        if root is None:
            return []
        roots.append((root, checkers, forward))
    roots.sort(key=lambda searched: searched[0][1].bit_count())  # stable
    answers = []
    for root, checkers, forward in roots:
        answers.append(_branch(root, checkers, forward, engine))
        if not answers[-1]:
            return []
    found = [0]
    for part in answers:
        found = [a | b for a in found for b in part]
    free &= mask
    while free:
        bit = free & -free
        free ^= bit
        found += [a | bit for a in found]
    return found


def _branch(
    root: tuple[int, int],
    checkers: Sequence[StabilityChecker],
    forward: StabilityChecker,
    engine: str,
) -> list[int]:
    """Every total extension of the propagated `root`, a `(true, open_)`
    state of one part, that all `checkers` accept (`check` with `engine`),
    found depth-first; atoms neither true nor open stay false.  `forward`
    holds the rules of all `checkers` (`_split`).

    Each node branches on an open choice (an atom outside every checker's
    own region) if there is one, else on the lowest open atom, and each
    child is propagated (`_propagate`, whose forward step runs over
    `forward`) as it is pushed, so that no state is propagated twice and a
    conflicting child is never pushed.  At a total assignment propagation
    has made `T` a classical model of every checker, so only the leaf
    minimality test is left: `minimal_brute` under `brute`, which first
    refuses a walk past `DEFAULT_CAP` atoms, and `minimal_reduct` under
    every other engine.  Classical satisfaction and completeness rest on
    `_propagate`.  Under `brute` the leaf test is an independent subset
    walk.  Under the other engines it repeats a call: the last round of
    `_propagate` ran `_closure(T & ext_mask, compiled, watch, T, T)`, which
    is `minimal_reduct(T)`, for each checker with an own atom, and for the
    others the test holds trivially; no test run has seen it reject a
    leaf.  It stays so that the answers do not rest on the propagator
    alone, and for when propagation is incremental and no longer ends in
    that call.
    """
    choices = root[1]
    for c in checkers:
        choices &= c.ext_mask
    leaves = [
        c.minimal_brute if engine == "brute" else c.minimal_reduct for c in checkers
    ]
    found = []
    stack = [root]
    while stack:
        true, open_ = stack.pop()
        if open_:
            pick = open_ & choices or open_
            bit = pick & -pick
            open_ ^= bit
            for child in (true, true | bit):
                state = _propagate(child, open_, forward, checkers)
                if state is not None:
                    stack.append(state)
        else:
            if engine == "brute":
                _refuse_brute_walk(true, checkers)
            for leaf in leaves:
                if not leaf(true):
                    break
            else:
                found.append(true)
    return found


def _propagate(
    true: int, open_: int, forward: StabilityChecker, checkers
) -> Optional[tuple[int, int]]:
    """One forward and one unfounded step per round, until nothing changes;
    returns the new `(true, open_)`, or None on a conflict.  `forward` is
    the join of `checkers`.  Each step drops only assignments that `check`
    rejects under both minimality tests.

    * Forward: the closure of `true` under the rules whose negated atoms
      are all false sets their heads true.  A derived head outside the
      possible atoms `true | open_`, a constraint's among them, is a
      conflict.  Every total extension making those bodies true and such
      a head false is no classical model.
    * Unfounded (the `atmost` step of smodels, bounding the greatest
      unfounded set): the closure of a checker's possible atoms outside
      its own region, under the rules live in some extension (no negated
      atom true, every double-negated atom possible), bounds what it can
      derive.  An own open atom outside that bound becomes false, and an
      own true atom outside it is a conflict.  Take a total extension `T`
      with an own atom `a` outside the bound.  The reduct at `T` keeps
      only rules that the closure may use, and its extensional facts are
      possible, so its least model lies in the bound and misses `a`:
      `minimal_reduct` fails.  And if `T` is a classical model, the
      here-world `T & bound` keeps every true extensional atom, misses `a`
      and is closed under the rules live at `T`, whose heads lie in `T`
      and, by the closure, in the bound: `minimal_brute` fails as well.
      The step subsumes the support rule: an own atom each of whose rules
      has a body false in every extension never enters the bound.
    """
    while True:
        possible = true | open_
        derived = _closure(true, forward.compiled, forward.watch, possible, true)
        if derived & ~possible:
            return None
        open_ &= ~derived
        new, true = derived & ~true, derived
        before = open_
        for c in checkers:
            possible = true | open_
            if not possible & ~c.ext_mask:
                continue  # no own atom to bound
            derivable = _closure(
                possible & c.ext_mask, c.compiled, c.watch, true, possible
            )
            bound = c.ext_mask | derivable
            if true & ~bound:
                return None
            open_ &= bound
        # The forward closure took double-negated atoms from the old `true`;
        # unless it derived one of them, it is closed, and stays so while
        # the unfounded step changes nothing.
        if open_ == before and not new & forward.negneg:
            return true, open_


def enumerate_kappa_stable(
    kappa: IntensionalityStatement,
    pi: Program,
    dom: Domain,
    engine: str = "reduct",
    cap: int = DEFAULT_CAP,
) -> frozenset[Interpretation]:
    """All stable models of `pi` under `kappa` over the relevant atom base:
    the answer sets of the one-module program (`_solve`)."""
    _require_engine(engine, ENGINES)
    P = ModularProgram(kappa, (Module(kappa, pi),))
    compiled, masks = _solve(P, dom, engine, cap)
    return compiled.interpretations(masks)


def _solve(
    P: ModularProgram, dom: Domain, engine: str, cap: int
) -> tuple[CompiledParts, list[int]]:
    """The modules of `P` compiled over their relevant base, and as masks
    the answer sets of `P`: the subsets of the base that every module
    accepts with `engine` and whose true `P.kappa`-intensional atoms lie in
    some module's region.  Every solving path calls this; a program `pi`
    under `kappa` alone is the one-module program `ModularProgram(kappa,
    (Module(kappa, pi),))`, whose closure condition always holds.  The
    tables of `compiled` hold the only compiled form of the ground rules,
    and `compiled.split`, made once over the whole base, serves this search
    and the union reading of `theorem1_check`.  The search runs each part
    over its atoms in `allowed`; the split is coarser than one over
    `allowed` only where a base atom lies outside it, a head of a module
    that is not simple, so only on an incoherent program.

    Every engine's refusals sit here, in this order: `topo` refuses with
    `P.analysis.topo_refusal` (an incoherent program, then a cyclic module
    order) and otherwise searches as `reduct` does, which is exact;
    `fixpoint` refuses a ground program with negation, then a non-empty
    extensional region; then the base is refused past `cap`.

    One `ground_reachable` call, seeded with the extensional region of
    `P.kappa` plus the seeds, grounds every module, so all share one
    derived set `R`.  The base holds the region and every ground head (a
    true atom needs a deriving rule or a choice axiom).  The region and the
    seeds are read off `P.patterns` (`PatternIndex.outside`), as
    `CompiledParts` reads every region: the region is the domain atoms of
    the predicates of `P` outside `P.kappa`'s region, and the seeds are
    every domain atom (outside no statement's region) of the predicates of
    the components of the dependency graph that span modules
    (`P.analysis.spanning`); with one module none can, so a one-module
    solve builds no `P.analysis`.

    Exactness: every atom of an answer `I` lies in `R`, so the instances
    left out are vacuous.  Induct over the DAG of components, dependencies
    first.  Let `a` be true in `I` and in the region of module i, at vertex
    `(p, i)` of component C.  If C spans modules, `a` is seeded.  Otherwise
    C lies inside module i; induct over module i's reduct derivation of
    `I`.  A rule of module i derives `a` from true positive body atoms `b`,
    and each `b` is derived earlier in module i (in C, or in a lower
    component through an edge), or globally extensional (seeded), or, by
    the closure condition, in the region of a module j other than i, at a
    vertex an edge reaches from `(p, i)` and outside C, so in a lower
    component.
    """
    if engine == "topo" and P.analysis.topo_refusal is not None:
        raise EngineError(P.analysis.topo_refusal)
    region = P.patterns.outside(1 << len(P.modules), P._predicates, dom)
    seeds = region
    if len(P.modules) > 1 and P.analysis.spanning:
        seeds = region | P.patterns.outside(0, P.analysis.spanning, dom)
    grounded = ground_reachable([m.pi for m in P.modules], dom, seeds)
    if engine == "fixpoint":
        # Root propagation then decides every atom: the forward step derives
        # the least model and the unfounded step makes the rest false.
        if any(r.neg or r.negneg for gp in grounded for r in gp.rules):
            raise EngineError(
                "the fixpoint engine requires a negation-free ground program"
            )
        if region:
            raise EngineError(
                "the fixpoint engine requires an empty extensional region over "
                "the domain (make every predicate purely intensional)"
            )
        cap = sum(map(len, grounded))  # the base holds at most one head per rule
    base = set(region).union(*(gp.heads() for gp in grounded))
    if len(base) > cap:
        raise CapacityError(
            f"relevant atom base has {len(base)} atoms (cap {cap}); shrink "
            "the domain or raise the cap"
        )
    compiled = CompiledParts(
        sorted(base, key=atom_order_key), P, [gp.rules for gp in grounded]
    )
    parts, free = compiled.split
    for ext_mask in compiled.ext_masks:
        free &= ext_mask
    return compiled, _search(compiled.allowed, parts, free, engine)


# --- support (derivability) -------------------------------------------------------


def check_support(
    I: Interpretation,
    kappa: IntensionalityStatement,
    pi: Program,
    atom: PredAtom,
    dom: Domain,
) -> bool:
    """Does some rule and simple substitution derive `atom` with its body
    true in `I`?

    Only intensional atoms are meaningful here: an extensional atom needs no
    deriving rule, so asking about one raises.
    """
    if not lambda_holds(kappa, atom):
        raise NotIntensionalError(
            f"atom {atom} is extensional under the statement; support is "
            "only constrained for intensional atoms"
        )
    for rule in pi.rules:
        if rule.head is None or rule.head.pred != atom.pred:
            continue
        theta0 = _bind_head(rule.head, atom)
        if theta0 is None:
            continue
        for theta in _assignments(_variable_sorts(rule), theta0, dom):
            instance = substitute_rule(rule, theta)
            if _eval_atom(instance.head) == atom and all(
                _literal_holds(lit, I.atoms, I.atoms) for lit in instance.body
            ):
                return True
    return False


def _bind_head(head: PredAtom, atom: PredAtom) -> Optional[dict[str, Term]]:
    """Bind head variables that appear directly as arguments; reject early
    when a ground argument cannot evaluate to the target.  A variable met
    again keeps its first binding: `check_support`'s guard on the
    evaluated head rejects an instance whose repeats disagree."""
    theta: dict[str, Term] = {}
    for arg, target in zip(head.args, atom.args):
        if isinstance(arg, Variable):
            if arg.name in theta:
                continue
            if arg.sort is Sort.INTEGER and not isinstance(target, Numeral):
                return None
            theta[arg.name] = target
        elif not any(isinstance(s, Variable) for s in subterms(arg)):
            if eval_ground(arg) != target:
                return None
        # arguments mixing variables into arithmetic are settled by the
        # evaluation guard after enumeration
    return theta
