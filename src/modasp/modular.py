"""Modular semantics and its syntactic side: dependency graph, coherence,
answer sets of modular programs, and the harness comparing them with the
answer sets of the plain rule union."""

import warnings
from functools import cached_property
from typing import Generic, Iterable, Optional, Sequence, TypeVar

from .engine import (
    CHECK_ENGINES,
    DEFAULT_CAP,
    CompiledParts,
    Interpretation,
    _require_engine,
    _search,
    _solve,
    is_kappa_stable,
)
from .grounding import Domain
from .instantiation import Module, ModularProgram
from .intensionality import (
    IntensionalityStatement,
    PatternIndex,
    PredKey,
    lambda_holds,
    pattern_match,
    pattern_str,
    patterns_unify,
)
from .program import PredAtom, Program, Rule
from .terms import Value, Variable

MODULAR_ENGINES = CHECK_ENGINES + ("topo",)


def closure_holds(
    I: Interpretation,
    kappa: IntensionalityStatement,
    module_kappas: Sequence[IntensionalityStatement],
) -> bool:
    """Every true globally-intensional atom lies in some module's region.

    Atoms outside the interpretation satisfy the closure vacuously, so only
    the true atoms are read.
    """
    for atom in I.atoms:
        if lambda_holds(kappa, atom):
            if not any(lambda_holds(mk, atom) for mk in module_kappas):
                return False
    return True


def is_model_of_module(
    I: Interpretation, delta: Module, dom: Domain, engine: str = "reduct"
) -> bool:
    """A model of a module is a stable model of its program under its own
    intensionality statement."""
    return is_kappa_stable(I, delta.kappa, delta.pi, dom, engine)


def is_simple_module(delta: Module) -> tuple[bool, Optional[PredAtom]]:
    """Check that every rule head is covered by a pattern of the module.

    Returns (True, None) or (False, first offending head atom); coverage is
    witnessed by one-way matching of a pattern onto the simplified head
    argument tuple, with pattern variables free to take arbitrary terms.
    """
    for rule in delta.pi.rules:
        if rule.head is None:
            continue
        patterns = delta.kappa.patterns_for(rule.head.pred)
        if not any(pattern_match(u, rule.head.args) is not None for u in patterns):
            return False, rule.head
    return True, None


# --- dependency graph -------------------------------------------------------------


Vertex = tuple[str, int]
V = TypeVar("V")  # any sortable vertex: a Vertex, or a module index


class DependencyGraph(Value):
    """Vertices pair each predicate with each module index; an edge from
    (p,i) to (q,j) records that a rule can derive a region-i atom of p from
    a region-j atom of q in its positive body."""

    vertices: tuple[Vertex, ...]
    edges: frozenset[tuple[Vertex, Vertex]]

    @cached_property
    def spanning(self) -> list[list[Vertex]]:
        """The strongly connected components that span modules."""
        components = strongly_connected_components(self.vertices, self.edges)
        return [c for c in components if len({i for _, i in c}) > 1]


def _matching_modules(patterns: PatternIndex, atom: PredAtom) -> list[int]:
    """Indices of the modules with a pattern for `atom` that may share an
    instance with its arguments (`PatternIndex.sharing`), ascending."""
    return _bits(patterns.sharing(atom.pred, atom.args))


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, ascending."""
    found: list[int] = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def dependency_graph(P: ModularProgram) -> DependencyGraph:
    """Build the dependency graph of a modular program.

    A rule (from any module) with head atom p(t) and a nonnegated body atom
    q(t') contributes an edge (p,i) -> (q,j) whenever some pattern of
    module i's statement for p shares an instance with [t], and some pattern
    of module j's statement for q shares one with [t'].  Loops at a single
    vertex are omitted: a vertex always belongs to its own component, so
    they never affect containment.  Predicates of equal name but different
    arity share a vertex, which can only merge components (a stricter
    containment check).

    The modules of each atom come from one lookup in `P.patterns`
    (`PatternIndex.sharing`), so when module patterns differ in a ground
    value, as under collective control, the cost is linear in the rules
    (see `is_coherent`).
    """
    patterns = P.patterns
    preds = sorted(P.signature().predicates)
    n = len(P.modules)
    vertices = tuple((name, i) for name, _ in preds for i in range(n))
    edges: set[tuple[Vertex, Vertex]] = set()
    seen_rules: set[Rule] = set()
    for module in P.modules:
        for rule in module.pi.rules:
            if rule in seen_rules or rule.head is None:
                continue
            seen_rules.add(rule)
            head_modules = _matching_modules(patterns, rule.head)
            if not head_modules:
                continue
            for literal in rule.body:
                if literal.negations != 0 or not isinstance(literal.atom, PredAtom):
                    continue
                for j in _matching_modules(patterns, literal.atom):
                    for i in head_modules:
                        edge = ((rule.head.name, i), (literal.atom.name, j))
                        if edge[0] != edge[1]:
                            edges.add(edge)
    return DependencyGraph(vertices, frozenset(edges))


def strongly_connected_components(
    vertices: Sequence[V], edges: Iterable[tuple[V, V]]
) -> list[list[V]]:
    """Iterative Tarjan; linear in vertices plus edges.  A component comes
    out after every component it has an edge to (reverse topological
    order)."""
    succ: dict[V, list[V]] = {v: [] for v in vertices}
    for u, v in sorted(edges):
        succ[u].append(v)
    index: dict[V, int] = {}
    lowlink: dict[V, int] = {}
    on_stack: set[V] = set()
    stack: list[V] = []
    components: list[list[V]] = []
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            vertex, child_index = work.pop()
            if child_index == 0:
                index[vertex] = lowlink[vertex] = counter[0]
                counter[0] += 1
                stack.append(vertex)
                on_stack.add(vertex)
            advanced = False
            children = succ[vertex]
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index:
                    work.append((vertex, child_index))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[vertex] = min(lowlink[vertex], index[child])
            if advanced:
                continue
            if lowlink[vertex] == index[vertex]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == vertex:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[vertex])
    return components


class Violation(Value):
    kind: str  # scc-spans-modules | tuples-unify | module-not-simple
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


class CoherenceReport(Value):
    coherent: bool
    violations: tuple[Violation, ...] = ()

    def __str__(self):
        if self.coherent:
            return "coherent"
        return "incoherent\n" + "\n".join(f"  {v}" for v in self.violations)


def is_coherent(P: ModularProgram) -> CoherenceReport:
    """Purely syntactic coherence check.

    Checks that every module is simple, that no pair of patterns of one
    predicate across distinct modules unifies, and that every strongly
    connected component of the dependency graph stays inside one module.
    No interpretation is ever constructed.  The modules that a rule atom or
    a pattern may meet come from one lookup in `P.patterns`
    (`PatternIndex.sharing`), and only the patterns of those modules are
    unified with a pattern.  When the patterns of a predicate differ in a
    ground value, as the instances of one parametric module under
    collective control do, each lookup of a precomputed argument tuple is
    one dict lookup per shape and the cost is linear in rules plus
    patterns; a pattern with a variable at every position still meets
    every module's patterns of its predicate.  The report is made once per
    program and kept (`ModularProgram.analysis`).
    """
    return P.analysis.report


def _coherence(P: ModularProgram, graph: DependencyGraph) -> CoherenceReport:
    violations: list[Violation] = []
    for i, module in enumerate(P.modules):
        simple, witness = is_simple_module(module)
        if not simple:
            violations.append(
                Violation(
                    "module-not-simple",
                    f"head atom {witness} of module {i} matches no pattern of "
                    "its statement",
                )
            )
    index = P.patterns
    for key in sorted(P.signature().predicates):
        for i, module in enumerate(P.modules):
            # Pairs (u_i, u_j) with j > i, listed by j, then u_i, then u_j.
            # `patterns_unify` ignores sorts, so the lookup reads u_i's
            # variables as general ones.
            pairs = []
            for a, u_i in enumerate(module.kappa.patterns_for(key)):
                general = tuple(
                    [Variable(e.name) if isinstance(e, Variable) else e for e in u_i]
                )
                later = index.sharing(key, general) >> i + 1
                pairs += [(i + 1 + k, a, u_i) for k in _bits(later)]
            for j, _, u_i in sorted(pairs, key=lambda pair: pair[:2]):
                for u_j in P.modules[j].kappa.patterns_for(key):
                    if patterns_unify(u_i, u_j) is not None:
                        violations.append(
                            Violation(
                                "tuples-unify",
                                f"{key[0]}{pattern_str(u_i)} of module {i} "
                                f"unifies with {key[0]}{pattern_str(u_j)} "
                                f"of module {j}",
                            )
                        )
    for component in graph.spanning:
        names = ", ".join(f"({p},{i})" for p, i in component)
        violations.append(
            Violation(
                "scc-spans-modules",
                f"strongly connected component {{{names}}} spans modules "
                f"{sorted({i for _, i in component})}",
            )
        )
    return CoherenceReport(not violations, tuple(violations))


def union_program(P: ModularProgram) -> Program:
    """Set union of all module rule sets."""
    return Program.of(rule for module in P.modules for rule in module.pi.rules)


# --- answer sets of modular programs ----------------------------------------------


def modular_answer_sets(
    P: ModularProgram,
    dom: Domain,
    engine: str = "reduct",
    cap: int = DEFAULT_CAP,
) -> frozenset[Interpretation]:
    """Interpretations that are models of every module and satisfy the
    closure condition (true globally-intensional atoms are defined by some
    module).

    `brute` and `reduct` select the per-module stability engine over the
    shared relevant atom base.  `topo` first requires coherence and an
    acyclic module order, then searches as `reduct` does (`_solve`).
    """
    _require_engine(engine, MODULAR_ENGINES)
    compiled, masks = _solve(P, dom, engine, cap)
    return compiled.interpretations(masks)


def _module_order_refusal(P: ModularProgram, graph: DependencyGraph) -> Optional[str]:
    """Why the modules have no topological order, or None when they have one.

    Edges come from the dependency graph plus negated body atoms (the graph
    tracks only positive dependencies, but an evaluation order would have
    to respect negative ones too).  The order exists when every strongly
    connected component of the module-level relation is a single module;
    `topo` searches as `reduct` does and only needs to know that it exists.
    """
    edges = {(i, j) for (_, i), (_, j) in graph.edges if i != j}
    for i, module in enumerate(P.modules):
        for rule in module.pi.rules:
            for literal in rule.body:
                if literal.negations == 0 or not isinstance(literal.atom, PredAtom):
                    continue
                edges.update(
                    (i, j)
                    for j in _matching_modules(P.patterns, literal.atom)
                    if j != i
                )
    components = strongly_connected_components(range(len(P.modules)), edges)
    if any(len(component) > 1 for component in components):
        return (
            "module dependencies are cyclic; the topological engine is not "
            "applicable"
        )
    return None


class ModularAnalysis(Value):
    """What solving reads of the dependency graph of a modular program: its
    coherence report, the message `topo` refuses it with (None when `topo`
    applies), and the predicates of the components that span modules."""

    report: CoherenceReport
    topo_refusal: Optional[str]
    spanning: frozenset[PredKey]


def _analyse(P: ModularProgram) -> ModularAnalysis:
    """The analysis of `P` from one dependency graph, which is not kept.
    `ModularProgram.analysis` calls this once per program; nothing in it
    depends on a domain."""
    graph = dependency_graph(P)
    report = _coherence(P, graph)
    if not report.coherent:
        refusal = (
            "the topological engine requires a coherent modular program:\n"
            + str(report)
        )
    else:
        refusal = _module_order_refusal(P, graph)
    names = {p for component in graph.spanning for p, _ in component}
    spanning = frozenset(key for key in P._predicates if key[0] in names)
    return ModularAnalysis(report, refusal, spanning)


# --- the union/modular comparison harness -------------------------------------------


A = TypeVar("A")  # one answer set: an Interpretation, or its rendered text

# What `theorem1_check` warns and `compare` prints on an incoherent program.
INCOHERENCE_NOTE = (
    "comparing an incoherent modular program; the union theorem does not apply"
)


class ComparisonReport(Value, Generic[A]):
    """Both sides of the union theorem's check, each in output order, with
    the answer sets found on one side only.  `theorem1_check` reports
    `Interpretation`s; the CLI reports the text of each answer set."""

    modular_sets: tuple[A, ...]
    union_sets: tuple[A, ...]
    equal: bool
    only_modular: tuple[A, ...] = ()
    only_union: tuple[A, ...] = ()

    @classmethod
    def of(
        cls, answers: dict[int, A], modular: Iterable[int], union: Iterable[int]
    ) -> "ComparisonReport[A]":
        """The report on the answer masks `modular` and `union`, with the
        answer of each distinct mask taken from `answers`, in its order."""
        modular_set, union_set = set(modular), set(union)
        return cls(
            tuple(a for mask, a in answers.items() if mask in modular_set),
            tuple(a for mask, a in answers.items() if mask in union_set),
            modular_set == union_set,
            tuple(a for mask, a in answers.items() if mask not in union_set),
            tuple(a for mask, a in answers.items() if mask not in modular_set),
        )

    def __str__(self):
        lines = [f"modular answer sets ({len(self.modular_sets)}):"]
        lines += [f"  {I}" for I in self.modular_sets]
        lines.append(f"union answer sets ({len(self.union_sets)}):")
        lines += [f"  {I}" for I in self.union_sets]
        lines.append(f"equal: {'yes' if self.equal else 'no'}")
        for label, sets in (
            ("only modular", self.only_modular),
            ("only union", self.only_union),
        ):
            for I in sets:
                lines.append(f"  {label}: {{{I}}}")
        return "\n".join(lines)


def theorem1_check(
    P: ModularProgram,
    dom: Domain,
    engine: str = "reduct",
    cap: int = DEFAULT_CAP,
) -> ComparisonReport[Interpretation]:
    """Compare the modular answer sets with the stable models of the rule
    union under the global statement.

    Equality is the content of the union theorem for coherent programs; on
    an incoherent input the harness warns, still computes both sides, and
    reports whatever it finds.  The incoherence warning comes first, then
    the refusals of `topo`, then the cap on the modular base.
    """
    if not P.analysis.report.coherent:
        warnings.warn(INCOHERENCE_NOTE, stacklevel=2)
    compiled, modular, union = _theorem1_masks(P, dom, engine, cap)
    return ComparisonReport.of(compiled.ordered(modular + union), modular, union)


def _theorem1_masks(
    P: ModularProgram, dom: Domain, engine: str, cap: int
) -> tuple[CompiledParts, list[int], list[int]]:
    """The compiled modules of `P`, and as masks over their base the modular
    answer sets and the stable models of the rule union under the global
    statement, with the refusals of `theorem1_check` but not its warning.

    Both readings share one grounding of each module, one atom base, the
    modular relevant base, and one split of the module tables into
    components (`CompiledParts.split`).  The union reading searches each
    part with one checker, the part's forward table: the rules of every
    module in the part under the extensional atoms of the global
    statement, so no ground rule is compiled twice and no component is
    found twice.  That is exact.  The modular seeds
    contain those of the union solved alone as a one-module program
    (`enumerate_kappa_stable`), which are its extensional region: both
    extensional regions range over the same predicates, because every
    predicate a module statement names has a global pattern.  Over the
    same rules, the modular derived set, instances and base contain the
    union's.  Each extra instance has a positive body atom the union does
    not derive, so it is vacuous, and each extra atom is a globally
    intensional head the union does not reach, false in every union stable
    model.  The answers and their order are those of the union solved
    alone, and the cap, checked on the larger modular base first, refuses
    as before.
    """
    _require_engine(engine, MODULAR_ENGINES)
    compiled, modular = _solve(P, dom, engine, cap)
    parts, unmentioned = compiled.split
    union = [(atoms, [forward], forward) for atoms, _, forward in parts]
    free = unmentioned & ~compiled.intensional
    return compiled, modular, _search(compiled.full, union, free, engine)
