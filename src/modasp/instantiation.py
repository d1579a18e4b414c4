"""Instantiating parametric subprograms: valuations applied to programs,
modules and their parametric templates, and the two collective readings of
a control plan (plain union vs. a modular program)."""

from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from .errors import PatternError, UnboundPlaceholderError
from .intensionality import (
    IntensionalityStatement,
    ParametricIntensionality,
    Pattern,
    PatternIndex,
    PredKey,
    instantiate_chi,
    require_coverage,
)
from .program import Program, Rule, Signature, map_rule_terms
from .subprograms import ClingoProgram, ControlPlan, SubprogramSpec
from .terms import (
    Arith,
    Numeral,
    Term,
    Valuation,
    Value,
    Variable,
    constants_of,
    simplify,
    substitute_constants,
    subterms,
    variables_of,
)


def apply_valuation(
    x: Union[Program, Rule, Term],
    v: Valuation,
    placeholders: Optional[Iterable[str]] = None,
) -> Union[Program, Rule, Term]:
    """Substitute placeholder occurrences by their values, with no
    simplification.

    `placeholders` defaults to the valuation's own domain; when given, an
    occurrence of a placeholder outside the valuation raises.
    """
    mapping = v.as_dict()
    expected = set(mapping) if placeholders is None else set(placeholders)

    def check(term: Term):
        unbound = (constants_of(term) & expected) - set(mapping)
        if unbound:
            raise UnboundPlaceholderError(
                f"placeholder {sorted(unbound)[0]} has no value in {v}"
            )

    def subst(term: Term) -> Term:
        check(term)
        return substitute_constants(term, mapping)

    if isinstance(x, Program):
        return Program.of(map_rule_terms(rule, subst) for rule in x.rules)
    if isinstance(x, Rule):
        return map_rule_terms(x, subst)
    return subst(x)


class Module(Value):
    """A program together with the intensionality statement scoping it."""

    kappa: IntensionalityStatement
    pi: Program

    def signature(self) -> Signature:
        return self.pi.signature() | Signature(frozenset(self.kappa.predicates()))


class ParametricModule(Value):
    """A module template over a set of placeholder constants."""

    placeholders: frozenset[str]
    chi: ParametricIntensionality
    pi: Program

    def __post_init__(self):
        if not self.chi.placeholders <= self.placeholders:
            extra = sorted(self.chi.placeholders - self.placeholders)
            raise PatternError(
                f"intensionality placeholders {extra} are not module placeholders"
            )


def require_numerals(
    pi: Program, placeholders: Iterable[str], mapping: Mapping[str, Term]
) -> None:
    """Refuse `mapping` when it assigns a non-numeral to a placeholder that
    occurs under arithmetic in `pi`, and so is integer-sorted.  The rules are
    walked only when some placeholder has a non-numeral value."""
    symbolic = {x for x in placeholders if not isinstance(mapping[x], Numeral)}
    if not symbolic:
        return
    integer: set[str] = set()
    for rule in pi.rules:
        for term in rule.terms():
            for s in subterms(term):
                if isinstance(s, Arith):
                    integer |= constants_of(s) & symbolic
    if integer:
        name = min(integer)
        raise PatternError(
            f"placeholder {name} is integer-sorted (it occurs under "
            f"arithmetic) but the valuation assigns {mapping[name]}"
        )


def instantiate_module(phi: ParametricModule, theta: Valuation) -> Module:
    """One instance of a parametric module: patterns are substituted and
    simplified, program rules are substituted verbatim."""
    mapping = theta.as_dict()
    missing = sorted(phi.placeholders - set(mapping))
    if missing:
        raise UnboundPlaceholderError(
            f"placeholder {missing[0]} has no value in {theta}"
        )
    require_numerals(phi.pi, phi.placeholders, mapping)
    kappa = instantiate_chi(phi.chi, theta)
    pi = apply_valuation(phi.pi, theta, phi.placeholders)
    return Module(kappa, pi)


def default_chi(
    name: str, placeholders: Iterable[str], pi: Program
) -> ParametricIntensionality:
    """Head-derived parametric intensionality for subprogram `name`: one
    pattern per rule head, with rule variables abstracted to fresh
    positional pattern variables and placeholder/ground arguments kept.

    A head argument mixing a rule variable with placeholders under
    arithmetic admits neither reading and is rejected.
    """
    placeholders = frozenset(placeholders)
    mapping: dict[PredKey, list[Pattern]] = {}
    for rule in pi.rules:
        if rule.head is None:
            continue
        elems: list[Term] = []
        for position, arg in enumerate(rule.head.args):
            reduced = simplify(arg)
            if variables_of(reduced):
                if constants_of(reduced) & placeholders:
                    raise PatternError(
                        f"head argument {arg} of rule `{rule}` in subprogram "
                        f"{name!r} mixes a rule variable with placeholders; "
                        "no simple pattern covers it"
                    )
                elems.append(Variable(f"X{position + 1}"))
            else:
                elems.append(reduced)
        mapping.setdefault(rule.head.pred, []).append(tuple(elems))
    return ParametricIntensionality.of(placeholders, mapping)


class ModularProgram(Value):
    """A global intensionality statement with a list of modules.

    Construction checks that every module pattern is subsumed by a global
    pattern, so each atom defined in a module is intensional globally.  A
    program keeps what it builds on first use: its predicates, the index of
    the module patterns with the exact lookup of their regions
    (`patterns`) and the analysis that solving reads (`analysis`); a
    statement keeps its own `table` once λ is read from it.  All of it is
    syntactic: nothing kept depends on a domain, and each call that solves
    grounds, compiles and searches afresh.
    """

    kappa: IntensionalityStatement
    modules: tuple[Module, ...]

    def __post_init__(self):
        require_coverage(self.kappa, [m.kappa for m in self.modules])

    def signature(self) -> Signature:
        return Signature(self._predicates)

    @cached_property
    def _predicates(self) -> frozenset[tuple[str, int]]:
        return frozenset(self.kappa.predicates()).union(
            *(m.signature().predicates for m in self.modules)
        )

    @cached_property
    def patterns(self) -> PatternIndex:
        """The one lookup of the module statements' patterns (`PatternIndex`):
        the dependency graph, the coherence check and the topo module order
        read `sharing`, the regions of modules not under `kappa` read
        `holding`."""
        return PatternIndex([m.kappa for m in self.modules])

    @cached_property
    def analysis(self):
        """The `modular.ModularAnalysis` of this program: its coherence
        report, the refusal of `topo` and the predicates that seed the
        modular search, taken from one dependency graph, which is not kept."""
        from .modular import _analyse  # `modular` imports this module

        return _analyse(self)


def collective_union(
    clingo_program: ClingoProgram, specs: Iterable[SubprogramSpec]
) -> Program:
    """The non-modular reading of a control plan: the set union of every
    instantiated subprogram."""
    specs = tuple(specs)
    programs = {
        name: clingo_program.subprogram(name)
        for name in dict.fromkeys(spec.name for spec in specs)
    }
    return Program.of(
        apply_valuation(rule, spec.valuation, spec.placeholders)
        for spec in specs
        for rule in programs[spec.name].rules
    )


def global_statement(
    plan: ControlPlan, predicates: Iterable[PredKey]
) -> IntensionalityStatement:
    """The global statement of a plan: its `intensional` patterns, or purely
    intensional over `predicates` when it has none (read only then)."""
    if plan.global_kappa is not None:
        return plan.global_kappa
    return IntensionalityStatement.purely_intensional(predicates)


def collective_modular(
    clingo_program: ClingoProgram, plan: ControlPlan
) -> ModularProgram:
    """The modular reading of a control plan.

    Each used subprogram becomes a parametric module (pattern overrides from
    the plan, else head-derived patterns); every spec instantiates one
    module, identical instantiations collapsing; the global statement comes
    from the plan's `intensional` lines or defaults to purely intensional on
    every predicate of the assembled signature.
    """
    decls = clingo_program.declarations()
    overrides = dict(plan.module_chi)
    templates = {}
    for name in dict.fromkeys(spec.name for spec in plan.specs):
        pi = clingo_program.subprogram(name)
        chi = overrides[name] if name in overrides else default_chi(name, decls[name], pi)
        templates[name] = (chi, pi)
    modules = list(
        dict.fromkeys(
            instantiate_module(
                ParametricModule(frozenset(spec.placeholders), *templates[spec.name]),
                spec.valuation,
            )
            for spec in plan.specs
        )
    )
    kappa = global_statement(
        plan, (key for m in modules for key in m.signature().predicates)
    )
    return ModularProgram(kappa, tuple(modules))
