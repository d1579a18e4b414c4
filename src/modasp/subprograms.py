"""Clingo-style programs with `#program` declarations, and the control plans
that select which subprogram instantiations make up a run."""

from typing import Optional, Union

from .errors import DeclarationConflictError, UnknownSubprogramError
from .intensionality import (
    IntensionalityStatement,
    ParametricIntensionality,
    Pattern,
    PredKey,
)
from .program import Program, Rule
from .terms import Valuation, Value

BASE = "base"


class ProgramDeclaration(Value):
    name: str
    params: tuple[str, ...] = ()

    def __str__(self):
        if not self.params:
            return f"#program {self.name}."
        return f"#program {self.name}({','.join(self.params)})."


class ClingoProgram(Value):
    """An ordered list of declarations and rules.

    Rules preceding any declaration belong to `base`.  Every occurrence of a
    declaration opens a scope reaching to the next declaration; repeated
    declarations of one name share a single parameter list and their scopes
    are unioned by `subprogram`.
    """

    items: tuple[Union[ProgramDeclaration, Rule], ...] = ()

    def __post_init__(self):
        seen: dict[str, tuple[str, ...]] = {BASE: ()}
        for item in self.items:
            if isinstance(item, ProgramDeclaration):
                conflict = declaration_conflict(seen, item)
                if conflict:
                    raise DeclarationConflictError(conflict)

    def declarations(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, tuple[str, ...]] = {BASE: ()}
        for item in self.items:
            if isinstance(item, ProgramDeclaration):
                out[item.name] = item.params
        return out

    def scopes(self) -> list[tuple[str, Rule]]:
        current = BASE
        pairs = []
        for item in self.items:
            if isinstance(item, ProgramDeclaration):
                current = item.name
            else:
                pairs.append((current, item))
        return pairs

    def subprogram(self, name: str) -> Program:
        """All rules in the scope of declarations named `name`."""
        declared_params(self.declarations(), name)
        return Program.of(rule for scope, rule in self.scopes() if scope == name)

    def __str__(self):
        lines = []
        for item in self.items:
            lines.append(str(item))
        return "\n".join(lines)


def declaration_conflict(
    seen: dict[str, tuple[str, ...]], decl: ProgramDeclaration
) -> Optional[str]:
    """Record `decl` in `seen`, the parameter lists declared so far; the
    conflict, if `decl` redeclares a name with other parameters."""
    previous = seen.setdefault(decl.name, decl.params)
    if previous == decl.params:
        return None
    return (
        f"subprogram {decl.name!r} declared with parameters "
        f"({','.join(decl.params)}) but previously with ({','.join(previous)})"
    )


def declared_params(
    decls: dict[str, tuple[str, ...]], name: str
) -> tuple[str, ...]:
    """The parameters of subprogram `name` in `decls`; raises when it is
    not declared."""
    if name not in decls:
        known = ", ".join(sorted(decls))
        raise UnknownSubprogramError(
            f"unknown subprogram {name!r}; declared names: {known}"
        )
    return decls[name]


class SubprogramSpec(Value):
    """A request to instantiate one subprogram with one valuation."""

    name: str
    placeholders: tuple[str, ...] = ()
    valuation: Valuation = Valuation()

    def __str__(self):
        return f"[{self.name},{{{','.join(self.placeholders)}}},{self.valuation}]"


class ControlPlan(Value):
    """The parsed content of a control file, ranges already expanded.

    `global_kappa` is the statement of the file's `intensional` lines, or
    None when it has none, in which case every predicate defaults to purely
    intensional.  `module_chi` pairs a subprogram name with the parametric
    statement of its `module` lines, over its declared parameters, sorted by
    name; subprograms without an entry get a head-derived statement.
    """

    specs: tuple[SubprogramSpec, ...] = ()
    domain: Optional[tuple[int, int]] = None
    global_kappa: Optional[IntensionalityStatement] = None
    module_chi: tuple[tuple[str, ParametricIntensionality], ...] = ()

    def global_kappa_dict(self) -> Optional[dict[PredKey, tuple[Pattern, ...]]]:
        return None if self.global_kappa is None else dict(self.global_kappa.entries)
