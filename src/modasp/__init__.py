"""modasp: answer sets for clingo-style programs with collective control.

Programs are split into named subprograms with placeholders; a control plan
selects which instantiations to assemble.  The package evaluates the result
two ways: as the plain union of the instantiated rules, and as a modular
program in which every instantiation keeps its own meaning, with a
coherence check telling when the two readings agree.
"""

from .engine import (
    HTInterpretation,
    Interpretation,
    check_support,
    classical_satisfies,
    enumerate_kappa_stable,
    extensional_region,
    ht_satisfies,
    is_answer_set,
    is_kappa_stable,
    least_model,
)
from .errors import (
    CapacityError,
    DomainError,
    EngineError,
    ModaspError,
    ParseError,
    PatternError,
    RequirementError,
    SafetyError,
    SortError,
)
from .grounding import Domain, GroundProgram, GroundRule, ground
from .instantiation import (
    ModularProgram,
    Module,
    ParametricModule,
    apply_valuation,
    collective_modular,
    collective_union,
    default_chi,
    instantiate_module,
)
from .intensionality import (
    IntensionalityStatement,
    LambdaFormula,
    ParametricIntensionality,
    check_requirement,
    extensional_axioms,
    instantiate_chi,
    lambda_formula,
    lambda_holds,
    pattern_match,
    patterns_unify,
)
from .modular import (
    ComparisonReport,
    CoherenceReport,
    DependencyGraph,
    ModularAnalysis,
    closure_holds,
    dependency_graph,
    is_coherent,
    is_model_of_module,
    is_simple_module,
    modular_answer_sets,
    theorem1_check,
    union_program,
)
from .parsing import parse_control, parse_ground_atom, parse_program, parse_term
from .program import (
    Comparison,
    Literal,
    PredAtom,
    Program,
    Rule,
    Signature,
    make_rule,
)
from .subprograms import ClingoProgram, ControlPlan, ProgramDeclaration, SubprogramSpec
from .terms import (
    Arith,
    Func,
    Numeral,
    Sort,
    SymbolicConstant,
    Term,
    Valuation,
    Variable,
    compare,
    eval_ground,
    simplify,
    sort_of,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
