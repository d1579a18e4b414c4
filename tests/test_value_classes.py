"""The immutable records: construction, equality, hashing, repr, freezing and
pickling, for every record class, and the imports of the CLI's start-up."""

import ast
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import textwrap
from functools import cached_property
from pathlib import Path

import pytest

import modasp
from modasp.engine import HTInterpretation, Interpretation
from modasp.errors import (
    DeclarationConflictError,
    DomainError,
    NotPrecomputedError,
    PatternError,
    RangeError,
    RequirementError,
    SortError,
)
from modasp.grounding import Domain, GroundProgram, GroundRule
from modasp.instantiation import Module, ModularProgram, ParametricModule
from modasp.intensionality import (
    ExtensionalAxiom,
    IntensionalityStatement,
    LambdaFormula,
    ParametricIntensionality,
    RequirementViolation,
)
from modasp.modular import (
    CoherenceReport,
    ComparisonReport,
    DependencyGraph,
    ModularAnalysis,
    Violation,
    dependency_graph,
)
from modasp.parsing import Token
from modasp.program import Comparison, Literal, PredAtom, Program, Rule, Signature
from modasp.subprograms import (
    ClingoProgram,
    ControlPlan,
    ProgramDeclaration,
    SubprogramSpec,
)
from modasp.terms import (
    Arith,
    Func,
    Numeral,
    Sort,
    SymbolicConstant,
    Valuation,
    Value,
    Variable,
)

SRC = Path(__file__).resolve().parent.parent / "src"

X, ONE, A = Variable("X"), Numeral(1), SymbolicConstant("a")
P1 = PredAtom("p", (ONE,))
Q1 = PredAtom("q", (ONE,))
RULE = Rule(P1, (Literal(Q1, 1),))
PROGRAM = Program((RULE,))
KAPPA = IntensionalityStatement.of({("p", 1): [(X,)]})
CHI = ParametricIntensionality.of({"n"}, {("p", 1): [(SymbolicConstant("n"),)]})
MODULE = Module(KAPPA, PROGRAM)
LAM = LambdaFormula(("p", 1), (((0, ONE),),))
TANGLE = ModularProgram(
    IntensionalityStatement.of({("p", 1): [(X,)], ("q", 1): [(X,)]}),
    (
        Module(
            IntensionalityStatement.of({("p", 1): [(X,)]}),
            Program((Rule(P1, (Literal(Q1),)),)),
        ),
        Module(
            IntensionalityStatement.of({("q", 1): [(X,)]}),
            Program((Rule(Q1, (Literal(P1),)),)),
        ),
    ),
)

# Per class: every field with a sample value, in field order, and one field
# with another value.  The field lists are those of the former dataclasses.
SAMPLES = [
    (Numeral, dict(value=1), dict(value=2)),
    (SymbolicConstant, dict(name="a"), dict(name="b")),
    (Variable, dict(name="X", sort=Sort.GENERAL), dict(sort=Sort.INTEGER)),
    (Arith, dict(op="+", left=ONE, right=X), dict(op="*")),
    (Func, dict(name="f", args=(ONE,)), dict(args=(A,))),
    (Valuation, dict(items=(("n", ONE),)), dict(items=(("n", A),))),
    (PredAtom, dict(name="p", args=(ONE,)), dict(name="q")),
    (Comparison, dict(rel="<", lhs=ONE, rhs=X), dict(rel="<=")),
    (Literal, dict(atom=P1, negations=1), dict(negations=2)),
    (Rule, dict(head=P1, body=(Literal(Q1),)), dict(head=None)),
    (Signature, dict(predicates=frozenset({("p", 1)})), dict(predicates=frozenset())),
    (Program, dict(rules=(RULE,)), dict(rules=())),
    (Domain, dict(int_lo=0, int_hi=1, general_terms=frozenset({Numeral(0), ONE})),
     dict(int_lo=1)),
    (GroundRule, dict(head=P1, pos=(Q1,), neg=(), negneg=()), dict(neg=(Q1,))),
    (GroundProgram, dict(rules=(GroundRule(P1),)), dict(rules=())),
    (Interpretation, dict(atoms=frozenset({P1})), dict(atoms=frozenset({Q1}))),
    (HTInterpretation, dict(here=frozenset(), there=Interpretation(frozenset({P1}))),
     dict(here=frozenset({P1}))),
    (IntensionalityStatement, dict(entries=KAPPA.entries), dict(entries=())),
    (ParametricIntensionality, dict(placeholders=frozenset({"n"}), entries=CHI.entries),
     dict(entries=())),
    (LambdaFormula, dict(pred=("p", 1), disjuncts=(((0, ONE),),)), dict(disjuncts=())),
    (ExtensionalAxiom, dict(pred=("p", 1), lam=LAM), dict(pred=("q", 1))),
    (RequirementViolation, dict(pred=("p", 1), module_index=0, pattern=(ONE,)),
     dict(module_index=1)),
    (Module, dict(kappa=KAPPA, pi=PROGRAM), dict(pi=Program())),
    (ParametricModule, dict(placeholders=frozenset({"n"}), chi=CHI, pi=PROGRAM),
     dict(placeholders=frozenset({"n", "m"}))),
    (ModularProgram, dict(kappa=KAPPA, modules=(MODULE,)), dict(modules=())),
    (DependencyGraph, dict(vertices=(("p", 0),), edges=frozenset()), dict(vertices=())),
    (ModularAnalysis,
     dict(report=CoherenceReport(True), topo_refusal=None, spanning=frozenset()),
     dict(topo_refusal="cyclic")),
    (Violation, dict(kind="tuples-unify", detail="d"), dict(detail="e")),
    (CoherenceReport, dict(coherent=False, violations=(Violation("k", "d"),)),
     dict(coherent=True)),
    (ComparisonReport,
     dict(modular_sets=("p",), union_sets=("p",), equal=True, only_modular=(),
          only_union=()),
     dict(equal=False)),
    (ProgramDeclaration, dict(name="step", params=("n",)), dict(params=())),
    (ClingoProgram, dict(items=(ProgramDeclaration("step", ("n",)), RULE)),
     dict(items=())),
    (SubprogramSpec, dict(name="step", placeholders=("n",), valuation=Valuation()),
     dict(name="base")),
    (ControlPlan,
     dict(specs=(SubprogramSpec("step", ("n",)),), domain=(0, 2), global_kappa=KAPPA,
          module_chi=(("step", CHI),)),
     dict(global_kappa=None)),
    (Token, dict(kind="NAME", text="p", line=1, column=2), dict(column=3)),
]

# The fields with a default, and the default.
DEFAULTS = {
    Variable: dict(sort=Sort.GENERAL),
    Valuation: dict(items=()),
    PredAtom: dict(args=()),
    Literal: dict(negations=0),
    Rule: dict(body=()),
    Signature: dict(predicates=frozenset()),
    Program: dict(rules=()),
    Domain: dict(general_terms=frozenset()),
    GroundRule: dict(pos=(), neg=(), negneg=()),
    GroundProgram: dict(rules=()),
    Interpretation: dict(atoms=frozenset()),
    IntensionalityStatement: dict(entries=()),
    ParametricIntensionality: dict(placeholders=frozenset(), entries=()),
    CoherenceReport: dict(violations=()),
    ComparisonReport: dict(only_modular=(), only_union=()),
    ProgramDeclaration: dict(params=()),
    ClingoProgram: dict(items=()),
    SubprogramSpec: dict(placeholders=(), valuation=Valuation()),
    ControlPlan: dict(specs=(), domain=None, global_kappa=None, module_chi=()),
}

IDS = [cls.__name__ for cls, _, _ in SAMPLES]

# The nine classes with the most traffic, with another value for each of
# their fields.
BUSIEST = {
    Numeral: dict(value=2),
    Variable: dict(name="Y", sort=Sort.INTEGER),
    Arith: dict(op="*", left=A, right=ONE),
    PredAtom: dict(name="q", args=(A,)),
    Literal: dict(atom=Q1, negations=2),
    Rule: dict(head=None, body=()),
    GroundRule: dict(head=Q1, pos=(), neg=(Q1,), negneg=(Q1,)),
    Interpretation: dict(atoms=frozenset({Q1})),
    IntensionalityStatement: dict(entries=()),
}


def _record_classes(cls=Value) -> set[type]:
    """Every subclass of `cls` that a `modasp` module defines, at any depth."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("modasp."):
            found.add(sub)
        found |= _record_classes(sub)
    return found


def _all_record_classes() -> set[type]:
    """`_record_classes()` once every `modasp` module is imported."""
    for module in pkgutil.iter_modules(modasp.__path__):
        importlib.import_module(f"modasp.{module.name}")
    return _record_classes()


def test_every_record_class_is_sampled():
    assert len(SAMPLES) == len(set(IDS))
    assert {cls for cls, _, _ in SAMPLES} == _all_record_classes()


@pytest.mark.parametrize("cls, fields, change", SAMPLES, ids=IDS)
class TestContract:
    def test_keyword_and_positional_construction_agree(self, cls, fields, change):
        by_keyword, by_position = cls(**fields), cls(*fields.values())
        first, *rest = fields
        mixed = cls(fields[first], **{k: fields[k] for k in rest})
        assert by_keyword == by_position == mixed
        assert hash(by_keyword) == hash(by_position) == hash(mixed)
        assert all(getattr(by_keyword, k) == v for k, v in fields.items())

    def test_equality_and_hash_follow_the_fields(self, cls, fields, change):
        obj, other = cls(**fields), cls(**{**fields, **change})
        assert obj != other and not obj == other
        assert len({obj, cls(**fields), other}) == 2
        assert {obj: 1}[cls(**fields)] == 1

    def test_never_equal_to_another_class(self, cls, fields, change):
        obj = cls(**fields)
        for other_cls, other_fields, _ in SAMPLES:
            if other_cls is not cls:
                assert obj != other_cls(**other_fields)
        assert obj != tuple(fields.values())

    def test_repr_is_the_dataclass_format(self, cls, fields, change):
        inner = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(cls(**fields)) == f"{cls.__qualname__}({inner})"

    def test_assignment_and_deletion_raise(self, cls, fields, change):
        obj = cls(**fields)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert cls(**fields) == obj

    def test_defaults(self, cls, fields, change):
        defaults = DEFAULTS.get(cls, {})
        required = {k: v for k, v in fields.items() if k not in defaults}
        by_default = cls(**required)
        assert by_default == cls(**required, **defaults)
        assert hash(by_default) == hash(cls(*required.values(), *defaults.values()))
        if cls is not Domain:  # the domain adds its interval's numerals
            assert all(getattr(cls(**required), k) == v for k, v in defaults.items())

    def test_bad_arguments_raise_type_error(self, cls, fields, change):
        calls = [((*fields.values(), None), {}), ((), {**fields, "extra": None})]
        first, *rest = fields
        calls.append(((fields[first],), {first: fields[first]}))
        required = [k for k in fields if k not in DEFAULTS.get(cls, {})]
        if required:
            calls.append((tuple(fields[k] for k in required[:-1]), {}))
        calls += [((), {k: v for k, v in fields.items() if k != r}) for r in required]
        for args, kwargs in calls:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_pickle_round_trip(self, cls, fields, change):
        obj = cls(**fields)
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_no_class_body_writes_the_record_methods():
    """Every record is built, compared and hashed by `Value`: no class body
    writes `__init__`, `__eq__`, `__hash__` or `__new__`, except `Domain`'s,
    which writes `__new__` to add its interval's numerals.  Every other
    class holds the `__new__` that `Value` builds for it, whose parameters
    are its fields."""
    for cls in _all_record_classes():
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        (body,) = tree.body
        written = {node.name for node in body.body if isinstance(node, ast.FunctionDef)}
        expected = {"__new__"} if cls is Domain else set()
        assert written & {"__init__", "__eq__", "__hash__", "__new__"} == expected, cls
        if cls is not Domain:
            code = vars(cls)["__new__"].__code__
            assert code.co_varnames[: code.co_argcount] == ("cls", *cls._fields), cls


@pytest.mark.parametrize(
    "cls, fields", [(cls, f) for cls, f, _ in SAMPLES if cls in BUSIEST],
    ids=[cls.__name__ for cls, _, _ in SAMPLES if cls in BUSIEST],
)
def test_eq_and_hash_read_every_field(cls, fields):
    others = BUSIEST[cls]
    assert list(others) == list(cls._fields) == list(fields)
    obj, copy = cls(**fields), cls(**fields)
    assert obj == copy and hash(obj) == hash(copy)
    for name, value in others.items():
        changed = cls(**{**fields, name: value})
        assert obj != changed and not obj == changed, name
        assert hash(obj) != hash(changed), name


def test_same_field_values_in_different_classes_are_unequal():
    objs = [
        Program(),
        GroundProgram(),
        Valuation(),
        ClingoProgram(),
        IntensionalityStatement(),
        Signature(),
        Interpretation(),
    ]
    for i, a in enumerate(objs):
        for b in objs[i + 1 :]:
            assert a != b and b != a


def test_generic_report_is_subscriptable():
    report = ComparisonReport[str](("p",), ("p",), True)
    assert report == ComparisonReport(("p",), ("p",), True)


# Per class with a `__post_init__`: fields that it refuses, and the error.
REFUSED = {
    Arith: (dict(op="/", left=ONE, right=ONE), SortError),
    Func: (dict(name="f", args=()), SortError),
    Valuation: (dict(items=(("n", X),)), NotPrecomputedError),
    Comparison: (dict(rel="~", lhs=ONE, rhs=ONE), SortError),
    Literal: (dict(atom=P1, negations=3), SortError),
    HTInterpretation: (
        dict(here=frozenset({Q1}), there=Interpretation(frozenset({P1}))),
        DomainError,
    ),
    IntensionalityStatement: (dict(entries=((("p", 2), ((X, X),)),)), PatternError),
    ParametricIntensionality: (
        dict(placeholders=frozenset(), entries=((("p", 2), ((X, X),)),)),
        PatternError,
    ),
    ParametricModule: (
        dict(placeholders=frozenset(), chi=CHI, pi=PROGRAM),
        PatternError,
    ),
    ModularProgram: (
        dict(kappa=IntensionalityStatement(), modules=(MODULE,)),
        RequirementError,
    ),
    ClingoProgram: (
        dict(items=(ProgramDeclaration("s", ("n",)), ProgramDeclaration("s", ()))),
        DeclarationConflictError,
    ),
}


def test_every_checked_class_is_listed():
    checked = {c for c in _all_record_classes() if hasattr(c, "__post_init__")}
    assert checked == REFUSED.keys()


@pytest.mark.parametrize("cls", REFUSED, ids=[cls.__name__ for cls in REFUSED])
def test_checks_run_when_built_and_when_unpickled(cls):
    """A refused field is refused by position, by keyword and on loading a
    pickle of a record built past the checks."""
    fields, error = REFUSED[cls]
    with pytest.raises(error):
        cls(*fields.values())
    with pytest.raises(error):
        cls(**fields)
    unchecked = tuple.__new__(cls, (cls, *fields.values()))
    data = pickle.dumps(unchecked)
    with pytest.raises(error):
        pickle.loads(data)


class TestValidation:
    def test_arith_with_a_bad_operator(self):
        with pytest.raises(SortError):
            Arith("/", ONE, ONE)

    def test_literal_with_three_negations(self):
        with pytest.raises(SortError):
            Literal(P1, 3)

    def test_reversed_domain(self):
        with pytest.raises(RangeError):
            Domain(3, 1)

    @pytest.mark.parametrize("cls", [IntensionalityStatement, ParametricIntensionality])
    def test_non_linear_pattern(self, cls):
        with pytest.raises(PatternError):
            cls(entries=((("p", 2), ((X, X),)),))

    def test_a_default_before_a_required_field(self):
        with pytest.raises(TypeError):

            class Misordered(Value):
                first: int = 0
                second: int

    def test_parametric_module_placeholders(self):
        with pytest.raises(PatternError):
            ParametricModule(frozenset(), CHI, PROGRAM)


def _child(*args: str, **env: str) -> str:
    """Stdout of a fresh interpreter run with `args`, `src` on its path and
    `env` added to the environment."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_pickle_keeps_membership_under_another_hash_seed(tmp_path):
    path = tmp_path / "values.pickle"
    setup = (
        "import pickle\n"
        "from modasp.grounding import Domain\n"
        "from modasp.program import PredAtom\n"
        "from modasp.terms import Numeral, SymbolicConstant, Variable\n"
        "atoms = [PredAtom(n, (SymbolicConstant(c), Numeral(i)))\n"
        "         for n in 'pqr' for c in 'abc' for i in range(3)]\n"
        "dom = Domain(0, 2, frozenset(SymbolicConstant(c) for c in 'abc'))\n"
    )
    _child(
        "-c",
        setup + "value = (set(atoms), {a: str(a) for a in atoms}, dom, "
        "frozenset({Variable('X')}))\n"
        "dom.terms_sorted()\nhash(atoms[0])\n"
        f"open({str(path)!r}, 'wb').write(pickle.dumps(value))\n",
        PYTHONHASHSEED="1",
    )
    out = _child(
        "-c",
        setup + f"s, d, loaded, vs = pickle.loads(open({str(path)!r}, 'rb').read())\n"
        "assert all(a in s and d[a] == str(a) for a in atoms), 'membership'\n"
        "assert loaded == dom and hash(loaded) == hash(dom)\n"
        "assert all(t in loaded for t in dom.general_terms)\n"
        "assert loaded.terms_sorted() == dom.terms_sorted()\n"
        "assert Variable('X') in vs\n"
        "print('ok')\n",
        PYTHONHASHSEED="2",
    )
    assert out == "ok\n"


# Per `cached_property` of a record class: a record, a read that fills it,
# and its name.
CACHED = [
    (Domain(0, 2, frozenset({A})), lambda d: d.integers(), "_pools"),
    (TANGLE, lambda p: p.signature(), "_predicates"),
    (KAPPA, lambda k: k.is_purely_intensional(("p", 1)), "table"),
    (dependency_graph(TANGLE), lambda g: g.spanning, "spanning"),
    (TANGLE, lambda p: p.patterns.holding(P1), "patterns"),
    (TANGLE, lambda p: p.analysis, "analysis"),
]


def _cached_properties(cls) -> dict[str, cached_property]:
    """The `cached_property`s of `cls` and its bases, by name; a class
    overrides its bases."""
    return {
        name: attr
        for base in reversed(cls.__mro__)
        for name, attr in vars(base).items()
        if isinstance(attr, cached_property)
    }


def test_every_cached_property_is_pickle_checked():
    """Tooling guard: a new `cached_property` on a record class must join
    `CACHED`, so that no cache can travel in a pickle unnoticed."""
    found = {
        prop
        for cls in _all_record_classes()
        for prop in _cached_properties(cls).values()
    }
    listed = {_cached_properties(type(obj))[name] for obj, _, name in CACHED}
    assert found == listed


@pytest.mark.parametrize(
    "obj, fill, cached",
    CACHED,
    ids=[
        "Domain",
        "ModularProgram",
        "IntensionalityStatement",
        "DependencyGraph",
        "ModularProgram.patterns",
        "ModularProgram.analysis",
    ],
)
def test_pickled_state_holds_no_cached_property(obj, fill, cached):
    fill(obj)
    assert cached in vars(obj)
    fields = tuple(getattr(obj, name) for name in type(obj)._fields)
    assert obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL) == (type(obj), fields)
    loaded = pickle.loads(pickle.dumps(obj))
    assert cached not in vars(loaded)
    assert loaded == obj and fill(loaded) == fill(obj)


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Start-up guard: a class built with `dataclasses` generates and compiles
    its methods on every interpreter start, and `dataclasses` imports
    `inspect`.  The child runs without `site`, and only the modules that
    `import modasp.cli` adds are read."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import modasp.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    added = set(_child("-S", "-c", script).split())
    assert "modasp.cli" in added
    assert not added & {"dataclasses", "inspect"}
