"""Many-sorted terms: numerals, symbolic constants, variables, integer
arithmetic and uninterpreted function terms.

Two sorts exist, integer and general, with integer a subsort of general.
Numerals are syntactic objects distinct from the integers they denote;
``Numeral(8)`` is the value of the ground arithmetic term ``5 + 3``, not the
term itself.  A ground term is *precomputed* when it contains no arithmetic
operator; precomputed terms form the universe of the general sort and carry
a fixed total order (numerals first, ordered by value, then symbolic
constants lexicographically, then function terms by name, arity and
arguments).
"""

from enum import Enum
from functools import cache
from operator import add, itemgetter, mul, sub
from types import CodeType, FunctionType
from typing import Iterator, Mapping, Union

from .errors import NotGroundError, NotPrecomputedError, SortError


class Value(tuple):
    """Base of the immutable records.

    A record is a tuple of its class followed by its fields, so equality and
    hashing are CPython's tuple code: records are equal when they are of one
    class with equal fields.  A subclass lists its fields as annotations, in
    order; a class attribute of the same name is that field's default, and
    only the last fields may have one.  Each field is read through a
    property.  Each class gets a `__new__` of its own, built from one
    template (`_constructor`), which takes the fields by position or
    keyword, builds the tuple and then runs the checks of the class's
    `__post_init__` when it or a base defines one; Python's own argument
    binding refuses a wrong number of fields with `TypeError`.  The repr is
    ``Name(field=value, ...)``, and assignment and deletion raise
    `AttributeError`.  A record pickles as its class and fields only, so no
    `cached_property` value travels and loading runs the checks again.

    The hash of a record includes the hash of its class, which differs
    between processes, so every printed order comes from an explicit sort.
    Tuple length, iteration, indexing, concatenation and ordering reach
    every record that does not define its own; no code relies on them.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        defaulted = [name for name in cls._fields if name in vars(cls)]
        if defaulted != list(cls._fields[len(cls._fields) - len(defaulted) :]):
            raise TypeError(f"{cls.__name__}: only the last fields may have defaults")
        defaults = tuple(vars(cls)[name] for name in defaulted)
        for i, name in enumerate(cls._fields, 1):
            read = itemgetter(i)
            if cls.__getitem__ is not tuple.__getitem__:
                # `Valuation.__getitem__` looks names up; read past it.
                read = lambda self, i=i: tuple.__getitem__(self, i)
            setattr(cls, name, property(read))
        if "__new__" not in vars(cls):
            cls.__new__ = _constructor(cls, defaults)

    def __reduce__(self):
        return type(self), tuple.__getitem__(self, slice(1, None))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_TEMPLATE = """\
def __new__(cls, {fields}):
    self = _new(cls, (cls, {fields}))
    _check(self)
    return self
"""


@cache
def _template(arity: int, checked: bool) -> CodeType:
    """`_TEMPLATE` over `arity` fields named ``f0, f1, ...``, without the
    `_check` line unless `checked`: compiled once for each shape."""
    source = _TEMPLATE.format(fields=", ".join(f"f{i}" for i in range(arity)))
    if not checked:
        source = source.replace("    _check(self)\n", "")
    scope: dict = {}
    exec(source, scope)
    return scope["__new__"].__code__


def _constructor(cls: type, defaults: tuple) -> FunctionType:
    """The `__new__` of the record class `cls`: the template of its shape
    with its field names for parameters, `defaults` for the last of them,
    and the `__post_init__` that reaches it, if any, for `_check`."""
    check = getattr(cls, "__post_init__", None)
    code = _template(len(cls._fields), check is not None)
    code = code.replace(co_varnames=("cls", *cls._fields, "self"))
    scope = {"_new": tuple.__new__, "_check": check}
    constructor = FunctionType(code, scope, "__new__", defaults or None)
    constructor.__qualname__ = f"{cls.__qualname__}.__new__"
    return constructor


class Sort(Enum):
    INTEGER = "integer"
    GENERAL = "general"

    # Members are singletons, so identity is equality; `Enum.__hash__` is
    # Python code, and every `Variable` hash reaches it.
    __hash__ = object.__hash__


class Numeral(Value):
    value: int

    def __str__(self):
        return str(self.value)


class SymbolicConstant(Value):
    name: str

    def __str__(self):
        return self.name


class Variable(Value):
    name: str
    sort: Sort = Sort.GENERAL

    def __str__(self):
        return self.name


class Arith(Value):
    op: str
    left: "Term"
    right: "Term"

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise SortError(f"unknown arithmetic operator {self.op!r}")
        for side in (self.left, self.right):
            # Function terms are strictly general-sorted and can never sit
            # at an integer argument position.
            if isinstance(side, Func):
                raise SortError(
                    f"function term {side} used as an argument of arithmetic"
                )

    def __str__(self):
        return _render(self, 0)


class Func(Value):
    name: str
    args: tuple["Term", ...]

    def __post_init__(self):
        if not self.args:
            raise SortError(f"zero-argument function {self.name!r}; use a constant")

    def __str__(self):
        return f"{self.name}({','.join(str(a) for a in self.args)})"


Term = Union[Numeral, SymbolicConstant, Variable, Arith, Func]

ARITH_OPS = {"+": add, "-": sub, "*": mul}

_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def _render(t: Term, ctx: int) -> str:
    if not isinstance(t, Arith):
        return str(t)
    prec = _PRECEDENCE[t.op]
    left = _render(t.left, prec)
    right = _render(t.right, prec + 1)  # left-associative operators
    text = f"{left}{t.op}{right}"
    if prec < ctx:
        return f"({text})"
    return text


def is_precomputed(t: Term) -> bool:
    if isinstance(t, (Variable, Arith)):
        return False
    if isinstance(t, Func):
        return all(is_precomputed(a) for a in t.args)
    return True


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, Arith):
        yield from subterms(t.left)
        yield from subterms(t.right)
    elif isinstance(t, Func):
        for a in t.args:
            yield from subterms(a)


def variables_of(t: Term) -> set[str]:
    return {s.name for s in subterms(t) if isinstance(s, Variable)}


def constants_of(t: Term) -> set[str]:
    return {s.name for s in subterms(t) if isinstance(s, SymbolicConstant)}


def sort_of(t: Term) -> Sort:
    """Sort of a term in isolation.

    Symbolic constants and function terms default to general; an enclosing
    arithmetic context (checked during rule construction) is what forces a
    constant to the integer sort.
    """
    if isinstance(t, (Numeral, Arith)):
        return Sort.INTEGER
    if isinstance(t, Variable):
        return t.sort
    return Sort.GENERAL


def eval_ground(t: Term) -> Term:
    """Value of a ground term under a standard interpretation.

    Arithmetic is computed over the integers (``Arith('+', 5, 3)`` becomes
    ``Numeral(8)``); symbolic constants and function terms denote themselves.
    """
    if isinstance(t, Variable):
        raise NotGroundError(f"term contains variable {t.name}")
    if isinstance(t, (Numeral, SymbolicConstant)):
        return t
    if isinstance(t, Func):
        return Func(t.name, tuple(eval_ground(a) for a in t.args))
    left = eval_ground(t.left)
    right = eval_ground(t.right)
    for side in (left, right):
        if not isinstance(side, Numeral):
            raise SortError(
                f"cannot evaluate {t}: {side} is not a numeral "
                "(unsubstituted integer constant?)"
            )
    return Numeral(ARITH_OPS[t.op](left.value, right.value))


def simplify(t: Term) -> Term:
    """Simplification map on terms.

    Variables and precomputed terms are fixed; an arithmetic term whose
    operands simplify to numerals folds to the numeral of its value, and
    otherwise keeps the operation with both operands simplified.  Function
    arguments are simplified elementwise.  Idempotent.
    """
    if isinstance(t, (Numeral, SymbolicConstant, Variable)):
        return t
    if isinstance(t, Func):
        return Func(t.name, tuple(simplify(a) for a in t.args))
    left = simplify(t.left)
    right = simplify(t.right)
    if isinstance(left, Numeral) and isinstance(right, Numeral):
        return Numeral(ARITH_OPS[t.op](left.value, right.value))
    return Arith(t.op, left, right)


def _substitute(t: Term, kind: type, mapping: Mapping[str, Term]) -> Term:
    """Replace the leaves of class `kind` found by name in `mapping`."""
    if isinstance(t, kind):
        return mapping.get(t.name, t)
    if isinstance(t, Arith):
        return Arith(
            t.op,
            _substitute(t.left, kind, mapping),
            _substitute(t.right, kind, mapping),
        )
    if isinstance(t, Func):
        return Func(t.name, tuple(_substitute(a, kind, mapping) for a in t.args))
    return t


def substitute_constants(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace symbolic constants found in `mapping` by their values."""
    return _substitute(t, SymbolicConstant, mapping)


def substitute_variables(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace variables found in `mapping` by their values."""
    return _substitute(t, Variable, mapping)


# --- total order on precomputed terms ---------------------------------------

LT, EQ, GT = -1, 0, 1


def order_key(t: Term):
    """Sort key realising the fixed total order on precomputed terms.

    All numerals precede all symbolic constants, which precede all function
    terms; numerals are ordered by value, so they stay contiguous.
    """
    if isinstance(t, Numeral):
        return (0, t.value)
    if isinstance(t, SymbolicConstant):
        return (1, t.name)
    if isinstance(t, Func):
        if not is_precomputed(t):
            raise NotPrecomputedError(f"term {t} is not precomputed")
        return (2, t.name, len(t.args), tuple(order_key(a) for a in t.args))
    raise NotPrecomputedError(f"term {t} is not precomputed")


def compare(t1: Term, t2: Term) -> int:
    """Compare two precomputed terms; returns LT, EQ or GT."""
    k1, k2 = order_key(t1), order_key(t2)
    if k1 < k2:
        return LT
    if k1 > k2:
        return GT
    return EQ


# --- valuations --------------------------------------------------------------


class Valuation(Value):
    """Immutable map from placeholder names to precomputed terms."""

    items: tuple[tuple[str, Term], ...] = ()

    def __post_init__(self):
        for name, value in self.items:
            if not is_precomputed(value):
                raise NotPrecomputedError(
                    f"valuation assigns non-precomputed term {value} to {name}"
                )

    @classmethod
    def of(cls, mapping: Mapping[str, Term]) -> "Valuation":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, Term]:
        return dict(self.items)

    def __contains__(self, name: str) -> bool:
        return any(k == name for k, _ in self.items)

    def __getitem__(self, name: str) -> Term:
        for k, v in self.items:
            if k == name:
                return v
        raise KeyError(name)

    def __len__(self):
        return len(self.items)

    def __str__(self):
        inner = ",".join(f"{k}->{v}" for k, v in self.items)
        return f"({inner})"
