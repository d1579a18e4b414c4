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
from functools import cached_property
from operator import add, mul, sub
from typing import Iterator, Mapping, Union

from .errors import NotGroundError, NotPrecomputedError, SortError


class Value:
    """Base of the immutable records.

    A subclass lists its fields as annotations, in order; a class attribute
    of the same name is that field's default.  `Value` gives construction by
    position or keyword followed by `__post_init__`, equality between
    objects of one class with equal fields, hashing and a
    ``Name(field=value, ...)`` repr over the fields, and `AttributeError` on
    assignment and deletion.  Fields named in the class keyword `hidden` are
    left out of equality, hashing and repr.  A class with a
    `cached_property` pickles its fields only, so a cached value is
    rebuilt on first use after loading.  The classes that a benchmark
    workload builds or hashes by the thousand (numerals, variables,
    arithmetic terms, predicate atoms, literals, rules, ground rules,
    interpretations, statements) write out their own `__init__`, `__eq__`
    and `__hash__`, which the generic ones here would slow down; the README
    gives the counts.
    """

    _fields = _shown = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._shown = tuple(name for name in cls._fields if name not in hidden)
        if any(
            isinstance(value, cached_property)
            for klass in cls.__mro__
            for value in vars(klass).values()
        ):
            cls.__getstate__ = Value._field_state

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call that names or omits some of them."""
        given = dict(zip(cls._fields, args))
        if len(args) > len(cls._fields) or given.keys() & kwargs.keys():
            raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
        defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        values = {**defaults, **given, **kwargs}
        if values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the arguments {cls._fields}")
        return tuple(values[name] for name in cls._fields)

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def _field_state(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Sort(Enum):
    INTEGER = "integer"
    GENERAL = "general"


class Numeral(Value):
    value: int

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __str__(self):
        return str(self.value)


class SymbolicConstant(Value):
    name: str

    def __str__(self):
        return self.name


class Variable(Value):
    name: str
    sort: Sort

    def __init__(self, name: str, sort: Sort = Sort.GENERAL):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sort", sort)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.sort) == (other.name, other.sort)
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.sort))

    def __str__(self):
        return self.name


class Arith(Value):
    op: str
    left: "Term"
    right: "Term"

    def __init__(self, op: str, left: "Term", right: "Term"):
        if op not in ARITH_OPS:
            raise SortError(f"unknown arithmetic operator {op!r}")
        for side in (left, right):
            # Function terms are strictly general-sorted and can never sit
            # at an integer argument position.
            if isinstance(side, Func):
                raise SortError(
                    f"function term {side} used as an argument of arithmetic"
                )
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.op, self.left, self.right) == (
                other.op, other.left, other.right
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.op, self.left, self.right))

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


def is_ground(t: Term) -> bool:
    if isinstance(t, Variable):
        return False
    if isinstance(t, Arith):
        return is_ground(t.left) and is_ground(t.right)
    if isinstance(t, Func):
        return all(is_ground(a) for a in t.args)
    return True


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
