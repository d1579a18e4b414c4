"""Tokenizer and parsers for program files (.lp) and control files (.ctl).

Program files hold rules in `head :- body.` syntax plus `#program`
declarations; comments run from `%` to end of line.  Control files are
line-based statements (`const`, `use`, `domain`, `intensional`, `module`)
with `#` comments.  Identifiers starting with an uppercase letter are
variables, all others are symbolic constants or predicate/function names.
"""

import re
from contextlib import contextmanager
from typing import Optional

from .errors import (
    ArityMismatchError,
    DeclarationConflictError,
    ModaspError,
    ParseError,
    RangeError,
    UnboundConstantError,
)
from .instantiation import require_numerals
from .intensionality import (
    IntensionalityStatement,
    ParametricIntensionality,
    validate_pattern,
)
from .program import Comparison, Literal, PredAtom, Rule, make_rule
from .subprograms import (
    BASE,
    ClingoProgram,
    ControlPlan,
    ProgramDeclaration,
    SubprogramSpec,
    declaration_conflict,
    declared_params,
)
from .terms import (
    Arith,
    Func,
    Numeral,
    SymbolicConstant,
    Term,
    Valuation,
    Value,
    Variable,
    is_precomputed,
    simplify,
    substitute_constants,
)

_TOKEN_BODY = r"""
      (?P<WS>\s+)
    | (?P<COMMENT>{comment})
    | (?P<DIRECTIVE>{directive})
    | (?P<INT>\d+)
    | (?P<NOT>not\b)
    | (?P<IDENT>[a-z_][A-Za-z0-9_]*)
    | (?P<VAR>[A-Z][A-Za-z0-9_]*)
    | (?P<IMPLIES>:-)
    | (?P<RANGE>\.\.)
    | (?P<OP><=|>=|!=|=|<|>)
    | (?P<ARITH>[+\-*])
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    | (?P<COLON>:)
    """

_LP_TOKEN_RE = re.compile(
    _TOKEN_BODY.format(comment=r"%[^\n]*", directive=r"\#program\b"), re.VERBOSE
)
_CTL_TOKEN_RE = re.compile(
    _TOKEN_BODY.format(comment=r"\#[^\n]*", directive=r"(?!x)x"), re.VERBOSE
)


class Token(Value):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str, comment: str) -> list[Token]:
    regex = _LP_TOKEN_RE if comment == "%" else _CTL_TOKEN_RE
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = regex.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, value, line, col))
        for i, ch in enumerate(value):
            if ch == "\n":
                line += 1
                line_start = pos + i + 1
        pos = m.end()
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# Parentheses, function argument lists and arithmetic operators one term may
# nest; deeper terms are refused before they can exhaust the Python stack.
MAX_TERM_DEPTH = 100


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            expected = what or kind.lower()
            raise ParseError(
                f"expected {expected}, found {tok.text!r}", tok.line, tok.column
            )
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def deeper(self) -> Token:
        """Consume the next token, which opens one more level of the term."""
        tok = self.next()
        self.depth += 1
        if self.depth > MAX_TERM_DEPTH:
            raise ParseError(
                f"term nests deeper than {MAX_TERM_DEPTH} parentheses, "
                "function arguments and arithmetic operators",
                tok.line,
                tok.column,
            )
        return tok


# --- terms -------------------------------------------------------------------


def _parse_term(ts: _TokenStream) -> Term:
    depth = ts.depth
    term = _parse_additive(ts)
    ts.depth = depth  # operators count only inside the term they build
    return term


def _parse_additive(ts: _TokenStream) -> Term:
    term = _parse_multiplicative(ts)
    while ts.at("ARITH") and ts.peek().text in ("+", "-"):
        op = ts.deeper().text
        term = Arith(op, term, _parse_multiplicative(ts))
    return term


def _parse_multiplicative(ts: _TokenStream) -> Term:
    term = _parse_primary(ts)
    while ts.at("ARITH") and ts.peek().text == "*":
        ts.deeper()
        term = Arith("*", term, _parse_primary(ts))
    return term


def _parse_primary(ts: _TokenStream) -> Term:
    tok = ts.peek()
    if tok.kind == "INT":
        ts.next()
        return Numeral(int(tok.text))
    if tok.kind == "ARITH" and tok.text == "-":
        ts.next()
        num = ts.expect("INT", "an integer after unary '-'")
        return Numeral(-int(num.text))
    if tok.kind == "VAR":
        ts.next()
        return Variable(tok.text)
    if tok.kind == "IDENT":
        ts.next()
        args = _parse_term_list(ts)
        return Func(tok.text, args) if args else SymbolicConstant(tok.text)
    if tok.kind == "LPAREN":
        ts.deeper()
        term = _parse_term(ts)
        ts.expect("RPAREN")
        ts.depth -= 1
        return term
    ts.error(f"expected a term, found {tok.text!r}")


def _parse_term_list(ts: _TokenStream) -> tuple[Term, ...]:
    """A parenthesised, comma-separated list of at least one term, or the
    empty tuple when no parenthesis follows: the arguments of a function
    term or atom, of a pattern atom, or of a `use` line."""
    if not ts.at("LPAREN"):
        return ()
    ts.deeper()
    terms = _parse_list(ts, _parse_term)
    ts.expect("RPAREN")
    ts.depth -= 1
    return tuple(terms)


def _parse_list(ts: _TokenStream, item) -> list:
    """One or more items, each parsed by `item(ts)`, separated by commas:
    terms, body literals, `#program` parameters and `module` patterns."""
    items = [item(ts)]
    while ts.at("COMMA"):
        ts.next()
        items.append(item(ts))
    return items


def parse_term(text: str) -> Term:
    """Parse a single term, e.g. ``"f(N-1,k)"``."""
    ts = _TokenStream(_tokenize(text, comment="%"))
    term = _parse_term(ts)
    ts.expect("EOF", "end of input")
    return term


@contextmanager
def _positioned(tok: Token):
    """Give an error past the syntax (sorts, names, arities, ranges,
    patterns), which carries no position of its own, the position of `tok`,
    the first token of its rule or statement."""
    try:
        yield
    except ParseError:
        raise
    except ModaspError as err:
        raise type(err)(f"line {tok.line}, column {tok.column}: {err}") from None


# --- rules and program files --------------------------------------------------


def _term_to_pred_atom(term: Term, tok: Token) -> PredAtom:
    if isinstance(term, SymbolicConstant):
        return PredAtom(term.name)
    if isinstance(term, Func):
        return PredAtom(term.name, term.args)
    raise ParseError(f"expected an atom, found term {term}", tok.line, tok.column)


def _parse_atom(ts: _TokenStream):
    tok = ts.peek()
    term = _parse_term(ts)
    if ts.at("OP"):
        rel = ts.next().text
        rhs = _parse_term(ts)
        return Comparison(rel, term, rhs)
    return _term_to_pred_atom(term, tok)


def _parse_literal(ts: _TokenStream) -> Literal:
    negations = 0
    while ts.at("NOT"):
        tok = ts.next()
        negations += 1
        if negations > 2:
            raise ParseError(
                "at most two occurrences of `not` may precede an atom",
                tok.line,
                tok.column,
            )
    return Literal(_parse_atom(ts), negations)


def _parse_rule(ts: _TokenStream) -> Rule:
    """A rule `head.` or `head :- body.`, or a constraint `:- body.`"""
    head = None
    if not ts.at("IMPLIES"):
        tok = ts.peek()
        head = _parse_atom(ts)
        if isinstance(head, Comparison):
            raise ParseError(
                "a comparison cannot be the head of a rule", tok.line, tok.column
            )
    body: list[Literal] = []
    if ts.at("IMPLIES"):
        ts.next()
        body = _parse_list(ts, _parse_literal)
    ts.expect("DOT", "'.' at end of rule")
    return make_rule(head, body)


def _parse_declaration(ts: _TokenStream) -> ProgramDeclaration:
    ts.expect("DIRECTIVE")
    name = ts.expect("IDENT", "a subprogram name").text
    params: list[str] = []

    def parameter(ts: _TokenStream) -> None:
        tok = ts.expect("IDENT", "a parameter name (lowercase)")
        if tok.text in params:
            raise ParseError(f"duplicate parameter {tok.text!r}", tok.line, tok.column)
        params.append(tok.text)

    if ts.at("LPAREN"):
        ts.next()
        _parse_list(ts, parameter)
        ts.expect("RPAREN")
    ts.expect("DOT", "'.' after #program declaration")
    return ProgramDeclaration(name, tuple(params))


def parse_program(text: str) -> ClingoProgram:
    """Parse a clingo-style program file into its declarations and rules."""
    ts = _TokenStream(_tokenize(text, comment="%"))
    items = []
    seen: dict[str, tuple[str, ...]] = {BASE: ()}
    while not ts.at("EOF"):
        if ts.at("DIRECTIVE"):
            tok = ts.peek()
            decl = _parse_declaration(ts)
            conflict = declaration_conflict(seen, decl)
            if conflict:
                raise DeclarationConflictError(conflict, tok.line, tok.column)
            items.append(decl)
        else:
            with _positioned(ts.peek()):
                items.append(_parse_rule(ts))
    return ClingoProgram(tuple(items))


def parse_ground_atom(text: str) -> PredAtom:
    """Parse one precomputed atom, e.g. ``"q(0,1)"`` (used for model input)."""
    ts = _TokenStream(_tokenize(text, comment="%"))
    tok = ts.peek()
    atom = _parse_atom(ts)
    ts.expect("EOF", "end of input")
    if isinstance(atom, Comparison):
        raise ParseError("expected a predicate atom", tok.line, tok.column)
    if not all(is_precomputed(a) for a in atom.args):
        raise ParseError(
            f"atom {atom} is not precomputed", tok.line, tok.column
        )
    return atom


# --- control files -------------------------------------------------------------


def _fold(term: Term, env: dict[str, int], placeholders: tuple[str, ...]) -> Term:
    """Substitute the constants of `env`, other than the placeholders, and
    simplify."""
    mapping = {k: Numeral(v) for k, v in env.items() if k not in placeholders}
    return simplify(substitute_constants(term, mapping))


def _eval_const_expr(ts: _TokenStream, env: dict[str, int]) -> int:
    term = _parse_term(ts)
    folded = _fold(term, env, ())
    if isinstance(folded, Numeral):
        return folded.value
    raise UnboundConstantError(
        f"expression {term} does not evaluate to an integer "
        f"(unbound constant?)"
    )


def _resolve_value(term: Term, env: dict[str, int]) -> Term:
    value = _fold(term, env, ())
    if not is_precomputed(value):
        raise UnboundConstantError(
            f"value {term} does not resolve to a precomputed term"
        )
    return value


def _parse_pattern_atom(
    ts: _TokenStream, env: dict[str, int], placeholders: tuple[str, ...]
):
    """Parse a pattern atom like ``q(X, k+1)`` into ``((name, arity), pattern)``,
    folding in the constants other than the placeholders; the result must be
    a valid pattern over the placeholders."""
    name = ts.expect("IDENT", "a predicate name").text
    pattern = tuple(_fold(e, env, placeholders) for e in _parse_term_list(ts))
    validate_pattern(pattern, placeholders)
    return (name, len(pattern)), pattern


def parse_control(
    text: str,
    clingo_program: ClingoProgram,
    overrides: Optional[dict[str, int]] = None,
) -> ControlPlan:
    """Parse a control file and validate it against the program's declarations.

    `overrides` (from the command line) shadow `const` lines of the same name.
    """
    decls = clingo_program.declarations()
    overrides = dict(overrides or {})
    env: dict[str, int] = dict(overrides)
    declared: set[str] = set()
    specs: list[SubprogramSpec] = []
    domain: Optional[tuple[int, int]] = None
    intensional: dict[tuple[str, int], list[tuple[Term, ...]]] = {}
    module_chi: dict[str, dict[tuple[str, int], list[tuple[Term, ...]]]] = {}

    ts = _TokenStream(_tokenize(text, comment="#"))
    while not ts.at("EOF"):
        tok = ts.expect("IDENT", "a control statement")
        word = tok.text
        with _positioned(tok):
            if word == "const":
                name = ts.expect("IDENT", "a constant name").text
                eq = ts.expect("OP", "'='")
                if eq.text != "=":
                    raise ParseError("expected '='", eq.line, eq.column)
                neg = False
                if ts.at("ARITH") and ts.peek().text == "-":
                    ts.next()
                    neg = True
                value = int(ts.expect("INT", "an integer").text)
                ts.expect("DOT", "'.' at end of statement")
                if name in declared:
                    raise ParseError(f"constant {name!r} redefined", tok.line, tok.column)
                declared.add(name)
                if name not in overrides:
                    env[name] = -value if neg else value
            elif word == "use":
                specs.extend(_parse_use(ts, clingo_program, decls, env))
            elif word == "domain":
                lo = _eval_const_expr(ts, env)
                ts.expect("RANGE", "'..'")
                hi = _eval_const_expr(ts, env)
                ts.expect("DOT", "'.' at end of statement")
                if domain is not None:
                    raise ParseError("duplicate domain statement", tok.line, tok.column)
                if lo > hi:
                    raise RangeError(f"reversed domain {lo}..{hi}")
                domain = (lo, hi)
            elif word == "intensional":
                key, pattern = _parse_pattern_atom(ts, env, ())
                ts.expect("DOT", "'.' at end of statement")
                intensional.setdefault(key, []).append(pattern)
            elif word == "module":
                name = ts.expect("IDENT", "a subprogram name").text
                params = declared_params(decls, name)
                ts.expect("COLON", "':'")
                entries = module_chi.setdefault(name, {})
                for key, pattern in _parse_list(
                    ts, lambda ts: _parse_pattern_atom(ts, env, params)
                ):
                    entries.setdefault(key, []).append(pattern)
                ts.expect("DOT", "'.' at end of statement")
            else:
                raise ParseError(
                    f"unknown control statement {word!r}", tok.line, tok.column
                )

    return ControlPlan(
        specs=tuple(specs),
        domain=domain,
        global_kappa=IntensionalityStatement.of(intensional) if intensional else None,
        module_chi=tuple(
            (name, ParametricIntensionality.of(decls[name], module_chi[name]))
            for name in sorted(module_chi)
        ),
    )


def _parse_use(
    ts: _TokenStream,
    clingo_program: ClingoProgram,
    decls: dict[str, tuple[str, ...]],
    env: dict[str, int],
) -> list[SubprogramSpec]:
    name_tok = ts.expect("IDENT", "a subprogram name")
    name = name_tok.text
    params = declared_params(decls, name)
    arg_terms = _parse_term_list(ts)

    if ts.at("IDENT") and ts.peek().text == "for":
        ts.next()
        loop_tok = ts.expect("IDENT", "a loop variable")
        loop = loop_tok.text
        kw = ts.expect("IDENT", "'in'")
        if kw.text != "in":
            raise ParseError("expected 'in'", kw.line, kw.column)
        lo = _eval_const_expr(ts, env)
        ts.expect("RANGE", "'..'")
        hi = _eval_const_expr(ts, env)
        allow_empty = False
        if ts.at("IDENT") and ts.peek().text == "allow":
            ts.next()
            kw = ts.expect("IDENT", "'empty'")
            if kw.text != "empty":
                raise ParseError("expected 'empty'", kw.line, kw.column)
            allow_empty = True
        ts.expect("DOT", "'.' at end of statement")
        if len(arg_terms) != 1 or not (
            isinstance(arg_terms[0], SymbolicConstant) and arg_terms[0].name == loop
        ):
            raise ParseError(
                f"ranged use must be written use {name}({loop}) for {loop} in ...",
                name_tok.line,
                name_tok.column,
            )
        if len(params) != 1:
            raise ArityMismatchError(
                f"subprogram {name!r} takes {len(params)} parameters; a ranged "
                "use supplies exactly one"
            )
        if lo > hi and not allow_empty:
            raise RangeError(
                f"empty or reversed range {lo}..{hi} (write 'allow empty' to permit)"
            )
        return [
            SubprogramSpec(name, params, Valuation.of({params[0]: Numeral(i)}))
            for i in range(lo, hi + 1)
        ]

    ts.expect("DOT", "'.' at end of statement")
    values = [_resolve_value(t, env) for t in arg_terms]
    if len(values) != len(params):
        raise ArityMismatchError(
            f"subprogram {name!r} takes {len(params)} parameters, got {len(values)}"
        )
    mapping = dict(zip(params, values))
    if not all(isinstance(v, Numeral) for v in values):
        require_numerals(clingo_program.subprogram(name), params, mapping)
    return [SubprogramSpec(name, params, Valuation.of(mapping))]
