"""Fuzzing the front end: any text given to `parse_program`,
`parse_control` or `cli.main` ends in a `ModaspError` or an exit code from
0 to 3, never in another exception.

Three kinds of input, each joined from words of the token grammar with
spaces and newlines: sequences of words, programs and control files built
from the grammar, and the fixtures and built texts with up to three words
deleted, repeated, replaced or swapped.  Non-UTF-8 bytes also go in as a
file.

Every input is small by construction, so that no example can build a large
domain, range or region: numerals have one digit, an argument list holds at
most two items, and a control statement holds at most two arithmetic
operators and no `*`.  The grammar keeps to these bounds, and `_small`
holds every word list to them before it runs.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from modasp.cli import main
from modasp.errors import ModaspError
from modasp.parsing import _tokenize, parse_control, parse_program

FIXTURES = Path(__file__).parent / "fixtures"
DIGITS = tuple("0123456789")
PREDICATES = ("p", "q", "r")
NAMES = ("base", "s", "t")
PARAMS = ("k", "m")
LP_WORDS = (
    *DIGITS, *PREDICATES, *NAMES, *PARAMS, "a", "f", "X", "Y", "not", ":-", "..",
    "=", "!=", "<", "<=", "+", "-", "*", "(", ")", ",", ".", ":", "#program",
    "%", "@",
)
CTL_WORDS = (
    *DIGITS, *PREDICATES, *NAMES, *PARAMS, "a", "f", "X", "n", "const", "use",
    "domain", "intensional", "module", "for", "in", "allow", "empty", "=", "<",
    "+", "-", "(", ")", ",", ".", "..", ":", "#", "@",
)
# The fuzz does not add arithmetic to a control file: `_small` counts it.
CTL_REPLACEMENTS = tuple(w for w in CTL_WORDS if w not in ("+", "-"))
EXAMPLES = settings(
    derandomize=True, max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _small(words, control) -> bool:
    """Whether `words` keep to the bounds: numerals of one digit, at most
    two items in an argument list, and in a control file no `*` and at most
    two arithmetic operators a statement."""
    commas, operators = [0], 0
    for word in words:
        if word.isdigit() and len(word) > 1:
            return False
        if word == "(":
            commas.append(0)
        elif word == ")" and len(commas) > 1:
            commas.pop()
        elif word == "," and len(commas) > 1:
            commas[-1] += 1
            if commas[-1] > 1:
                return False
        elif word == "." and control:
            operators = 0
        elif word in ("+", "-", "*") and control:
            operators += 1
            if word == "*" or operators > 2:
                return False
    return True


def _words_of(text, comment) -> list[str]:
    """The words of a fixture, every numeral cut to its last digit."""
    return [
        tok.text[-1] if tok.kind == "INT" else tok.text
        for tok in _tokenize(text, comment)[:-1]
    ]


LP_FIXTURES, CTL_FIXTURES = (
    [_words_of(path.read_text(encoding="utf-8"), comment) for path in paths]
    for paths, comment in (
        (sorted(FIXTURES.glob("*.lp")), "%"),
        (sorted(FIXTURES.glob("*.ctl")), "#"),
    )
)


@st.composite
def _joined(draw, words):
    """`words` joined with spaces and newlines."""
    out = [words[0]] if words else []
    for word in words[1:]:
        out += [draw(st.sampled_from((" ", "\n"))), word]
    return "".join(out)


# --- the grammar ---------------------------------------------------------------

_variable = st.sampled_from(("X", "Y"))
_constant = st.sampled_from(("a", "k", "m", *DIGITS))


@st.composite
def _term(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(_variable)
    if kind == 1:
        return draw(_constant)
    if kind == 2:
        op = draw(st.sampled_from("+-*"))
        return f"{draw(_variable)}{op}{draw(st.sampled_from(DIGITS + PARAMS))}"
    return f"f({draw(_constant)})"


@st.composite
def _atom(draw):
    name = draw(st.sampled_from(PREDICATES))
    args = draw(st.lists(_term(), max_size=2))
    return f"{name}({','.join(args)})" if args else name


@st.composite
def _literal(draw):
    nots = "not " * draw(st.integers(0, 2))
    if draw(st.booleans()):
        return nots + draw(_atom())
    op = draw(st.sampled_from(("=", "!=", "<", "<=")))
    return f"{nots}{draw(_term())} {op} {draw(_term())}"


@st.composite
def _program_item(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        params = draw(st.lists(st.sampled_from(PARAMS), max_size=2))
        name = draw(st.sampled_from(NAMES))
        return f"#program {name}" + (f"({','.join(params)})." if params else ".")
    body = ", ".join(draw(st.lists(_literal(), min_size=1, max_size=2)))
    if kind == 1:
        return f":- {body}."
    head = draw(_atom())
    return f"{head} :- {body}." if kind == 2 else f"{head}."


@st.composite
def _expression(draw):
    """A constant expression with at most two operators and no `*`."""
    atoms = draw(st.lists(st.sampled_from(DIGITS + ("n",)), min_size=1, max_size=3))
    ops = [draw(st.sampled_from("+-")) for _ in atoms[1:]]
    return atoms[0] + "".join(op + atom for op, atom in zip(ops, atoms[1:]))


@st.composite
def _pattern(draw):
    name = draw(st.sampled_from(PREDICATES))
    args = draw(st.lists(st.sampled_from(("X", "k", "m", *DIGITS)), max_size=2))
    return f"{name}({','.join(args)})" if args else name


@st.composite
def _statement(draw):
    kind = draw(st.integers(0, 5))
    name = draw(st.sampled_from(NAMES))
    if kind == 0:
        sign = draw(st.sampled_from(("", "-")))
        return f"const n = {sign}{draw(st.sampled_from(DIGITS))}."
    if kind == 1:
        value = st.sampled_from(("a", "f(a)", "n", *DIGITS))
        values = draw(st.lists(value, max_size=2))
        return f"use {name}({','.join(values)})." if values else f"use {name}."
    if kind == 2:
        empty = draw(st.sampled_from(("", " allow empty")))
        lo, hi = draw(st.sampled_from(DIGITS)), draw(st.sampled_from(DIGITS + ("n",)))
        return f"use {name}(k) for k in {lo}..{hi}{empty}."
    if kind == 3:
        return f"domain {draw(_expression())}..{draw(_expression())}."
    if kind == 4:
        return f"intensional {draw(_pattern())}."
    patterns = draw(st.lists(_pattern(), min_size=1, max_size=2))
    return f"module {name}: {', '.join(patterns)}."


@st.composite
def _safe_rule(draw, params):
    """A rule whose head variables occur in its positive body, over the
    subprogram parameters `params`."""
    body_vars = draw(st.lists(_variable, min_size=1, max_size=2, unique=True))
    body = [f"{draw(st.sampled_from(PREDICATES))}({','.join(body_vars)})"]
    value = st.sampled_from((*body_vars, *params, "a", *DIGITS))
    if draw(st.booleans()):
        other = f"{draw(st.sampled_from(PREDICATES))}({draw(value)})"
        op = draw(st.sampled_from(("!=", "<")))
        body.append(draw(st.sampled_from((
            f"not {other}", f"not not {other}", f"{draw(value)} {op} {draw(value)}"
        ))))
    if draw(st.integers(0, 3)) == 0:
        return f":- {', '.join(body)}."
    args = draw(st.lists(value, min_size=1, max_size=2))
    if params and draw(st.booleans()):
        args[0] = f"{args[0]}+1"
    head = f"{draw(st.sampled_from(PREDICATES))}({','.join(args)})"
    return f"{head} :- {', '.join(body)}."


@st.composite
def _plan_program(draw):
    """Facts and rules in `base`, `s(k)` and `t`, the names `_plan` uses."""
    facts = [
        f"{draw(st.sampled_from(PREDICATES))}({draw(st.sampled_from(DIGITS[:3]))})."
        for _ in range(draw(st.integers(0, 2)))
    ]
    parts = []
    for header, params in (("", ()), ("#program s(k).", ("k",)), ("#program t.", ())):
        rules = draw(st.lists(_safe_rule(params), max_size=2))
        parts += [header, *rules]
    return "\n".join([*facts, *parts])


@st.composite
def _plan(draw):
    """A control file that uses `base`, `s` and `t` over a declared domain."""
    lines = [f"const n = {draw(st.sampled_from(DIGITS[:4]))}.", "use base."]
    lines.append(draw(st.sampled_from((
        "use s(k) for k in 0..n.", "use s(k) for k in 0..1.", "use s(0).", "use s(a).",
    ))))
    if draw(st.booleans()):
        lines.append("use t.")
    lines.append(f"domain 0..{draw(st.sampled_from(DIGITS[:4]))}.")
    lines += [f"intensional {p}." for p in draw(st.lists(_pattern(), max_size=2))]
    if draw(st.booleans()):
        patterns = draw(st.lists(_pattern(), min_size=1, max_size=2))
        lines.append(f"module s: {', '.join(patterns)}.")
    return "\n".join(lines)


_program_text = st.one_of(
    st.lists(_program_item(), max_size=6).map("\n".join), _plan_program()
)
_control_text = st.one_of(st.lists(_statement(), max_size=6).map("\n".join), _plan())


# --- mutations -----------------------------------------------------------------


@st.composite
def _mutated(draw, bases, replacements):
    """A base word list with up to three words deleted, repeated, replaced
    or swapped with the next."""
    words = list(draw(bases))
    for _ in range(draw(st.integers(1, 3))):
        if not words:
            break
        i = draw(st.integers(0, len(words) - 1))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            del words[i]
        elif kind == 1:
            words.insert(i, words[i])
        elif kind == 2:
            words[i] = draw(st.sampled_from(replacements))
        elif i + 1 < len(words):
            words[i], words[i + 1] = words[i + 1], words[i]
    return words


def _source(words, fixtures, built, replacements, comment):
    """Word lists of one file kind: free sequences of `words`, and the
    fixtures and the texts of `built` with up to three mutations."""
    bases = st.one_of(
        st.sampled_from(fixtures),
        built.map(lambda text: _words_of(text, comment)),
    )
    return st.one_of(
        st.lists(st.sampled_from(words), max_size=24),
        _mutated(bases, replacements),
    )


_lp_words = _source(LP_WORDS, LP_FIXTURES, _program_text, LP_WORDS, "%")
_ctl_words = _source(CTL_WORDS, CTL_FIXTURES, _control_text, CTL_REPLACEMENTS, "#")


@st.composite
def _text(draw, built, word_lists, control):
    """A text built from the grammar, or a word list kept to the bounds."""
    if draw(st.booleans()):
        return draw(built)
    words = draw(word_lists)
    assume(_small(words, control))
    return draw(_joined(words))


_lp = _text(_program_text, _lp_words, control=False)
_ctl = _text(_control_text, _ctl_words, control=True)


# --- the targets ---------------------------------------------------------------


def _ends_well(call) -> None:
    """Run `call`; a `ModaspError` is a clean end, any other exception fails."""
    with contextlib.suppress(ModaspError):
        call()


@EXAMPLES
@given(_lp)
def test_parse_program_ends_in_a_value_or_a_modasp_error(text):
    _ends_well(lambda: parse_program(text))


@EXAMPLES
@given(_lp, _ctl)
def test_parse_control_ends_in_a_value_or_a_modasp_error(program, control):
    try:
        prog = parse_program(program)
    except ModaspError:
        prog = parse_program((FIXTURES / "tangle.lp").read_text())
    _ends_well(lambda: parse_control(control, prog))


COMMANDS = (
    ("parse",),
    ("instantiate", "--mode", "union"),
    ("instantiate", "--mode", "modular"),
    ("check-coherence",),
    ("solve", "--mode", "union", "--cap", "8"),
    ("solve", "--mode", "modular", "--engine", "topo", "--cap", "8"),
    ("compare", "--cap", "8"),
)


def _main(directory, files, command) -> int:
    """`main` on `files` written into `directory`: the program, then the
    control file unless the command is `parse`."""
    paths = []
    for name, content in files:
        path = Path(directory) / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        paths.append(str(path))
    argv = [command[0], paths[0], *command[1:]]
    if command[0] != "parse":
        argv += ["--control", paths[1]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


@EXAMPLES
@given(
    st.one_of(st.tuples(_plan_program(), _plan()), st.tuples(_lp, _ctl)),
    st.sampled_from(COMMANDS),
)
def test_cli_exits_0_to_3(files, command):
    program, control = files
    with tempfile.TemporaryDirectory() as directory:
        code = _main(directory, [("f.lp", program), ("f.ctl", control)], command)
    assert code in (0, 1, 2, 3)


def _not_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.binary(min_size=1, max_size=12).filter(_not_utf8),
    st.sampled_from(("f.lp", "f.ctl")),
    st.sampled_from(COMMANDS[1:]),
)
def test_a_non_utf8_file_exits_2(data, bad, command):
    files = {"f.lp": "q(0,0).\n", "f.ctl": "use base.\ndomain 0..1.\n", bad: data}
    with tempfile.TemporaryDirectory() as directory:
        assert _main(directory, list(files.items()), command) == 2


def test_inputs_stay_small():
    assert _small(["p", "(", "1", ",", "2", ")", ",", "q"], control=False)
    assert not _small(["p", "(", "1", ",", "2", ",", "3", ")"], control=False)
    assert not _small(["p", "(", "12", ")"], control=False)
    assert not _small(["domain", "1", "..", "9", "*", "9", "."], control=True)
    three = ["domain", "1", "-", "1", "..", "9", "+", "9", "+", "9", "."]
    assert not _small(three, control=True)
    assert _small(three[:6] + three[8:], control=True)
    assert _small(three, control=False)
