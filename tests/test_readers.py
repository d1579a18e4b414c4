"""Every function, method and class defined in the package has a reader:
its name is read somewhere in `src/modasp` or `perfbench/` outside its own
definition.  An import counts as a read; dunder methods are exempt.  Every
parameter of a function or method but a dunder is read in its body, except
the receiver `self` or `cls`, which an override may not need.  And only
public functions warn: a helper returns its verdict as a value."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "modasp").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def _reads(tree):
    """(line, name) of each name read in `tree`: a variable, an attribute
    or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name


def _unread(paths, readers):
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    reads = {path: list(_reads(tree)) for path, tree in trees.items()}
    unread = []
    for path in paths:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # A read inside the definition itself, as by recursion, is none.
            if not any(
                read == name
                and not (other == path and node.lineno <= line <= node.end_lineno)
                for other in readers
                for line, read in reads[other]
            ):
                unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_every_definition_has_a_reader():
    assert _unread(PACKAGE, READERS) == []


def test_a_definition_read_only_by_itself_is_unread(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from .m import used\n"
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class C:\n"
        "    def __str__(self):\n        return ''\n"
        "    def method(self):\n        return C\n",
        encoding="utf-8",
    )
    assert _unread([source], [source]) == [
        "m.py:4 recursive",
        "m.py:6 C",
        "m.py:9 method",
    ]


def _unread_parameters(paths):
    """(file:line function parameter) of each parameter of a non-dunder
    function that its body never reads, `self` and `cls` exempt."""
    unread = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            read = {
                name.id
                for statement in node.body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name)
            }
            unread += [
                f"{path.name}:{node.lineno} {node.name} {param.arg}"
                for param in params
                if param.arg not in read and param.arg not in ("self", "cls")
            ]
    return unread


def test_every_parameter_is_read():
    assert _unread_parameters(PACKAGE) == []


def test_a_parameter_its_body_never_reads_is_unread(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "def used(a, *args, b, **kw):\n    return a, args, b, kw\n"
        "def default(a, b=None):\n    return a\n"
        "def annotated(a: int, b) -> int:\n    return b\n"
        "def outer(a):\n    def inner():\n        return a\n    return inner\n"
        "class C:\n"
        "    def __setattr__(self, name, value):\n        pass\n"
        "    def method(self, x, *rest):\n        return x\n",
        encoding="utf-8",
    )
    assert _unread_parameters([source]) == [
        "m.py:3 default b",
        "m.py:5 annotated a",
        "m.py:14 method rest",
    ]


def _private_warnings(paths):
    """(file:line name) of each `warnings.warn` call outside a public
    function, named by its innermost enclosing function (`<module>` at the
    top level).  Helpers return verdicts; only the public API warns."""
    found = []

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("warnings.warn", "warn")
            and owner.startswith(("_", "<"))
        ):
            found.append(f"{path.name}:{node.lineno} {owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
    return found


def test_only_public_functions_warn():
    assert _private_warnings(PACKAGE) == []


def test_a_warning_outside_a_public_function_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import warnings\n"
        "warnings.warn('top')\n"
        "def public():\n    warnings.warn('fine')\n"
        "def _helper():\n    warnings.warn('helper')\n"
        "def outer():\n    def _inner():\n        warnings.warn('inner')\n"
        "from warnings import warn\n"
        "def _bare():\n    warn('bare')\n",
        encoding="utf-8",
    )
    assert _private_warnings([source]) == [
        "m.py:2 <module>",
        "m.py:6 _helper",
        "m.py:9 _inner",
        "m.py:12 _bare",
    ]
