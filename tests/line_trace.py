"""Statements of `src/modasp` that a pytest run never executes.

    PYTHONPATH=src python tests/line_trace.py [PYTEST ARGS]

runs pytest in this process (by default on `tests/`, quietly) under a
`sys.settrace` line trace limited to the files of `src/modasp`, then prints
each statement of the package that never ran, as `file:line text`, and
their count.  It uses the standard library only, since line coverage needs
no more.  Code run in child processes, such as `python -m modasp.cli`, is
not traced.  pytest does not collect this file.

A statement counts as run when a line of it ran; for a compound statement
only its header counts, from its first decorator to the line before its
body.  Docstrings, `try` headers and `global` statements hold no code and
are not listed.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "modasp"


def _statements(path: Path):
    """(first line, last line, node) of each statement of `path` that
    holds code, its header only if it is compound."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        if isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        decorators = getattr(node, "decorator_list", ())
        first = min([node.lineno] + [d.lineno for d in decorators])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield first, max(first, last), node


def unrun(executed: dict[str, set[int]]) -> list[str]:
    """`file:line text` of each statement of the package none of whose lines
    is in `executed`, keyed by file name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executed.get(str(path), set())
        text = path.read_text(encoding="utf-8").splitlines()
        for first, last, node in sorted(_statements(path), key=lambda s: s[:2]):
            if not any(line in lines for line in range(first, last + 1)):
                out.append(f"{path.name}:{node.lineno} {text[node.lineno - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    import pytest

    executed: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == PACKAGE
            executed[name] = set()
        return local if ours[name] else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        default = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
        code = pytest.main(argv or default)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[str, set[int]] = {}
    for name, lines in executed.items():
        by_path.setdefault(str(Path(name).resolve()), set()).update(lines)
    missed = unrun(by_path)
    print("\n".join(missed))
    print(f"{len(missed)} statements never ran (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
