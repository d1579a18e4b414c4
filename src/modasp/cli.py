"""Command-line frontend.

`_COMMAND_TABLE` lists the commands, each with its handler, its help text
and its options.  Exit codes: 0 success/true, 1 false/violation, 2 usage or
parse error, 3 capacity exceeded.  Diagnostics go to standard error;
results to standard output, byte-identical across runs on identical inputs.
"""

import argparse
import sys
from typing import Optional

from .engine import (
    CHECK_ENGINES,
    DEFAULT_CAP,
    ENGINES,
    Interpretation,
    _require_engine,
    _solve,
    is_answer_set,
)
from .errors import CapacityError, ModaspError, RequirementError
from .grounding import Domain
from .instantiation import (
    Module,
    ModularProgram,
    collective_modular,
    collective_union,
    global_statement,
)
from .intensionality import IntensionalityStatement, pattern_str
from .modular import (
    INCOHERENCE_NOTE,
    MODULAR_ENGINES,
    ComparisonReport,
    _theorem1_masks,
    is_coherent,
)
from .parsing import parse_control, parse_ground_atom, parse_program
from .subprograms import ClingoProgram, ControlPlan, ProgramDeclaration


class _UsageError(ModaspError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _cap(text: str) -> int:
    """The value of `--cap`: an integer of at least 0."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


# Each option a command may take, keyed by its flags, with the keywords of
# its `add_argument` call.
_OPTIONS = {
    "--control": dict(help="control file (.ctl)"),
    "-c/--const": dict(
        action="append", default=[], metavar="NAME=INT",
        help="override a constant of the control file (repeatable)",
    ),
    "--mode": dict(
        choices=("union", "modular"), default="union",
        help="semantics to use (default union)",
    ),
    "--engine": dict(
        choices=tuple(dict.fromkeys(ENGINES + MODULAR_ENGINES)), default="reduct",
        help="model engine (default reduct)",
    ),
    "--cap": dict(
        type=_cap, default=DEFAULT_CAP,
        help=f"relevant atom base cap for enumeration (default {DEFAULT_CAP})",
    ),
    "--model": dict(
        required=True, metavar="ATOMS",
        help='candidate atoms, space-separated, e.g. "q(0,0) q(1,1)"',
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per row of `_COMMAND_TABLE`, with the program file,
    `--output` and the row's options; `run` is the row's handler."""
    parser = _Parser(
        prog="modasp",
        description="Answer sets for clingo-style programs with collective control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, options) in _COMMAND_TABLE.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("program", help="program file (.lp)")
        p.add_argument(
            "--output", choices=("text", "machine"), default="text",
            help="output format (default text)",
        )
        for option in options:
            p.add_argument(*option.split("/"), **_OPTIONS[option])
        p.set_defaults(run=run)
    return parser


def _parse_overrides(pairs) -> dict[str, int]:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise _UsageError(f"expected NAME=INT, got {pair!r}")
        try:
            out[name] = int(value)
        except ValueError:
            raise _UsageError(f"constant {name!r} needs an integer, got {value!r}")
    return out


def _read(path: str) -> str:
    """The text of `path`; an unreadable or non-UTF-8 file is a usage
    error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) else err
        raise _UsageError(f"cannot read {path}: {reason}")


def _load_plan(args) -> tuple[ClingoProgram, ControlPlan]:
    """The program and the control plan named on the command line."""
    prog = parse_program(_read(args.program))
    if not args.control:
        raise _UsageError(f"command {args.command!r} needs --control")
    return prog, parse_control(_read(args.control), prog, _parse_overrides(args.const))


def _load_reading(args, mode: str, engines: tuple[str, ...]):
    """The `mode` reading of the plan that a grounding command works on, as
    a modular program, with its domain over the module rules.  Refuses a
    plan without a domain, then an engine outside `engines`, before
    anything is built.  `union` reads the rule union under the global
    statement as the one-module program; `modular` the modular program,
    whose module rules hold every term of the union."""
    prog, plan = _load_plan(args)
    if plan.domain is None:
        raise _UsageError(
            "the control file must declare a domain, e.g. `domain 0..10.`"
        )
    _require_engine(args.engine, engines)
    if mode == "union":
        union = collective_union(prog, plan.specs)
        kappa = global_statement(plan, union.signature().predicates)
        reading = ModularProgram(kappa, (Module(kappa, union),))
    else:
        reading = collective_modular(prog, plan)
    return reading, Domain.build([m.pi for m in reading.modules], *plan.domain)


def _kappa_json(kappa: IntensionalityStatement) -> dict:
    out = {}
    for (name, arity), patterns in kappa.entries:
        out[f"{name}/{arity}"] = [f"{name}{pattern_str(p)}" for p in patterns]
    return out


def _emit(args, text, machine) -> None:
    """Print the document that `--output` asks for: the lines of `text()`,
    or `machine()` as one JSON line.  Only that document is built, and
    `json` is imported only for machine output."""
    if args.output == "machine":
        import json

        print(json.dumps(machine(), sort_keys=True))
    else:
        for line in text():
            print(line)


def _cmd_parse(args) -> int:
    prog = parse_program(_read(args.program))
    decls = prog.declarations()
    subprograms = [
        (ProgramDeclaration(name, decls[name]), [str(r) for r in prog.subprogram(name)])
        for name in ["base"] + [n for n in decls if n != "base"]
    ]

    def text():
        for decl, rules in subprograms:
            yield str(decl)
            yield from rules

    _emit(
        args,
        text,
        lambda: {
            "command": "parse",
            "subprograms": [
                {"name": decl.name, "params": list(decl.params), "rules": rules}
                for decl, rules in subprograms
            ],
        },
    )
    return 0


def _cmd_instantiate(args) -> int:
    prog, plan = _load_plan(args)
    if args.mode == "union":
        rules = [str(r) for r in collective_union(prog, plan.specs).rules]
        _emit(
            args,
            lambda: rules,
            lambda: {"command": "instantiate", "mode": "union", "rules": rules},
        )
        return 0
    modular = collective_modular(prog, plan)

    def text():
        yield f"kappa: {modular.kappa}"
        for index, module in enumerate(modular.modules):
            yield f"module {index}:"
            yield f"  kappa: {module.kappa}"
            yield from (f"  {r}" for r in module.pi.rules)

    _emit(
        args,
        text,
        lambda: {
            "command": "instantiate",
            "mode": "modular",
            "kappa": _kappa_json(modular.kappa),
            "modules": [
                {
                    "index": index,
                    "kappa": _kappa_json(module.kappa),
                    "rules": [str(r) for r in module.pi.rules],
                }
                for index, module in enumerate(modular.modules)
            ],
        },
    )
    return 0


def _cmd_solve(args) -> int:
    engines = ENGINES if args.mode == "union" else MODULAR_ENGINES
    reading, dom = _load_reading(args, args.mode, engines)
    compiled, masks = _solve(reading, dom, args.engine, args.cap)
    rows = list(compiled.rendered(masks).values())
    _emit(
        args,
        lambda: map(" ".join, rows),
        lambda: {
            "command": "solve",
            "mode": args.mode,
            "engine": args.engine,
            "answer_sets": rows,
            "count": len(rows),
        },
    )
    return 0 if rows else 1


def _cmd_check_coherence(args) -> int:
    prog, plan = _load_plan(args)
    modular = collective_modular(prog, plan)
    report = is_coherent(modular)
    _emit(
        args,
        lambda: [str(report)],
        lambda: {
            "command": "check-coherence",
            "coherent": report.coherent,
            "violations": [
                {"kind": v.kind, "detail": v.detail} for v in report.violations
            ],
        },
    )
    return 0 if report.coherent else 1


def _cmd_compare(args) -> int:
    modular, dom = _load_reading(args, "modular", MODULAR_ENGINES)
    # The incoherence note comes before a refusal of `topo`.
    if not modular.analysis.report.coherent:
        print(f"warning: {INCOHERENCE_NOTE}", file=sys.stderr)
    compiled, on_modular, on_union = _theorem1_masks(
        modular, dom, args.engine, args.cap
    )
    # Each answer set as its list of atoms for machine output, as one line
    # for text; `ComparisonReport.__str__` lays the text out.
    rows = compiled.rendered(on_modular + on_union)
    if args.output == "text":
        rows = {mask: " ".join(atoms) for mask, atoms in rows.items()}
    report = ComparisonReport.of(rows, on_modular, on_union)
    _emit(
        args,
        lambda: [str(report)],
        lambda: {
            "command": "compare",
            "equal": report.equal,
            "modular": report.modular_sets,
            "union": report.union_sets,
            "only_modular": report.only_modular,
            "only_union": report.only_union,
        },
    )
    return 0 if report.equal else 1


def _cmd_check_model(args) -> int:
    # Parsed first, so that a typo in the model wins over a modular
    # construction error (exit 1).
    atoms = [parse_ground_atom(part) for part in args.model.split()]
    candidate = Interpretation.of(atoms)
    reading, dom = _load_reading(args, args.mode, CHECK_ENGINES)
    # No answer set holds an atom of a predicate that the plan never names.
    predicates = reading.signature().predicates
    verdict = is_answer_set(candidate, reading, dom, args.engine) and all(
        atom.pred in predicates for atom in candidate.atoms
    )
    if args.mode == "union":
        yes, no = "kappa-stable model", "not a kappa-stable model"
    else:
        yes, no = "answer set", "not an answer set"
    _emit(
        args,
        lambda: [yes if verdict else no],
        lambda: {
            "command": "check-model",
            "mode": args.mode,
            "is_model": verdict,
            "model": [str(a) for a in candidate.sorted_atoms()],
        },
    )
    return 0 if verdict else 1


# Each command: its handler, its help text and the `_OPTIONS` it takes.
_PLAN = ("--control", "-c/--const")
_COMMAND_TABLE = {
    "parse": (_cmd_parse, "list subprograms and their rules", ()),
    "instantiate": (
        _cmd_instantiate, "print the union program or the modular program dump",
        (*_PLAN, "--mode"),
    ),
    "solve": (
        _cmd_solve, "print answer sets, one per line, atoms sorted",
        (*_PLAN, "--mode", "--engine", "--cap"),
    ),
    "check-coherence": (
        _cmd_check_coherence, "report coherence; exit 0 iff coherent", _PLAN
    ),
    "compare": (
        _cmd_compare, "compare modular and union answer sets; exit 0 iff equal",
        (*_PLAN, "--engine", "--cap"),
    ),
    "check-model": (
        _cmd_check_model,
        "membership of a given atom set under the chosen semantics",
        (*_PLAN, "--mode", "--engine", "--model"),
    ),
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return 3
    except RequirementError as err:
        print(f"modular construction error: {err}", file=sys.stderr)
        return 1
    except ModaspError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
