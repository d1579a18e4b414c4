"""The four benchmark workloads.

Each workload
  * `prepare(seed, directory)` writes its inputs, made from the seed alone.
    It runs in a fresh interpreter, so its time (`setup_s`) covers the
    import of modasp as well as input generation and file writing;
  * `measure(directory, seconds, probe)` repeats the workload's operation
    for the given time with tracing off, checks every answer, and returns
    its times both in nominal seconds (see `speed.py`) and as measured;
  * `replay(directory, tracer)` replays the operation once, one public call
    of modasp at a time, with a span around each call.

Answers are checked against references built here, not by the timed path:
the exact model sets of the three CLI programs are known in closed form, and
`random_compare` is checked against the `brute` engine after the timed loop.

The three CLI workloads use fixed programs (the templates in `inputs/`); the
seed renames their predicates and subprograms, so every seed asks for the
same work while no run can be answered from another run's output.
`random_compare` draws its programs from the seed.

Run `python3 perfbench/workloads.py prepare WORKLOAD SEED DIR` to write one
workload's inputs into DIR.
"""

import io
import itertools
import json
import os
import pickle
import random
import re
import resource
import statistics
import string
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
INPUTS = HERE / "inputs"

from modasp import (  # noqa: E402  (needs SRC on sys.path, set by the caller)
    Domain,
    EngineError,
    IntensionalityStatement,
    ModaspError,
    collective_modular,
    collective_union,
    dependency_graph,
    enumerate_kappa_stable,
    extensional_region,
    ground,
    is_coherent,
    least_model,
    modular_answer_sets,
    parse_control,
    parse_program,
    theorem1_check,
    union_program,
)
from modasp import cli  # noqa: E402
from modasp.grounding import GroundRule  # noqa: E402

RANDOM_PROGRAMS = 1500
PROBE_EVERY = 200  # random_compare programs between two speed probes


def child_env() -> dict[str, str]:
    """Environment for a modasp child process: an absolute `src` path, so
    the child finds the package from any working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv: list[str], cwd: Path) -> tuple[float, float, int, bytes]:
    """Run one child process; return wall seconds, peak RSS in MB, exit
    code and standard output."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _child_times(walls: list[float]) -> dict[str, float]:
    median = statistics.median(walls)
    return {
        "wall_s": median,
        "instances_per_s": len(walls) / sum(walls),
        "instance_p50_ms": median * 1e3,
        "instance_p99_ms": percentile(walls, 99) * 1e3,
    }


def _program_times(latencies: list[list[float]]) -> dict[str, float]:
    per_program = [statistics.median(v) for v in latencies]
    return {
        "wall_s": sum(per_program),
        "instances_per_s": sum(map(len, latencies)) / sum(map(sum, latencies)),
        "instance_p50_ms": statistics.median(per_program) * 1e3,
        "instance_p99_ms": percentile(per_program, 99) * 1e3,
    }


def fresh_names(seed: int, originals) -> dict[str, str]:
    """Distinct four-letter identifiers drawn from the seed."""
    rng = random.Random(seed)
    out: dict[str, str] = {}
    for name in originals:
        while True:
            new = rng.choice(string.ascii_lowercase) + "".join(
                rng.choices(string.ascii_lowercase + string.digits, k=3)
            )
            if new != "base" and new not in out.values():
                break
        out[name] = new
    return out


def models_of(models) -> set[frozenset[str]]:
    return {frozenset(str(a) for a in I) for I in models}


def _solve_output(text: str) -> set[frozenset[str]]:
    lines = text.splitlines()
    models = {frozenset(line.split()) for line in lines}
    return models if len(models) == len(lines) else set()


def _compare_output(text: str) -> set[frozenset[str]]:
    """Model set of `modasp compare` output when both sides list the same
    distinct models and it says `equal: yes`; the empty set otherwise."""
    lines = text.splitlines()
    sides = []
    at = 0
    for label in ("modular", "union"):
        header = lines[at] if at < len(lines) else ""
        match = re.fullmatch(rf"{label} answer sets \((\d+)\):", header)
        if not match:
            return set()
        count = int(match.group(1))
        block = lines[at + 1 : at + 1 + count]
        models = {frozenset(line.split()) for line in block}
        if len(models) != count or not all(line.startswith("  ") for line in block):
            return set()
        sides.append(models)
        at += 1 + count
    if lines[at:] != ["equal: yes"] or sides[0] != sides[1]:
        return set()
    return sides[0]


def _global_kappa(plan, union) -> IntensionalityStatement:
    patterns = plan.global_kappa_dict()
    if patterns is not None:
        return IntensionalityStatement.of(patterns)
    return IntensionalityStatement.purely_intensional(union.signature().predicates)


# --- traced pieces shared by the replays ---------------------------------------


def _trace_ground_union(tracer, union, dom, ext) -> set:
    gp = tracer.call("grounding.union", ground, union, dom)
    tracer.count("grounding.union_rules", len(gp.rules))
    # A ground rule can fire only if its positive body lies in the least
    # model of all rules plus every extensional atom as a fact.
    reach = least_model(list(gp.rules) + [GroundRule(a) for a in ext])
    tracer.count(
        "grounding.fireable_rules",
        sum(1 for r in gp.rules if all(a in reach for a in r.pos)),
    )
    return gp.heads()


def _trace_modules(tracer, P, dom) -> set:
    heads = set()
    for module in P.modules:
        gp = tracer.call("grounding.modules", ground, module.pi, dom)
        tracer.count("grounding.module_rules", len(gp.rules))
        heads |= gp.heads()
    return heads


def _trace_extensional(tracer, kappa, predicates, dom):
    return tracer.call("engine.extensional", extensional_region, kappa, predicates, dom)


def _trace_coherence(tracer, P) -> bool:
    report = tracer.call("modular.coherence", is_coherent, P)
    graph = tracer.call("modular.depgraph", dependency_graph, P)
    tracer.count("modular.depgraph_edges", len(graph.edges))
    return report.coherent


def _trace_modular_solve(tracer, P, dom, engine, cap=24):
    try:
        models = tracer.call("modular.solve", modular_answer_sets, P, dom, engine, cap)
    except EngineError:
        if engine != "topo":
            raise
        tracer.count("modular.topo_refused", 1)
        return None
    tracer.count("modular.models", len(models))
    return models


# --- the CLI workloads -----------------------------------------------------------


class CliWorkload:
    """One `modasp` command on a fixed program whose names the seed picks."""

    def __init__(self, name, stem, renamed, command, options, n, expected, tail):
        self.name = name
        self.stem = stem
        self.renamed = renamed
        self.command = command
        self.options = options
        self.n = n
        self.expected = expected  # (names, n) -> set of models
        self.tail = tail  # the traced calls after parsing and union assembly

    def files(self, directory: Path) -> tuple[Path, Path]:
        return directory / f"{self.stem}.lp", directory / f"{self.stem}.ctl"

    def prepare(self, seed: int, directory: Path) -> None:
        names = fresh_names(seed, self.renamed)
        pattern = re.compile(r"\b(" + "|".join(self.renamed) + r")\b")
        lp, ctl = self.files(directory)
        for path in (lp, ctl):
            text = (INPUTS / path.name).read_text(encoding="utf-8")
            path.write_text(
                pattern.sub(lambda m: names[m.group(1)], text), encoding="utf-8"
            )
        prog = parse_program(lp.read_text(encoding="utf-8"))
        parse_control(ctl.read_text(encoding="utf-8"), prog)
        (directory / "names.json").write_text(json.dumps(names), encoding="utf-8")

    def argv(self, directory: Path) -> list[str]:
        lp, ctl = self.files(directory)
        const = [] if self.n is None else ["-c", f"n={self.n}"]
        return [self.command, str(lp), "--control", str(ctl), *const, *self.options]

    def _expected(self, directory: Path):
        names = json.loads((directory / "names.json").read_text(encoding="utf-8"))
        return self.expected(names, self.n)

    def _output_ok(self, text: str, expected) -> bool:
        parse = _compare_output if self.command == "compare" else _solve_output
        return parse(text) == expected

    def measure(self, directory: Path, seconds: float, probe) -> dict:
        argv = [sys.executable, "-m", "modasp.cli", *self.argv(directory)]
        expected = self._expected(directory)
        walls, nominal, peaks = [], [], []
        failed = 0
        first = None
        probe.sample()
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            wall, peak, code, out = run_child(argv, directory)
            walls.append(wall)
            nominal.append(wall * probe.sample())
            peaks.append(peak)
            first = out if first is None else first
            if code != 0 or out != first or not self._output_ok(out.decode(), expected):
                failed += 1
        return {
            "attempted": len(walls),
            "failed": failed,
            "metrics": {**_child_times(nominal), "peak_rss_mb": max(peaks)},
            "measured": {**_child_times(walls), "peak_rss_mb": max(peaks)},
        }

    def replay(self, directory: Path, tracer) -> tuple[int, int]:
        """One traced replay; returns the answers checked and those wrong:
        the output of `cli.main` and the model set of the replayed calls."""
        expected = self._expected(directory)
        argv = self.argv(directory)
        lp, ctl = self.files(directory)
        with tracer.span("cli.import"):
            subprocess.run(
                [sys.executable, "-c", "import modasp.cli"], env=child_env(), check=True
            )
        captured = io.StringIO()
        with tracer.span("cli.main"), redirect_stdout(captured):
            code = cli.main(argv)
        text = captured.getvalue()
        tracer.count("cli.output_bytes", len(text.encode()))
        wrong = int(code != 0 or not self._output_ok(text, expected))

        prog = tracer.call("parsing.program", parse_program, lp.read_text(encoding="utf-8"))
        tracer.count("parsing.rules", len(prog.scopes()))
        plan = tracer.call(
            "parsing.control", parse_control, ctl.read_text(encoding="utf-8"), prog,
            {} if self.n is None else {"n": self.n},
        )
        tracer.count("parsing.specs", len(plan.specs))
        union = tracer.call("instantiation.union", collective_union, prog, plan.specs)
        tracer.count("instantiation.union_rules", len(union.rules))
        dom = tracer.call("grounding.domain", Domain.build, [union], *plan.domain)
        models = self.tail(tracer, prog, plan, union, dom)
        return 2, wrong + int(models != expected)


def _property_tail(tracer, prog, plan, union, dom):
    # solve --mode union --engine fixpoint
    kappa = _global_kappa(plan, union)
    ext = _trace_extensional(tracer, kappa, union.signature().predicates, dom)
    heads = _trace_ground_union(tracer, union, dom, ext)
    tracer.count("engine.base_atoms", len(heads | ext))
    models = tracer.call(
        "engine.union_solve", enumerate_kappa_stable, kappa, union, dom, "fixpoint"
    )
    tracer.count("engine.models", len(models))
    return models_of(models)


def _even_tail(tracer, prog, plan, union, dom):
    # compare --engine reduct --cap 21
    P = tracer.call("instantiation.modular", collective_modular, prog, plan)
    tracer.count("instantiation.modules", len(P.modules))
    heads = _trace_modules(tracer, P, dom)
    ext = _trace_extensional(tracer, P.kappa, P.signature().predicates, dom)
    tracer.count("engine.base_atoms", len(heads | ext))
    _trace_ground_union(tracer, union, dom, ext)
    union_models = tracer.call(
        "engine.union_solve", enumerate_kappa_stable, P.kappa, union, dom, "reduct", 21
    )
    tracer.count("engine.models", len(union_models))
    coherent = _trace_coherence(tracer, P)
    modular = _trace_modular_solve(tracer, P, dom, "reduct", 21)
    report = tracer.call("modular.compare", theorem1_check, P, dom, "reduct", 21)
    ok = coherent and report.equal and modular == union_models == frozenset(report.union_sets)
    return models_of(modular) if ok else set()


def _chain_tail(tracer, prog, plan, union, dom):
    # solve --mode modular --engine topo --cap 1000
    P = tracer.call("instantiation.modular", collective_modular, prog, plan)
    tracer.count("instantiation.modules", len(P.modules))
    heads = _trace_modules(tracer, P, dom)
    ext = _trace_extensional(tracer, P.kappa, P.signature().predicates, dom)
    tracer.count("engine.base_atoms", len(heads | ext))
    coherent = _trace_coherence(tracer, P)
    models = _trace_modular_solve(tracer, P, dom, "topo", 1000)
    return models_of(models) if coherent and models is not None else set()


def _chain_models(names, n):
    return {frozenset(f"{names['p']}({i})" for i in range(n + 1))}


def _property_models(names, n):
    return {frozenset(f"{names['q']}({i},{i})" for i in range(n + 1))}


def _even_models(names, n):
    p, r, s = names["p"], names["r"], names["s"]
    per_value = [
        ((), (f"{s}({x})", f"{p}({x})"), (f"{s}({x})", f"{r}({x})")) for x in range(6)
    ]
    return {
        frozenset(itertools.chain.from_iterable(choice))
        for choice in itertools.product(*per_value)
    }


# --- random_compare -----------------------------------------------------------------


class RandomCompare:
    """In-process loop over seeded coherent programs: the Theorem-1 check
    with `reduct` plus the `topo` engine on each."""

    name = "random_compare"

    def prepare(self, seed: int, directory: Path) -> None:
        import randprog

        rng = random.Random(seed)
        programs = [randprog.random_coherent_program(rng) for _ in range(RANDOM_PROGRAMS)]
        with open(directory / "programs.pickle", "wb") as handle:
            pickle.dump(programs, handle)

    @staticmethod
    def _load(directory: Path):
        # Only the prepare step of this benchmark writes this file.
        with open(directory / "programs.pickle", "rb") as handle:
            return pickle.load(handle)

    @staticmethod
    def _brute_agrees(P, dom, outcome) -> bool:
        equal, modular, union, topo = outcome
        oracle = modular_answer_sets(P, dom, "brute")
        return (
            equal
            and frozenset(modular) == oracle
            and frozenset(union) == oracle
            and (topo is None or topo == oracle)
        )

    def measure(self, directory: Path, seconds: float, probe) -> dict:
        programs = self._load(directory)
        # Per program, the seconds of each visit and the index of the block
        # of PROBE_EVERY visits it fell in; `scales[b]` is block b's factor.
        visits = [[] for _ in programs]
        scales = []
        # Answers of later passes are compared with a hash of the first
        # pass's answer, so that the answers are not held in memory.
        first = [None] * len(programs)
        failed = 0
        probe.sample()
        deadline = time.perf_counter() + seconds
        attempted = 0
        # Cycle through the programs until the time is up, after at least
        # one full pass; a program's latency is its median over its visits.
        while attempted < len(programs) or time.perf_counter() < deadline:
            i = attempted % len(programs)
            P, dom = programs[i]
            if attempted and attempted % PROBE_EVERY == 0:
                scales.append(probe.sample())
            attempted += 1
            start = time.perf_counter()
            try:
                report = theorem1_check(P, dom, "reduct")
                try:
                    topo = modular_answer_sets(P, dom, "topo")
                except EngineError:
                    topo = None  # documented refusal: cyclic module order
            except ModaspError:
                report = None
            visits[i].append((time.perf_counter() - start, len(scales)))
            if report is None:
                failed += 1
                continue
            outcome = (report.equal, report.modular_sets, report.union_sets, topo)
            if first[i] is None:
                first[i] = hash(outcome)
                failed += not self._brute_agrees(P, dom, outcome)
            elif hash(outcome) != first[i]:
                failed += 1
        scales.append(probe.sample())
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        nominal = [[t * scales[b] for t, b in v] for v in visits]
        measured = [[t for t, _ in v] for v in visits]
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": {**_program_times(nominal), "peak_rss_mb": peak},
            "measured": {**_program_times(measured), "peak_rss_mb": peak},
        }

    def replay(self, directory: Path, tracer) -> tuple[int, int]:
        programs = self._load(directory)
        wrong = 0
        for P, dom in programs:
            with tracer.span("instance"):
                union = union_program(P)
                heads = _trace_modules(tracer, P, dom)
                ext = _trace_extensional(tracer, P.kappa, P.signature().predicates, dom)
                tracer.count("engine.base_atoms", len(heads | ext))
                _trace_ground_union(tracer, union, dom, ext)
                union_models = tracer.call(
                    "engine.union_solve", enumerate_kappa_stable, P.kappa, union, dom, "reduct"
                )
                tracer.count("engine.models", len(union_models))
                coherent = _trace_coherence(tracer, P)
                modular = _trace_modular_solve(tracer, P, dom, "reduct")
                topo = _trace_modular_solve(tracer, P, dom, "topo")
                report = tracer.call("modular.compare", theorem1_check, P, dom, "reduct")
            outcome = (report.equal, report.modular_sets, report.union_sets, topo)
            if not (
                coherent
                and modular == union_models
                and self._brute_agrees(P, dom, outcome)
            ):
                wrong += 1
        return len(programs), wrong


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            "property_chain", "property", ("q", "property"), "solve",
            ("--mode", "union", "--engine", "fixpoint"), 200, _property_models, _property_tail,
        ),
        CliWorkload(
            "even_loops", "even", ("p", "r", "s"), "compare",
            ("--engine", "reduct", "--cap", "21"), None, _even_models, _even_tail,
        ),
        CliWorkload(
            "module_chain", "chain", ("p", "step"), "solve",
            ("--mode", "modular", "--engine", "topo", "--cap", "1000"), 300, _chain_models,
            _chain_tail,
        ),
        RandomCompare(),
    )
}


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "prepare" or sys.argv[2] not in WORKLOADS:
        sys.exit(f"usage: workloads.py prepare {{{','.join(WORKLOADS)}}} SEED DIR")
    WORKLOADS[sys.argv[2]].prepare(int(sys.argv[3]), Path(sys.argv[4]))
