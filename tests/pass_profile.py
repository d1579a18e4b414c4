"""One in-process pass over seeded coherent programs, split by layer, and
alternating pairs of passes between two checkouts.

    python tests/pass_profile.py [--seed 2] [--programs 1500] [CHECKOUT]
    python tests/pass_profile.py --pairs 10 [--seed 2] OLD NEW

A pass runs, on every program of `tests/randprog.py`'s
`random_coherent_program` for the seed, `theorem1_check` with `reduct` and
then `modular_answer_sets` with `topo` (a refusal of `topo` counts as done),
as the `random_compare` workload of `perfbench/` does.  The programs are
pickled and loaded before the first pass, so nothing is kept on them from
their generation, and one untimed pass runs first, so that what a program
keeps of its analysis is kept, as on the benchmark's later visits.

The first form prints the fastest of `--passes` passes of CHECKOUT (by
default the repository this file is in), split into the time spent in
`PatternIndex.outside` (region: the extensional region and the seeds that
`_solve` reads off `P.patterns`), `ground_reachable` (grounding),
`CompiledParts` construction and its `split` into components (compile), the
`_search` of `_solve` (search), the `_search` of the union reading (union
search), `CompiledParts.ordered`
and `.interpretations` (decode), `ComparisonReport.of` (report) and the
rest, then the number of Python calls of one pass under cProfile.

The second form runs `--pairs` pairs, each of one fresh process on OLD and
one on NEW, alternating which runs first.  Each process prints the fastest
of its passes and the median over the programs of each program's fastest
time; each pair prints NEW/OLD of both, and the last lines give the
ratios' median and quartiles.  Every pass runs in a child process whose
`sys.path` starts with the checkout's `src` and `tests`.  It uses the
standard library only, and pytest does not collect this file.
"""

import argparse
import cProfile
import json
import pickle
import pstats
import random
import statistics
import subprocess
import sys
import time
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = (
    "region", "grounding", "compile", "search", "union search", "decode", "report"
)


def _programs(seed: int, count: int):
    import randprog

    rng = random.Random(seed)
    programs = [randprog.random_coherent_program(rng) for _ in range(count)]
    return pickle.loads(pickle.dumps(programs))


def _one_pass(programs) -> list[float]:
    """The seconds each program of `programs` takes, in order."""
    from modasp.errors import EngineError, ModaspError
    from modasp.modular import modular_answer_sets, theorem1_check

    times = []
    for P, dom in programs:
        start = time.perf_counter()
        try:
            theorem1_check(P, dom, "reduct")
            try:
                modular_answer_sets(P, dom, "topo")
            except EngineError:
                pass
        except ModaspError:
            pass
        times.append(time.perf_counter() - start)
    return times


def _timed(spent: dict, layer: str, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[layer] += time.perf_counter() - start

    return wrapper


def _patch_layers(spent: dict):
    """Wrap the calls of each layer so that their time adds to `spent`; no
    wrapped call runs inside another."""
    from modasp import engine, intensionality, modular

    index = intensionality.PatternIndex
    index.outside = _timed(spent, "region", index.outside)
    engine.ground_reachable = _timed(spent, "grounding", engine.ground_reachable)
    parts = engine.CompiledParts
    parts.__init__ = _timed(spent, "compile", parts.__init__)
    if isinstance(vars(parts).get("split"), cached_property):  # not before it
        split = cached_property(_timed(spent, "compile", parts.split.func))
        split.__set_name__(parts, "split")
        parts.split = split
    parts.ordered = _timed(spent, "decode", parts.ordered)
    parts.interpretations = _timed(spent, "decode", parts.interpretations)
    engine._search = _timed(spent, "search", engine._search)
    modular._search = _timed(spent, "union search", modular._search)
    report = modular.ComparisonReport
    report.of = staticmethod(_timed(spent, "report", report.of))


def _child(mode: str, seed: int, count: int, passes: int) -> dict:
    programs = _programs(seed, count)
    if mode == "layers":
        spent = dict.fromkeys(LAYERS, 0.0)
        _patch_layers(spent)
    _one_pass(programs)
    runs = []
    for _ in range(passes):
        if mode == "layers":
            spent.update(dict.fromkeys(LAYERS, 0.0))
        times = _one_pass(programs)
        runs.append((sum(times), times, dict(spent) if mode == "layers" else None))
    total, _, layers = min(runs, key=lambda run: run[0])
    fastest = [min(run[1][i] for run in runs) for i in range(count)]
    out = {"pass_s": total, "program_p50_s": statistics.median(fastest)}
    if mode == "layers":
        out["layers"] = layers
        profile = cProfile.Profile()
        profile.runcall(_one_pass, programs)
        out["calls"] = pstats.Stats(profile).total_calls
    return out


def _run_child(checkout: Path, mode: str, args) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--seed", str(args.seed), "--programs", str(args.programs),
        "--passes", str(args.passes), str(checkout),
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _print_layers(checkout: Path, args):
    result = _run_child(checkout, "layers", args)
    total = result["pass_s"]
    print(f"{checkout}: seed {args.seed}, {args.programs} programs, "
          f"fastest of {args.passes} passes")
    rows = list(result["layers"].items())
    rows.append(("rest", total - sum(result["layers"].values())))
    for layer, seconds in rows:
        print(f"  {layer:13} {seconds * 1e3:8.1f} ms {seconds / total:6.1%}")
    print(f"  {'pass':13} {total * 1e3:8.1f} ms")
    print(f"  median program {result['program_p50_s'] * 1e6:.0f} us")
    print(f"  Python calls in one pass (cProfile): {result['calls']:,}")


def _quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {q2:.3f} (quartiles {q1:.3f}-{q3:.3f})"


def _print_pairs(old: Path, new: Path, args):
    print(f"OLD {old}\nNEW {new}\nseed {args.seed}, {args.programs} programs, "
          f"fastest of {args.passes} passes per process")
    pass_ratios, p50_ratios = [], []
    for k in range(args.pairs):
        order = (old, new) if k % 2 == 0 else (new, old)
        results = {checkout: _run_child(checkout, "times", args) for checkout in order}
        a, b = results[old], results[new]
        pass_ratios.append(b["pass_s"] / a["pass_s"])
        p50_ratios.append(b["program_p50_s"] / a["program_p50_s"])
        print(f"pair {k + 1:2} ({'old' if order[0] == old else 'new'} first): "
              f"pass {a['pass_s']:.3f} -> {b['pass_s']:.3f} s "
              f"= {pass_ratios[-1]:.3f}; median program "
              f"{a['program_p50_s'] * 1e6:.0f} -> {b['program_p50_s'] * 1e6:.0f} us "
              f"= {p50_ratios[-1]:.3f}", flush=True)
    if args.pairs > 1:
        print(f"pass NEW/OLD: {_quartiles(pass_ratios)}, "
              f"{sum(r < 1 for r in pass_ratios)} of {args.pairs} below 1")
        print(f"median program NEW/OLD: {_quartiles(p50_ratios)}, "
              f"{sum(r < 1 for r in p50_ratios)} of {args.pairs} below 1")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--programs", type=int, default=1500)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--child", choices=("layers", "times"), help=argparse.SUPPRESS)
    parser.add_argument("checkouts", nargs="*", type=Path)
    args = parser.parse_args(argv)
    if args.child:
        (checkout,) = args.checkouts
        sys.path[:1] = [str(checkout / "src"), str(checkout / "tests")]
        print(json.dumps(_child(args.child, args.seed, args.programs, args.passes)))
    elif args.pairs:
        if len(args.checkouts) != 2:
            parser.error("--pairs takes two checkouts, OLD and NEW")
        _print_pairs(*(c.resolve() for c in args.checkouts), args)
    else:
        if len(args.checkouts) > 1:
            parser.error("give at most one checkout")
        _print_layers((args.checkouts or [ROOT])[0].resolve(), args)


if __name__ == "__main__":
    main()
