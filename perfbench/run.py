"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark uses the `modasp`
package under `src/` of that checkout.  With `--trace 0` the workload's
operation is repeated for S seconds with tracing off, and the last line
holds every end-to-end metric named in `BENCHMARK.json`; the line before it
holds everything measured, including `instance_p99_ms`, which is not steady
enough to bound.  With `--trace 1` the workload is replayed one public call
at a time, repeatedly for S seconds, and the last line holds every per-layer
metric: span times are medians over the replays, counts are those of one
replay and must repeat exactly.  A layer that a workload does not call reads
0.  The spans of the traced run are written to
`perfbench/.work/trace-NAME-seedN.json`.

End-to-end metrics.  An instance is one `python -m modasp.cli` child for
the CLI workloads and one program for `random_compare`.  Times are scaled to
a nominal machine speed by the probe in `speed.py`, because the speed of a
shared machine swings by tens of percent within a run; the unscaled figures
and the probe's median loop time are on the `measured:` line.
  wall_s           CLI: median time of one child, interpreter start
                   included.  random_compare: one pass over the program set,
                   each program counted at its median over its visits.
  peak_rss_mb      CLI: largest peak resident memory of a child.
                   random_compare: peak of the benchmark process.
  setup_s          median of five fresh-interpreter runs of the prepare
                   step (import of modasp, input generation, file writing).
  instances_per_s  instances timed divided by the summed time of all of
                   them, every visit counted.
  instance_p50_ms  median time of one instance.  On the CLI workloads an
                   instance is the whole child, so this is `wall_s` in ms.
Per-layer times of the traced run are not scaled.

Some spans contain another layer's work (for example `engine.union_solve`
grounds internally); they are reported as they are, since splitting them
needs tracing inside the program.

Exit code 0 when every answer was right, 1 when one was wrong, 2 when the
benchmark cannot run here (no `src/modasp` next to `perfbench/`).
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _setup(name: str, seed: int, directory: Path, repeats: int, env, probe):
    """Write the workload's inputs `repeats` times, each in a fresh
    interpreter; return the median time in seconds and in nominal seconds."""
    times, nominal = [], []
    probe.sample()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "prepare", name, str(seed), str(directory)],
            env=env,
            check=True,
        )
        times.append(time.perf_counter() - start)
        nominal.append(times[-1] * probe.sample())
    return statistics.median(times), statistics.median(nominal)


def _traced(workload, directory: Path, seconds: float, trace_path: Path) -> dict:
    from spans import Tracer

    tracer = Tracer()
    attempted = wrong = replays = 0
    deadline = time.perf_counter() + seconds
    while replays == 0 or time.perf_counter() < deadline:
        tracer.run_id = replays
        checked, failed = workload.replay(directory, tracer)
        attempted += checked
        wrong += failed
        replays += 1
    tracer.write(trace_path)
    totals = [tracer.totals(r) for r in range(replays)]
    counts = totals[0][1]
    repeat_ok = all(c == counts for _, c in totals)
    union_rules = counts.get("grounding.union_rules", 0)
    counts["grounding.fireable_ratio"] = (
        counts.pop("grounding.fireable_rules", 0) / union_rules if union_rules else 0.0
    )
    times = {
        f"{name}_s": statistics.median(t.get(name, 0.0) for t, _ in totals)
        for name in {n for t, _ in totals for n in t}
    }
    return {
        "attempted": attempted,
        "failed": wrong if repeat_ok else attempted,
        "metrics": {**times, **counts},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "modasp" / "__init__.py").is_file():
        _fail(f"no modasp package under {SRC}; run from a source checkout")
    if not spec_path.is_file():
        _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    directory = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    env = workloads.child_env()
    probe = Probe()
    try:
        if args.trace:
            _setup(args.workload, args.seed, directory, 1, env, probe)
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            result = _traced(workload, directory, args.seconds, trace_path)
            wanted = spec["per_layer"]
        else:
            setup, nominal = _setup(args.workload, args.seed, directory, SETUP_REPEATS, env, probe)
            result = workload.measure(directory, args.seconds, probe)
            result["metrics"]["setup_s"] = nominal
            measured = {**result["measured"], "setup_s": setup, "probe_s": probe.median()}
            print("measured:", json.dumps(measured, sort_keys=True))
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    metrics = {
        m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
