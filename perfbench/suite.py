"""Run every workload of the benchmark and print one row per workload.

    python3 perfbench/suite.py                     one untraced run of each workload
    python3 perfbench/suite.py --trace             one traced run of each: per-layer table
    python3 perfbench/suite.py --runs 10 --sets 2  steadiness and agreement
    python3 perfbench/suite.py --runs 10 --sets 2 --record perfbench/baseline.json

Each run is `perfbench/run.py` in its own process, one at a time, from the
root of the checkout, for the `run_seconds` of `BENCHMARK.json`, on every
workload listed there.  With `--runs R`, every workload runs R times per set,
each time with another seed (set k uses seeds k*R+1 .. k*R+R), and the
workloads take turns so that a slow spell of the machine is shared out.  For
each end-to-end metric the table gives the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the distance
between the quartiles as a share of the median.  A spread above the metric's
bound fails the check, and so does a last set whose median differs from the
first set's by more than the bound, in either direction.  The agreement table
also shows the same change for the unscaled figures of the `measured:` line,
which no check reads.  `--record` writes these figures, with one traced run
per workload, to a JSON file.

Exit code 1 when an answer was wrong or a check above failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("measured: "):
            result["measured"] = json.loads(line[len("measured: "):])
    return result


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def hardware() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs, Python {platform.python_version()}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs to compare")
    parser.add_argument("--trace", action="store_true", help="one traced run per workload")
    parser.add_argument("--record", type=Path, help="write the figures to this JSON file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    ok = True

    if args.trace or args.record:
        layers = {}
        for name in names:
            result = run_once(name, 1, seconds, trace=True)
            ok &= result["correct"]
            layers[name] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{'per-layer metric (traced, seed 1)':36}" + "".join(f"{n:>16}" for n in names))
        for m in spec["per_layer"]:
            label = f"{m['name']} [{m['unit']}]"
            print(f"{label:36}" + "".join(f"{layers[n][m['name']]:>16.6g}" for n in names))
        print()
        if args.trace and not args.record:
            return 0 if ok else 1

    samples = {(s, n): [] for s in range(args.sets) for n in names}
    for s in range(args.sets):
        for r in range(args.runs):
            for name in names:
                result = run_once(name, s * args.runs + r + 1, seconds, trace=False)
                ok &= result["correct"]
                samples[(s, name)].append(result)

    metrics = spec["end_to_end"]
    header = f"{'workload':16}{'set':>4}" + "".join(
        f"{m['name'] + ' [' + m['unit'] + ']':>24}" for m in metrics
    ) + f"{'error_rate':>12}"
    print(header)
    record = {}
    for name in names:
        record[name] = {"unscaled": {}}
        for s in range(args.sets):
            runs = samples[(s, name)]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            cells = ""
            for m in metrics:
                st = stats([r["metrics"][m["name"]]["value"] for r in runs])
                record[name].setdefault(m["name"], {"unit": m["unit"], "sets": []})["sets"].append(st)
                flag = ""
                if st["spread"] > m["bound"]:
                    flag, ok = "!", False
                elif st["spread"] > m["bound"] / 3:
                    flag = "~"
                cell = f"{st['median']:.5g}" if args.runs == 1 else (
                    f"{st['median']:.5g} ±{st['spread']:.1%}{flag}"
                )
                cells += f"{cell:>24}"
            for key in runs[0]["measured"]:
                record[name]["unscaled"].setdefault(key, {"sets": []})["sets"].append(
                    stats([r["measured"][key] for r in runs])
                )
            print(f"{name:16}{s + 1:>4}{cells}{failed / attempted:>12.4g}")
    if args.runs > 1:
        print("\n±: quartile distance / median; ! above the bound, ~ above a third of it")
    if args.sets > 1:
        print("\nagreement: change of the last set's median from the first set's, at most the bound")
        print(f"  {'':34}{'reported':>9}{'unscaled':>10}")
        for name in names:
            for m in metrics:
                sets = record[name][m["name"]]["sets"]
                change = sets[-1]["median"] / sets[0]["median"] - 1
                raw = record[name]["unscaled"][m["name"]]["sets"]
                raw_change = raw[-1]["median"] / raw[0]["median"] - 1
                verdict = "ok" if abs(change) <= m["bound"] else "FAIL"
                ok &= abs(change) <= m["bound"]
                print(
                    f"  {name:16}{m['name']:18}{change:>+9.1%}{raw_change:>+10.1%}"
                    f"  bound {m['bound']:.0%}  {verdict}"
                )

    if args.record:
        for name in names:
            runs = [r for s in range(args.sets) for r in samples[(s, name)]]
            for m in metrics:
                record[name][m["name"]].update(stats([r["metrics"][m["name"]]["value"] for r in runs]))
            for key, entry in record[name]["unscaled"].items():
                entry.update(stats([r["measured"][key] for r in runs]))
        args.record.write_text(
            json.dumps(
                {
                    "hardware": hardware(),
                    "run_seconds": seconds,
                    "runs_per_set": args.runs,
                    "sets": args.sets,
                    "end_to_end": record,
                    "per_layer_seed1": layers,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
