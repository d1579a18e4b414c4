"""Machine-speed probe for the untraced runs.

The benchmark runs on shared machines whose speed swings by tens of percent
within seconds, as neighbours come and go.  To keep the end-to-end times
comparable between runs, each run also times a fixed pure-Python loop (dict,
tuple, string and set work over some megabytes, the same kind of work modasp
does) just before and just after each of its timed operations, or each block
of them, and multiplies the operation's seconds by
`NOMINAL_S / mean(loop time before, loop time after)`.  The loop runs in a
child process, so that it changes neither the benchmark process's memory nor
the heap its own time depends on.  Reported times are therefore seconds at
the nominal speed: what the operation would have taken on a machine on which
the loop takes `NOMINAL_S`, which is the median loop time of the machine the
baseline was recorded on, so that nominal seconds read close to its measured
seconds.  The loop is benchmark code, so no change to modasp can move it; the
unscaled times and the median loop time (`probe_s`) are printed on the
`measured:` line.
"""

import statistics
import subprocess
import sys
import time

# Median time of one `loop()` over the 80 untraced runs of an earlier baseline
# recording on a shared 2-vCPU Intel Xeon, Python 3.11.7.  The `probe_s`
# medians of the recording in baseline.json read 0.146-0.151 s.
NOMINAL_S = 0.154


def loop() -> float:
    start = time.perf_counter()
    table: dict = {}
    for i in range(60000):
        key = (i % 251, str(i % 1009))
        table[key] = table.get(key, 0) + 1
    seen = set()
    for a, b in sorted(table, key=str):
        seen.add(frozenset((a, b)))
    return time.perf_counter() - start


class Probe:
    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time one loop; return the factor that turns the seconds of an
        operation timed since the previous sample into nominal seconds."""
        out = subprocess.run(
            [sys.executable, __file__], stdout=subprocess.PIPE, text=True, check=True
        ).stdout
        self.samples.append(float(out))
        return NOMINAL_S / statistics.mean(self.samples[-2:])

    def median(self) -> float:
        return statistics.median(self.samples)


if __name__ == "__main__":
    print(loop())
