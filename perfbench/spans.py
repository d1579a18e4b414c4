"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code around calls into the
program's public functions; nothing inside the program is instrumented.  A
span has a name, start and end (seconds on the `perf_counter` clock), the
index of its parent span and the id of the replay it belongs to.  Counts are
recorded at the same boundaries and point at the span that was open when
they were taken.  Everything stays in memory until `write` is called at the
end of the run.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.run_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        """Run `fn(*args)` inside a span called `name` and return its result."""
        with self.span(name):
            return fn(*args)

    def count(self, name: str, value: float):
        self.counts.append(
            {
                "name": name,
                "value": value,
                "span": self._open[-1] if self._open else None,
                "run": self.run_id,
            }
        )

    def totals(self, run_id: int) -> tuple[dict[str, float], dict[str, float]]:
        """Summed span durations and summed counts of one replay, by name."""
        times: dict[str, float] = {}
        for s in self.spans:
            if s["run"] == run_id:
                times[s["name"]] = times.get(s["name"], 0.0) + s["end"] - s["start"]
        counts: dict[str, float] = {}
        for c in self.counts:
            if c["run"] == run_id:
                counts[c["name"]] = counts.get(c["name"], 0) + c["value"]
        return times, counts

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)
