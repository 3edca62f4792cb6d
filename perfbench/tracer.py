"""Outside-in span tracer: wraps calls into the program's public layers.

The tracer never edits the program.  It shadows bound methods with
instance attributes on the objects under test (``world.run_until``,
``world.manager.decide``, ...), so only the traced world pays for it and
the class stays untouched.  Each span records a name, a start, an end and
its parent; spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Tracer", "trace_world"]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def traced(self, fn, name: str):
        """*fn* wrapped so every call records one span called *name*."""
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()

        return wrapper

    def patch(self, obj: object, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a traced instance attribute."""
        setattr(obj, attr, self.traced(getattr(obj, attr), name))

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time.

        Self time is a span's duration minus the time its child spans
        cover; children nest strictly inside their parent, so that is the
        sum of the children's durations.
        """
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for idx, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self.ends[idx] - self.starts[idx] - child[idx]
        return dict(out)

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, parent in enumerate(self.parents)
            if parent < 0
        )

    def write(self, path: Path) -> None:
        """Write every span as gzipped columnar JSON."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "schema": "perfbench-spans/1",
            "names": table,
            "name": [index[n] for n in self.names],
            "start_s": [round(s - t0, 9) for s in self.starts],
            "end_s": [round(e - t0, 9) for e in self.ends],
            "parent": self.parents,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def trace_world(tracer: Tracer, world) -> None:
    """Wrap each layer boundary of *world* that the benchmark reports."""
    manager = world.manager
    tracer.patch(world, "run_until", "sim.run_until")
    tracer.patch(world, "redecide_all", "sim.redecide_all")
    tracer.patch(world, "snapshot", "sim.snapshot")
    tracer.patch(manager, "decide", "core.manager.decide")
    tracer.patch(manager.mechanism, "decide", "core.consistency.decide")
    tracer.patch(manager.protocol, "select", "protocols.select")
    tracer.patch(manager.protocol, "select_conservative", "protocols.select")
