"""Span recording for the traced benchmark run (standard library only).

The worker wraps payband functions with ``Tracer.wrap``. Every call appends one
span (name id, parent span index, start, end) to flat arrays, so a run with a
million calls stays a few tens of MB. The worker writes the arrays out once,
after the workload ends; the driver reads them back with ``load_spans`` and
reduces them with ``summarize``.

A span's self time is its duration minus the durations of its direct children.
Spans nest strictly (one thread, wrappers pop in ``finally`` order), so the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn, after=None, error_counter: str | None = None):
        """Return ``fn`` recording one span named ``name`` per call.

        ``after(args, result)`` runs once the span has closed, so its cost is
        not charged to ``name``. ``error_counter`` counts calls that raise.
        """
        nid = self.names.setdefault(name, len(self.names))
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                if error_counter is not None:
                    counters[error_counter] += 1
                raise
            ends[i] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write the spans as four raw arrays plus a JSON header."""
        header = {"names": sorted(self.names, key=self.names.get),
                  "count": len(self.ids), "counters": dict(self.counters)}
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path, "wb") as fh:
            for arr in (self.ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def load_spans(path: Path):
    header = json.loads(path.with_suffix(".json").read_text())
    n = header["count"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return header, arrays


def summarize(header, arrays, root: str) -> dict:
    """Per span name: calls, total and self seconds; plus the totals under
    ``root`` (its duration, and self seconds per name inside it)."""
    names = header["names"]
    ids, parents, starts, ends = arrays
    n = len(ids)
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
    root_id = names.index(root) if root in names else -1
    inside = bytearray(n)
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    inside_self = [0.0] * len(names)
    root_total = 0.0
    for i in range(n):
        nid = ids[i]
        own = dur[i] - child[i]
        calls[nid] += 1
        self_s[nid] += own
        p = parents[i]
        if nid == root_id or (p >= 0 and inside[p]):
            inside[i] = 1
            inside_self[nid] += own
            if nid == root_id:
                root_total += dur[i]
    return {
        "calls": dict(zip(names, calls)),
        "self_s": dict(zip(names, self_s)),
        "inside_self_s": dict(zip(names, inside_self)),
        "root_s": root_total,
        "counters": header["counters"],
    }
