"""In-memory spans recorded around calls into the library's layers.

A span holds its name, start, end, the index of the span open when it
began (-1 for a root) and an id shared by every span of one training
step, eval batch or request. Nothing is written until `dump`.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op_id=None):
        parent = self._open[-1] if self._open else -1
        if op_id is None and parent >= 0:
            op_id = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, op_id]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _root(self, i: int) -> str:
        while self.spans[i][3] >= 0:
            i = self.spans[i][3]
        return self.spans[i][0]

    def durations(self, name: str, roots) -> list[float]:
        """Seconds of every `name` span under the first of `roots` that has any."""
        by_root = defaultdict(list)
        for i, (n, start, end, _, _) in enumerate(self.spans):
            if n == name:
                by_root[self._root(i)].append(end - start)
        for root in roots:
            if by_root.get(root):
                return by_root[root]
        return []

    def self_times(self) -> dict[str, float]:
        """Total seconds per span name, minus what its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return dict(totals)

    def dump(self, path, extra: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["self_seconds"] = self.self_times()
        doc["spans"] = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def summary(values) -> dict:
    """Median, p90 and count of a sample (NaN medians for an empty one)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {"median": float("nan"), "p90": float("nan"), "n": 0}
    return {"median": float(np.median(arr)), "p90": float(np.percentile(arr, 90)), "n": int(arr.size)}
