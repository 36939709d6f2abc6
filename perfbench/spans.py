"""Spans recorded around the benchmark's own calls into each layer.

A :class:`Tracer` keeps every span in memory as parallel columns (name,
start, end, parent span, query id) and writes them out once the run ends.
:class:`TracedModule` wraps a module so that each call to one of its public
functions opens a span and adds the layer's work counts; the untraced run
calls the modules directly, so it pays nothing for any of this.
"""

from __future__ import annotations

import gzip
import types
from array import array
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.query_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self.query_id = -1

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int) -> int:
        span = len(self.start_col)
        self.name_col.append(name_id)
        self.query_col.append(self.query_id)
        self.parent_col.append(self._open[-1] if self._open else -1)
        self.end_col.append(0.0)
        self._open.append(span)
        self.start_col.append(self.clock())
        return span

    def close(self, span: int) -> None:
        self.end_col[span] = self.clock()
        self._open.pop()

    def __len__(self) -> int:
        return len(self.start_col)

    def self_times(self) -> dict[str, float]:
        """Seconds inside each span name minus the time its children cover."""
        child = [0.0] * len(self)
        for span in range(len(self)):
            parent = self.parent_col[span]
            if parent >= 0:
                child[parent] += self.end_col[span] - self.start_col[span]
        out: dict[str, float] = {}
        for span in range(len(self)):
            name = self.names[self.name_col[span]]
            own = self.end_col[span] - self.start_col[span] - child[span]
            out[name] = out.get(name, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzip-compressed tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start_col[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\tquery\tname\tstart_s\tend_s\n")
            for span in range(len(self)):
                out.write(
                    f"{span}\t{self.parent_col[span]}\t{self.query_col[span]}\t"
                    f"{self.names[self.name_col[span]]}\t"
                    f"{self.start_col[span] - origin:.9f}\t"
                    f"{self.end_col[span] - origin:.9f}\n"
                )


class TracedModule:
    """Attribute access returns span-recording wrappers of module functions;
    classes and constants pass through untouched.  ``count(counters,
    function_name, result)`` adds the layer's work counts for one result."""

    def __init__(self, module, layer: str, tracer: Tracer, count) -> None:
        self._module = module
        self._layer = layer
        self._tracer = tracer
        self._count = count

    def __getattr__(self, attr: str):
        target = getattr(self._module, attr)
        if not isinstance(target, types.FunctionType):
            return target
        wrapper = _wrap(target, f"{self._layer}.{attr}", self._layer,
                        self._tracer, self._count)
        setattr(self, attr, wrapper)
        return wrapper


def _wrap(fn, name: str, layer: str, tracer: Tracer, count):
    name_id = tracer.name_id(name)
    counts = tracer.counts
    calls_key, failed_key = f"{layer}.calls", f"{layer}.failed"
    attr_name = name.split(".", 1)[1]

    def wrapper(*args, **kwargs):
        span = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.close(span)
            counts[calls_key] += 1
            counts[failed_key] += 1
            raise
        tracer.close(span)
        counts[calls_key] += 1
        count(counts, attr_name, result)
        return result

    return wrapper
