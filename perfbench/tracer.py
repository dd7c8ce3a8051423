"""Outside-in tracer: spans and counters recorded around calls into a layer.

The benchmark wraps public functions of the program from its own files; the
program itself carries no tracing code.  Every wrapped call opens a span
(name, start, end, parent span) kept in memory in compact arrays; the spans
are written out once, when the run ends.

A span's self time is its duration minus the durations of its child spans.
Calls are strictly nested on one thread, so children never overlap and the
part of a span they cover is the sum of their durations.

A wrapper may also take a key function of the call's arguments.  The key is
computed inside a span of its own (``trace.key``), so the cost of computing
it is charged to neither the caller nor the callee, and
``repeat_frac`` = (calls whose key was seen before) / calls.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

KEY_SPAN = "trace.key"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._seen: dict[str, set] = {}
        self._repeats: dict[str, int] = {}
        self._key_id = self._name_id(KEY_SPAN)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        return self._open(self._name_id(name))

    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = self.clock()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {i} closed while span {popped} was innermost")

    def current(self) -> str | None:
        """Name of the innermost open span, or None."""
        return self.names[self.span_name[self._stack[-1]]] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def record_max(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def note_key(self, name: str, key) -> None:
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self._repeats[name] = self._repeats.get(name, 0) + 1
        else:
            seen.add(key)

    def wrap(self, name: str, fn, key=None, on_result=None):
        """A function that calls `fn` inside a span named `name`.

        `key(*args, **kwargs)` feeds `repeat_frac`; `on_result(tracer, result)`
        updates counters from the return value.
        """
        nid = self._name_id(name)
        key_id = self._key_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                k = self._open(key_id)
                try:
                    self.note_key(name, key(*args, **kwargs))
                finally:
                    self.close(k)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s (inclusive), self_s, repeat_frac."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            dur = end[i] - start[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
        for name in self._seen:
            calls = out[name]["calls"]
            out[name]["repeat_frac"] = self._repeats.get(name, 0) / calls if calls else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span (and the counters) as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                    "counters": self.counters,
                    "maxima": self.maxima,
                },
                fh,
            )
