"""In-memory spans around calls into the program's layers.

A span is (name, start ns, end ns, parent span, burst id). Spans are
opened by the driver around its own calls, and by wrappers the driver
installs as instance attributes over public methods of the runtime's
objects (``nf.process_burst``, ``engine.main_loop_burst`` and so on)
for the traced blocks only; removing the attribute restores the class
method, so untraced blocks run the program untouched.

A span's self time is its duration minus the part of it that its child
spans cover. Self times over all spans add up to the root spans' total.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List, Tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.burst = 0
        self._stack: List[int] = []
        self._wrapped: List[Tuple[object, str]] = []

    @property
    def inside(self) -> bool:
        """True while some span is open."""
        return bool(self._stack)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.burst])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Record a span named ``name`` around every ``obj.attr(...)`` call."""
        method = getattr(obj, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return method(*args, **kwargs)
            finally:
                end(index)

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def unwrap_all(self) -> None:
        for obj, attr in self._wrapped:
            delattr(obj, attr)
        self._wrapped.clear()

    def totals(self) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int]]:
        """Self ns, inclusive ns and calls per span name."""
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for name, start, end, parent, _burst in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        own: Dict[str, int] = defaultdict(int)
        inclusive: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        for index, (name, start, end, parent, _burst) in enumerate(self.spans):
            covered = 0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            own[name] += end - start - covered
            inclusive[name] += end - start
            calls[name] += 1
        return own, inclusive, calls

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, burst in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "burst": burst}
                    )
                )
                out.write("\n")
