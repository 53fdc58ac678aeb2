"""In-memory span tracer that wraps bellmd's public functions from outside.

Each wrapped function is replaced at the module attribute its caller looks
it up from (``bellmd.cli.min_cmd_for_chsh``, not ``bellmd.mdsearch``), so
the program itself is unchanged.  A span is recorded only while an op span
is open: the benchmark's own checks call the same functions between ops
and stay out of the trace.  Spans are kept in a list and written once,
after measurement.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records (name, start, end, parent, op) spans and per-layer byte counts."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.byte_counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, measure_bytes=None) -> None:
        """Replace ``module.attr`` with a wrapper recording spans named ``name``.

        ``measure_bytes(args, result)``, if given, returns the bytes the call
        read or wrote; it runs after the span closes.
        """
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            if measure_bytes is not None:
                self.byte_counts[name] += measure_bytes(args, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def op(self, index: int):
        """Root span of one benchmark op; wrapped calls inside it become its children."""
        self._op = index
        slot = len(self.spans)
        self.spans.append(None)
        self._stack.append(slot)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[slot] = ("op", start, end, None, index)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time in seconds (duration minus direct children) and calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start - child[k]
            calls[name] += 1
        return busy, calls

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent index, op index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def file_size(args, result) -> int:
    """Bytes of the file named by the first argument."""
    return os.path.getsize(args[0])


def text_size(args, result) -> int:
    """Bytes of a returned string, UTF-8 encoded."""
    return len(result.encode("utf-8"))
