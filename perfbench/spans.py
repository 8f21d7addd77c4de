"""In-memory spans around the benchmark's calls into the program.

Each span is a name, a start, an end and the index of the span that
caused it (-1 for a root).  They live in flat typed arrays so a traced
closed loop at 10^5 submits/s costs a few bytes per span, and are written
out once, when the run ends, as one ``.npz`` file.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path


class Spans:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span; returns its index (a parent for others)."""
        kind = self._ids.get(name)
        if kind is None:
            kind = self._ids[name] = len(self.names)
            self.names.append(name)
        self.kind.append(kind)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.kind) - 1

    def open(self, name: str, parent: int = -1) -> int:
        """Start a span whose end is set later by :meth:`close`."""
        t = time.perf_counter()
        return self.add(name, t, t, parent)

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()

    def write(self, path: Path) -> None:
        """Save as ``.npz``: kind names plus the four per-span arrays."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            kind=np.frombuffer(self.kind, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
