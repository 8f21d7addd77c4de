"""Order statistics and backlog accounting for the benchmark.

Pure functions over plain sequences, so the rules the benchmark reports by
are unit-tested on their own (``test_perfbench.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its rank; below that the tail is a handful of outliers.
MIN_BEYOND = 10
#: The open-loop backlog "grows" when it climbs by more than this many
#: seconds of arrivals over a phase; a sustainable rate only jitters.
BACKLOG_SLACK_S = 0.1


def min_samples(q: float) -> int:
    """Smallest sample count for which the ``q`` percentile is reportable."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = MIN_BEYOND
    while n - math.ceil(q * n / 100) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q`` percentile, or None when fewer than
    ``MIN_BEYOND`` samples lie past its rank (the tail is then too thin
    to report)."""
    n = len(samples)
    if n < min_samples(q):
        return None
    rank = math.ceil(q * n / 100)  # 1-based nearest rank
    return sorted(samples)[rank - 1]


def group_percentile(groups: Sequence[Sequence[float]], q: float) -> float | None:
    """Median over groups of each group's ``q`` percentile.

    Each group is one session's samples.  When every group is large
    enough for a reportable 99th percentile, one slow session moves one
    group's figure, not the result; otherwise the groups are pooled.
    """
    if groups and all(len(g) >= min_samples(99) for g in groups):
        return statistics.median(percentile(g, q) for g in groups)
    return percentile([x for g in groups for x in g], q)


def relative_iqr(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (run-to-run spread)."""
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / med if med else math.inf


def backlog_series(
    due: Sequence[float], done: Sequence[float], points: int = 24
) -> list[tuple[float, int]]:
    """Open-loop backlog sampled at ``points`` instants over the schedule.

    ``due[k]`` is when item ``k`` was due to be submitted and ``done[k]``
    when its result was consumed (both sorted ascending: items are due in
    order and ``results()`` yields them in order).  The backlog at ``t`` is
    the number of items due by ``t`` whose results were not yet consumed —
    it counts items the generator could not submit in time as well as items
    queued inside the pipeline.
    """
    import bisect

    if not due:
        return []
    t0, t1 = due[0], due[-1]
    out = []
    for i in range(points):
        t = t0 + (t1 - t0) * (i + 1) / points
        out.append((t, bisect.bisect_right(due, t) - bisect.bisect_right(done, t)))
    return out


def backlog_growth(series: Sequence[tuple[float, int]]) -> float:
    """Mean backlog over the last third minus that over the first third."""
    k = len(series) // 3
    if k == 0:
        return 0.0
    first = [b for _, b in series[:k]]
    last = [b for _, b in series[-k:]]
    return statistics.fmean(last) - statistics.fmean(first)


def backlog_grows(series: Sequence[tuple[float, int]], rate: float) -> bool:
    """True when the backlog grew by more than ``BACKLOG_SLACK_S`` seconds
    of arrivals.

    A sustainable fixed rate keeps the backlog flat (it only jitters); a
    rate beyond capacity makes it climb for as long as the phase lasts.
    """
    return backlog_growth(series) > rate * BACKLOG_SLACK_S
