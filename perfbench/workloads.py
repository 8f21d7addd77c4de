"""The workloads: their stages, seeded inputs and serial references.

Stage functions live at module level so the process and distributed
executors can ship them.  Every input is generated from the run's seed;
the program only ever sees the generated items.  Each reference applies
the same stage functions in a plain loop — the outputs every pipeline
result is checked against, and the host's serial rate.
"""

from __future__ import annotations

import asyncio
import functools
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import PipelineSpec, StageSpec
from repro.workloads.payloads import (
    array_pipeline,
    checksum_array,
    scale_array,
    smooth_array,
)


class SeededInputs:
    """Items from a seeded generator; expected outputs from the serial
    reference, whose rate (``serial_rate``) moves only with the host.

    ``reference_cpu_s`` is the CPU the reference took on the drawing
    thread, which the harness takes out of the program's CPU figure.
    """

    def __init__(self, seed: int, make: Callable, reference: Callable) -> None:
        self.rng = random.Random(seed)
        self.make = make
        self.reference = reference
        self.serial_items = 0
        self.serial_s = 0.0
        self.reference_cpu_s = 0.0

    def draw(self, n: int) -> tuple[list, list]:
        items = self.make(self.rng, n)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        expected = self.reference(items)
        self.serial_s += time.perf_counter() - t0
        self.reference_cpu_s += time.thread_time() - c0
        self.serial_items += n
        return items, expected

    @property
    def serial_rate(self) -> float:
        return self.serial_items / self.serial_s if self.serial_s > 0 else math.nan


# --------------------------------------------------------------- tiny stages
def inc(x: int) -> int:
    return x + 1


def dbl(x: int) -> int:
    return x * 2


def tiny_pipeline() -> PipelineSpec:
    # Plain callables: no work hints, so auto batching gets the full
    # hop-amortizing count bound.
    return PipelineSpec((StageSpec(name="inc", fn=inc), StageSpec(name="dbl", fn=dbl)))


def tiny_items(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(1 << 30) for _ in range(n)]


def tiny_reference(items: list[int]) -> list[int]:
    return [dbl(inc(x)) for x in items]


# --------------------------------------------------------------- bulk stages
#: float64 array sizes (bytes) and how many of each one pool holds: mostly
#: small frames the auto codec keeps inline, some that go through shared
#: memory.  Fixed counts, so every seed offers the same byte mix.
BULK_SIZES = (50_000, 500_000, 2_000_000)
BULK_COUNTS = (16, 3, 1)


def bulk_pool(seed: int) -> list[np.ndarray]:
    """One seeded float64 array per entry of the ``BULK_SIZES`` mix."""
    gen = np.random.default_rng(seed)
    sizes = [s for s, c in zip(BULK_SIZES, BULK_COUNTS) for _ in range(c)]
    return [gen.random(size // 8) for size in sizes]


class BulkInputs(SeededInputs):
    """A seeded pool of arrays, dealt out in seeded shuffled rounds.

    Every round hands out each pool entry once, so any run of items keeps
    the pool's size mix; memory stays flat however many items a phase
    submits, and the reference runs once per pool entry.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed, None, None)
        self.pool = bulk_pool(seed)
        t0 = time.perf_counter()
        self.expected = [checksum_array(smooth_array(scale_array(a))) for a in self.pool]
        self.serial_s = time.perf_counter() - t0
        self.serial_items = len(self.pool)
        self._round: list[int] = []

    def draw(self, n: int) -> tuple[list, list]:
        idx = []
        while len(idx) < n:
            if not self._round:
                self._round = list(range(len(self.pool)))
                self.rng.shuffle(self._round)
            idx.append(self._round.pop())
        return [self.pool[i] for i in idx], [self.expected[i] for i in idx]


# -------------------------------------------------------------- adapt stages
#: Per-item sleep means (s) before the step; the fetch latency is
#: multiplied by ``ADAPT_STEP`` from the midpoint of every phase on.
ADAPT_FETCH_S = 0.002
ADAPT_STORE_S = 0.001
ADAPT_STEP = 3.0
ADAPT_PARSE_ROUNDS = 600


async def fetch(item: tuple) -> tuple:
    await asyncio.sleep(item[0])
    return item


def parse(item: tuple) -> tuple:
    _, store_s, h = item
    for _ in range(ADAPT_PARSE_ROUNDS):
        h = (h * 1103515245 + 12345) & 0x7FFFFFFF
    return (store_s, h)


async def store(rec: tuple) -> int:
    await asyncio.sleep(rec[0])
    return rec[1]


def adapt_pipeline() -> PipelineSpec:
    # No work hints on purpose: with batching on, the adaptation windows
    # then count batches, a known defect this workload keeps visible.
    return PipelineSpec(
        (
            StageSpec(name="fetch", fn=fetch),
            StageSpec(name="parse", fn=parse),
            StageSpec(name="store", fn=store),
        )
    )


def adapt_items(rng: random.Random, n: int) -> list[tuple]:
    """``n`` items whose fetch latency steps up ~3x at the midpoint."""
    out = []
    for k in range(n):
        step = ADAPT_STEP if k >= n // 2 else 1.0
        out.append(
            (
                ADAPT_FETCH_S * step * rng.uniform(0.8, 1.2),
                ADAPT_STORE_S * rng.uniform(0.8, 1.2),
                rng.randrange(1 << 30),
            )
        )
    return out


def adapt_reference(items: list[tuple]) -> list[int]:
    """The stage functions in a plain loop, with the sleeps set to zero."""

    async def loop() -> list[int]:
        return [await store(parse(await fetch((0.0, 0.0, h)))) for _, _, h in items]

    return asyncio.run(loop())


# ----------------------------------------------------------------- registry
@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    replicas: tuple[int, ...]
    pipeline: Callable[[], PipelineSpec]
    inputs: Callable[[int], SeededInputs]  # seed -> inputs
    #: Items per closed-loop stream.
    closed_items: int
    #: About the seed commit's items_per_s.  It fixes how many closed-loop
    #: streams a run makes, so the work per run is the same on every
    #: commit: a faster commit finishes sooner instead of doing more (and,
    #: with the journal on, queueing more events).
    nominal_rate: float
    trickle_rate: float  # items/s, fixed: never derived from a run
    loaded_rate: float  # items/s, fixed: a third to a half of nominal_rate
    journal: bool = False
    adaptive: bool = False
    backend_kwargs: tuple[tuple[str, Any], ...] = ()

    def closed_streams(self, seconds: float) -> int:
        """Streams in a closed phase of ``seconds`` at the nominal rate."""
        return max(1, round(seconds * self.nominal_rate / self.closed_items))


_tiny_inputs = functools.partial(SeededInputs, make=tiny_items, reference=tiny_reference)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tiny_threads",
            backend="threads",
            replicas=(1, 2),
            pipeline=tiny_pipeline,
            inputs=_tiny_inputs,
            closed_items=10_000,
            nominal_rate=80_000.0,
            trickle_rate=200.0,
            loaded_rate=25_000.0,
        ),
        # Not in BENCHMARK.json (too unsteady on a shared 2-core host to
        # gate on; see README.md), but kept runnable by name for the
        # processes executor, the distributed executor and the transport.
        Workload(
            name="tiny_procs_journal",
            backend="processes",
            replicas=(1, 2),
            pipeline=tiny_pipeline,
            inputs=_tiny_inputs,
            closed_items=5_000,
            nominal_rate=17_000.0,
            trickle_rate=200.0,
            loaded_rate=4_000.0,
            journal=True,
        ),
        Workload(
            name="bulk_grid",
            backend="distributed",
            replicas=(1, 1, 1),
            pipeline=array_pipeline,
            inputs=BulkInputs,
            closed_items=300,
            nominal_rate=480.0,
            trickle_rate=100.0,
            loaded_rate=150.0,
            backend_kwargs=(("spawn_workers", 2),),
        ),
        Workload(
            name="adapt_step",
            backend="asyncio",
            replicas=(1, 1, 1),
            pipeline=adapt_pipeline,
            inputs=functools.partial(SeededInputs, make=adapt_items, reference=adapt_reference),
            closed_items=1500,
            nominal_rate=320.0,
            # Low enough that the pipeline is idle between items, also
            # after the step: at 100/s, whether a delivery happens to wake
            # the batch flusher early decided about half the items, and
            # the median moved 30% from run to run with that share.
            trickle_rate=50.0,
            loaded_rate=150.0,
            journal=True,
            adaptive=True,
            backend_kwargs=(("max_replicas", 16),),
        ),
    )
}
