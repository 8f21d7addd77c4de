"""Open-loop load: a generator thread on a fixed schedule, a consumer thread.

Item ``k`` is due at ``t0 + k / rate`` whatever the pipeline does, so a
stall delays every later item and the latency of each is timed from its
*due* time, not from when ``submit`` finally ran.  The generator records
how late it ran (``lag``); the consumer records when ``results()`` handed
each item over, in order.  Nothing here imports the program: the session
is anything with ``submit(item)`` and ``results()``.
"""

from __future__ import annotations

import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence


def schedule(t0: float, rate: float, n: int) -> array:
    """Due times of ``n`` items at a fixed ``rate`` (items/s) from ``t0``."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    step = 1.0 / rate
    return array("d", (t0 + k * step for k in range(n)))


@dataclass
class OpenLoopRun:
    """What one open-loop phase observed (times are ``perf_counter`` s)."""

    due: array
    lag: array = field(default_factory=lambda: array("d"))  # submit start - due
    done: array = field(default_factory=lambda: array("d"))  # consumed at
    outputs: list = field(default_factory=list)
    error: BaseException | None = None

    @property
    def latencies_ms(self) -> list[float]:
        return [(d - u) * 1e3 for d, u in zip(self.done, self.due)]

    @property
    def lag_ms(self) -> list[float]:
        return [x * 1e3 for x in self.lag]


def run_open_loop(
    session: Any,
    items: Sequence[Any],
    rate: float,
    *,
    timeout: float = 120.0,
    submit: Callable[[Any], Any] | None = None,
) -> OpenLoopRun:
    """Submit ``items`` at ``rate`` and consume every result in order.

    ``submit`` overrides ``session.submit`` (the traced run wraps it in a
    span).  Returns once all results were consumed, the session raised, or
    ``timeout`` passed; the caller drains and checks ``outputs``.
    """
    n = len(items)
    submit = session.submit if submit is None else submit
    t0 = time.perf_counter() + 0.01  # let both threads start before the first due time
    run = OpenLoopRun(due=schedule(t0, rate, n))
    due = run.due
    outputs = run.outputs
    done = run.done
    results = session.results()  # bind to the stream the first submit opens
    stop = threading.Event()

    def consume() -> None:
        try:
            if n == 0:
                return
            for value in results:
                done.append(time.perf_counter())
                outputs.append(value)
                if len(outputs) == n or stop.is_set():
                    break
        except BaseException as err:  # noqa: BLE001 - reported to the caller
            run.error = err
            stop.set()

    consumer = threading.Thread(target=consume, name="perfbench-consumer", daemon=True)
    consumer.start()
    lag = run.lag
    try:
        k = 0
        while k < n and not stop.is_set():
            now = time.perf_counter()
            if due[k] > now:
                time.sleep(min(due[k] - now, 0.005))
                continue
            # Everything due by now goes out back to back; each submit's
            # lateness is measured at the moment it starts.
            while k < n and due[k] <= now:
                lag.append(time.perf_counter() - due[k])
                submit(items[k])
                k += 1
    except BaseException as err:  # noqa: BLE001 - reported to the caller
        run.error = err
        stop.set()
    consumer.join(timeout)
    if consumer.is_alive():
        stop.set()
        if run.error is None:
            run.error = TimeoutError(
                f"open loop consumed {len(outputs)}/{n} results within {timeout} s"
            )
    return run
