"""Thread adapter: a native streaming session on a thread fabric.

Threads share the interpreter, so this backend suits I/O-bound stages and
GIL-releasing (numpy) kernels; pure-Python CPU-bound stages should use the
process backend instead.

Architecture per stage::

    in_q --> dispatcher --> work_q --> worker x R --> next stage's in_q

* The **dispatcher** restores sequence order before dispatch, so a stage
  always *starts* items in input order even when an upstream stage is
  replicated (replicas may still *finish* out of order; the next dispatcher
  re-sorts).  The final dispatcher feeds the output collector, so session
  output is in input order — the 1-for-1 contract.
* **Workers** apply the stage callable.  Replication is only allowed for
  stages marked ``replicable`` (stateless).
* Shutdown cascades with sentinels: each queue knows its producer count;
  when the last producer finishes, consumers receive one sentinel each.

The session owns the whole fabric for its lifetime — per-stage
dispatchers, worker pools, the output collector — and it is
**open-ended**: the submit side is the first queue's only producer and
finishes only at ``close()``, so the sentinel shutdown cascade never fires
between streams and back-to-back streams reuse the same warm worker
threads.  Sequence numbers are session-global (``gseq``), which lets the
per-stage :class:`~repro.util.ordering.SequenceReorderer` instances keep
one ordering space across stream boundaries.

Live reconfiguration: growth spawns a worker into the running stage
(always possible — a session's stage never drains before close), shrink
retires one lazily via the ``_RETIRE`` pill.  A stage function that raises
records a :class:`~repro.backend.base.StageError` naming the stage and
sets the abort flag; every thread then keeps draining its queue (without
applying stage functions) so shutdown never deadlocks on a full buffer.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

from repro.backend.base import (
    Backend,
    Session,
    StageError,
    register_backend,
    validate_pipeline_shape,
)
from repro.core.pipeline import PipelineSpec
from repro.model.throughput import ResourceView, fn_view
from repro.monitor.instrument import PipelineInstrumentation, StageMetrics
from repro.monitor.resource_monitor import HostLoadSampler
from repro.util.batching import Batch, map_batch
from repro.util.ordering import SequenceReorderer
from repro.util.validation import check_positive

__all__ = ["ThreadBackend"]

_SENTINEL = object()
_RETIRE = object()  # consumed by exactly one worker, which then exits


class _CountedQueue:
    """Bounded queue that delivers sentinels when all producers finish."""

    def __init__(self, capacity: int, producers: int, consumers: int) -> None:
        self.q: queue.Queue = queue.Queue(maxsize=capacity)
        self._lock = threading.Lock()
        self._producers = producers
        self._consumers = consumers

    def put(self, item: Any, abort: threading.Event | None = None) -> bool:
        """Put ``item``; with ``abort`` set, give up instead of blocking."""
        if abort is None:
            self.q.put(item)
            return True
        while True:
            try:
                self.q.put(item, timeout=0.05)
                return True
            except queue.Full:
                if abort.is_set():
                    return False

    def get(self) -> Any:
        return self.q.get()

    def add_consumer(self) -> None:
        with self._lock:
            if self._producers == 0:
                # Producers already finished: their sentinels are out, so the
                # newcomer needs its own to terminate.
                self.q.put(_SENTINEL)
            else:
                self._consumers += 1

    def remove_consumer(self) -> None:
        with self._lock:
            self._consumers -= 1

    def add_producer(self) -> None:
        with self._lock:
            if self._producers == 0:
                raise RuntimeError("queue already drained; cannot add a producer")
            self._producers += 1

    def producer_done(self) -> None:
        with self._lock:
            self._producers -= 1
            if self._producers == 0:
                for _ in range(self._consumers):
                    self.q.put(_SENTINEL)

    @property
    def drained(self) -> bool:
        """True once every producer finished (sentinels are out)."""
        with self._lock:
            return self._producers == 0


class _Dispatcher(threading.Thread):
    """Reorders (seq, value) pairs and forwards them in sequence order."""

    def __init__(
        self,
        in_q: _CountedQueue,
        out_q: _CountedQueue,
        name: str,
        abort: threading.Event,
        metrics: StageMetrics | None = None,
        metrics_lock: threading.Lock | None = None,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self.in_q = in_q
        self.out_q = out_q
        self.abort = abort
        self.metrics = metrics
        self.metrics_lock = metrics_lock

    def _forward(self, seq: int, value: Any) -> None:
        self.out_q.put((seq, value), abort=self.abort)
        if self.metrics is not None and self.metrics_lock is not None:
            with self.metrics_lock:
                self.metrics.record_queue_length(self.out_q.q.qsize())

    def run(self) -> None:
        reorder = SequenceReorderer()
        try:
            while True:
                got = self.in_q.get()
                if got is _SENTINEL:
                    break
                if self.abort.is_set():
                    continue  # drain without forwarding
                seq, value = got
                for ready_seq, ready in reorder.push(seq, value):
                    self._forward(ready_seq, ready)
            if not self.abort.is_set():
                for ready_seq, ready in reorder.drain():
                    self._forward(ready_seq, ready)
        finally:
            self.out_q.producer_done()


class _Worker(threading.Thread):
    """Applies one stage function to dispatched items."""

    def __init__(
        self,
        stage_index: int,
        stage_name: str,
        fn,
        work_q: _CountedQueue,
        out_q: _CountedQueue,
        metrics: StageMetrics,
        metrics_lock: threading.Lock,
        errors: list[BaseException],
        abort: threading.Event,
        name: str,
        speed_fn: Callable[[], float],
    ) -> None:
        super().__init__(name=name, daemon=True)
        self.stage_index = stage_index
        self.stage_name = stage_name
        self.fn = fn
        self.work_q = work_q
        self.out_q = out_q
        self.metrics = metrics
        self.metrics_lock = metrics_lock
        self.errors = errors
        self.abort = abort
        self.speed_fn = speed_fn

    def run(self) -> None:
        try:
            while True:
                got = self.work_q.get()
                if got is _SENTINEL:
                    break
                if got is _RETIRE:
                    self.work_q.remove_consumer()
                    break
                if self.abort.is_set():
                    continue  # drain without processing
                seq, value = got
                batched = isinstance(value, Batch)
                t0 = time.perf_counter()
                try:
                    # A micro-batch maps element-wise in one dequeue: the
                    # whole run of items pays a single queue hop, one
                    # metrics lock round and one event.
                    result = map_batch(self.fn, value) if batched else self.fn(value)
                except BaseException as err:  # noqa: BLE001 - reported upward
                    self.errors.append(StageError(self.stage_name, err))
                    self.abort.set()
                    continue
                dt = time.perf_counter() - t0
                with self.metrics_lock:
                    # Recording the effective speed the item actually saw
                    # keeps work_estimate load-normalised: on a contended
                    # host the inflated dt is divided back out, so the
                    # planner does not double-count the load it also sees
                    # in the resource view.  Default speed is 1.0 (the
                    # local host as the reference processor).  A batch
                    # records once with the batch-total dt and items=N
                    # (seq = the first item's gseq — this fabric's event
                    # sequence space).
                    self.metrics.record_service(
                        dt, self.speed_fn(),
                        seq=value.gbase if batched else seq,
                        worker=self.name,
                        queue=self.work_q.q.qsize(),
                        items=len(value) if batched else 1,
                    )
                self.out_q.put((seq, result), abort=self.abort)
        finally:
            self.out_q.producer_done()


class _ThreadSession(Session):
    """Session-owned thread fabric (see module docstring)."""

    supports_batching = True

    def __init__(
        self,
        backend: "ThreadBackend",
        *,
        max_inflight: "int | str | None" = None,
        telemetry=None,
        batching=None,
    ) -> None:
        super().__init__(
            backend,
            max_inflight=max_inflight,
            telemetry=telemetry,
            batching=batching,
        )
        pipeline = backend.pipeline
        n = pipeline.n_stages
        self.replicas = list(backend._target)
        self.capacity = backend.capacity
        self.instrumentation = PipelineInstrumentation(n, events=self.events)
        self._locks = [threading.Lock() for _ in range(n)]
        self._snapshot_locks = self._locks
        self._abort = threading.Event()
        self._errors: list[BaseException] = []
        self._mutate_lock = threading.Lock()
        self._threads: list[threading.Thread] = []

        # Wiring: in_q[i] -> dispatcher -> work_q[i] -> workers -> in_q[i+1];
        # the session's submit side is in_q[0]'s single producer, finishing
        # only at close — the cascade stays armed across streams.
        self._in_q: list[_CountedQueue] = []
        self._work_q: list[_CountedQueue] = []
        producers_of_next = 1
        for i in range(n):
            self._in_q.append(
                _CountedQueue(self.capacity, producers=producers_of_next, consumers=1)
            )
            self._work_q.append(
                _CountedQueue(self.capacity, producers=1, consumers=self.replicas[i])
            )
            producers_of_next = self.replicas[i]
        self._collect_q = _CountedQueue(
            self.capacity, producers=producers_of_next, consumers=1
        )
        self._final_q = _CountedQueue(self.capacity, producers=1, consumers=1)

        for i in range(n):
            self._threads.append(
                _Dispatcher(
                    self._in_q[i],
                    self._work_q[i],
                    name=f"session-dispatch[{i}]",
                    abort=self._abort,
                    metrics=self.instrumentation.stages[i],
                    metrics_lock=self._locks[i],
                )
            )
            for r in range(self.replicas[i]):
                self._threads.append(self._make_worker(i, r))
        self._threads.append(
            _Dispatcher(
                self._collect_q, self._final_q, name="session-dispatch[out]",
                abort=self._abort,
            )
        )
        self._collector = threading.Thread(
            target=self._collect, name="session-collector", daemon=True
        )
        self._watcher = threading.Thread(
            target=self._watch_abort, name="session-abort-watch", daemon=True
        )
        for t in self._threads:
            t.start()
        self._collector.start()
        self._watcher.start()

    # ---------------------------------------------------------------- fabric
    def _worker_out_queue(self, stage: int) -> _CountedQueue:
        n = self.backend.pipeline.n_stages
        return self._in_q[stage + 1] if stage + 1 < n else self._collect_q

    def _make_worker(self, stage: int, replica_idx: int) -> _Worker:
        spec = self.backend.pipeline.stage(stage)
        return _Worker(
            stage,
            spec.name,
            spec.fn,
            self._work_q[stage],
            self._worker_out_queue(stage),
            self.instrumentation.stages[stage],
            self._locks[stage],
            self._errors,
            self._abort,
            name=f"session-stage[{stage}].{replica_idx}",
            speed_fn=self.backend._load.effective_speed,
        )

    def _collect(self) -> None:
        while True:
            got = self._final_q.get()
            if got is _SENTINEL:
                break
            _seq, value = got
            self.instrumentation.record_completion(
                self.now(), items=len(value) if isinstance(value, Batch) else 1
            )
            self._deliver(value)

    def _watch_abort(self) -> None:
        # Workers record a StageError and set the abort flag; the session
        # must learn of it so submit/results/drain raise instead of hanging
        # on items the draining threads dropped.
        self._abort.wait()
        if self._errors:
            self._deliver_error(self._errors[0])

    # ----------------------------------------------------------- port hooks
    def _submit_one(self, stream: int, seq: int, gseq: int, item: Any) -> None:
        if not self._in_q[0].put((gseq, item), abort=self._abort):
            raise (
                self._errors[0]
                if self._errors
                else RuntimeError("session aborted while submitting")
            )

    def _shutdown(self) -> None:
        if self.broken or self._submitted > self._delivered:
            self._abort.set()  # drop in-flight items instead of finishing them
        self._in_q[0].producer_done()
        while True:
            with self._mutate_lock:
                alive = [t for t in self._threads if t.is_alive()]
            if not alive:
                break
            for t in alive:
                t.join(timeout=0.5)
        self._collector.join(timeout=5.0)
        self._abort.set()  # release the watcher on a clean close
        self._watcher.join(timeout=1.0)

    # -------------------------------------------------------------- reshaping
    def reconfigure(self, stage: int, n_replicas: int) -> None:
        """Grow or shrink ``stage``'s warm worker pool, live."""
        with self._mutate_lock:
            if self.closed:
                return
            while self.replicas[stage] < n_replicas:
                out_q = self._worker_out_queue(stage)
                out_q.add_producer()  # never drained before close: always legal
                self._work_q[stage].add_consumer()
                worker = self._make_worker(stage, self.replicas[stage])
                self.replicas[stage] += 1
                self._threads.append(worker)
                worker.start()
                self.events.emit("replica.add", stage=stage, n=self.replicas[stage])
            while self.replicas[stage] > max(n_replicas, 1):
                self.replicas[stage] -= 1
                self._work_q[stage].put(_RETIRE, abort=self._abort)
                self.events.emit(
                    "replica.remove", stage=stage, n=self.replicas[stage]
                )


class ThreadBackend(Backend):
    """Runs pipelines on a session-owned thread fabric.

    One instance is reusable: a session's warm worker threads serve
    back-to-back runs, and replica counts adapted during one stream carry
    over to the next (and to the next session, via the backend's target
    shape).
    """

    name = "threads"
    supports_live_reconfigure = True

    def __init__(
        self,
        pipeline: PipelineSpec,
        *,
        replicas: list[int] | None = None,
        capacity: int | None = None,
        max_replicas: int = 8,
    ) -> None:
        super().__init__(pipeline)
        check_positive(max_replicas, "max_replicas")
        self._target = validate_pipeline_shape(pipeline, replicas, "thread runtime")
        self.capacity = 8 if capacity is None else capacity
        check_positive(self.capacity, "capacity")
        # Workers record service at the sampled effective speed, so
        # work_estimate stays load-normalised — consistent with the
        # load-degraded speeds resource_view reports to the planner.
        self._load = HostLoadSampler()
        self.max_replicas = max(max_replicas, *self._target)

    # ------------------------------------------------------------- sessions
    def _open_session(
        self,
        *,
        max_inflight: "int | str | None" = None,
        telemetry=None,
        batching=None,
    ) -> Session:
        return _ThreadSession(
            self,
            max_inflight=max_inflight,
            telemetry=telemetry,
            batching=batching,
        )

    # ----------------------------------------------------------- observation
    def resource_view(self, n_procs: int) -> ResourceView:
        """Availability-aware local view: every slot shares this host.

        The host's load average degrades every virtual processor's
        effective speed alike, so the planner sees contended cores rather
        than assuming a dedicated machine; links are in-process queues
        (effectively free).
        """
        speed = self._load.effective_speed()
        return fn_view(
            eff=lambda pid: speed,
            link=lambda a, b: (1e-7, 1e9),
            pids=list(range(n_procs)),
        )

    # ----------------------------------------------------------------- shape
    def replica_counts(self) -> list[int]:
        session = self._session
        if isinstance(session, _ThreadSession) and not session.closed:
            return list(session.replicas)
        return list(self._target)

    def replica_limit(self, stage: int) -> int:
        return self.max_replicas if self.pipeline.stage(stage).replicable else 1

    def reconfigure(self, stage: int, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        n_replicas = min(n_replicas, self.replica_limit(stage))
        self._target[stage] = n_replicas
        session = self._session
        if isinstance(session, _ThreadSession) and not session.closed:
            session.reconfigure(stage, n_replicas)


register_backend("threads", ThreadBackend)
