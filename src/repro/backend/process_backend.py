"""Warm process-pool backend: true multi-core execution of pipelines.

Each stage owns a pool of **pre-forked worker processes** (the ModelOps
warm-pool idea: pay process start-up once, before the first item, and keep
workers resident between streams).  Only ``replicas[i]`` of a stage's pool
are *active*; ``reconfigure(stage, n)`` activates or deactivates warm
workers instantly — no fork on the adaptation path.

Topology (per stage ``i``)::

                      taskq (per worker, bounded)
    feeder ───────┬──> worker i.0 ──┐
    (session)     ├──> worker i.1 ──┼──> resq[i] ──> router[i] ──> ...
                  └──> worker i.R ──┘   (shared)     (session)

* The **pools belong to the backend** and survive across sessions and
  streams; the **feeder and router threads belong to the session** and run
  for its whole lifetime, so back-to-back streams reuse the same resident
  worker processes with no teardown in between.  Sequence numbers are
  stream-scoped: each router's :class:`~repro.util.ordering.SequenceReorderer`
  rebases via ``begin_stream`` at every stream boundary (legal because
  ``drain()`` empties the pipeline before the next stream admits).
* Workers are OS processes running :func:`_worker_main`; items and results
  cross process boundaries as :class:`~repro.transport.Frame` objects
  produced by the backend's **transport codec** (``transport=``): inline
  pickle streams by default, shared-memory descriptors for large payloads
  under ``"auto"``/``"shm"``.  ``"auto"``'s placement threshold is
  **calibrated at warm-up** from a quick encode/decode probe
  (:func:`repro.transport.calibrated_auto_threshold`) instead of trusting
  the static default — E17 showed the crossover varies by host.  Frame
  segments are released per item as results retire (task frames in the
  worker that consumed them, result frames in the router), never held to a
  batch end.
* **Routers** collect a stage's results, record service-time/queue-depth/
  payload-size samples, restore sequence order, and dispatch in order to
  the *least-loaded active* worker of the next stage.  Because every stage
  starts items in input order and the final router delivers in order, the
  ``Pipeline1for1`` contract holds across processes exactly as it does in
  the thread runtime.
* Bounded per-worker task queues, a bounded result queue and the session's
  bounded admission window give end-to-end back-pressure.

The default start method is ``fork`` where available (warm semantics, and
closures/lambdas need no pickling); pass ``start_method="spawn"`` with
importable module-level stage functions on platforms without fork.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as thread_queue
import threading
import time
from typing import Any

from repro import transport as _transport
from repro.backend.base import (
    Backend,
    Session,
    StageError,
    register_backend,
    validate_pipeline_shape,
)
from repro.core.pipeline import PipelineSpec
from repro.monitor.instrument import PipelineInstrumentation
from repro.transport import Codec, Frame
from repro.util.batching import Batch, map_batch
from repro.util.ordering import SequenceReorderer
from repro.util.validation import check_positive

__all__ = ["ProcessPoolBackend"]

_STOP = None  # poison pill: worker exits (sent only by close())
_CLOSE = object()  # session-side feeder shutdown marker


def _worker_main(stage_index: int, worker_id: int, fn, taskq, resq, codec_spec) -> None:
    """Worker process body: apply ``fn`` to (seq, frame) tasks forever."""
    codec = _transport.from_spec(codec_spec)
    while True:
        msg = taskq.get()
        if msg is _STOP:
            break
        seq, frame = msg
        try:
            value = codec.decode(frame)
        except Exception as err:
            codec.release(frame)  # the parent aborts; nothing retries this frame
            resq.put(("err", seq, worker_id, None, f"undecodable item: {err!r}"))
            continue
        # This worker is the frame's sole consumer and the process backend
        # never re-dispatches (a worker death aborts the stream), so the
        # task frame's segments are released as soon as the value is copied
        # out — per item, not at any batch boundary.
        codec.release(frame)
        t0 = time.perf_counter()
        try:
            # A micro-batch decoded from one frame maps element-wise here
            # and re-encodes as one frame: the whole run of items pays a
            # single queue round trip and a single pickle stream each way.
            result = map_batch(fn, value) if isinstance(value, Batch) else fn(value)
        except BaseException as err:  # noqa: BLE001 - shipped to the parent
            try:
                err_payload = pickle.dumps(err)
            except Exception:
                err_payload = None
            resq.put(("err", seq, worker_id, err_payload, repr(err)))
            continue  # stay warm; the parent aborts the stream
        dt = time.perf_counter() - t0
        try:
            out_frame = codec.encode(result)
        except Exception as err:
            resq.put(("err", seq, worker_id, None, f"unencodable result: {err!r}"))
            continue
        resq.put(("ok", seq, worker_id, out_frame, dt))


class _WorkerHandle:
    """Parent-side view of one worker process."""

    def __init__(self, proc, taskq, active: bool) -> None:
        self.proc = proc
        self.taskq = taskq
        self.active = active
        self.inflight = 0  # dispatched, result not yet seen


class _StagePool:
    """One stage's warm worker pool plus its shared result queue."""

    def __init__(self, resq, lock: threading.Lock) -> None:
        self.resq = resq
        self.lock = lock
        self.workers: list[_WorkerHandle] = []

    def active_count(self) -> int:
        with self.lock:
            return sum(1 for w in self.workers if w.active)

    def queued(self) -> int:
        with self.lock:
            return sum(w.inflight for w in self.workers)

    def pick(self) -> _WorkerHandle:
        """Least-loaded active worker (claims one in-flight slot)."""
        with self.lock:
            active = [w for w in self.workers if w.active]
            best = min(active, key=lambda w: w.inflight)
            best.inflight += 1
            return best

    def note_done(self, worker_id: int) -> None:
        with self.lock:
            self.workers[worker_id].inflight -= 1

    def dead_workers(self) -> list[tuple[int, int | None]]:
        """(worker_id, exitcode) of workers that died (none should, mid-run)."""
        with self.lock:
            return [
                (wid, w.proc.exitcode)
                for wid, w in enumerate(self.workers)
                if not w.proc.is_alive()
            ]


class _ProcessSession(Session):
    """Session-owned feeder/router threads over the backend's warm pools."""

    supports_batching = True

    def __init__(
        self,
        backend: "ProcessPoolBackend",
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
        backend.warm()
        n = backend.pipeline.n_stages
        self.instrumentation = PipelineInstrumentation(n, events=self.events)
        self._stage_locks = [threading.Lock() for _ in range(n)]
        self._snapshot_locks = self._stage_locks
        self._errors: list[BaseException] = []
        self._abort = threading.Event()
        self._stopping = threading.Event()
        self._reorder = [SequenceReorderer() for _ in range(n)]
        self._feedq: thread_queue.Queue = thread_queue.Queue()
        self._threads = [
            threading.Thread(target=self._feed, name="pp-feeder", daemon=True)
        ]
        for i in range(n):
            self._threads.append(
                threading.Thread(
                    target=self._route, args=(i,), name=f"pp-router[{i}]", daemon=True
                )
            )
        for t in self._threads:
            t.start()

    # ----------------------------------------------------------- port hooks
    def _begin_stream(self, stream: int) -> None:
        # drain() emptied the pipeline, so every router reorderer is idle:
        # rebase them onto the new stream's sequence space.
        for reorder in self._reorder:
            reorder.begin_stream(0)

    def _submit_one(self, stream: int, seq: int, gseq: int, item: Any) -> None:
        self._feedq.put((seq, item))

    def _shutdown(self) -> None:
        backend: ProcessPoolBackend = self.backend  # type: ignore[assignment]
        broken = self.broken or self._submitted > self._delivered
        if broken:
            self._abort.set()
        self._stopping.set()
        self._feedq.put(_CLOSE)
        for t in self._threads:
            t.join(timeout=5.0)
        if broken:
            # An aborted stream leaves worker queues in an unknown state: go
            # cold so the next session re-forks clean pools.
            backend._shutdown_pools(graceful=False)

    # --------------------------------------------------------------- failure
    def _fail(self, stage: int, err: BaseException) -> None:
        backend: ProcessPoolBackend = self.backend  # type: ignore[assignment]
        failure = (
            err
            if isinstance(err, StageError)
            else StageError(backend.pipeline.stage(stage).name, err)
        )
        self._errors.append(failure)
        self._abort.set()
        self._deliver_error(failure)

    # --------------------------------------------------------------- plumbing
    def _record_bytes_in(self, stage: int, nbytes: int) -> None:
        with self._stage_locks[stage]:
            self.instrumentation.stages[stage].record_bytes_in(nbytes)

    def _dispatch(self, stage: int, seq: int, frame: Frame) -> bool:
        """Send one encoded item to the least-loaded active worker of ``stage``."""
        backend: ProcessPoolBackend = self.backend  # type: ignore[assignment]
        assert backend._pools is not None
        pool = backend._pools[stage]
        handle = pool.pick()
        while True:
            try:
                handle.taskq.put((seq, frame), timeout=0.05)
                return True
            except thread_queue.Full:
                if self._abort.is_set():
                    with pool.lock:
                        handle.inflight -= 1
                    return False

    def _feed(self) -> None:
        backend: ProcessPoolBackend = self.backend  # type: ignore[assignment]
        try:
            while True:
                msg = self._feedq.get()
                if msg is _CLOSE:
                    return
                if self._abort.is_set():
                    continue  # drain the feed queue without dispatching
                seq, value = msg
                t0 = time.perf_counter()
                frame = backend._codec.encode(value)
                self._record_bytes_in(0, frame.nbytes)
                if isinstance(value, Batch) and self.events.wants("batch.encode"):
                    self.events.emit(
                        "batch.encode",
                        stage=0,
                        seq=seq,
                        base=value.base_seq,
                        items=len(value),
                        nbytes=frame.nbytes,
                        seconds=time.perf_counter() - t0,
                    )
                if self.events.wants("frame.encode"):
                    ev_seq, ev_items = self._event_seq(seq)
                    enc = dict(stage=0, seq=ev_seq, nbytes=frame.nbytes)
                    if ev_items > 1:
                        enc["items"] = ev_items
                    self.events.emit("frame.encode", **enc)
                if not self._dispatch(0, seq, frame):
                    continue
        except BaseException as err:  # noqa: BLE001 - e.g. unpicklable input
            self._fail(0, err)

    def _route(self, stage: int) -> None:
        """Collect stage results, restore order, dispatch to the next stage.

        Any unexpected failure here (unpicklable payloads, a result whose
        class explodes on unpickle) must poison the session rather than
        leave ``drain()`` waiting forever for items that will never arrive.
        """
        try:
            self._route_inner(stage)
        except BaseException as err:  # noqa: BLE001 - reported via the session
            self._fail(stage, err)

    def _route_inner(self, stage: int) -> None:
        backend: ProcessPoolBackend = self.backend  # type: ignore[assignment]
        assert backend._pools is not None
        pool = backend._pools[stage]
        metrics = self.instrumentation.stages[stage]
        last = stage + 1 >= backend.pipeline.n_stages
        reorder = self._reorder[stage]
        while True:
            if self._abort.is_set():
                return
            try:
                msg = pool.resq.get(timeout=0.1)
            except thread_queue.Empty:
                if self._stopping.is_set():
                    return
                # No worker should die mid-stream (close() is the only
                # sender of stop pills); a dead one with items in flight
                # means those items are lost and the drain barrier would
                # never clear — fail, don't hang.  Idle pools are left in
                # peace between streams.
                if pool.queued():
                    dead = pool.dead_workers()
                    if dead:
                        wid, code = dead[0]
                        self.events.emit(
                            "worker.death",
                            f"stage {stage} worker {wid} exited",
                            worker=wid,
                            stage=stage,
                            exitcode=code,
                        )
                        self._fail(
                            stage,
                            RuntimeError(
                                f"worker {wid} died mid-run (exitcode {code}); "
                                "its in-flight items are lost"
                            ),
                        )
                        return
                continue
            kind, seq, worker_id, payload, extra = msg
            pool.note_done(worker_id)
            if kind == "err":
                original: BaseException
                if payload is not None:
                    try:
                        original = pickle.loads(payload)
                    except Exception:
                        original = RuntimeError(extra)
                else:
                    original = RuntimeError(extra)
                self._fail(stage, original)
                return
            queued = pool.queued()
            # Executor seqs are batch seqs when batching: translate the
            # service record back to item space (seq = first item, items=N)
            # so span attribution and the live top view stay per-item.
            ev_seq, ev_items = self._event_seq(seq)
            with self._stage_locks[stage]:
                metrics.record_service(
                    extra, 1.0, seq=ev_seq, worker=worker_id, queue=queued,
                    items=ev_items,
                )
                metrics.record_queue_length(queued)
                metrics.record_bytes_out(payload.nbytes)
            # Workers already produced encoded frames and the next stage's
            # workers expect exactly that format — forward each frame
            # untouched and decode only for final outputs.
            for ready_seq, ready_frame in reorder.push(seq, payload):
                if last:
                    value = backend._codec.decode(ready_frame)
                    backend._codec.release(ready_frame)
                    if self.events.wants("frame.release"):
                        rel_seq, rel_items = self._event_seq(ready_seq)
                        rel = dict(
                            stage=stage, seq=rel_seq, nbytes=ready_frame.nbytes
                        )
                        if rel_items > 1:
                            rel["items"] = rel_items
                        self.events.emit("frame.release", **rel)
                    with self._stage_locks[stage]:
                        self.instrumentation.record_completion(
                            self.now(),
                            items=len(value) if isinstance(value, Batch) else 1,
                        )
                    self._deliver(value)
                else:
                    self._record_bytes_in(stage + 1, ready_frame.nbytes)
                    if not self._dispatch(stage + 1, ready_seq, ready_frame):
                        return


class ProcessPoolBackend(Backend):
    """Executes pipelines on warm, pre-forked per-stage process pools.

    Parameters
    ----------
    pipeline:
        Stage specs; every stage must define ``fn``.
    replicas:
        Initially *active* workers per stage (default 1 each).
    max_replicas:
        Warm-pool size per replicable stage — the ceiling ``reconfigure``
        can activate without forking mid-run.
    capacity:
        Per-worker task-queue bound (back-pressure granularity).
    start_method:
        ``multiprocessing`` start method; default ``fork`` when available.
    transport:
        Payload codec moving items between processes: a registered name
        (``"auto"``/``"pickle"``/``"shm"``, see :mod:`repro.transport`) or
        a configured :class:`~repro.transport.Codec` instance.  The
        default ``"auto"`` keeps small items inline and routes large
        numpy/bytes payloads through shared-memory segments, with the
        placement threshold calibrated at warm-up.
    calibrate_transport:
        Probe the host's inline-vs-segment crossover at warm-up and use it
        as ``"auto"``'s threshold (default True; only affects ``"auto"``).
    """

    name = "processes"
    supports_live_reconfigure = True

    def __init__(
        self,
        pipeline: PipelineSpec,
        *,
        replicas: list[int] | None = None,
        max_replicas: int = 4,
        capacity: int | None = None,
        start_method: str | None = None,
        transport: str | Codec = "auto",
        calibrate_transport: bool = True,
    ) -> None:
        super().__init__(pipeline)
        capacity = 8 if capacity is None else capacity
        check_positive(capacity, "capacity")
        check_positive(max_replicas, "max_replicas")
        replica_list = validate_pipeline_shape(pipeline, replicas, "process runtime")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = mp.get_context(start_method)
        self._codec = _transport.get(transport)
        self._calibrate_transport = calibrate_transport
        self.capacity = capacity
        # A warm pool must at least cover the requested starting shape.
        self.max_replicas = max(max_replicas, *replica_list)
        self._target = [
            min(r, self.replica_limit(i)) for i, r in enumerate(replica_list)
        ]
        self._pools: list[_StagePool] | None = None
        self._warm = False
        self._closed = False

    # --------------------------------------------------------------- warm-up
    def replica_limit(self, stage: int) -> int:
        return self.max_replicas if self.pipeline.stage(stage).replicable else 1

    def warm(self) -> None:
        """Pre-fork every stage's worker pool (idempotent)."""
        if self._closed:
            raise RuntimeError("backend is closed")
        if self._warm:
            return
        if self._calibrate_transport and self._codec.name == "auto":
            fitted = _transport.calibrated_auto_threshold()
            if fitted is not None:
                self._codec.threshold = fitted
        pools = []
        for i in range(self.pipeline.n_stages):
            pool_size = self.replica_limit(i)
            resq = self._ctx.Queue(maxsize=self.capacity * pool_size)
            pool = _StagePool(resq, threading.Lock())
            fn = self.pipeline.stage(i).fn
            codec_spec = _transport.spec_of(self._codec)
            for wid in range(pool_size):
                taskq = self._ctx.Queue(maxsize=self.capacity)
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(i, wid, fn, taskq, resq, codec_spec),
                    name=f"{self.pipeline.stage(i).name}.{wid}",
                    daemon=True,
                )
                proc.start()
                pool.workers.append(_WorkerHandle(proc, taskq, active=wid < self._target[i]))
            pools.append(pool)
        self._pools = pools
        self._warm = True

    # ------------------------------------------------------------- sessions
    def _open_session(
        self,
        *,
        max_inflight: "int | str | None" = None,
        telemetry=None,
        batching=None,
    ) -> Session:
        return _ProcessSession(
            self,
            max_inflight=max_inflight,
            telemetry=telemetry,
            batching=batching,
        )

    def _shutdown_pools(self, *, graceful: bool) -> None:
        if self._pools is None:
            return
        for pool in self._pools:
            for w in pool.workers:
                if graceful:
                    try:
                        w.taskq.put(_STOP, timeout=0.5)
                    except thread_queue.Full:
                        pass
                w.taskq.close()
        for pool in self._pools:
            for w in pool.workers:
                w.proc.join(timeout=1.0 if graceful else 0.1)
                if w.proc.is_alive():
                    w.proc.terminate()
                    w.proc.join(timeout=1.0)
            pool.resq.close()
        self._pools = None
        self._warm = False
        # Every producer and consumer of this session's segments is now
        # stopped: reclaim whatever frames were stranded in queues by an
        # abort (a clean run leaves nothing — consumers release as they go).
        self._codec.sweep()

    def close(self) -> None:
        """Stop every warm worker and release the pools (idempotent)."""
        if self._closed:
            return
        self._closed = True
        super().close()  # closes the session (a broken one goes cold itself)
        self._shutdown_pools(graceful=True)

    # ----------------------------------------------------------------- shape
    def replica_counts(self) -> list[int]:
        if self._pools is None:
            return list(self._target)
        return [p.active_count() for p in self._pools]

    def reconfigure(self, stage: int, n_replicas: int) -> None:
        """Activate/deactivate warm workers of ``stage`` to ``n_replicas``.

        Counts are clamped to ``[1, replica_limit(stage)]`` (so a stateful
        stage clamps to 1, matching the port contract and the thread
        adapter) — growth never forks mid-run; deactivated workers finish
        what they were dealt and then idle, warm, until reactivated or
        closed.
        """
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        n_replicas = min(n_replicas, self.replica_limit(stage))
        self._target[stage] = n_replicas
        if self._pools is None:
            return
        pool = self._pools[stage]
        with pool.lock:
            active = sum(1 for w in pool.workers if w.active)
            if active < n_replicas:
                for w in pool.workers:
                    if not w.active:
                        w.active = True
                        active += 1
                        self.events.emit("replica.add", stage=stage, n=active)
                        if active == n_replicas:
                            break
            elif active > n_replicas:
                # Drop the least-loaded workers first; busy ones finish what
                # they were dealt either way.
                idle_first = sorted(
                    (w for w in pool.workers if w.active), key=lambda w: w.inflight
                )
                for w in idle_first:
                    if active == n_replicas:
                        break
                    w.active = False
                    active -= 1
                    self.events.emit("replica.remove", stage=stage, n=active)


register_backend("processes", ProcessPoolBackend)
