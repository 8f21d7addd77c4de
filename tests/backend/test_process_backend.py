"""Tests for the warm process-pool backend."""

import os
import time

import pytest

from repro.backend import ProcessPoolBackend, StageError, ThreadBackend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec


def spec(fns, replicable=None):
    replicable = replicable or [True] * len(fns)
    return PipelineSpec(
        tuple(
            StageSpec(name=f"s{i}", work=0.01, fn=f, replicable=r)
            for i, (f, r) in enumerate(zip(fns, replicable))
        )
    )


def _inc(x):
    return x + 1


def _double(x):
    return x * 2


def _tag_pid(x):
    return (x, os.getpid())


def _jitter_square(x):
    time.sleep((x % 3) * 0.002)
    return x * x


def _boom(x):
    if x == 7:
        raise ValueError("bad item")
    return x


class TestProcessPoolBackend:
    def test_results_equal_sequential_composition(self):
        with ProcessPoolBackend(spec([_inc, _double])) as b:
            res = b.run(range(20))
        assert res.outputs == [(x + 1) * 2 for x in range(20)]
        assert res.items == 20
        assert res.elapsed > 0

    def test_matches_thread_backend(self):
        pipe = spec([_inc, _jitter_square, _double])
        expected = ThreadBackend(pipe).run(range(25)).outputs
        with ProcessPoolBackend(pipe) as b:
            assert b.run(range(25)).outputs == expected

    def test_order_preserved_with_replicas(self):
        with ProcessPoolBackend(spec([_jitter_square]), replicas=[3]) as b:
            res = b.run(range(30))
        assert res.outputs == [x * x for x in range(30)]

    def test_empty_input(self):
        with ProcessPoolBackend(spec([_inc])) as b:
            assert b.run([]).outputs == []

    def test_warm_workers_reused_across_runs(self):
        with ProcessPoolBackend(spec([_tag_pid]), replicas=[2], max_replicas=2) as b:
            pids1 = {pid for _, pid in b.run(range(10)).outputs}
            pids2 = {pid for _, pid in b.run(range(10)).outputs}
        assert pids1 == pids2  # same resident processes served both runs
        assert all(pid != os.getpid() for pid in pids1)

    def test_stage_exception_propagates_with_name(self):
        b = ProcessPoolBackend(spec([_inc, _boom]))
        try:
            with pytest.raises(StageError, match="s1") as excinfo:
                b.run(range(20))
            assert isinstance(excinfo.value.original, ValueError)
        finally:
            b.close()

    def test_reconfigure_mid_run_preserves_order(self):
        pipe = spec([_jitter_square])
        with ProcessPoolBackend(pipe, max_replicas=3) as b:
            n = b.start(range(60))
            b.reconfigure(0, 3)
            res = b.join()
        assert n == 60
        assert res.outputs == [x * x for x in range(60)]
        assert res.replica_counts == [3]

    def test_reconfigure_clamps_to_warm_pool(self):
        with ProcessPoolBackend(spec([_inc]), max_replicas=2) as b:
            b.warm()
            b.reconfigure(0, 99)
            assert b.replica_counts() == [2]
            b.reconfigure(0, 1)
            assert b.replica_counts() == [1]

    def test_initial_replicas_expand_pool(self):
        with ProcessPoolBackend(spec([_inc]), replicas=[6], max_replicas=2) as b:
            assert b.replica_limit(0) == 6
            assert b.run(range(8)).outputs == [x + 1 for x in range(8)]

    def test_stateful_stage_cannot_be_replicated(self):
        pipe = spec([_inc], replicable=[False])
        with pytest.raises(ValueError, match="stateful"):
            ProcessPoolBackend(pipe, replicas=[2])
        # The port contract clamps reconfigure to replica_limit (1 for a
        # stateful stage) on every live adapter, rather than raising.
        with ProcessPoolBackend(pipe) as b:
            b.reconfigure(0, 2)
            assert b.replica_counts() == [1]

    def test_missing_fn_rejected(self):
        pipe = PipelineSpec((StageSpec(name="nofn", work=0.1),))
        with pytest.raises(ValueError, match="no fn"):
            ProcessPoolBackend(pipe)

    def test_snapshots_and_progress(self):
        with ProcessPoolBackend(spec([_inc, _double])) as b:
            res = b.run(range(15))
            snaps = b.snapshots()
        assert b.items_completed() == 15
        assert len(snaps) == 2
        assert all(s.items_processed == 15 for s in snaps)
        assert all(s.service_time >= 0 for s in snaps)
        assert res.service_means[0] >= 0

    def test_dead_worker_aborts_instead_of_hanging(self):
        import signal

        def suicide(x):
            if x == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        b = ProcessPoolBackend(spec([suicide]))
        try:
            with pytest.raises(StageError, match="died mid-run"):
                b.run(range(10))
        finally:
            b.close()

    def test_unpicklable_input_aborts_instead_of_hanging(self):
        import threading

        b = ProcessPoolBackend(spec([_inc]))
        try:
            with pytest.raises(StageError, match="s0"):
                b.run([1, threading.Lock(), 3])  # locks cannot be pickled
        finally:
            b.close()

    def test_close_idempotent_and_cold_restart_rejected(self):
        b = ProcessPoolBackend(spec([_inc]))
        b.run([1, 2])
        b.close()
        b.close()
        with pytest.raises(RuntimeError, match="closed"):
            b.start([1])


def _big_array(x):
    import numpy as np

    return np.full(200_000, float(x))


def _array_total(a):
    return float(a.sum())


class TestProcessTransports:
    @pytest.mark.parametrize("transport", ["pickle", "shm", "auto"])
    def test_identical_outputs_across_transports(self, transport):
        pipe = spec([_big_array, _array_total])
        with ProcessPoolBackend(pipe, transport=transport) as b:
            res = b.run(range(6))
        assert res.outputs == [200_000.0 * x for x in range(6)]

    def test_payload_bytes_recorded_per_stage(self):
        pipe = spec([_big_array, _array_total])
        with ProcessPoolBackend(pipe, transport="auto") as b:
            b.run(range(6))
            snaps = b.snapshots()
        # Stage 0 takes tiny ints in and emits ~1.6 MB arrays; stage 1 the
        # reverse — the measured sizes feed link pricing and reports.
        assert snaps[0].bytes_in < 1000 < snaps[0].bytes_out
        assert snaps[1].bytes_in == pytest.approx(snaps[0].bytes_out)
        assert snaps[1].bytes_out < 1000
        assert snaps[0].bytes_out == pytest.approx(1_600_000, rel=0.05)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown codec"):
            ProcessPoolBackend(spec([_inc]), transport="nope")
