"""Tests for the thread adapter of the backend port and its thread fabric."""

import random
import statistics
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import StageError, ThreadBackend
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


def run(pipe, inputs, **kwargs):
    """One bounded run on a fresh backend; its threads are reaped on return."""
    with ThreadBackend(pipe, **kwargs) as b:
        return b.run(inputs).outputs


class TestThreadBackend:
    def test_run_ordered(self):
        b = ThreadBackend(spec([lambda x: x + 1, lambda x: x * 2]))
        res = b.run(range(20))
        assert res.outputs == [(x + 1) * 2 for x in range(20)]
        assert res.backend == "threads"
        assert res.replica_counts == [1, 1]

    def test_replicas_carry_over_between_runs(self):
        b = ThreadBackend(spec([lambda x: x]), max_replicas=4)
        b.run(range(5))
        b.reconfigure(0, 3)
        res = b.run(range(5))
        assert res.replica_counts == [3]
        assert res.outputs == list(range(5))

    def test_live_grow_preserves_order(self):
        def slowish(x):
            time.sleep(0.003)
            return x * x

        b = ThreadBackend(spec([slowish]), max_replicas=4)
        b.start(range(40))
        while b.items_completed() < 5:
            time.sleep(0.002)
        b.reconfigure(0, 3)
        res = b.join()
        assert res.outputs == [x * x for x in range(40)]
        assert res.replica_counts == [3]

    def test_observation_surfaces(self):
        def work(x):
            time.sleep(0.002)
            return x

        b = ThreadBackend(spec([work]))
        b.run(range(12))
        snaps = b.snapshots()
        assert len(snaps) == 1
        assert snaps[0].items_processed == 12
        assert snaps[0].service_time >= 0.002
        # Work is service x the load-derived effective speed (<= 1.0), so
        # the estimate is positive and never exceeds the measured service.
        assert 0 < snaps[0].work_estimate <= snaps[0].service_time
        assert b.items_completed() == 12
        # Completions just happened, so a generous window must see them.
        assert b.recent_throughput(horizon=60.0) > 0

    def test_reconfigure_clamped_to_max(self):
        b = ThreadBackend(spec([lambda x: x]), max_replicas=2)
        b.reconfigure(0, 50)
        assert b.replica_counts() == [2]


class TestThreadFabric:
    def test_results_equal_sequential_composition(self):
        pipe = spec([lambda x: x + 1, lambda x: x * 2, lambda x: x - 3])
        assert run(pipe, range(20)) == [(x + 1) * 2 - 3 for x in range(20)]

    def test_order_preserved_with_replicas(self):
        def jitter(x):
            time.sleep(random.random() * 0.003)
            return x * x

        out = run(spec([jitter]), range(40), replicas=[4])
        assert out == [x * x for x in range(40)]

    def test_order_preserved_replicated_middle_stage(self):
        def slow(x):
            time.sleep(random.random() * 0.002)
            return x + 100

        pipe = spec([lambda x: x * 2, slow, lambda x: x - 1])
        out = run(pipe, range(30), replicas=[1, 3, 1])
        assert out == [x * 2 + 100 - 1 for x in range(30)]

    def test_empty_input(self):
        assert run(spec([lambda x: x]), []) == []

    def test_single_item(self):
        assert run(spec([lambda x: x + 1]), [41]) == [42]

    def test_stats_populated(self):
        def work(x):
            time.sleep(0.001)
            return x

        with ThreadBackend(spec([work])) as b:
            res = b.run(range(10))
            assert res.items == 10
            assert res.throughput > 0
            assert b.snapshots()[0].items_processed == 10
            assert res.service_means[0] >= 0.001

    def test_stage_exception_propagates_with_name(self):
        def boom(x):
            if x == 5:
                raise ValueError("bad item")
            return x

        with pytest.raises(RuntimeError, match="s0"):
            run(spec([boom]), range(10))

    def test_stateful_stage_cannot_be_replicated(self):
        pipe = spec([lambda x: x], replicable=[False])
        with pytest.raises(ValueError, match="stateful"):
            ThreadBackend(pipe, replicas=[2])

    def test_missing_fn_rejected(self):
        pipe = PipelineSpec((StageSpec(name="nofn", work=0.1),))
        with pytest.raises(ValueError, match="no fn"):
            ThreadBackend(pipe)

    def test_replicas_length_mismatch(self):
        with pytest.raises(ValueError):
            ThreadBackend(spec([lambda x: x]), replicas=[1, 2])

    def test_invalid_replica_count(self):
        with pytest.raises(ValueError):
            ThreadBackend(spec([lambda x: x]), replicas=[0])

    def test_backpressure_small_capacity(self):
        # Tiny queues must not deadlock or reorder.
        pipe = spec([lambda x: x + 1, lambda x: x * 3])
        assert run(pipe, range(50), capacity=1) == [(x + 1) * 3 for x in range(50)]

    def test_stateful_stage_sees_items_in_order(self):
        seen = []
        lock = threading.Lock()

        def record(x):
            with lock:
                seen.append(x)
            return x

        def jitter(x):
            time.sleep(random.random() * 0.002)
            return x

        # Upstream replicated stage may finish out of order; the dispatcher
        # must still hand items to the (non-replicated) recorder in order.
        run(spec([jitter, record]), range(30), replicas=[4, 1])
        assert seen == list(range(30))

    @settings(deadline=None, max_examples=15)
    @given(
        n_items=st.integers(min_value=0, max_value=60),
        replicas=st.integers(min_value=1, max_value=4),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def test_property_conservation(self, n_items, replicas, capacity):
        pipe = spec([lambda x: x + 1, lambda x: x * 2])
        out = run(pipe, range(n_items), replicas=[replicas, 1], capacity=capacity)
        assert out == [(x + 1) * 2 for x in range(n_items)]

    def test_batched_service_means_match_per_item_mean(self):
        # A micro-batch records once with its total seconds and items=N;
        # the run's service mean must still be the mean over items.
        def work(x):
            time.sleep(0.0002)
            return x

        with ThreadBackend(spec([work, lambda x: x + 1])) as b:
            session = b.open(batching=16)
            records = []
            session.events.subscribe(records.append, kinds=("stage.service",))
            for i in range(200):
                session.submit(i)
            assert session.drain() == [i + 1 for i in range(200)]
            means = session.service_means()
            session.close()
        assert any(r.fields.get("items", 1) > 1 for r in records)
        for stage in (0, 1):
            per_item = [
                r.fields["seconds"] / r.fields.get("items", 1)
                for r in records
                if r.fields["stage"] == stage
                for _ in range(r.fields.get("items", 1))
            ]
            assert len(per_item) == 200
            assert means[stage] == pytest.approx(statistics.fmean(per_item))


class TestReplicatedStageErrors:
    def test_replicated_stage_error_mid_batch_propagates(self):
        def boom(x):
            time.sleep(0.001)
            if x == 25:
                raise ValueError("bad item mid-batch")
            return x

        pipe = spec([lambda x: x, boom, lambda x: x])
        with pytest.raises(StageError, match="s1") as excinfo:
            run(pipe, range(60), replicas=[1, 3, 1])
        assert isinstance(excinfo.value.original, ValueError)

    def test_error_does_not_deadlock_with_tiny_buffers(self):
        # The erroring worker's siblings and the up/downstream threads must
        # all drain and exit even when every queue is capacity-1 full.
        def boom(x):
            if x == 10:
                raise ValueError("boom")
            time.sleep(0.001)
            return x

        pipe = spec([lambda x: x + 1, boom])
        with pytest.raises(StageError, match="s1"):
            run(pipe, range(200), replicas=[1, 2], capacity=1)
