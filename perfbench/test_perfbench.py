"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import checks  # noqa: E402
import stats  # noqa: E402
from openloop import run_open_loop, schedule  # noqa: E402
from spans import Spans  # noqa: E402


# ------------------------------------------------------------ percentile rule
class TestPercentileRule:
    def test_min_samples_leaves_ten_beyond(self):
        assert stats.min_samples(99) == 1000
        assert stats.min_samples(50) == 20
        assert stats.min_samples(99.9) == 10_000

    def test_thin_tail_is_not_reported(self):
        assert stats.percentile(list(range(999)), 99) is None
        assert stats.percentile(list(range(19)), 50) is None

    def test_nearest_rank(self):
        samples = list(range(1, 1001))
        assert stats.percentile(samples, 99) == 990
        assert stats.percentile(samples, 50) == 500
        # Exactly ten samples lie beyond the reported p99.
        assert sum(1 for s in samples if s > stats.percentile(samples, 99)) == 10

    def test_order_does_not_matter(self):
        samples = [float(x) for x in range(1000, 0, -1)]
        assert stats.percentile(samples, 99) == 990.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stats.min_samples(100)

    def test_group_percentile_is_median_over_sessions(self):
        # Three sessions, one slow: the slow one moves one figure only.
        fast = [1.0] * 990 + [2.0] * 10
        slow = [1.0] * 900 + [50.0] * 100
        assert stats.group_percentile([fast, slow, fast], 99) == 1.0
        assert stats.percentile(fast + slow + fast, 99) == 50.0

    def test_group_percentile_pools_small_sessions(self):
        groups = [list(range(1, 501)), list(range(501, 1001))]
        assert stats.group_percentile(groups, 99) == 990
        assert stats.group_percentile([list(range(10))], 99) is None

    def test_relative_iqr(self):
        assert stats.relative_iqr([10.0] * 10) == 0.0
        assert stats.relative_iqr([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


# ------------------------------------------------- open-loop schedule, backlog
class TestSchedule:
    def test_fixed_spacing(self):
        due = schedule(5.0, 100.0, 4)
        assert list(due) == pytest.approx([5.0, 5.01, 5.02, 5.03])

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            schedule(0.0, 0.0, 3)

    def test_backlog_flat_when_sustained(self):
        due = [k * 0.01 for k in range(300)]
        done = [t + 0.002 for t in due]
        series = stats.backlog_series(due, done)
        assert all(b <= 1 for _, b in series)
        assert not stats.backlog_grows(series, rate=100.0)

    def test_backlog_grows_beyond_capacity(self):
        due = [k * 0.01 for k in range(300)]  # 100/s offered
        done = [0.002 + k * 0.02 for k in range(300)]  # 50/s served
        series = stats.backlog_series(due, done)
        assert stats.backlog_growth(series) > 10
        assert stats.backlog_grows(series, rate=100.0)

    def test_backlog_counts_unsubmitted_items(self):
        # Nothing consumed yet: every due item is backlog, submitted or not.
        due = [0.0, 1.0, 2.0, 3.0]
        series = stats.backlog_series(due, [], points=4)
        assert [b for _, b in series] == [1, 2, 3, 4]


class _FakeSession:
    """In-order echo session; ``stall`` seconds of blocking on one submit."""

    def __init__(self, stall_at: int = -1, stall: float = 0.0) -> None:
        self.stall_at, self.stall = stall_at, stall
        self.cv = threading.Condition()
        self.out: list = []
        self.n = 0

    def submit(self, item):
        if self.n == self.stall_at:
            time.sleep(self.stall)
        self.n += 1
        with self.cv:
            self.out.append(item * 10)
            self.cv.notify_all()

    def results(self):
        k = 0
        while True:
            with self.cv:
                while k >= len(self.out):
                    self.cv.wait(0.05)
                value = self.out[k]
            k += 1
            yield value


class TestOpenLoop:
    def test_outputs_in_order_and_one_latency_each(self):
        run = run_open_loop(_FakeSession(), list(range(50)), rate=2000.0, timeout=10)
        assert run.error is None
        assert run.outputs == [x * 10 for x in range(50)]
        assert len(run.latencies_ms) == len(run.lag) == 50
        assert all(lat >= 0 for lat in run.latencies_ms)

    def test_latency_is_timed_from_due_time(self):
        # A 100 ms stall at item 10 delays every later item that was
        # already due: their latency counts the wait, not just the service.
        rate = 1000.0
        run = run_open_loop(
            _FakeSession(stall_at=10, stall=0.1), list(range(40)), rate=rate, timeout=10
        )
        assert run.error is None
        lat = run.latencies_ms
        assert lat[10] >= 90
        assert lat[20] >= 90 - 10 * 1e3 / rate  # due 10 ms later, still waited
        assert max(run.lag_ms[11:20]) >= 80  # the generator ran late

    def test_submit_error_is_reported(self):
        def boom(_):
            raise RuntimeError("refused")

        run = run_open_loop(_FakeSession(), [1, 2, 3], rate=1000.0, submit=boom, timeout=1)
        assert isinstance(run.error, RuntimeError)


# ------------------------------------------------------------- output checks
class TestReferenceChecker:
    def test_equal_outputs(self):
        assert checks.count_mismatches([2, 4, {"a": 1.0}], [2, 4, {"a": 1.0}]) == 0

    def test_wrong_missing_and_extra_items_count(self):
        assert checks.count_mismatches([2, 5, 6], [2, 4, 6]) == 1
        assert checks.count_mismatches([2, 4], [2, 4, 6]) == 1
        assert checks.count_mismatches([2, 4, 6, 8], [2, 4, 6]) == 1

    def test_float_tolerance(self):
        assert checks.same({"l2": 1.0 + 1e-12}, {"l2": 1.0})
        assert not checks.same({"l2": 1.0 + 1e-6}, {"l2": 1.0})
        assert not checks.same(1, 1.5)
        assert not checks.same("1", 1)


class TestLeakCounter:
    def test_counts_then_sweeps(self):
        alive = {"tok": ["seg-a", "seg-b"]}
        swept = []

        def sweep(token):
            swept.append(token)
            return alive.pop(token)

        assert checks.count_leaked("tok", lambda t: alive.get(t, []), sweep) == 2
        assert swept == ["tok"]
        assert checks.count_leaked("tok", lambda t: alive.get(t, []), sweep) == 0

    def test_real_segment_leak(self):
        np = pytest.importorskip("numpy")
        import repro.transport as transport

        codec = transport.get("shm")
        frame = codec.encode(np.zeros(1024))
        try:
            assert not frame.inline
            # Never released: the segment survives until counted and swept.
            leaked = checks.count_leaked(
                codec.session, transport.session_segments, transport.sweep_session
            )
            assert leaked == len(frame.segment_refs()) >= 1
            assert transport.session_segments(codec.session) == []
        finally:
            codec.sweep()


# ------------------------------------------------------------------- inputs
class TestInputs:
    def test_same_seed_same_inputs(self):
        import workloads

        a = workloads.WORKLOADS["tiny_threads"].inputs(7).draw(50)
        b = workloads.WORKLOADS["tiny_threads"].inputs(7).draw(50)
        assert a == b
        pools = workloads.bulk_pool(7), workloads.bulk_pool(7)
        assert [x.nbytes for x in pools[0]] == [
            s for s, c in zip(workloads.BULK_SIZES, workloads.BULK_COUNTS) for _ in range(c)
        ]
        assert all((x == y).all() for x, y in zip(*pools))

    def test_reference_cpu_is_accounted(self):
        import workloads

        def busy_reference(items):
            t_end = time.thread_time() + 0.02
            while time.thread_time() < t_end:
                pass
            return items

        inputs = workloads.SeededInputs(1, workloads.tiny_items, busy_reference)
        inputs.draw(3)
        assert inputs.reference_cpu_s >= 0.02


# ------------------------------------------------------------ spans, runner
class TestSpans:
    def test_write(self, tmp_path):
        np = pytest.importorskip("numpy")
        sp = Spans()
        root = sp.add("stream", 0.0, 10.0)
        sp.add("submit", 1.0, 2.0, root)
        sp.close(sp.open("drain", root))
        out = tmp_path / "s.npz"
        sp.write(out)
        data = np.load(out)
        assert list(data["names"]) == ["stream", "submit", "drain"]
        assert list(data["parent"]) == [-1, 0, 0]
        assert data["end"][2] >= data["start"][2] > 0


def test_split_keeps_total():
    import harness

    assert harness.split(10, 3) == [4, 3, 3]
    assert harness.split(2, 2) == [1, 1]
    assert sum(harness.split(1143, 4)) == 1143


def test_first_grow_after_step():
    import harness

    history = [(0.5, (2, 1, 1)), (1.0, (2, 2, 1)), (2.5, (3, 2, 1)), (3.0, (4, 2, 1))]
    grow = lambda step_at: harness.first_grow_after(  # noqa: E731
        history, start=10.0, step_at=step_at, stage=0, initial=(1, 1, 1)
    )
    # Runner attached at t=10.  A grow before the step is not a reaction
    # to it; a grow of another stage does not count either.
    assert grow(10.0) == pytest.approx(0.5)
    assert grow(10.8) == pytest.approx(1.7)
    assert math.isnan(grow(13.5))


def test_stop_children_reaps_every_child(monkeypatch):
    import subprocess

    import run

    # One child that exits on SIGTERM, one that ignores it.
    polite = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    stubborn = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(60)",
        ]
    )
    time.sleep(0.3)  # let the second one install its handler
    assert {polite.pid, stubborn.pid} <= set(run.child_pids())
    monkeypatch.setattr(run, "STOP_GRACE_S", 0.5)
    run.stop_children()
    assert not {polite.pid, stubborn.pid} & set(run.child_pids())
    for proc in (polite, stubborn):
        with pytest.raises(ChildProcessError):
            os.waitpid(proc.pid, 0)  # already reaped
