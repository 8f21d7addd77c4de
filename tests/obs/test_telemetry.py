"""End-to-end telemetry: open_pipeline(..., telemetry=...) across executors."""

import pytest

from repro.backend import SimBackend
from repro.core import AdaptationConfig
from repro.gridsim import uniform_grid
from repro.model import Mapping
from repro.obs import Telemetry, as_telemetry, read_journal, spans_from_journal
from repro.obs.exporters import render_prometheus
from repro.skel.api import open_pipeline
from repro.workloads import balanced_pipeline


def _run(session, n=6):
    for i in range(n):
        session.submit(i)
    out = session.drain()
    session.close()
    return out


class TestAsTelemetry:
    def test_path_is_journal_shorthand(self, tmp_path):
        t = as_telemetry(tmp_path / "j.jsonl")
        assert t.journal is not None
        assert t.recorder is None  # metrics stay off unless asked for
        t.close()

    def test_passthrough_and_rejection(self):
        t = Telemetry()
        assert as_telemetry(t) is t
        with pytest.raises(TypeError):
            as_telemetry(42)


class TestJournalEndToEnd:
    @pytest.mark.parametrize("backend", ["threads", "asyncio", "sim"])
    def test_lifecycle_events_journalled(self, tmp_path, backend):
        path = tmp_path / "j.jsonl"
        session = open_pipeline(
            [lambda x: x + 1, lambda x: x * 2], backend=backend, telemetry=path
        )
        assert _run(session) == [2, 4, 6, 8, 10, 12]
        kinds = {r["kind"] for r in read_journal(path)}
        assert {
            "session.open", "stream.begin", "item.submit",
            "item.complete", "stream.drain", "session.close",
        } <= kinds

    def test_processes_journal_includes_frames(self, tmp_path):
        path = tmp_path / "j.jsonl"
        session = open_pipeline(
            [lambda x: x + 1], backend="processes", telemetry=path
        )
        assert _run(session, 4) == [1, 2, 3, 4]
        recs = list(read_journal(path))
        kinds = {r["kind"] for r in recs}
        assert {"frame.encode", "frame.release", "stage.service"} <= kinds
        encoded = [r for r in recs if r["kind"] == "frame.encode"]
        assert all(r["nbytes"] > 0 for r in encoded)

    def test_journal_order_open_first_close_last(self, tmp_path):
        path = tmp_path / "j.jsonl"
        session = open_pipeline([lambda x: x], telemetry=path)
        _run(session, 2)
        kinds = [r["kind"] for r in read_journal(path)]
        assert kinds[0] == "session.open"
        assert "session.close" in kinds


class TestMetricsAndPrometheus:
    def test_full_bundle(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        t = Telemetry(journal=tmp_path / "j.jsonl", prometheus=prom, spans=True)
        session = open_pipeline([lambda x: x + 1, lambda x: x * 2], telemetry=t)
        _run(session)
        # close() wrote the snapshot
        text = prom.read_text()
        assert "# TYPE repro_items_completed_total counter" in text
        assert "repro_items_completed_total 6" in text
        assert 'repro_stage_items_total{stage="0"} 6' in text
        assert "repro_stage_service_seconds_bucket" in text
        reg = t.registry
        assert reg.counter("streams_opened_total").value == 1

    def test_item_counters_count_items_when_batched(self):
        t = Telemetry(metrics=True)
        session = open_pipeline(
            [lambda x: x + 1, lambda x: x * 2], telemetry=t, batching="auto"
        )
        assert _run(session, 2000) == [(x + 1) * 2 for x in range(2000)]
        reg = t.registry
        assert reg.counter("items_completed_total").value == 2000
        for stage in ("0", "1"):
            assert reg.counter("stage_items_total", {"stage": stage}).value == 2000
        workers = [
            inst.value
            for name, _labels, inst in reg.collect()
            if name == "worker_items_total"
        ]
        assert sum(workers) == 2 * 2000

    def test_spans_reconstruct_timeline(self, tmp_path):
        t = Telemetry(spans=True)
        session = open_pipeline([lambda x: x + 1], telemetry=t)
        _run(session, 3)
        spans = t.spans.spans()
        assert len(spans) == 3
        assert all(s.complete for s in spans)
        assert all(s.latency is not None and s.latency >= 0 for s in spans)
        assert all(s.service_seconds > 0 for s in spans)

    def test_spans_from_journal_match_live(self, tmp_path):
        path = tmp_path / "j.jsonl"
        session = open_pipeline([lambda x: x + 1], telemetry=path)
        _run(session, 4)
        spans = spans_from_journal(path)
        assert len(spans) == 4
        assert all(s.complete for s in spans)

    def test_render_prometheus_empty_registry(self):
        t = Telemetry(metrics=True)
        assert render_prometheus(t.registry) == ""

    def test_histogram_percentile_gauges_rendered(self):
        t = Telemetry(metrics=True)
        reg = t.registry
        for stage in ("0", "1"):
            h = reg.histogram("stage_service_seconds", {"stage": stage})
            for v in (0.001, 0.002, 0.004, 0.01):
                h.observe(v)
        reg.histogram("empty_hist", {"stage": "9"})  # no data: no percentiles
        text = render_prometheus(t.registry)
        for suffix in ("_p50", "_p95", "_p99"):
            assert f"# TYPE repro_stage_service_seconds{suffix} gauge" in text
            for stage in ("0", "1"):
                assert (
                    f"repro_stage_service_seconds{suffix}{{stage=\"{stage}\"}}"
                    in text
                )
        assert "repro_empty_hist_p50" not in text
        # Exposition format: every family's samples stay contiguous under
        # one TYPE header (no interleaving of percentile families).
        lines = text.splitlines()
        seen_types = [ln.split()[2] for ln in lines if ln.startswith("# TYPE")]
        assert len(seen_types) == len(set(seen_types))

    def test_percentiles_ordered_and_bracket_the_data(self):
        t = Telemetry(metrics=True)
        h = t.registry.histogram("lat", {})
        for v in [0.001] * 90 + [0.1] * 10:
            h.observe(v)
        p50, p95, p99 = (h.quantile(q) for q in (0.5, 0.95, 0.99))
        assert p50 <= p95 <= p99
        assert p50 <= 0.002  # log2 bucket ceiling of the 1ms mass
        assert p99 >= 0.05  # tail lands in the 100ms bucket


class TestSessionErrorJournalled:
    def test_error_event_recorded(self, tmp_path):
        path = tmp_path / "j.jsonl"

        def boom(x):
            raise ValueError("kaboom")

        session = open_pipeline([boom], telemetry=path)
        session.submit(1)
        with pytest.raises(Exception):
            session.drain()
        session.close()
        errors = [r for r in read_journal(path) if r["kind"] == "session.error"]
        assert len(errors) == 1
        assert "kaboom" in errors[0]["error"]


class TestAdaptationJournalled:
    def test_adaptive_threads_session_emits_decisions(self, tmp_path):
        import time

        path = tmp_path / "j.jsonl"
        session = open_pipeline(
            [lambda x: x, lambda x: (time.sleep(0.01), x)[1]],
            backend="threads",
            adaptive=True,
            telemetry=path,
        )
        for i in range(120):
            session.submit(i)
        session.drain()
        session.close()
        kinds = {r["kind"] for r in read_journal(path)}
        # The policy saw a clear bottleneck: decide must appear, and any
        # realized action also journals replica changes.
        assert "adapt.decide" in kinds
        if "adapt.act" in kinds:
            assert "replica.add" in kinds


class TestSimulatorEvents:
    def test_adaptive_sim_session_emits_simulated_times(self):
        grid = uniform_grid(4)
        grid.perturb(1, [(20.0, 0.1)])  # node 1 degrades at t=20 s
        backend = SimBackend(
            balanced_pipeline(3, work=0.1),
            grid=grid,
            adaptive=AdaptationConfig(),
            mapping=Mapping.single([0, 1, 2]),
        )
        seen = []
        backend.open().events.subscribe(
            seen.append, kinds=("item.complete", "adapt.decide")
        )
        res = backend.run(range(600))
        backend.close()
        # The session stamps its own item.complete records (wall clock,
        # with stream=); the simulator's carry only seq and simulated time.
        done = [
            e.time for e in seen
            if e.kind == "item.complete" and "stream" not in e.fields
        ]
        assert len(done) == 600
        assert done == sorted(done)  # simulated seconds, never wall time
        assert done[-1] <= res.elapsed
        assert any(e.kind == "adapt.decide" for e in seen)
