"""One benchmark run: set up, drive the phases, check outputs, collect metrics.

The program is driven only through its public API: ``make_backend`` and
``Backend.open``, ``Session.submit/results/drain/close/snapshots``,
``Backend.replica_counts``, ``RuntimeAdaptiveRunner`` and the
``repro.transport`` codecs.  Every layer is timed from outside, around
those calls.

Every session is freshly set up, so the adaptive workload starts each one
from one replica per stage, and each phase's work is spread over several
sessions run round-robin with the other phases' (``interleave``):

* ``closed`` — one producer submits bounded streams and drains each;
  ``items_per_s`` is items over first submit → ``drain()`` return.
* ``trickle`` / ``loaded`` — open loop at the workload's two fixed rates;
  latency is timed from each item's due time to its in-order delivery.

A traced run (``trace=True``) replaces trickle/loaded latency with
per-layer metrics: a closed phase without spans, the same with spans
around every call, and a traced loaded phase.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro.transport as transport
from repro.backend import RuntimeAdaptiveRunner, local_config, make_backend
from repro.util.batching import normalize_batching

import checks
import stats
import workloads
from openloop import run_open_loop
from spans import Spans

OUT_DIR = Path(__file__).resolve().parent / "_out"

#: Share of ``--seconds`` each phase gets.  Open-loop phases never run
#: fewer items than a reportable p99 needs, so at low rates they may run
#: longer than their share.  The loaded phase gets the most: its p99 rides
#: on host stalls of a few ms, and on tiny_threads it spread most.
CLOSED_SHARE = 0.3
TRICKLE_SHARE = 0.15
LOADED_SHARE = 0.55
#: Leading share of every open-loop phase left out of its latency figures:
#: a fresh session is still sizing its admission window and batches there.
WARMUP_SHARE = 1 / 8
#: A phase spreads its work over up to this many fresh sessions, run
#: round-robin with the other phases' sessions.  A session settles into a
#: fast or a slow scheduling mode for its whole life and the host has slow
#: spells of seconds, so one session per phase made runs disagree by 1.5x.
#: The closed phase's rate is a median over streams, so it gains from
#: sampling many session modes (tiny_threads' items_per_s spread 0.14-0.21
#: over five sessions, 0.08 over 32); an open-loop session must stay long
#: enough for its own p99 (at 32 sessions tiny_threads' loaded p99 spread
#: more than at 16).
CLOSED_ROUNDS = 32
OPEN_ROUNDS = 16
#: Length of the untimed open-loop session at the loaded rate that starts
#: every run, so that no timed session runs in a cold process.
WARMUP_RUN_S = 1.0
#: A run sets up at least this many sessions; ``setup_s`` is the first
#: (cold) set-up plus the median of the others.
MIN_SETUPS = 7
#: Passes of the transport probe over the ``BULK_SIZES`` pool.
TRANSPORT_ROUNDS = 4
MAX_STAGES = 3  # per-stage metrics cover stage0..stage2; absent stages read 0


@dataclass
class Live:
    """One set-up session and what it is built on."""

    backend: Any
    session: Any
    runner: Any = None
    codec: Any = None
    journal: Path | None = None
    attached_at: float = 0.0


@dataclass
class Run:
    workload: workloads.Workload
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    leaked: int = 0
    errors: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: dict = field(default_factory=dict)  # printed, not part of metrics
    spans: Spans | None = None

    def __post_init__(self) -> None:
        self.inputs = self.workload.inputs(self.seed)
        self.pipeline = self.workload.pipeline()
        if self.trace:
            self.spans = Spans()
        self._opened = 0

    # ----------------------------------------------------------- accounting
    def account(self, outputs: list, expected: list, error: BaseException | None = None) -> None:
        self.attempted += len(expected)
        self.failed += checks.count_mismatches(outputs, expected)
        if error is not None:
            self.errors.append(f"{type(error).__name__}: {error}")

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    # ---------------------------------------------------------------- setup
    def open(self) -> Live:
        """Build, open and warm one session; time it into ``setup_s``."""
        wl = self.workload
        kwargs: dict = dict(replicas=list(wl.replicas), **dict(wl.backend_kwargs))
        codec = None
        if wl.backend in ("processes", "distributed"):
            # Our own "auto" codec instance: the backend calibrates its
            # threshold in place and names segments by its session token.
            codec = transport.get("auto")
            kwargs["transport"] = codec
        journal = None
        if wl.journal:
            journal = OUT_DIR / f"{wl.name}-seed{self.seed}-{self._opened}.jsonl"
            remove_journal(journal)
        self._opened += 1
        items, expected = self.inputs.draw(1)
        t0 = time.perf_counter()
        backend = make_backend(wl.backend, self.pipeline, **kwargs)
        live = Live(backend=backend, session=None, codec=codec, journal=journal)
        try:
            live.session = backend.open(
                max_inflight="auto",
                batching="auto",
                telemetry=str(journal) if journal else None,
            )
            if wl.adaptive:
                live.runner = RuntimeAdaptiveRunner(self.pipeline, backend, config=local_config())
                live.runner.attach(live.session)
                live.attached_at = time.perf_counter()
            live.session.submit(items[0])
            first = next(iter(live.session.results()))
            t1 = time.perf_counter()
            rest = live.session.drain()
        except BaseException:
            self.close(live)
            raise
        self.setup_s.append(t1 - t0)
        if self.spans is not None:
            self.spans.add("setup", t0, t1)
        self.account([first, *rest], expected)
        return live

    def close(self, live: Live) -> None:
        if live.runner is not None:
            live.runner.detach()
        if live.session is not None:
            live.session.close()
        live.backend.close()
        if live.codec is not None:
            leaked = checks.count_leaked(
                live.codec.session, transport.session_segments, transport.sweep_session
            )
            self.leaked += leaked
            self.failed += leaked

    # --------------------------------------------------------------- phases
    def closed_session(self, streams: int, traced: bool, res: dict, last: bool) -> None:
        """Bounded streams on one fresh session, each submitted then drained."""
        live = self.open()
        try:
            res["step_at"] = math.nan  # react_s reads the last session's step
            for _ in range(streams):
                self._stream(live, traced, res)
            res["window_items"] = live.session.max_inflight or 0
            if traced and last:
                self._read_layers(live, res)
        finally:
            self._finish(live, journal_metrics=traced and last)

    def _stream(self, live: Live, traced: bool, res: dict) -> None:
        """One closed-loop stream; the midpoint submit is adapt_step's step."""
        session = live.session
        items, expected = self.inputs.draw(self.workload.closed_items)
        mid = len(items) // 2
        sp = self.spans if traced else None
        if sp is None:
            submit = session.submit
            t0 = time.perf_counter()
            for x in items[:mid]:
                submit(x)
            t_mid = time.perf_counter()
            for x in items[mid:]:
                submit(x)
            td = time.perf_counter()
            out = session.drain()
            t1 = time.perf_counter()
        else:
            submit_us = res["submit_us"]
            stream = sp.open("closed.stream")
            t0 = t_mid = time.perf_counter()
            for k, x in enumerate(items):
                a = time.perf_counter()
                session.submit(x)
                b = time.perf_counter()
                sp.add("session.submit", a, b, stream)
                submit_us.append((b - a) * 1e6)
                if k == mid:
                    t_mid = a
            td = time.perf_counter()
            out = session.drain()
            t1 = time.perf_counter()
            sp.add("session.drain", td, t1, stream)
            sp.close(stream)
        if math.isnan(res["step_at"]):
            res.update(step_at=t_mid, step_end=t1)
        res["wall_s"] += t1 - t0
        res["rates"].append(len(items) / (t1 - t0))
        res["drain_tails"].append(t1 - td)
        self.account(out, expected)

    def open_session(self, rate: float, n: int, traced: bool, res: dict) -> None:
        """``n`` items at a fixed rate on one fresh session (open loop)."""
        items, expected = self.inputs.draw(n)
        live = self.open()
        try:
            session = live.session
            submit = None
            sp = self.spans if traced else None
            phase = sp.open("open.session") if sp is not None else -1
            if sp is not None:

                def submit(x: Any) -> None:
                    a = time.perf_counter()
                    session.submit(x)
                    sp.add("session.submit", a, time.perf_counter(), phase)

            run = run_open_loop(session, items, rate, submit=submit)
            outputs = list(run.outputs)
            error = run.error
            if error is None:
                try:
                    outputs += session.drain()
                except Exception as err:  # noqa: BLE001 - counted as failed items
                    error = err
            if sp is not None:
                sp.close(phase)
            self.account(outputs, expected, error)
        finally:
            self._finish(live)
        series = stats.backlog_series(run.due, run.done)
        res["groups"].append(run.latencies_ms[int(n * WARMUP_SHARE):])
        res["lag_ms"] += run.lag_ms
        res["backlog_growth"] = max(res["backlog_growth"], stats.backlog_growth(series))
        res["backlog_grows"] = res["backlog_grows"] or stats.backlog_grows(series, rate)

    def guarded(self, fn) -> None:
        """Run one session's work; a failure is counted and reported, not raised."""
        try:
            fn()
        except Exception as err:  # noqa: BLE001 - reported as a failed run
            name = getattr(fn, "func", fn).__name__
            self.errors.append(f"{name}: {type(err).__name__}: {err}")
            self.failed += 1
            self.attempted += 1

    def setup_only(self) -> None:
        self._finish(self.open())

    def closed_phase(self, seconds: float, traced: bool) -> tuple[list, dict]:
        """Sessions of a closed phase (a fixed stream count, spread out)."""
        res = {"rates": [], "drain_tails": [], "submit_us": [], "wall_s": 0.0}
        total = self.workload.closed_streams(seconds)
        plan = split(total, min(CLOSED_ROUNDS, total))
        last = len(plan) - 1
        return [
            functools.partial(self.closed_session, m, traced, res, k == last)
            for k, m in enumerate(plan)
        ], res

    def open_phase(self, rate: float, seconds: float, traced: bool) -> tuple[list, dict]:
        """Sessions of an open-loop phase: at least enough items for a p99
        after warm-up, split only as far as every session still times that
        many (a short session at a low rate is mostly its own warm-up)."""
        res = open_results()
        per = math.ceil(stats.min_samples(99) / (1 - WARMUP_SHARE))
        n = max(math.ceil(rate * seconds), per)
        plan = split(n, max(1, min(OPEN_ROUNDS, n // per)))
        return [functools.partial(self.open_session, rate, m, traced, res) for m in plan], res

    def warm_up(self) -> None:
        """One open-loop session at the loaded rate whose latencies are
        dropped; its outputs are still checked."""
        rate = self.workload.loaded_rate
        self.guarded(
            functools.partial(
                self.open_session, rate, math.ceil(rate * WARMUP_RUN_S), False, open_results()
            )
        )

    def interleave(self, *phases: list) -> None:
        """Run the phases' sessions round-robin: a slow spell of the host
        then lands on every phase a little instead of on one phase whole."""
        for k in range(max(map(len, phases))):
            for sessions in phases:
                if k < len(sessions):
                    self.guarded(sessions[k])

    # ------------------------------------------------------------ run modes
    def run(self) -> None:
        start = rusage()
        reference_cpu_s = self.inputs.reference_cpu_s
        if self.trace:
            self._traced()
        else:
            self._untraced()
        for _ in range(MIN_SETUPS - len(self.setup_s)):
            self.guarded(self.setup_only)
        end = rusage()
        # The serial reference runs inside the window; its CPU is not the program's.
        cpu_s = end[0] - start[0] - (self.inputs.reference_cpu_s - reference_cpu_s)
        items = self.attempted
        # Only the first set-up in a process pays the calibration probes
        # (their results are cached per process), so it is counted whole.
        cold = self.setup_s[0] if self.setup_s else math.nan
        warm = median_or_nan(self.setup_s[1:])
        setup_s = cold + warm
        if self.trace:
            # The benchmark's own codec probe and span dump run outside the
            # CPU window.
            self._transport_layer()
            self.put("transport.shm_leaked", self.leaked, "count")
            self.spans.write(OUT_DIR / f"{self.workload.name}-seed{self.seed}.spans.npz")
        ok = 1.0 - self.failed / self.attempted if self.attempted else 0.0
        self.notes.update(
            cpu_s=cpu_s,
            setups=len(self.setup_s),
            setup_cold_s=cold,
            setup_warm_median_s=warm,
            error_rate=1.0 - ok,
            serial_items_per_s=self.inputs.serial_rate,
        )
        if self.trace:
            self.notes.update(rss_peak_mb=end[1], setup_s=setup_s)
            self.put("proc.cpu_ms_per_kitem", cpu_s * 1e6 / max(items, 1), "ms")
        else:
            self.put("rss_peak_mb", end[1], "MB")
            self.put("setup_s", setup_s, "s")
            self.put("ok_share", ok, "ratio")

    def _untraced(self) -> None:
        wl, r = self.workload, self.seconds
        closed, closed_res = self.closed_phase(CLOSED_SHARE * r, False)
        trickle, trickle_res = self.open_phase(wl.trickle_rate, TRICKLE_SHARE * r, False)
        loaded, loaded_res = self.open_phase(wl.loaded_rate, LOADED_SHARE * r, False)
        self.warm_up()
        self.interleave(closed, trickle, loaded)
        self.put("items_per_s", median_or_nan(closed_res["rates"]), "1/s")
        self.notes.update((name, value) for name, (value, _) in self.knobs(closed_res).items())
        for name, rate, res in (
            ("trickle", wl.trickle_rate, trickle_res),
            ("loaded", wl.loaded_rate, loaded_res),
        ):
            self.put(f"{name}_p50_ms", stats.group_percentile(res["groups"], 50), "ms")
            self.put(f"{name}_p99_ms", stats.group_percentile(res["groups"], 99), "ms")
            self.notes[f"{name}.rate_per_s"] = rate
            self.notes[f"{name}.sessions"] = len(res["groups"])
            self.notes[f"{name}.timed_samples"] = sum(map(len, res["groups"]))
            self.notes[f"{name}.gen_lag_p99_ms"] = stats.percentile(res["lag_ms"], 99)
            self.notes[f"{name}.backlog_growth"] = res["backlog_growth"]
            self.notes[f"{name}.valid"] = not res["backlog_grows"]

    def _traced(self) -> None:
        wl, r = self.workload, self.seconds
        # Layers this workload bypasses read 0.
        self.put("obs.journal_bytes_per_item", 0.0, "B")
        self.put("obs.journal_records_per_item", 0.0, "count")
        # The same closed phase without and with spans on every call,
        # interleaved so the host treats both alike.
        plain, plain_res = self.closed_phase(CLOSED_SHARE * r, False)
        traced, traced_res = self.closed_phase(CLOSED_SHARE * r, True)
        loaded, loaded_res = self.open_phase(wl.loaded_rate, LOADED_SHARE * r, True)
        self.warm_up()
        self.interleave(plain, traced, loaded)
        for name, (value, unit) in self.knobs(traced_res).items():
            self.put(name, value, unit)
        base = median_or_nan(plain_res["rates"])
        with_spans = median_or_nan(traced_res["rates"])
        self.put("trace.untraced_items_per_s", base, "1/s")
        self.put("trace.traced_items_per_s", with_spans, "1/s")
        self.put("trace.overhead_pct", (1 - with_spans / base) * 100, "%")
        self.put("gen.lag_ms.p99", stats.percentile(loaded_res["lag_ms"], 99), "ms")
        self.put("loaded.backlog_growth", loaded_res["backlog_growth"], "count")
        self.put("loaded.valid", 0 if loaded_res["backlog_grows"] else 1, "bool")
        self.put("host.serial_items_per_s", self.inputs.serial_rate, "1/s")
        self.put("host.nproc", os.cpu_count() or 0, "count")

    def _finish(self, live: Live, journal_metrics: bool = False) -> None:
        try:
            self.close(live)
        except Exception as err:  # noqa: BLE001 - reported as a failed run
            self.errors.append(f"close: {type(err).__name__}: {err}")
            self.failed += 1
        if live.journal is not None:
            if journal_metrics:
                nbytes, records = journal_size(live.journal)
                items = max(self.notes.get("traced_session_items", 1), 1)
                self.put("obs.journal_bytes_per_item", nbytes / items, "B")
                self.put("obs.journal_records_per_item", records / items, "count")
            remove_journal(live.journal)

    # -------------------------------------------------------- layer readout
    def _read_layers(self, live: Live, closed: dict) -> None:
        """Per-layer numbers from the traced closed phase's live session."""
        session, backend = live.session, live.backend
        self.put("session.submit_share", sum(closed["submit_us"]) / 1e6 / closed["wall_s"], "ratio")
        self.put("session.drain_tail_ms", median_or_nan(closed["drain_tails"]) * 1e3, "ms")
        snaps = session.snapshots()
        counts = backend.replica_counts()
        for i in range(MAX_STAGES):
            s = snaps[i] if i < len(snaps) else None
            self.put(f"stage{i}.service_us", s.service_time * 1e6 if s else 0.0, "us")
            self.put(f"stage{i}.queue_len", s.queue_length if s else 0.0, "count")
            self.put(f"stage{i}.transfer_us", s.transfer_time * 1e6 if s else 0.0, "us")
            self.put(f"stage{i}.items", s.items_processed if s else 0, "count")
            self.put(f"stage{i}.replicas", counts[i] if i < len(counts) else 0, "count")
        self.notes["traced_session_items"] = session.stats().items_total
        self.put("session.submit_us.p50", stats.percentile(closed["submit_us"], 50), "us")
        self.put("session.submit_us.p99", stats.percentile(closed["submit_us"], 99), "us")
        runner = live.runner
        actions = rollbacks = 0
        react = 0.0
        if runner is not None:
            actions = sum(1 for e in runner.events if e.kind != "rollback")
            rollbacks = sum(1 for e in runner.events if e.kind == "rollback")
            react = first_grow_after(
                runner.replica_history,
                start=live.attached_at,
                step_at=closed["step_at"],
                stage=0,
                initial=self.workload.replicas,
            )
            if math.isnan(react):
                # No grow before the stream ended: report the censored
                # lower bound (the whole post-step span) and say so.
                react = closed["step_end"] - closed["step_at"]
                self.notes["runner.react_censored"] = True
        self.put("runner.actions", actions, "count")
        self.put("runner.rollbacks", rollbacks, "count")
        self.put("runner.react_s", react, "s")

    def knobs(self, closed: dict) -> dict:
        """The auto-resolved settings (name -> (value, unit)); recorded with
        every run, so a calibration drift shows as the cause of a shift
        instead of passing for a code change."""
        work_hint = sum(s.work.mean for s in self.pipeline.stages if s.work_declared)
        return {
            "batching.max_items": (
                normalize_batching("auto", work_hint_s=work_hint).max_items, "count"
            ),
            "session.window_items": (closed.get("window_items", math.nan), "count"),
            "transport.auto_threshold_bytes": (auto_threshold(), "B"),
        }

    def _transport_layer(self) -> None:
        """The auto codec on the seeded ``BULK_SIZES`` mix, whatever the
        workload (it is ``bulk_grid``'s own pool), per size class.  Every
        decoded frame is checked against its input, and segments the codec
        left behind count as leaked and failed."""
        codec = transport.get("auto", threshold=auto_threshold())
        pool = workloads.bulk_pool(self.seed)
        order = list(range(len(pool))) * TRANSPORT_ROUNDS
        random.Random(self.seed).shuffle(order)
        classes: dict[int, list] = {}  # nbytes -> [enc s, dec s, MB, inline, frames]
        try:
            for i in order:
                x = pool[i]
                t0 = time.perf_counter()
                frame = codec.encode(x)
                t1 = time.perf_counter()
                y = codec.decode(frame)
                t2 = time.perf_counter()
                self.attempted += 1
                self.failed += not np.array_equal(y, x)
                codec.release(frame)
                acc = classes.setdefault(x.nbytes, [0.0, 0.0, 0.0, 0, 0])
                acc[0] += t1 - t0
                acc[1] += t2 - t1
                acc[2] += x.nbytes / 1e6
                acc[3] += frame.inline
                acc[4] += 1
        finally:
            leaked = checks.count_leaked(
                codec.session, transport.session_segments, transport.sweep_session
            )
            self.leaked += leaked
            self.failed += leaked
        for size, (enc, dec, mb, inline, frames) in sorted(classes.items()):
            self.notes[f"transport.{size}B.encode_us_per_mb"] = enc * 1e6 / mb
            self.notes[f"transport.{size}B.decode_us_per_mb"] = dec * 1e6 / mb
            self.notes[f"transport.{size}B.inline_share"] = inline / frames
        enc, dec, mb, inline, frames = (sum(col) for col in zip(*classes.values()))
        self.put("transport.encode_us_per_mb", enc * 1e6 / mb, "us/MB")
        self.put("transport.decode_us_per_mb", dec * 1e6 / mb, "us/MB")
        self.put("transport.inline_share", inline / frames, "ratio")


def open_results() -> dict:
    """What the sessions of one open-loop phase add their figures to."""
    return {"groups": [], "lag_ms": [], "backlog_growth": -math.inf, "backlog_grows": False}


def split(total: int, parts: int) -> list[int]:
    """``total`` in ``parts`` near-equal whole shares, larger ones first."""
    return [total // parts + (k < total % parts) for k in range(parts)]


def auto_threshold() -> int:
    """The ``auto`` codec's calibrated placement threshold on this host."""
    return transport.calibrated_auto_threshold() or transport.AUTO_THRESHOLD


def median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def first_grow_after(
    history, *, start: float, step_at: float, stage: int, initial: tuple[int, ...]
) -> float:
    """Seconds from ``step_at`` to the first replica increase of ``stage``.

    ``history`` is the runner's ``replica_history``: (seconds since
    ``start``, replica counts) after each action, from ``initial`` counts.
    NaN when no increase follows the step.
    """
    prev = initial
    for t, counts in history:
        at = start + t
        if at >= step_at and counts[stage] > prev[stage]:
            return at - step_at
        prev = counts
    return math.nan


def rusage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MB) of this process plus its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0


def journal_files(path: Path) -> list[Path]:
    return [p for p in path.parent.glob(path.name + "*") if p.is_file()]


def journal_size(path: Path) -> tuple[int, int]:
    """(bytes, records) over a journal and its rotated siblings."""
    nbytes = records = 0
    for p in journal_files(path):
        data = p.read_bytes()
        nbytes += len(data)
        records += data.count(b"\n")
    return nbytes, records


def remove_journal(path: Path) -> None:
    for p in journal_files(path):
        p.unlink()


def fingerprint(root: Path) -> dict:
    """Host and code identity recorded with every run."""
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "argv": sys.argv[1:],
    }


def git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git`` directly; "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
