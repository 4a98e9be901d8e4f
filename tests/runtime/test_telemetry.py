"""Telemetry: span tracing, metrics, exporters, and campaign integration.

The unit tests inject fake clocks / pids so no assertion depends on wall
time; the integration tests at the bottom run real fault-injected
campaigns and read the resulting metrics the way a user of
``--metrics-out`` would.
"""

import json

import pytest

from repro.backends import TreadleBackend
from repro.backends.api import input_widths
from repro.coverage import instrument
from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.runtime import (
    BreakerBoard,
    Executor,
    FaultPlan,
    FaultyBackend,
    RunJob,
    poked_blocks,
)
from repro.runtime.telemetry import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_SPAN,
    StepMeter,
    Telemetry,
    Tracer,
    escape_help,
    escape_label_value,
    format_snapshot,
    obs,
    parse_prometheus,
)


def make_clock(*times):
    """A deterministic clock yielding ``times`` then failing loudly."""
    it = iter(times)
    return lambda: next(it)


@pytest.fixture
def telemetry():
    """The global ``obs`` facade, enabled and clean, restored afterwards."""
    obs.reset()
    obs.enable()
    yield obs
    obs.disable()
    obs.reset()


# -- tracer / spans --------------------------------------------------------------


class TestTracer:
    def test_span_timestamps_are_relative_to_epoch(self):
        tracer = Tracer(clock=make_clock(10.0, 11.0, 11.5), pid=1, tid=lambda: 2)
        with tracer.span("work", cat="test"):
            pass
        (event,) = tracer.events()
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1_000_000.0)
        assert event["dur"] == pytest.approx(500_000.0)
        assert event["pid"] == 1 and event["tid"] == 2

    def test_nested_spans_are_time_contained(self):
        # epoch, outer-enter, inner-enter, inner-exit, outer-exit
        tracer = Tracer(clock=make_clock(0.0, 1.0, 2.0, 3.0, 4.0),
                        pid=1, tid=lambda: 2)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events()  # inner closes (records) first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_export_is_deterministic(self):
        tracer = Tracer(clock=make_clock(0.0, 1.0, 2.0), pid=7, tid=lambda: 7)
        with tracer.span("s", cat="c", design="gcd"):
            pass
        first = json.dumps(tracer.to_chrome_trace(), sort_keys=True)
        second = json.dumps(tracer.to_chrome_trace(), sort_keys=True)
        assert first == second
        trace = json.loads(first)
        assert trace["displayTimeUnit"] == "ms"
        assert trace["traceEvents"][0]["args"] == {"design": "gcd"}

    def test_span_records_error_class_on_exception(self):
        tracer = Tracer(clock=make_clock(0.0, 1.0, 2.0), pid=1, tid=lambda: 1)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (event,) = tracer.events()
        assert event["args"]["error"] == "ValueError"

    def test_set_attaches_args_before_close(self):
        tracer = Tracer(clock=make_clock(0.0, 1.0, 2.0), pid=1, tid=lambda: 1)
        with tracer.span("attempt") as span:
            span.set(result="ok", cycles=60)
        (event,) = tracer.events()
        assert event["args"] == {"result": "ok", "cycles": 60}

    def test_clear_preserves_epoch(self):
        tracer = Tracer(clock=make_clock(5.0, 6.0, 7.0, 8.0, 9.0),
                        pid=1, tid=lambda: 1)
        with tracer.span("before"):
            pass
        tracer.clear()
        with tracer.span("after"):
            pass
        (event,) = tracer.events()
        assert event["ts"] == pytest.approx(3_000_000.0)  # 8.0 − epoch 5.0

    def test_write_produces_valid_json(self, tmp_path):
        tracer = Tracer(clock=make_clock(0.0, 1.0, 2.0), pid=1, tid=lambda: 1)
        with tracer.span("s"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(path)
        trace = json.loads(path.read_text())
        assert len(trace["traceEvents"]) == 1


class TestDisabledFacade:
    def test_disabled_span_is_the_shared_null_span(self):
        t = Telemetry()
        assert t.span("anything") is NULL_SPAN
        with t.span("anything") as span:
            span.set(ignored=True)  # must not raise
        assert t.tracer.events() == []

    def test_disabled_metric_calls_record_nothing(self):
        t = Telemetry()
        t.inc("repro_retries_total", backend="treadle")
        t.observe("repro_attempt_duration_seconds", 0.5, backend="treadle")
        t.set_gauge("repro_backend_cycles_per_second", 1.0, backend="treadle")
        assert t.metrics.names() == []

    def test_enable_disable_round_trip(self):
        t = Telemetry()
        assert t.enable().enabled and not t.disable().enabled


class TestChildSpanMerge:
    def _child_event(self, name, ts):
        return {"name": name, "cat": "worker", "ph": "X",
                "ts": ts, "dur": 10.0, "pid": 999, "tid": 999}

    def test_events_are_reparented_under_this_process(self):
        t = Telemetry(enabled=True)
        t.tracer._pid = 42  # deterministic parent pid
        t.ingest_child_spans([self._child_event("compile", 1.0)], child_pid=7)
        spans = [e for e in t.tracer.events() if e["ph"] == "X"]
        assert spans == [dict(self._child_event("compile", 1.0), pid=42, tid=7)]

    def test_thread_name_metadata_emitted_once_per_worker(self):
        t = Telemetry(enabled=True)
        t.tracer._pid = 42
        t.ingest_child_spans([self._child_event("a", 1.0)], child_pid=7)
        t.ingest_child_spans([self._child_event("b", 2.0)], child_pid=7)
        t.ingest_child_spans([self._child_event("c", 3.0)], child_pid=8)
        meta = [e for e in t.tracer.events() if e["ph"] == "M"]
        assert [(m["tid"], m["args"]["name"]) for m in meta] == [
            (7, "worker-7"), (8, "worker-8"),
        ]

    def test_reset_forgets_named_workers(self):
        t = Telemetry(enabled=True)
        t.ingest_child_spans([self._child_event("a", 1.0)], child_pid=7)
        t.reset()
        t.ingest_child_spans([self._child_event("a", 1.0)], child_pid=7)
        meta = [e for e in t.tracer.events() if e["ph"] == "M"]
        assert len(meta) == 1


# -- metrics ---------------------------------------------------------------------


class TestCounterAndGauge:
    def test_counter_sums_and_rejects_negative(self):
        c = Counter("hits", labels=("backend",))
        c.inc(backend="treadle")
        c.inc(2, backend="treadle")
        assert c.value(backend="treadle") == 3
        with pytest.raises(MetricError):
            c.inc(-1, backend="treadle")

    def test_label_order_does_not_split_samples(self):
        c = Counter("hits", labels=("a", "b"))
        c.inc(a=1, b=2)
        c.inc(b=2, a=1)
        assert c.value(a=1, b=2) == 2
        assert len(c.samples()) == 1

    def test_wrong_label_set_is_rejected(self):
        c = Counter("hits", labels=("backend",))
        with pytest.raises(MetricError):
            c.inc(banana=1)

    def test_gauge_overwrites(self):
        g = Gauge("speed")
        g.set(10.0)
        g.set(3.5)
        assert g.value() == 3.5


class TestHistogramBuckets:
    def test_boundary_values_are_le_inclusive(self):
        h = Histogram("t", buckets=(1.0, 2.0, 5.0))
        for value in (1.0, 2.0, 7.0):
            h.observe(value)
        # 1.0 lands in every bucket; 2.0 skips le=1; 7.0 only in +Inf
        assert h.bucket_counts() == {1.0: 1, 2.0: 2, 5.0: 2}
        assert h.count() == 3

    def test_below_first_bucket_counts_everywhere(self):
        h = Histogram("t", buckets=(1.0, 2.0))
        h.observe(0.0)
        assert h.bucket_counts() == {1.0: 1, 2.0: 1}

    def test_unsorted_buckets_are_rejected(self):
        with pytest.raises(MetricError):
            Histogram("t", buckets=(2.0, 1.0))
        with pytest.raises(MetricError):
            Histogram("t", buckets=())

    def test_prometheus_exposition_has_cumulative_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", help="latency", buckets=(1.0, 2.0))
        h.observe(1.0)
        h.observe(7.0)
        text = registry.to_prometheus()
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 1' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert 'lat_sum 8' in text
        assert 'lat_count 2' in text


class TestPrometheusEscaping:
    def test_label_value_escaping(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_help_escaping_leaves_quotes_alone(self):
        assert escape_help('say "hi"\\\n') == 'say "hi"\\\\\\n'

    def test_hostile_label_round_trips_through_parser(self):
        registry = MetricsRegistry()
        counter = registry.counter("evil", help="tricky\nhelp", labels=("p",))
        hostile = 'a\\b"c\nd,e="f"'
        counter.inc(3, p=hostile)
        parsed = parse_prometheus(registry.to_prometheus())["metrics"]
        (sample,) = parsed["evil"]["samples"]
        assert sample["labels"]["p"] == hostile
        assert sample["value"] == 3
        assert parsed["evil"]["help"] == "tricky\nhelp"


class TestRegistry:
    def test_create_is_idempotent_but_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_snapshot_shape_and_determinism(self):
        registry = MetricsRegistry()
        registry.counter("b", labels=("k",)).inc(k="v")
        registry.histogram("a", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["format"] == "repro-metrics" and snap["version"] == 1
        assert list(snap["metrics"]) == ["a", "b"]
        assert snap == registry.snapshot()
        # the human renderer accepts both the snapshot and parsed-prom forms
        assert "b (counter)" in format_snapshot(snap)
        assert "a (histogram)" in format_snapshot(snap)

    def test_write_json_matches_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        path = tmp_path / "m.json"
        registry.write_json(path)
        assert json.loads(path.read_text()) == registry.snapshot()


class TestDeclaredMetrics:
    def test_every_declaration_is_well_formed(self):
        for name, (kind, labels, help_text) in METRICS.items():
            assert name.startswith("repro_")
            assert kind in ("counter", "gauge", "histogram")
            assert isinstance(labels, tuple)
            assert help_text  # DESIGN.md §9 renders these

    def test_undeclared_name_is_rejected(self, telemetry):
        with pytest.raises(MetricError, match="undeclared"):
            telemetry.inc("repro_made_up_total")

    def test_kind_mismatch_is_rejected(self, telemetry):
        with pytest.raises(MetricError, match="not a gauge"):
            telemetry.set_gauge("repro_retries_total", 1.0, backend="x")

    def test_declared_counter_reaches_the_registry(self, telemetry):
        telemetry.inc("repro_retries_total", backend="treadle")
        counter = telemetry.metrics.get("repro_retries_total")
        assert counter.value(backend="treadle") == 1
        assert counter.help == METRICS["repro_retries_total"][2]


class TestStepMeter:
    def test_batches_until_flush_threshold(self, telemetry):
        meter = StepMeter("treadle", flush_cycles=100)
        meter.add(40, 0.1)
        meter.add(40, 0.1)
        assert telemetry.metrics.get("repro_backend_cycles_total") is None
        meter.add(40, 0.2)  # 120 >= 100: flush
        counter = telemetry.metrics.get("repro_backend_cycles_total")
        assert counter.value(backend="treadle") == 120
        gauge = telemetry.metrics.get("repro_backend_cycles_per_second")
        assert gauge.value(backend="treadle") == pytest.approx(300.0)

    def test_explicit_flush_drains_the_remainder(self, telemetry):
        meter = StepMeter("essent", flush_cycles=1000)
        meter.add(10, 0.5)
        meter.flush()
        counter = telemetry.metrics.get("repro_backend_cycles_total")
        assert counter.value(backend="essent") == 10
        meter.flush()  # empty flush is a no-op
        assert counter.value(backend="essent") == 10


# -- campaign integration --------------------------------------------------------


@pytest.fixture(scope="module")
def gcd_state():
    state, _ = instrument(elaborate(Gcd(width=8)), metrics=["line"])
    return state


def gcd_stimulus(sim, cycle):
    sim.poke("req_valid", 1)
    sim.poke("req_bits", ((cycle % 13 + 1) << 8) | (cycle % 7 + 1))
    sim.poke("resp_ready", 1)


def gcd_blocks(state):
    """``gcd_stimulus`` as the block source a ``RunJob`` drives."""
    return poked_blocks(gcd_stimulus, input_widths(state.circuit))


def make_job(backend, gcd_state, job_id="job", cycles=60):
    return RunJob(
        job_id=job_id,
        backend_name=getattr(backend, "name", "backend"),
        make_sim=lambda: backend.compile_state(gcd_state),
        cycles=cycles,
        stimulus=gcd_blocks(gcd_state),
    )


@pytest.mark.faults
class TestCampaignMetrics:
    def test_faulty_campaign_records_retries_and_breaker_trips(
        self, gcd_state, telemetry, tmp_path, isolation
    ):
        """The ISSUE's acceptance check, in-process: a fault-injected
        campaign's ``--metrics-out`` file shows >=1 retry and >=1 breaker
        transition."""
        backend = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=3, seed=4))
        executor = Executor(
            retries=1,
            sleep=lambda s: None,
            isolation=isolation,
            breaker=BreakerBoard(failure_threshold=2),
        )
        jobs = [make_job(backend, gcd_state, job_id=f"j{i}") for i in range(4)]
        result = executor.run_campaign(jobs)
        assert any(o.status == "skipped" for o in result.outcomes)

        metrics_path = tmp_path / "metrics.prom"
        telemetry.metrics.write_prometheus(metrics_path)
        parsed = parse_prometheus(metrics_path.read_text())["metrics"]

        def total(name):
            return sum(s["value"] for s in parsed.get(name, {}).get("samples", []))

        assert total("repro_retries_total") >= 1
        assert total("repro_breaker_transitions_total") >= 1
        assert total("repro_breaker_skips_total") >= 1
        assert total("repro_attempts_total") >= 2
        assert total("repro_job_outcomes_total") == len(jobs)

    def test_healthy_job_traces_attempt_inside_job(self, gcd_state, telemetry):
        outcome = Executor().run_job(make_job(TreadleBackend(), gcd_state))
        assert outcome.status == "ok"
        events = {e["name"]: e for e in telemetry.tracer.events()}
        job, attempt = events["job"], events["attempt"]
        assert job["ts"] <= attempt["ts"]
        assert attempt["ts"] + attempt["dur"] <= job["ts"] + job["dur"] + 1
        assert attempt["args"]["result"] == "ok"

    def test_process_worker_spans_merge_into_parent_trace(
        self, gcd_state, telemetry
    ):
        from repro.runtime import process_isolation_available

        if not process_isolation_available():
            pytest.skip("process isolation requires the fork start method")
        executor = Executor(isolation="process")
        outcome = executor.run_job(make_job(TreadleBackend(), gcd_state))
        assert outcome.status == "ok"
        events = telemetry.tracer.events()
        parent_pid = telemetry.tracer.pid
        worker_spans = [
            e for e in events
            if e["ph"] == "X" and e["pid"] == parent_pid
            and e["tid"] != e["pid"] and e["cat"] == "worker"
        ]
        assert any(e["name"] == "child-attempt" for e in worker_spans)
        assert any(e["name"] == "compile" for e in worker_spans)
        names = [e for e in events if e.get("ph") == "M"]
        assert any(m["args"]["name"].startswith("worker-") for m in names)
        # the child attempt is time-contained in the parent's attempt span
        child = next(e for e in worker_spans if e["name"] == "child-attempt")
        parent = next(
            e for e in events
            if e["name"] == "attempt" and e["tid"] != child["tid"]
        )
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]
