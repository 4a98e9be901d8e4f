"""Coverage service: specs, admission, fairness, drain, crash recovery."""

import importlib
import json
import time
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.backends import (
    BACKENDS,
    ModelCache,
    SwarmBackend,
    TreadleBackend,
    set_default_cache,
)
from repro.coverage import instrument
from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.ir import print_circuit
from repro.runtime.checkpoint import Checkpointer
from repro.runtime.journal import replay
from repro.runtime import service as service_module
from repro.runtime.service import (
    Campaign,
    CampaignSpec,
    CoverageService,
    PreparedCampaign,
    ServiceConfig,
    SpecError,
    execute_spec,
    manifest_key,
)
from repro.runtime.telemetry import obs


@pytest.fixture(scope="module")
def gcd_text():
    state, _db = instrument(elaborate(Gcd(width=8)), metrics=["line"])
    return print_circuit(state.circuit)


def make_spec(gcd_text, **overrides):
    base = dict(tenant="alice", circuit=gcd_text, cycles=400, seed=7,
                checkpoint_every=100)
    base.update(overrides)
    return CampaignSpec.from_json_obj(base)


def offline_service(tmp_path, **overrides):
    """A service with journal + scheduler state but no event loop/HTTP.

    ``submit``/``cancel``/``pick_next`` are loop-thread methods with no
    awaits in them, so scheduler-logic tests can drive them directly.
    """
    defaults = dict(state_dir=tmp_path / "state", max_workers=1)
    defaults.update(overrides)
    service = CoverageService(ServiceConfig(**defaults))
    service._recover()
    return service


@pytest.fixture
def threaded_service(tmp_path):
    services = []

    def start(**overrides):
        defaults = dict(state_dir=tmp_path / "state", max_workers=2)
        defaults.update(overrides)
        service = CoverageService(ServiceConfig(**defaults)).start_in_thread()
        services.append(service)
        return service

    yield start
    for service in services:
        service.shutdown(drain=False)
    obs.disable()
    obs.reset()


def http(service, method, path, body=None):
    code, _headers, payload = http_full(service, method, path, body)
    return code, payload


def http_full(service, method, path, body=None):
    """Like :func:`http` but also returns the response headers (lowercased)."""
    url = f"http://127.0.0.1:{service.port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            headers = {k.lower(): v for k, v in response.headers.items()}
            return response.status, headers, json.loads(response.read())
    except urllib.error.HTTPError as error:
        headers = {k.lower(): v for k, v in error.headers.items()}
        return error.code, headers, json.loads(error.read())


def wait_status(service, campaign_id, statuses, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        code, payload = http(service, "GET", f"/status/{campaign_id}")
        assert code == 200, payload
        if payload["status"] in statuses:
            return payload
        time.sleep(0.01)
    raise AssertionError(
        f"{campaign_id} never reached {statuses}: {payload}"
    )


class TestSpecValidation:
    def test_round_trip(self, gcd_text):
        spec = make_spec(gcd_text, priority=3, deadline_s=10.0)
        again = CampaignSpec.from_json_obj(spec.to_json_obj())
        assert again == spec

    @pytest.mark.parametrize("patch,match", [
        ({"circuit": None}, "required"),
        ({"circuit": "not firrtl"}, "does not parse"),
        ({"backend": "ngspice"}, "unknown backend"),
        ({"cycles": 0}, "cycles must be positive"),
        ({"cycles": "many"}, "expected int"),
        ({"metrics": ["line", "branch"]}, "unknown metrics branch"),
        ({"metrics": "line"}, "list of strings"),
        ({"deadline_s": -1}, "deadline_s must be positive"),
        ({"reset_cycles": -1}, "reset_cycles"),
        ({"checkpoint_every": -5}, "checkpoint_every"),
        ({"counter_width": 0}, "counter_width"),
        ({"random_inputs": "false"}, "expected bool"),
        ({"min_instrument": "false"}, "expected bool"),
    ])
    def test_rejects_bad_fields(self, gcd_text, patch, match):
        obj = dict(tenant="t", circuit=gcd_text)
        obj.update(patch)
        with pytest.raises(SpecError, match=match):
            CampaignSpec.from_json_obj(obj)

    def test_rejects_non_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            CampaignSpec.from_json_obj([1, 2])


class TestAdmission:
    def test_queue_is_bounded(self, tmp_path, gcd_text):
        service = offline_service(tmp_path, max_queue=2)
        assert service.submit(make_spec(gcd_text))[1] is None
        assert service.submit(make_spec(gcd_text, tenant="bob"))[1] is None
        campaign, reason = service.submit(make_spec(gcd_text, tenant="eve"))
        assert campaign is None and reason == "queue-full"
        # The rejected submit left no trace in the journal.
        service.journal.close()
        records = replay(service.config.state_dir / "journal.wal").records
        assert sum(1 for r in records if r["type"] == "submit") == 2

    def test_tenant_quota(self, tmp_path, gcd_text):
        service = offline_service(tmp_path, tenant_quota=1, max_queue=10)
        assert service.submit(make_spec(gcd_text))[1] is None
        campaign, reason = service.submit(make_spec(gcd_text))
        assert campaign is None and reason == "tenant-quota"
        # Other tenants are unaffected by alice's quota.
        assert service.submit(make_spec(gcd_text, tenant="bob"))[1] is None
        service.journal.close()

    def test_draining_refuses_admission(self, tmp_path, gcd_text):
        service = offline_service(tmp_path)
        service._draining = True
        campaign, reason = service.submit(make_spec(gcd_text))
        assert campaign is None and reason == "draining"
        service.journal.close()


class TestScheduling:
    def test_priority_wins(self, tmp_path, gcd_text):
        service = offline_service(tmp_path)
        service.submit(make_spec(gcd_text, priority=0))
        urgent, _ = service.submit(make_spec(gcd_text, priority=5))
        assert service.pick_next() is urgent
        service.journal.close()

    def test_tenant_fairness(self, tmp_path, gcd_text):
        service = offline_service(tmp_path, tenant_quota=16)
        for _ in range(3):
            service.submit(make_spec(gcd_text, tenant="flood"))
        lone, _ = service.submit(make_spec(gcd_text, tenant="lone"))
        # With a flood campaign already running, the lone tenant goes
        # first even though it submitted last.
        running = service.campaigns["c000001"]
        running.status = "running"
        service._queue.remove(running)
        service._running[running.id] = running
        assert service.pick_next() is lone
        service.journal.close()

    def test_breaker_open_defers_instead_of_failing(self, tmp_path, gcd_text):
        service = offline_service(tmp_path, breaker_retry_s=0.0)
        breaker = service.breakers.breaker("treadle")
        breaker._trip()
        campaign, _ = service.submit(make_spec(gcd_text))
        # Open breaker: the campaign is deferred in place, never failed.
        assert service.pick_next() is None
        assert campaign.status == "queued"
        assert "breaker" in campaign.detail
        # The deferral counted toward the breaker's half-open probe
        # budget (probe_after=2): one more refusal, then a probe slot.
        assert service.pick_next() is None
        assert service.pick_next() is campaign
        service.journal.close()


class TestHttpLifecycle:
    def test_submit_run_report(self, threaded_service, gcd_text):
        service = threaded_service()
        spec = make_spec(gcd_text).to_json_obj()
        code, payload = http(service, "POST", "/submit", spec)
        assert code == 202 and payload["id"] == "c000001"
        final = wait_status(service, "c000001", {"done", "failed"})
        assert final["status"] == "done"
        assert final["cycles_run"] == 400
        code, report = http(service, "GET", "/report/c000001")
        assert code == 200
        assert report["counts"] and all(
            isinstance(v, int) for v in report["counts"].values()
        )
        # The run is deterministic: the service's counts equal a direct
        # execute_spec run of the same spec.
        reference = execute_spec(
            CampaignSpec.from_json_obj(spec), "ref",
            Checkpointer(Path(service.config.state_dir) / "ref-shards"),
        )
        assert report["counts"] == reference.counts

    def test_bad_spec_is_400(self, threaded_service):
        service = threaded_service()
        code, payload = http(service, "POST", "/submit",
                             {"tenant": "x", "circuit": "garbage"})
        assert code == 400 and "does not parse" in payload["error"]

    def test_queue_full_is_429_over_http(self, threaded_service, gcd_text):
        service = threaded_service(max_queue=1, max_workers=1)
        service._pause_dispatch = True  # hold the queue still
        spec = make_spec(gcd_text).to_json_obj()
        code, _ = http(service, "POST", "/submit", spec)
        assert code == 202
        code, payload = http(service, "POST", "/submit", spec)
        assert code == 429 and payload["reason"] == "queue-full"

    def test_rejections_carry_retry_after(self, threaded_service, gcd_text):
        service = threaded_service(max_queue=1, max_workers=1,
                                   retry_after_s=3.0)
        service._pause_dispatch = True
        spec = make_spec(gcd_text).to_json_obj()
        code, headers, _ = http_full(service, "POST", "/submit", spec)
        assert code == 202 and "retry-after" not in headers
        # 429 (queue full): header + machine-readable payload hint.
        code, headers, payload = http_full(service, "POST", "/submit", spec)
        assert code == 429
        assert headers["retry-after"] == "3"
        assert payload["retry_after"] == 3.0
        # 503 (draining): same contract.
        service._draining = True
        code, headers, payload = http_full(service, "POST", "/submit", spec)
        assert code == 503
        assert headers["retry-after"] == "3"
        assert payload["retry_after"] == 3.0
        service._draining = False

    def test_report_before_finish_is_409(self, threaded_service, gcd_text):
        service = threaded_service()
        service._pause_dispatch = True
        code, payload = http(service, "POST", "/submit",
                             make_spec(gcd_text).to_json_obj())
        campaign_id = payload["id"]
        code, payload = http(service, "GET", f"/report/{campaign_id}")
        assert code == 409

    def test_unknown_routes_and_ids(self, threaded_service):
        service = threaded_service()
        assert http(service, "GET", "/status/c999999")[0] == 404
        assert http(service, "GET", "/nonsense")[0] == 404
        code, health = http(service, "GET", "/healthz")
        assert code == 200 and health["status"] == "ok"

    def test_metrics_endpoint_serves_prometheus(self, threaded_service,
                                                gcd_text):
        service = threaded_service()
        code, _ = http(service, "POST", "/submit",
                       make_spec(gcd_text).to_json_obj())
        wait_status(service, "c000001", {"done"})
        url = f"http://127.0.0.1:{service.port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as response:
            text = response.read().decode()
        assert 'repro_serve_campaigns_total{status="done",tenant="alice"}' in text
        assert "repro_serve_journal_appends_total" in text

    def test_cancel_queued_and_running(self, threaded_service, gcd_text):
        service = threaded_service(max_workers=1)
        service._pause_dispatch = True
        slow = make_spec(gcd_text, cycles=2_000_000).to_json_obj()
        _, first = http(service, "POST", "/submit", slow)
        _, second = http(service, "POST", "/submit", slow)
        # Queued cancel is immediate and terminal.
        code, payload = http(service, "POST", f"/cancel/{second['id']}")
        assert code == 200 and payload["status"] == "cancelled"
        service._pause_dispatch = False
        wait_status(service, first["id"], {"running"})
        # Running cancel takes effect at the next cycle boundary.
        code, _ = http(service, "POST", f"/cancel/{first['id']}")
        assert code == 202
        final = wait_status(service, first["id"], {"cancelled"})
        assert final["status"] == "cancelled"
        # Cancelling a terminal campaign is a conflict.
        assert http(service, "POST", f"/cancel/{first['id']}")[0] == 409


class TestDrainAndRecovery:
    def test_drain_writes_clean_shutdown_and_preserves_queue(
        self, tmp_path, gcd_text
    ):
        state_dir = tmp_path / "state"
        service = CoverageService(
            ServiceConfig(state_dir=state_dir, drain_grace=0.2)
        ).start_in_thread()
        try:
            service._pause_dispatch = True
            _, payload = http(service, "POST", "/submit",
                              make_spec(gcd_text).to_json_obj())
            campaign_id = payload["id"]
            service.shutdown(drain=True)
            records = replay(state_dir / "journal.wal").records
            assert records[-1]["type"] == "clean-shutdown"
            assert records[-1]["queued"] == [campaign_id]
            # Restart: the queued campaign survives and runs to done.
            service = CoverageService(
                ServiceConfig(state_dir=state_dir)
            ).start_in_thread()
            code, health = http(service, "GET", "/healthz")
            assert health["recovery"]["clean_shutdown"] is True
            assert health["recovery"]["requeued"] == 1
            assert health["recovery"]["lost"] == 0
            wait_status(service, campaign_id, {"done"})
            service.shutdown(drain=True)
        finally:
            service.shutdown(drain=False)
            obs.disable()
            obs.reset()

    def test_crash_after_finish_adopts_bit_identical_counts(
        self, tmp_path, gcd_text
    ):
        state_dir = tmp_path / "state"
        spec = make_spec(gcd_text, cycles=600)
        service = CoverageService(
            ServiceConfig(state_dir=state_dir)
        ).start_in_thread()
        try:
            _, payload = http(
                service, "POST", "/submit", spec.to_json_obj()
            )
            campaign_id = payload["id"]
            wait_status(service, campaign_id, {"done"})
            _, before = http(service, "GET", f"/report/{campaign_id}")
            service.shutdown(drain=False)  # in-process kill -9 stand-in
            service = CoverageService(
                ServiceConfig(state_dir=state_dir)
            ).start_in_thread()
            _, health = http(service, "GET", "/healthz")
            assert health["recovery"]["clean_shutdown"] is False
            assert health["recovery"]["adopted"] >= 1
            _, after = http(service, "GET", f"/report/{campaign_id}")
            assert after["counts"] == before["counts"]
        finally:
            service.shutdown(drain=False)
            obs.disable()
            obs.reset()

    @pytest.mark.faults
    def test_kill_mid_campaign_recovers_bit_identical(
        self, tmp_path, gcd_text
    ):
        """The acceptance criterion: kill mid-campaign, restart, and the
        final merged counts equal an uninterrupted reference run."""
        state_dir = tmp_path / "state"
        spec = make_spec(gcd_text, cycles=250_000, checkpoint_every=20_000)
        reference = execute_spec(
            spec, "ref", Checkpointer(tmp_path / "ref-shards")
        )
        assert reference.status == "done"
        service = CoverageService(
            ServiceConfig(state_dir=state_dir)
        ).start_in_thread()
        campaign_id = None
        try:
            _, payload = http(service, "POST", "/submit", spec.to_json_obj())
            campaign_id = payload["id"]
            wait_status(service, campaign_id, {"running"})
            # Wait for at least one (partial) checkpoint, then pull the plug
            # with the campaign provably mid-flight.
            shard_dir = service.shard_dir(campaign_id)
            deadline = time.monotonic() + 60
            while not list(shard_dir.glob("*.shard.json")):
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.005)
            status = http(service, "GET", f"/status/{campaign_id}")[1]
            assert status["status"] == "running"
            service.shutdown(drain=False)
        finally:
            zombie = service.campaigns.get(campaign_id)
            if zombie is not None:
                zombie.cancel_event.set()  # stop the orphaned worker thread
        try:
            service = CoverageService(
                ServiceConfig(state_dir=state_dir)
            ).start_in_thread()
            _, health = http(service, "GET", "/healthz")
            assert health["recovery"]["clean_shutdown"] is False
            assert health["recovery"]["lost"] == 0
            final = wait_status(service, campaign_id, {"done", "failed"},
                                timeout=120)
            assert final["status"] == "done"
            _, report = http(service, "GET", f"/report/{campaign_id}")
            assert report["counts"] == reference.counts
            assert report["cycles_run"] == spec.cycles
        finally:
            service.shutdown(drain=False)
            obs.disable()
            obs.reset()

    def test_done_with_missing_shard_requeues(self, tmp_path, gcd_text):
        state_dir = tmp_path / "state"
        service = CoverageService(
            ServiceConfig(state_dir=state_dir)
        ).start_in_thread()
        try:
            _, payload = http(service, "POST", "/submit",
                              make_spec(gcd_text).to_json_obj())
            campaign_id = payload["id"]
            wait_status(service, campaign_id, {"done"})
            _, before = http(service, "GET", f"/report/{campaign_id}")
            service.shutdown(drain=False)
            # An operator (or fsck) ate the shard directory: the journal
            # says done, but the counts are gone.  Recovery re-runs the
            # campaign instead of serving a lie or losing it.
            import shutil

            shutil.rmtree(service.shard_dir(campaign_id))
            service = CoverageService(
                ServiceConfig(state_dir=state_dir)
            ).start_in_thread()
            _, health = http(service, "GET", "/healthz")
            assert health["recovery"]["requeued"] == 1
            final = wait_status(service, campaign_id, {"done"})
            _, after = http(service, "GET", f"/report/{campaign_id}")
            assert after["counts"] == before["counts"]
        finally:
            service.shutdown(drain=False)
            obs.disable()
            obs.reset()


class TestBoundedJournal:
    """PR 7: the WAL must not grow without bound under sustained load."""

    def test_journal_stays_bounded_under_many_campaigns(
        self, threaded_service, gcd_text
    ):
        service = threaded_service(max_workers=1, compact_max_bytes=16_384)
        spec = make_spec(gcd_text, cycles=50, checkpoint_every=50)
        ids = []
        for _ in range(12):
            code, payload = http(service, "POST", "/submit",
                                 spec.to_json_obj())
            assert code == 202
            ids.append(payload["id"])
        for campaign_id in ids:
            wait_status(service, campaign_id, {"done"})
        _, health = http(service, "GET", "/healthz")
        assert health["journal_compactions"] >= 1
        # The bounded invariant: the on-disk journal is one snapshot plus
        # a short tail, never the full submit/finish history.  (A snapshot
        # retains every campaign's spec — the circuit text included — so
        # the bound is relative to the snapshot, not the raw threshold.)
        from repro.runtime.journal import encode_record

        snapshot_bytes = len(encode_record(service._snapshot_record()))
        assert service.journal.size_bytes < 2 * snapshot_bytes
        history_bytes = sum(
            len(encode_record(r)) for r in replay(
                service.config.state_dir / "journal.wal"
            ).records
        )
        assert history_bytes < 2 * snapshot_bytes  # history really folded
        # The folded journal still recovers every campaign: restart and
        # check one of them is still servable.
        service.shutdown(drain=True)
        revived = CoverageService(
            ServiceConfig(state_dir=service.config.state_dir)
        ).start_in_thread()
        try:
            code, report = http(revived, "GET", f"/report/{ids[0]}")
            assert code == 200 and report["partial"] is False
        finally:
            revived.shutdown(drain=False)


# -- the campaign manifest -----------------------------------------------------

#: every function a campaign's front half calls to build the circuit tree
FRONT_HALF = [
    ("repro.ir", "parse_circuit"),
    ("repro.ir.parser", "parse_circuit"),
    ("repro.coverage", "instrument"),
    ("repro.analysis.implication", "minimize_circuit"),
    ("repro.ir", "print_circuit"),
    ("repro.ir.printer", "print_circuit"),
    ("repro.backends.modelcache", "print_circuit"),
]

#: one campaign backend per ``BACKENDS`` entry, plus the reference interpreter
CAMPAIGN_BACKENDS = {
    name: (lambda name=name: BACKENDS[name]()) for name in BACKENDS
}
CAMPAIGN_BACKENDS["swarm"] = lambda: SwarmBackend(lanes=4)
CAMPAIGN_BACKENDS["treadle-nojit"] = lambda: TreadleBackend(jit=False)


@pytest.fixture(scope="module")
def raw_gcd_text():
    """Uninstrumented GCD: the spec's metrics make the service instrument it."""
    return print_circuit(elaborate(Gcd(width=8)))


def manifest_spec(text, backend="treadle", **overrides):
    base = dict(tenant="t", circuit=text, backend=backend, cycles=150, seed=5,
                metrics=("line", "toggle"))
    base.update(overrides)
    return CampaignSpec(**base)


@pytest.fixture
def cache_dir(tmp_path):
    """A model-cache directory; each :func:`with_cache` call is a fresh process."""
    previous = set_default_cache(None)
    yield tmp_path / "cache"
    set_default_cache(previous)


def with_cache(directory) -> ModelCache:
    """Install a new cache over ``directory`` (empty memory tier) as default."""
    cache = ModelCache(directory)
    set_default_cache(cache)
    return cache


def run_spec(spec, backend_name="treadle", **options):
    backend = CAMPAIGN_BACKENDS[backend_name]()
    outcome = execute_spec(spec, "m", None, backend=backend, **options)
    assert outcome.status == "done", outcome.detail
    return outcome.counts


def arm_front_half(monkeypatch, forbid: bool) -> Counter:
    """Spy on :data:`FRONT_HALF`; with ``forbid`` every call raises."""
    calls: Counter = Counter()
    for module_name, name in FRONT_HALF:
        module = importlib.import_module(module_name)
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            if forbid:
                raise AssertionError(f"{_name} called on a warm campaign")
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


def prepare_span(spec) -> dict:
    """The ``prepare`` span's args for one :class:`PreparedCampaign`."""
    obs.enable()
    try:
        PreparedCampaign(spec)
        (span,) = [e for e in obs.tracer.events() if e.get("name") == "prepare"]
        return span["args"]
    finally:
        obs.disable()
        obs.reset()


class TestCampaignManifest:
    @pytest.mark.parametrize("minimize", [False, True], ids=["full", "min"])
    @pytest.mark.parametrize("backend", sorted(CAMPAIGN_BACKENDS))
    def test_warm_campaign_builds_no_tree(self, raw_gcd_text, cache_dir,
                                          monkeypatch, backend, minimize):
        spec = manifest_spec(raw_gcd_text, backend.split("-")[0],
                             min_instrument=minimize)
        with_cache(cache_dir)
        cold = run_spec(spec, backend)
        with_cache(cache_dir)
        # firesim's scan-chain pass rewrites the circuit before its host
        # backend compiles it, so it alone rebuilds the tree, once
        tree_once = backend == "firesim"
        calls = arm_front_half(monkeypatch, forbid=not tree_once)
        assert run_spec(spec, backend) == cold
        if tree_once:
            assert calls["parse_circuit"] == 1
        else:
            assert not calls

    def test_prepare_span_records_miss_then_hit(self, raw_gcd_text, cache_dir):
        spec = manifest_spec(raw_gcd_text)
        with_cache(cache_dir)
        assert prepare_span(spec) == {"manifest": "miss"}
        with_cache(cache_dir)
        assert prepare_span(spec) == {"manifest": "hit"}

    def test_without_a_cache_directory_nothing_is_stored(self, raw_gcd_text,
                                                         cache_dir):
        spec = manifest_spec(raw_gcd_text)
        assert prepare_span(spec) == {"manifest": "miss"}
        set_default_cache(ModelCache())  # memory only
        assert prepare_span(spec) == {"manifest": "miss"}
        assert not cache_dir.exists()

    def test_key_covers_circuit_metrics_minimize_and_code(self, raw_gcd_text,
                                                          monkeypatch):
        spec = manifest_spec(raw_gcd_text)
        base = manifest_key(spec)
        assert manifest_key(replace(spec, seed=9, cycles=3, backend="c",
                                    counter_width=3)) == base
        text, middle = spec.circuit, len(spec.circuit) // 2
        flipped = chr(ord(text[middle]) ^ 1)
        variants = [
            replace(spec, circuit=text + " "),
            replace(spec, circuit=text[:middle] + flipped + text[middle + 1:]),
            replace(spec, metrics=("line",)),
            replace(spec, metrics=("toggle", "line")),
            replace(spec, min_instrument=True),
        ]
        keys = {manifest_key(variant) for variant in variants}
        assert base not in keys and len(keys) == len(variants)
        monkeypatch.setattr(service_module, "derivation_digest", lambda: "0" * 64)
        assert manifest_key(spec) != base

    @pytest.mark.parametrize("change", ["circuit", "metrics", "minimize", "code"])
    def test_each_key_input_misses(self, raw_gcd_text, cache_dir, monkeypatch,
                                   change):
        spec = manifest_spec(raw_gcd_text)
        with_cache(cache_dir)
        cold = run_spec(spec)
        if change == "circuit":
            spec = replace(spec, circuit=spec.circuit + "\n")
        elif change == "metrics":
            spec = replace(spec, metrics=("toggle", "line"))
        elif change == "minimize":
            spec = replace(spec, min_instrument=True)
        else:
            monkeypatch.setattr(service_module, "derivation_digest",
                                lambda: "f" * 64)
        with_cache(cache_dir)
        assert prepare_span(spec) == {"manifest": "miss"}
        if change in ("circuit", "code"):
            assert run_spec(spec) == cold

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "other-key",
                                        "bad-field"])
    def test_bad_manifest_rebuilds(self, raw_gcd_text, cache_dir, damage):
        spec = manifest_spec(raw_gcd_text, min_instrument=True)
        with_cache(cache_dir)
        cold = run_spec(spec)
        (path,) = cache_dir.glob("*.manifest.json")
        raw = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(raw[: len(raw) // 2])
        elif damage == "garbage":
            path.write_bytes(b"\x00garbage\xff" * 20)
        else:
            import hashlib

            body = json.loads(raw.partition(b"\n")[2])
            if damage == "other-key":
                body["key"] = "0" * 64
            else:
                body["names"] = [1, 2, 3]
            data = json.dumps(body).encode()
            path.write_bytes(hashlib.sha256(data).hexdigest().encode()
                             + b"\n" + data)
        with_cache(cache_dir)
        assert prepare_span(spec) == {"manifest": "miss"}
        assert path.read_bytes() == raw  # rewritten whole
        with_cache(cache_dir)
        assert run_spec(spec) == cold

    @pytest.mark.parametrize("backend", ["treadle", "c", "swarm"])
    def test_manifest_hit_with_evicted_model_compiles(self, raw_gcd_text,
                                                      cache_dir, monkeypatch,
                                                      backend):
        spec = manifest_spec(raw_gcd_text, backend, min_instrument=True,
                             counter_width=3)
        with_cache(cache_dir)
        cold = run_spec(spec, backend)
        for path in cache_dir.iterdir():
            if not path.name.endswith(".manifest.json"):
                path.unlink()
        cache = with_cache(cache_dir)
        calls = arm_front_half(monkeypatch, forbid=False)
        assert run_spec(spec, backend) == cold
        # the lazy tree: parsed and instrumented once, for the one compile
        assert calls["parse_circuit"] == 1 and calls["instrument"] == 1
        assert (cache.hits, cache.misses) == (0, 1)

    def test_process_isolation_hits(self, raw_gcd_text, cache_dir, monkeypatch):
        spec = manifest_spec(raw_gcd_text, min_instrument=True)
        with_cache(cache_dir)
        cold = run_spec(spec, isolation="process")
        with_cache(cache_dir)
        arm_front_half(monkeypatch, forbid=True)
        assert run_spec(spec, isolation="process") == cold
