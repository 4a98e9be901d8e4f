"""Cluster integration: lease-fenced remote dispatch, streaming merges,
partition chaos, and worker loss — all against a real threaded service.

Two kinds of worker drive these tests:

* a *scripted* worker — a bare socket speaking the protocol by hand, so
  tests control exactly which frames (and which fencing tokens) hit the
  coordinator, with no timing races;
* the *real* :class:`~repro.runtime.cluster.ClusterWorker`, in-process
  under an injected :class:`~repro.runtime.faults.NetFaultPlan` for the
  partition chaos test, and as a genuine ``python -m repro worker``
  subprocess for the SIGKILL test.

The acceptance bar throughout: every accepted campaign completes with
counts bit-identical to a single-node run, and zombie writes are
provably rejected (``repro_cluster_fenced_rejections_total``).
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.backends import set_default_cache
from repro.coverage import instrument
from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.ir import print_circuit
from repro.runtime.checkpoint import Checkpointer
from repro.runtime.client import ServiceClient, ServiceError
from repro.runtime.cluster import ClusterWorker, WorkerConfig
from repro.runtime.faults import NetFaultPlan
from repro.runtime.protocol import LineChannel
from repro.runtime.service import (
    CampaignSpec,
    CoverageService,
    ServiceConfig,
    execute_spec,
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


def reference_counts(tmp_path, spec, tag="ref"):
    """The single-node ground truth: execute_spec in a scratch dir."""
    outcome = execute_spec(spec, tag, Checkpointer(tmp_path / f"{tag}-shards"))
    assert outcome.status == "done"
    return outcome.counts


@pytest.fixture
def cluster_service(tmp_path):
    services = []

    def start(**overrides):
        defaults = dict(state_dir=tmp_path / "state", max_workers=1,
                        cluster_port=0)
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
    url = f"http://127.0.0.1:{service.port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_status(service, campaign_id, statuses, timeout=60.0):
    deadline = time.monotonic() + timeout
    payload = None
    while time.monotonic() < deadline:
        code, payload = http(service, "GET", f"/status/{campaign_id}")
        assert code == 200, payload
        if payload["status"] in statuses:
            return payload
        time.sleep(0.01)
    raise AssertionError(f"{campaign_id} never reached {statuses}: {payload}")


def wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
    raise AssertionError(f"timed out waiting for {message}")


def metric_total(service, name, **labels):
    """Sum a counter's series matching ``labels`` from /metrics."""
    url = f"http://127.0.0.1:{service.port}/metrics"
    with urllib.request.urlopen(url, timeout=30) as response:
        text = response.read().decode()
    total = 0.0
    found = False
    for line in text.splitlines():
        if not line.startswith(name):
            continue
        rest = line[len(name):]
        if rest and rest[0] not in ("{", " "):
            continue  # a longer metric name sharing the prefix
        if not all(f'{k}="{v}"' in rest for k, v in labels.items()):
            continue
        total += float(line.rsplit(" ", 1)[1])
        found = True
    return total if found else 0.0


class ScriptedWorker:
    """A hand-driven protocol peer: every frame is explicit."""

    def __init__(self, service, worker_id="scripted", slots=1):
        self.id = worker_id
        self.sock = socket.create_connection(
            ("127.0.0.1", service.cluster_port), timeout=10
        )
        self.sock.settimeout(10)
        self.channel = LineChannel(self.sock)
        self.channel.send({"type": "hello", "worker": worker_id,
                           "slots": slots, "version": 1})
        welcome = self.channel.recv()
        assert welcome and welcome["type"] == "welcome", welcome

    def expect(self, frame_type, timeout=10.0):
        """The next frame of ``frame_type`` (skipping others)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            msg = self.channel.recv()
            if msg is None:
                raise AssertionError(f"EOF while waiting for {frame_type}")
            if msg["type"] == frame_type:
                return msg
        raise AssertionError(f"no {frame_type} frame within {timeout}s")

    def close(self):
        self.channel.close()


class TestRemoteDispatch:
    def test_remote_run_is_bit_identical_to_local(
        self, cluster_service, tmp_path, gcd_text
    ):
        """A real worker executes the shard; its done counts must equal a
        single-node run of the same spec exactly."""
        service = cluster_service()
        worker = ClusterWorker(WorkerConfig(
            host="127.0.0.1", port=service.cluster_port, slots=1,
            state_dir=tmp_path / "worker",
        ))
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            wait_for(
                lambda: http(service, "GET", "/healthz")[1]
                .get("cluster", {}).get("workers"),
                message="worker registration",
            )
            spec = make_spec(gcd_text)
            code, payload = http(service, "POST", "/submit",
                                 spec.to_json_obj())
            assert code == 202
            campaign_id = payload["id"]
            running = wait_status(service, campaign_id, {"running", "done"})
            if running["status"] == "running":
                assert running.get("worker") == worker.id
            final = wait_status(service, campaign_id, {"done"})
            assert final["status"] == "done"
            code, report = http(service, "GET", f"/report/{campaign_id}")
            assert code == 200 and report["partial"] is False
            assert report["counts"] == reference_counts(tmp_path, spec)
            assert metric_total(
                service, "repro_cluster_dispatches_total", mode="remote"
            ) >= 1
            # The remote shard landed on the coordinator's disk with its
            # lease provenance, ready for crash recovery.
            shard = Checkpointer(
                service.shard_dir(campaign_id)
            ).load(campaign_id)
            assert shard is not None and shard.complete
            assert shard.origin.startswith(f"{worker.id}#")
        finally:
            worker.stop()
            thread.join(timeout=10)

    def test_worker_model_cache_serves_a_repeated_spec_its_manifest(
        self, cluster_service, tmp_path, gcd_text
    ):
        """``repro worker --model-cache-dir``: the second lease of a spec
        loads the manifest the first one stored."""
        service = cluster_service()
        obs.enable()
        worker = ClusterWorker(WorkerConfig(
            host="127.0.0.1", port=service.cluster_port, slots=1,
            state_dir=tmp_path / "worker",
            model_cache_dir=str(tmp_path / "model-cache"),
        ))
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            wait_for(
                lambda: http(service, "GET", "/healthz")[1]
                .get("cluster", {}).get("workers"),
                message="worker registration",
            )
            for seed in (7, 8):
                code, payload = http(service, "POST", "/submit",
                                     make_spec(gcd_text, seed=seed).to_json_obj())
                assert code == 202
                assert wait_status(service, payload["id"], {"done"})["status"] == "done"
            assert metric_total(
                service, "repro_cluster_dispatches_total", mode="remote"
            ) == 2
            prepares = [e["args"]["manifest"] for e in obs.tracer.events()
                        if e.get("name") == "prepare"]
            assert prepares == ["miss", "hit"]
        finally:
            worker.stop()
            thread.join(timeout=10)
            set_default_cache(None)

    def test_zero_workers_degrades_to_local_pool(
        self, cluster_service, tmp_path, gcd_text
    ):
        service = cluster_service()
        spec = make_spec(gcd_text)
        code, payload = http(service, "POST", "/submit", spec.to_json_obj())
        assert code == 202
        final = wait_status(service, payload["id"], {"done"})
        assert final["status"] == "done"
        _, report = http(service, "GET", f"/report/{payload['id']}")
        assert report["counts"] == reference_counts(tmp_path, spec)
        assert metric_total(
            service, "repro_cluster_dispatches_total", mode="local"
        ) >= 1
        _, health = http(service, "GET", "/healthz")
        assert health["cluster"]["workers"] == []

    def test_streaming_deltas_serve_partial_reports(
        self, cluster_service, gcd_text
    ):
        """Scripted deltas: contiguous ones merge into GET /report's
        mid-run view; duplicates/reorders are skipped, never double
        counted; done supersedes the advisory view."""
        service = cluster_service()
        worker = ScriptedWorker(service)
        try:
            spec = make_spec(gcd_text)
            _, payload = http(service, "POST", "/submit", spec.to_json_obj())
            campaign_id = payload["id"]
            grant = worker.expect("grant")
            assert grant["shard"] == campaign_id
            assert grant["spec"]["seed"] == spec.seed
            token = grant["token"]

            worker.channel.send({
                "type": "delta", "shard": campaign_id, "token": token,
                "seq": 1, "from_cycle": 0, "to_cycle": 100,
                "counts": {"a": 2, "b": 0}, "sent_at": time.time(),
            })
            report = wait_for(
                lambda: http(service, "GET", f"/report/{campaign_id}")[1]
                if http(service, "GET", f"/report/{campaign_id}")[0] == 200
                else None,
                message="first partial report",
            )
            assert report["partial"] is True
            assert report["counts"] == {"a": 2, "b": 0}
            assert report["cycles_run"] == 100
            assert report["progress"] == 0.25
            assert report["source"] == f"{worker.id}#{token}"
            assert report["staleness_s"] >= 0

            # A duplicate of the first delta: non-contiguous (from_cycle 0
            # != merged view's 100), skipped — no double count.
            worker.channel.send({
                "type": "delta", "shard": campaign_id, "token": token,
                "seq": 1, "from_cycle": 0, "to_cycle": 100,
                "counts": {"a": 2, "b": 0}, "sent_at": time.time(),
            })
            # A contiguous follow-up merges additively.
            worker.channel.send({
                "type": "delta", "shard": campaign_id, "token": token,
                "seq": 2, "from_cycle": 100, "to_cycle": 200,
                "counts": {"a": 1, "c": 5}, "sent_at": time.time(),
            })
            report = wait_for(
                lambda: (r := http(service, "GET",
                                   f"/report/{campaign_id}")[1])
                and r.get("cycles_run") == 200 and r,
                message="second partial report",
            )
            assert report["counts"] == {"a": 3, "b": 0, "c": 5}
            assert metric_total(
                service, "repro_cluster_deltas_merged_total", applied="no"
            ) >= 1

            final_counts = {"a": 3, "b": 0, "c": 6}
            worker.channel.send({
                "type": "done", "shard": campaign_id, "token": token,
                "status": "done", "detail": "", "counts": final_counts,
                "cycles_run": 400, "attempts": 1, "backend_ok": True,
            })
            wait_status(service, campaign_id, {"done"})
            _, report = http(service, "GET", f"/report/{campaign_id}")
            assert report["partial"] is False
            assert report["counts"] == final_counts
        finally:
            worker.close()


class TestFencing:
    def test_expired_lease_regrants_and_fences_the_zombie(
        self, cluster_service, tmp_path, gcd_text
    ):
        """The fencing story end to end, deterministically scripted: a
        worker goes silent, its lease expires and is re-granted under a
        larger token, and the zombie's late writes bounce off — while the
        re-granted run's counts land bit-identical."""
        service = cluster_service(lease_s=0.4, cluster_heartbeat_s=0.1)
        worker = ScriptedWorker(service)
        try:
            spec = make_spec(gcd_text)
            _, payload = http(service, "POST", "/submit", spec.to_json_obj())
            campaign_id = payload["id"]
            first = worker.expect("grant")
            # Go silent: no heartbeats, no deltas.  The lease expires and
            # the coordinator revokes us...
            revoke = worker.expect("revoke")
            assert revoke["token"] == first["token"]
            assert "expired" in revoke["reason"]
            # ...then re-grants the same shard (we still have the only
            # free slot) under a strictly larger fencing token.
            second = worker.expect("grant")
            assert second["shard"] == campaign_id
            assert second["token"] > first["token"]

            # The zombie flushes a late write under the dead token.
            worker.channel.send({
                "type": "delta", "shard": campaign_id,
                "token": first["token"], "seq": 9, "from_cycle": 0,
                "to_cycle": 100, "counts": {"a": 1},
                "sent_at": time.time(),
            })
            fenced = worker.expect("fenced")
            assert fenced["token"] == first["token"]
            assert fenced["reason"] == "stale-token"
            assert metric_total(
                service, "repro_cluster_fenced_rejections_total"
            ) >= 1

            # The current holder finishes with the real counts: accepted,
            # and exactly what a single-node run produces.
            counts = reference_counts(tmp_path, spec)
            worker.channel.send({
                "type": "done", "shard": campaign_id,
                "token": second["token"], "status": "done", "detail": "",
                "counts": counts, "cycles_run": spec.cycles, "attempts": 1,
                "backend_ok": True,
            })
            wait_status(service, campaign_id, {"done"})
            _, report = http(service, "GET", f"/report/{campaign_id}")
            assert report["counts"] == counts
            # A zombie done under the dead token after completion is
            # rejected too (kind="done").
            worker.channel.send({
                "type": "done", "shard": campaign_id,
                "token": first["token"], "status": "done", "detail": "",
                "counts": {"bogus": 99}, "cycles_run": 1, "attempts": 1,
                "backend_ok": True,
            })
            assert worker.expect("fenced")["token"] == first["token"]
            _, report = http(service, "GET", f"/report/{campaign_id}")
            assert report["counts"] == counts  # unchanged
            assert metric_total(
                service, "repro_cluster_fenced_rejections_total",
                kind="done",
            ) >= 1
        finally:
            worker.close()

    def test_partition_chaos_converges_bit_identical(
        self, cluster_service, tmp_path, gcd_text
    ):
        """The chaos gate: a real worker behind an asymmetric network
        partition (its outbound frames buffered for 2s, hello exempted).
        Leases expire and re-grant repeatedly; when the partition lifts,
        the buffered zombie frames flood in and are fenced off.  The
        campaign still completes with single-node counts."""
        service = cluster_service(lease_s=0.5, cluster_heartbeat_s=0.1)
        plan = NetFaultPlan(
            partitions=((0.0, 2.0),),
            only_types=("heartbeat", "delta", "done"),
            seed=11,
        )
        worker = ClusterWorker(WorkerConfig(
            host="127.0.0.1", port=service.cluster_port, slots=1,
            state_dir=tmp_path / "worker", fault_plan=plan,
        ))
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            wait_for(
                lambda: http(service, "GET", "/healthz")[1]
                .get("cluster", {}).get("workers"),
                message="worker registration",
            )
            spec = make_spec(gcd_text)
            _, payload = http(service, "POST", "/submit", spec.to_json_obj())
            campaign_id = payload["id"]
            final = wait_status(service, campaign_id, {"done"}, timeout=60)
            assert final["status"] == "done"
            _, report = http(service, "GET", f"/report/{campaign_id}")
            assert report["counts"] == reference_counts(tmp_path, spec)
            # The lease/fencing machinery demonstrably engaged: at least
            # one expiry-driven re-dispatch, and at least one buffered
            # zombie write rejected by fencing token.
            assert metric_total(
                service, "repro_cluster_leases_expired_total",
                reason="expired",
            ) >= 1
            assert metric_total(
                service, "repro_cluster_fenced_rejections_total"
            ) >= 1
        finally:
            worker.stop()
            thread.join(timeout=10)


class TestWorkerLoss:
    def test_sigkilled_worker_mid_shard_loses_nothing(
        self, cluster_service, tmp_path, gcd_text
    ):
        """kill -9 a real ``repro worker`` subprocess mid-shard: the
        coordinator deregisters it on EOF, requeues the shard, and the
        local pool finishes it with bit-identical counts."""
        service = cluster_service(lease_s=1.0)
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                              else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{service.cluster_port}",
             "--slots", "1", "--worker-id", "victim",
             "--state-dir", str(tmp_path / "victim")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            wait_for(
                lambda: http(service, "GET", "/healthz")[1]
                .get("cluster", {}).get("workers"),
                timeout=30, message="worker subprocess registration",
            )
            # Long enough that the kill lands mid-shard.
            spec = make_spec(gcd_text, cycles=200_000,
                             checkpoint_every=2_000)
            _, payload = http(service, "POST", "/submit", spec.to_json_obj())
            campaign_id = payload["id"]
            # Proof the victim is mid-shard: a streamed partial report
            # whose source names the victim's lease.
            report = wait_for(
                lambda: (r := http(service, "GET",
                                   f"/report/{campaign_id}"))[0] == 200
                and r[1].get("partial") and r[1],
                timeout=30, message="partial report from the victim",
            )
            assert report["source"].startswith("victim#")

            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            # EOF-driven deregistration, shard requeued, local pool takes
            # over — nothing lost, counts exact.
            wait_for(
                lambda: not http(service, "GET", "/healthz")[1]
                ["cluster"]["workers"],
                message="victim deregistration",
            )
            final = wait_status(service, campaign_id, {"done"}, timeout=120)
            assert final["status"] == "done"
            _, report = http(service, "GET", f"/report/{campaign_id}")
            assert report["partial"] is False
            assert report["counts"] == reference_counts(tmp_path, spec)
            assert metric_total(
                service, "repro_cluster_leases_expired_total",
                reason="disconnected",
            ) >= 1
            assert metric_total(
                service, "repro_cluster_dispatches_total", mode="local"
            ) >= 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestServiceClient:
    def test_submit_honors_retry_after_with_jitter(self, monkeypatch):
        """A 429 with Retry-After delays by roughly the server's hint
        (plus bounded jitter), then the retry succeeds."""
        sleeps = []
        client = ServiceClient("http://example.invalid", retries=3,
                               backoff_base=0.25, seed=1,
                               sleep=sleeps.append)
        responses = [
            (429, {"retry-after": "2"}, {"reason": "queue-full",
                                         "retry_after": 2.0}),
            (429, {}, {"reason": "queue-full", "retry_after": 1.5}),
            (202, {}, {"id": "c000001", "status": "queued"}),
        ]
        client.request = lambda *a, **k: responses.pop(0)
        assert client.submit({"tenant": "t"}) == "c000001"
        assert len(sleeps) == 2
        # header hint: 2s <= delay <= 2s + backoff_base of jitter
        assert 2.0 <= sleeps[0] <= 2.25
        # payload hint fallback when the header is absent
        assert 1.5 <= sleeps[1] <= 1.75

    def test_submit_backs_off_exponentially_without_hint(self, monkeypatch):
        sleeps = []
        client = ServiceClient("http://example.invalid", retries=4,
                               backoff_base=0.5, seed=3,
                               sleep=sleeps.append)
        client.request = lambda *a, **k: (429, {}, {"reason": "queue-full"})
        with pytest.raises(ServiceError, match="still rejected"):
            client.submit({"tenant": "t"})
        assert len(sleeps) == 4
        # jittered, but each draw is bounded by the doubling ceiling
        for attempt, delay in enumerate(sleeps):
            assert 0 <= delay <= 0.5 * (2 ** attempt)

    def test_non_retryable_raises_immediately(self):
        client = ServiceClient("http://example.invalid", retries=5,
                               sleep=lambda s: (_ for _ in ()).throw(
                                   AssertionError("must not sleep")))
        client.request = lambda *a, **k: (400, {}, {"error": "bad spec"})
        with pytest.raises(ServiceError) as info:
            client.submit({"tenant": "t"})
        assert info.value.code == 400
