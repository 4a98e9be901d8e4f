"""Scale-out coverage fleet: lease-fenced dispatch to remote workers.

PR 6 made one daemon crash-safe; this module makes the *fleet* safe.  A
:class:`ClusterCoordinator` embedded in the coverage service dispatches
campaign shards to remote :class:`ClusterWorker` processes over the
newline-delimited JSON protocol (:mod:`~repro.runtime.protocol`), built
around three robustness mechanisms:

* **Time-bounded leases with monotonic fencing tokens** — a shard is
  dispatched as a lease: one worker, one expiry, one token drawn from a
  strictly increasing counter that is journaled *before* the grant (so a
  coordinator ``kill -9`` can never reissue a token).  A worker that
  crashes, hangs, or partitions simply stops renewing; the lease expires
  and the shard is re-dispatched under a *larger* token.  Any late write
  from the zombie holder carries the dead token and is rejected at the
  door (``repro_cluster_fenced_rejections_total``) — the classic fencing
  argument: correctness never depends on the zombie *knowing* it lost.
* **Live streaming merges** — workers stream incremental count deltas at
  checkpoint cadence; the coordinator folds them into a per-campaign
  :class:`LiveCoverage` view so ``GET /report`` serves partial results
  mid-run.  Deltas are applied only when contiguous (``from_cycle``
  matches the merged view), which makes duplicated, reordered, and
  dropped frames all safe: the view may lag, it can never double-count.
  The ``done`` frame carries authoritative full counts — the live view
  is advisory, the terminal counts are exact.
* **Determinism as the repair mechanism** — re-dispatch re-runs the spec
  from cycle 0 with the same seed (fresh per-token scratch dir), so a
  shard that bounced through three workers still produces counts
  bit-identical to a single-node run.  There is no state handoff to get
  wrong, which is why partitions are merely slow, never corrupting.

The coordinator lives on the service's asyncio loop (all its state is
loop-thread-confined, like the rest of the service); workers are plain
blocking-socket processes driving the same :func:`~repro.runtime.\
service.execute_spec` the local pool uses.  Zero workers attached means
the service degrades to its local thread pool — the fleet is an
accelerator, not a dependency.
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .faults import FaultyChannel, NetFaultPlan
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    LineChannel,
    ProtocolError,
    decode_message,
    encode_message,
)
from .telemetry import obs

logger = logging.getLogger(__name__)


class LeaseError(ValueError):
    """A lease operation violated the table's invariants."""


@dataclass
class Lease:
    """One worker's time-bounded, fenced claim on one shard."""

    shard: str
    worker: str
    token: int
    granted_at: float
    expires_at: float
    cycle: int = 0


class LeaseTable:
    """The lease/fencing state machine (coordinator side).

    Invariants (the hypothesis stateful test drives these):

    * at most one live lease per shard;
    * fencing tokens are unique and strictly increase across *all*
      grants, including re-grants of the same shard;
    * a write is accepted only if its ``(shard, worker, token)`` names
      the current live lease — once a shard is re-granted, every token
      below the new one is dead forever.

    Expiry is explicit (:meth:`expire` with a caller-supplied clock), so
    tests can drive time instead of sleeping.
    """

    def __init__(self, lease_s: float = 10.0, next_token: int = 1) -> None:
        if lease_s <= 0:
            raise LeaseError("lease_s must be positive")
        if next_token < 1:
            raise LeaseError("next_token must be >= 1")
        self.lease_s = lease_s
        self.next_token = next_token
        self._live: dict[str, Lease] = {}

    def __len__(self) -> int:
        return len(self._live)

    def get(self, shard: str) -> Optional[Lease]:
        return self._live.get(shard)

    def grant(self, shard: str, worker: str,
              now: Optional[float] = None) -> Lease:
        """Grant ``shard`` to ``worker`` under a fresh fencing token."""
        if shard in self._live:
            raise LeaseError(
                f"shard {shard} already leased to "
                f"{self._live[shard].worker}#{self._live[shard].token}"
            )
        now = time.monotonic() if now is None else now
        lease = Lease(
            shard=shard, worker=worker, token=self.next_token,
            granted_at=now, expires_at=now + self.lease_s,
        )
        self.next_token += 1
        self._live[shard] = lease
        return lease

    def renew(self, shard: str, worker: str, token: int,
              now: Optional[float] = None) -> bool:
        """Push the expiry out; False if the lease is not the live one."""
        if self.check_write(shard, worker, token) is not None:
            return False
        now = time.monotonic() if now is None else now
        self._live[shard].expires_at = now + self.lease_s
        return True

    def check_write(self, shard: str, worker: str,
                    token: int) -> Optional[str]:
        """Why a write must be rejected (None = the write is current).

        The three reasons are diagnostic flavors of one fact — the
        ``(shard, worker, token)`` triple does not name the live lease:
        ``no-live-lease`` (expired/released and not re-granted),
        ``stale-token`` (the shard moved on under a newer token), and
        ``wrong-holder`` (token forged or cross-wired worker id).
        """
        lease = self._live.get(shard)
        if lease is None:
            return "no-live-lease"
        if lease.token != token:
            return "stale-token"
        if lease.worker != worker:
            return "wrong-holder"
        return None

    def release(self, shard: str, token: int) -> bool:
        """Clean hand-back at ``done``; False if the lease moved on."""
        lease = self._live.get(shard)
        if lease is None or lease.token != token:
            return False
        del self._live[shard]
        return True

    def revoke(self, shard: str) -> Optional[Lease]:
        """Forcibly end the live lease (cancel, worker disconnect)."""
        return self._live.pop(shard, None)

    def expire(self, now: Optional[float] = None) -> list[Lease]:
        """Remove and return every lease whose expiry has passed."""
        now = time.monotonic() if now is None else now
        dead = [l for l in self._live.values() if l.expires_at <= now]
        for lease in dead:
            del self._live[lease.shard]
        return dead


@dataclass
class LiveCoverage:
    """A campaign's streaming partial counts (advisory, mid-run view)."""

    counts: dict = field(default_factory=dict)
    cycle: int = 0
    updated_at: float = 0.0  # monotonic; 0 = no delta merged yet
    source: str = "local"


@dataclass
class RemoteWorker:
    """Coordinator-side state for one connected worker."""

    id: str
    slots: int
    writer: object  # asyncio.StreamWriter
    connected_at: float
    last_seen: float
    shards: set = field(default_factory=set)

    @property
    def free_slots(self) -> int:
        return self.slots - len(self.shards)


class ClusterCoordinator:
    """The fleet brain, embedded in :class:`~repro.runtime.service.\
CoverageService`.

    Owns the worker registry and the lease table; defers all campaign
    bookkeeping (journal, requeue, terminal states) to the service's
    callbacks so there is exactly one owner of campaign state.  Runs
    entirely on the service's event loop.
    """

    def __init__(self, service) -> None:
        self.service = service
        config = service.config
        self.leases = LeaseTable(
            lease_s=config.lease_s, next_token=service._next_fence
        )
        self.workers: dict[str, RemoteWorker] = {}
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        config = self.service.config
        self._server = await asyncio.start_server(
            self._handle_worker, config.host, config.cluster_port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("cluster coordinator on %s:%d", config.host, self.port)

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
        for worker in list(self.workers.values()):
            try:
                worker.writer.close()
            except Exception:
                pass
        self.workers.clear()
        if obs.enabled:
            obs.set_gauge("repro_cluster_workers_live", 0)

    # -- worker connections ----------------------------------------------------

    async def _handle_worker(self, reader, writer) -> None:
        worker: Optional[RemoteWorker] = None
        try:
            hello = await self._read_frame(reader)
            if hello is None or hello.get("type") != "hello":
                return
            if int(hello.get("version", 0)) != PROTOCOL_VERSION:
                return  # a future peer can down-negotiate; v1 just drops
            worker = self._register(
                str(hello["worker"]), int(hello["slots"]), writer
            )
            config = self.service.config
            self._send(worker, {
                "type": "welcome",
                "version": PROTOCOL_VERSION,
                "heartbeat_s": config.cluster_heartbeat_s,
                "lease_s": config.lease_s,
            })
            if self.service._wake is not None:
                self.service._wake.set()  # new capacity: dispatch now
            while True:
                msg = await self._read_frame(reader)
                if msg is None:
                    break
                self._on_message(worker, msg)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if worker is not None:
                self._deregister(worker)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_frame(self, reader) -> Optional[dict]:
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError):
            return None  # over-limit or broken: treat as connection over
        if not line or not line.endswith(b"\n"):
            return None
        try:
            return decode_message(line.rstrip(b"\n"))
        except ProtocolError as error:
            logger.warning("dropping bad frame from worker: %s", error)
            return {"type": "_bad"}  # keep the connection; skip the frame

    def _register(self, worker_id: str, slots: int, writer) -> RemoteWorker:
        stale = self.workers.get(worker_id)
        if stale is not None:
            # A reconnect under the same id: the old socket is dead.
            self._deregister(stale)
        now = time.monotonic()
        worker = RemoteWorker(
            id=worker_id, slots=max(1, slots), writer=writer,
            connected_at=now, last_seen=now,
        )
        self.workers[worker_id] = worker
        if obs.enabled:
            obs.set_gauge("repro_cluster_workers_live", len(self.workers))
        logger.info("worker %s joined (%d slots)", worker_id, worker.slots)
        return worker

    def _deregister(self, worker: RemoteWorker) -> None:
        if self.workers.get(worker.id) is not worker:
            return  # already replaced by a reconnect
        del self.workers[worker.id]
        if obs.enabled:
            obs.set_gauge("repro_cluster_workers_live", len(self.workers))
        for shard in sorted(worker.shards):
            lease = self.leases.get(shard)
            if lease is not None and lease.worker == worker.id:
                self.leases.revoke(shard)
                if obs.enabled:
                    obs.inc("repro_cluster_leases_expired_total",
                            reason="disconnected")
                self.service._remote_lost(
                    shard, f"worker {worker.id} disconnected"
                )
        worker.shards.clear()
        logger.info("worker %s left", worker.id)

    # -- inbound frames --------------------------------------------------------

    def _on_message(self, worker: RemoteWorker, msg: dict) -> None:
        worker.last_seen = time.monotonic()
        kind = msg.get("type")
        if kind == "heartbeat":
            self._on_heartbeat(worker, msg)
        elif kind == "delta":
            self._on_delta(worker, msg)
        elif kind == "done":
            self._on_done(worker, msg)
        # unknown types: forward-compat, ignored

    def _on_heartbeat(self, worker: RemoteWorker, msg: dict) -> None:
        shards = msg.get("shards")
        if not isinstance(shards, dict):
            return
        now = time.monotonic()
        for shard, state in shards.items():
            if not isinstance(state, dict):
                continue
            token = int(state.get("token", 0))
            if self.leases.renew(shard, worker.id, token, now):
                lease = self.leases.get(shard)
                lease.cycle = max(lease.cycle, int(state.get("cycle", 0)))
            else:
                # The worker is beating for a lease it no longer holds —
                # a zombie that missed (or never received) its revoke.
                self._send(worker, {
                    "type": "revoke", "shard": shard, "token": token,
                    "reason": "lease is no longer yours",
                })

    def _on_delta(self, worker: RemoteWorker, msg: dict) -> None:
        shard = str(msg["shard"])
        token = int(msg["token"])
        verdict = self.leases.check_write(shard, worker.id, token)
        if verdict is not None:
            if obs.enabled:
                obs.inc("repro_cluster_fenced_rejections_total", kind="delta")
            self._send(worker, {
                "type": "fenced", "shard": shard, "token": token,
                "reason": verdict,
            })
            return
        self.leases.renew(shard, worker.id, token)
        campaign = self.service.campaigns.get(shard)
        live = campaign.live if campaign is not None else None
        applied = False
        if live is not None and int(msg["from_cycle"]) == live.cycle:
            counts = msg["counts"]
            if isinstance(counts, dict):
                for name, delta in counts.items():
                    live.counts[name] = live.counts.get(name, 0) + int(delta)
                live.cycle = int(msg["to_cycle"])
                live.updated_at = time.monotonic()
                campaign.cycles_run = max(campaign.cycles_run, live.cycle)
                applied = True
        # Non-contiguous deltas (duplicates, reorders, gaps after a drop)
        # are skipped, never merged out of order: the live view may lag
        # behind the worker, it can never double-count.
        if obs.enabled:
            obs.inc("repro_cluster_deltas_merged_total",
                    applied="yes" if applied else "no")
            sent_at = msg.get("sent_at")
            if applied and isinstance(sent_at, (int, float)):
                obs.observe("repro_cluster_delta_merge_lag_seconds",
                            max(0.0, time.time() - float(sent_at)))

    def _on_done(self, worker: RemoteWorker, msg: dict) -> None:
        shard = str(msg["shard"])
        token = int(msg["token"])
        verdict = self.leases.check_write(shard, worker.id, token)
        if verdict is not None:
            if obs.enabled:
                obs.inc("repro_cluster_fenced_rejections_total", kind="done")
            self._send(worker, {
                "type": "fenced", "shard": shard, "token": token,
                "reason": verdict,
            })
            return
        self.leases.release(shard, token)
        worker.shards.discard(shard)
        counts = msg["counts"] if isinstance(msg["counts"], dict) else None
        self.service._finish_remote(
            shard,
            status=str(msg["status"]),
            detail=str(msg["detail"]),
            counts=counts,
            cycles_run=int(msg["cycles_run"]),
            attempts=int(msg["attempts"]),
            backend_ok=bool(msg["backend_ok"]),
            worker=worker.id,
            token=token,
        )

    # -- dispatch (called by the service scheduler) -----------------------------

    def pick_worker(self) -> Optional[RemoteWorker]:
        """The most-idle worker with a free slot, or None."""
        best = None
        for worker in self.workers.values():
            if worker.free_slots <= 0:
                continue
            if best is None or worker.free_slots > best.free_slots:
                best = worker
        return best

    def dispatch(self, campaign, worker: RemoteWorker) -> bool:
        """Lease ``campaign`` to ``worker``; False if the grant failed.

        Fencing-token durability: the ``lease`` record is journaled
        *before* the grant frame can possibly reach the worker, so a
        coordinator crash after dispatch recovers with ``next_fence``
        past this token and can never arm a second worker with an equal
        one.
        """
        config = self.service.config
        token = self.leases.next_token
        if not self.service._journal_lease(campaign.id, worker.id, token):
            return False
        lease = self.leases.grant(campaign.id, worker.id)
        assert lease.token == token  # single allocator, loop-thread only
        worker.shards.add(campaign.id)
        campaign.live = LiveCoverage(source=f"{worker.id}#{token}")
        spec = campaign.spec
        self._send(worker, {
            "type": "grant",
            "shard": campaign.id,
            "token": token,
            "spec": spec.to_json_obj(),
            "checkpoint_every": (
                spec.checkpoint_every or config.checkpoint_every
            ),
            "timeout": (
                spec.deadline_s if spec.deadline_s is not None
                else config.default_timeout
            ),
            "retries": config.retries,
        })
        if obs.enabled:
            obs.inc("repro_cluster_leases_granted_total")
        return True

    def revoke(self, campaign_id: str, reason: str) -> None:
        """End a remote campaign's lease (cancel path)."""
        lease = self.leases.revoke(campaign_id)
        if lease is None:
            return
        if obs.enabled:
            obs.inc("repro_cluster_leases_expired_total", reason="revoked")
        worker = self.workers.get(lease.worker)
        if worker is not None:
            worker.shards.discard(campaign_id)
            self._send(worker, {
                "type": "revoke", "shard": campaign_id,
                "token": lease.token, "reason": reason,
            })

    def tick(self, now: Optional[float] = None) -> None:
        """Expire overdue leases; called from the scheduler loop."""
        for lease in self.leases.expire(now):
            if obs.enabled:
                obs.inc("repro_cluster_leases_expired_total",
                        reason="expired")
            worker = self.workers.get(lease.worker)
            if worker is not None:
                worker.shards.discard(lease.shard)
                self._send(worker, {
                    "type": "revoke", "shard": lease.shard,
                    "token": lease.token, "reason": "lease expired",
                })
            logger.warning(
                "lease %s#%d on %s expired; re-dispatching",
                lease.worker, lease.token, lease.shard,
            )
            self.service._remote_lost(
                lease.shard,
                f"lease expired on {lease.worker} (partition or hang)",
            )

    def snapshot(self) -> dict:
        """The /healthz view of the fleet."""
        now = time.monotonic()
        return {
            "workers": [
                {
                    "id": w.id,
                    "slots": w.slots,
                    "shards": sorted(w.shards),
                    "last_seen_s": round(now - w.last_seen, 3),
                }
                for w in sorted(self.workers.values(), key=lambda w: w.id)
            ],
            "leases": len(self.leases),
        }

    def _send(self, worker: RemoteWorker, msg: dict) -> None:
        """Fire-and-forget a frame; a dead socket surfaces as EOF later."""
        try:
            worker.writer.write(encode_message(msg))
        except Exception:
            pass


# -- worker side ---------------------------------------------------------------


@dataclass
class WorkerConfig:
    """Everything ``repro worker`` can tune."""

    host: str
    port: int
    slots: int = 2
    state_dir: Optional[Path] = None
    isolation: str = "thread"
    reconnect: int = 0          # extra connection attempts after a failure
    backoff_base: float = 0.5
    seed: int = 0
    worker_id: str = ""
    fault_plan: Optional[NetFaultPlan] = None
    telemetry: bool = False
    #: force minimal-basis counting on leased shards even when the spec
    #: does not request it; the ``done`` frame still carries full counts
    #: because :func:`~repro.runtime.service.execute_spec` reconstructs
    min_instrument: bool = False
    #: persist compiled models and campaign manifests here, as ``repro
    #: serve --model-cache-dir`` does, so a repeated spec skips its front half
    model_cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.reconnect < 0:
            raise ValueError("reconnect must be >= 0")
        if self.state_dir is not None:
            self.state_dir = Path(self.state_dir)


@dataclass
class _ShardRun:
    """One granted lease being executed on this worker."""

    token: int
    cancel: threading.Event = field(default_factory=threading.Event)
    thread: Optional[threading.Thread] = None
    cycle: int = 0
    suppressed: bool = False  # revoked/fenced: never send done


class ClusterWorker:
    """A remote execution node: connect, lease shards, stream deltas.

    Deliberately dumb — all cluster intelligence (leases, fencing,
    merging, requeue) lives in the coordinator.  The worker connects,
    says hello, and then does exactly what it is told: run granted specs
    through the same :func:`~repro.runtime.service.execute_spec` the
    service's local pool uses (same determinism, same resume semantics),
    streaming a count delta at every checkpoint boundary and a ``done``
    with authoritative full counts at the end.

    A ``revoke`` (or a ``fenced`` rejection) suppresses the run: the
    cancel flag stops it at the next cycle boundary and its terminal
    frame is never sent.  Each grant executes in a fresh per-token
    scratch directory, so a re-granted shard re-runs from cycle 0 and
    reproduces bit-identical counts instead of resuming half-trusted
    local state.
    """

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self.id = config.worker_id or (
            f"w-{os.getpid()}-{random.getrandbits(24):06x}"
        )
        self._active: dict[str, _ShardRun] = {}
        self._channel = None
        self._stop = threading.Event()
        self._state_dir = config.state_dir
        self._tmp = None
        if self._state_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-worker-")
            self._state_dir = Path(self._tmp.name)

    # -- lifecycle -------------------------------------------------------------

    def run(self) -> int:
        """Connect (and reconnect) until stopped; returns an exit code."""
        from ..backends import ModelCache, set_default_cache

        # memory-only without a directory, as for ``repro simulate``
        previous = set_default_cache(ModelCache(self.config.model_cache_dir))
        try:
            return self._connect_loop()
        finally:
            set_default_cache(previous)

    def _connect_loop(self) -> int:
        attempts_left = self.config.reconnect
        rng = random.Random(f"{self.config.seed}:{self.id}:reconnect")
        attempt = 0
        while not self._stop.is_set():
            try:
                self.run_once()
                if self._stop.is_set():
                    return 0
                attempt = 0  # a successful session resets the budget
            except OSError as error:
                logger.warning("worker %s: connection failed: %s",
                               self.id, error)
            if self._stop.is_set():
                return 0
            if attempts_left <= 0:
                return 1
            attempts_left -= 1
            attempt += 1
            delay = self.config.backoff_base * (2 ** min(attempt - 1, 6))
            self._stop.wait(delay + rng.uniform(0, self.config.backoff_base))
        return 0

    def run_once(self) -> None:
        """One connected session: hello, welcome, then serve grants."""
        sock = socket.create_connection(
            (self.config.host, self.config.port), timeout=10
        )
        sock.settimeout(None)
        channel = LineChannel(sock)
        if self.config.fault_plan is not None:
            channel = FaultyChannel(channel, self.config.fault_plan)
        self._channel = channel
        heartbeat: Optional[threading.Thread] = None
        try:
            channel.send({
                "type": "hello", "worker": self.id,
                "slots": self.config.slots, "version": PROTOCOL_VERSION,
            })
            welcome = channel.recv()
            if welcome is None or welcome.get("type") != "welcome":
                raise OSError("coordinator did not welcome us")
            period = float(welcome.get("heartbeat_s", 2.0))
            heartbeat = threading.Thread(
                target=self._heartbeat_loop, args=(channel, period),
                name=f"{self.id}-heartbeat", daemon=True,
            )
            heartbeat.start()
            logger.info("worker %s connected to %s:%d", self.id,
                        self.config.host, self.config.port)
            while not self._stop.is_set():
                msg = channel.recv()
                if msg is None:
                    break
                kind = msg.get("type")
                if kind == "grant":
                    self._on_grant(msg)
                elif kind in ("revoke", "fenced"):
                    self._on_revoke(msg)
        finally:
            # The session is over: nothing we compute can be delivered,
            # and the coordinator has already started revoking our
            # leases.  Stop every run and go quiet.
            for run in list(self._active.values()):
                run.suppressed = True
                run.cancel.set()
            channel.close()
            if self._channel is channel:
                self._channel = None
            if heartbeat is not None:
                heartbeat.join(timeout=5)

    def stop(self) -> None:
        self._stop.set()
        channel = self._channel
        if channel is not None:
            channel.close()  # unblocks the recv loop

    # -- grants ----------------------------------------------------------------

    def _on_grant(self, grant: dict) -> None:
        shard = str(grant["shard"])
        stale = self._active.get(shard)
        if stale is not None:
            # A re-grant over an unfinished run (shouldn't happen while
            # we hold the lease, but the coordinator is authoritative).
            stale.suppressed = True
            stale.cancel.set()
        run = _ShardRun(token=int(grant["token"]))
        run.thread = threading.Thread(
            target=self._run_shard, args=(shard, grant, run),
            name=f"{self.id}-{shard}", daemon=True,
        )
        self._active[shard] = run
        run.thread.start()

    def _on_revoke(self, msg: dict) -> None:
        run = self._active.get(str(msg["shard"]))
        if run is not None and run.token == int(msg["token"]):
            run.suppressed = True
            run.cancel.set()

    def _run_shard(self, shard: str, grant: dict, run: _ShardRun) -> None:
        channel = self._channel
        try:
            # Lazy import: service.py imports this module at load time.
            from .service import ExecutionOutcome

            try:
                outcome = self._execute_grant(shard, grant, run, channel)
            except Exception:
                logger.exception("worker %s: shard %s failed locally",
                                 self.id, shard)
                outcome = ExecutionOutcome(
                    "failed", "worker-local execution error"
                )
            if run.suppressed or channel is None:
                return
            try:
                channel.send({
                    "type": "done", "shard": shard, "token": run.token,
                    "status": outcome.status, "detail": outcome.detail,
                    "counts": outcome.counts or {},
                    "cycles_run": outcome.cycles_run,
                    "attempts": outcome.attempts,
                    "backend_ok": outcome.backend_ok,
                })
            except (OSError, ValueError):
                pass
        finally:
            # Identity check: a re-grant may have installed a newer run
            # for this shard; only the owner removes its own entry.
            if self._active.get(shard) is run:
                del self._active[shard]

    def _execute_grant(self, shard: str, grant: dict, run: _ShardRun, channel):
        """Run a granted shard through ``execute_spec``, streaming deltas."""
        from .checkpoint import Checkpointer
        from .service import CampaignSpec, execute_spec

        spec = CampaignSpec.from_json_obj(grant["spec"])
        if self.config.min_instrument and not spec.min_instrument:
            spec = replace(spec, min_instrument=True)
        # Fresh scratch per (shard, token): a re-granted shard starts
        # from cycle 0 and replays the same seeded stimulus, which is
        # what makes bounced shards bit-identical.
        scratch = self._state_dir / f"{shard}.t{run.token}"
        checkpointer = Checkpointer(
            scratch,
            every=int(grant.get("checkpoint_every") or 500),
            fsync=False,
            campaign=shard,
        )
        last_counts: dict = {}
        state = {"cycle": 0, "seq": 0}

        def stream_delta(job_id: str, cycle: int, counts: dict) -> None:
            run.cycle = cycle
            if run.suppressed or channel is None:
                return
            delta = {
                name: count - last_counts.get(name, 0)
                for name, count in counts.items()
                if count != last_counts.get(name, 0)
            }
            state["seq"] += 1
            message = {
                "type": "delta", "shard": shard, "token": run.token,
                "seq": state["seq"], "from_cycle": state["cycle"],
                "to_cycle": cycle, "counts": delta,
                "sent_at": time.time(),
            }
            last_counts.clear()
            last_counts.update(counts)
            state["cycle"] = cycle
            try:
                channel.send(message)
            except (OSError, ValueError):
                pass  # link gone; the read loop will notice

        timeout = grant.get("timeout")
        return execute_spec(
            spec, shard, checkpointer,
            cancel_event=run.cancel,
            isolation=self.config.isolation,
            timeout=float(timeout) if timeout is not None else None,
            retries=int(grant.get("retries") or 0),
            progress=stream_delta,
        )

    # -- heartbeats ------------------------------------------------------------

    def _heartbeat_loop(self, channel, period: float) -> None:
        while not self._stop.is_set() and self._channel is channel:
            shards = {
                shard: {"token": run.token, "cycle": run.cycle}
                for shard, run in list(self._active.items())
                if not run.suppressed
            }
            try:
                channel.send({
                    "type": "heartbeat", "worker": self.id,
                    "shards": shards, "sent_at": time.time(),
                })
            except (OSError, ValueError):
                return
            if self._stop.wait(period):
                return
