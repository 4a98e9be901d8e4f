"""Coverage-as-a-service: the ``repro serve`` campaign daemon.

Turns the one-shot CLI pipeline into a long-running, multi-tenant
runtime: tenants POST campaign specs over a JSON/HTTP API (stdlib
asyncio, no dependencies), a scheduler multiplexes accepted campaigns
over a bounded worker pool with per-tenant fairness and priorities, and
every accepted campaign survives ``kill -9`` because each state
transition is fsync'd into a write-ahead journal
(:mod:`~repro.runtime.journal`) *before* it is acknowledged.

The robustness contract:

* **Crash safety** — a campaign is acknowledged only after its submit
  record is durable.  On restart the daemon replays the journal,
  re-adopts finished campaigns' counts from their complete checkpoint
  shards (:class:`~repro.runtime.checkpoint.Checkpointer`), and requeues
  every in-flight campaign; seeded stimulus makes the re-run
  bit-identical, so recovery converges on exactly the counts an
  uninterrupted run would have produced.
* **Admission control** — the queue is bounded and per-tenant quotas
  apply; a full queue is an explicit 429-style rejection, never
  unbounded memory.
* **Deadline propagation** — a campaign's ``deadline_s`` becomes the
  executor's per-attempt watchdog budget; under process isolation that
  is a worker SIGKILL.
* **Graceful drain** — SIGTERM stops admission (503), lets running
  campaigns finish (or interrupts them at a cycle boundary after the
  grace period, leaving their checkpoints for the next start), journals
  a ``clean-shutdown`` record, and exits.
* **Graceful degradation** — when a backend's circuit breaker
  (:class:`~repro.runtime.breaker.BreakerBoard`) is open, its campaigns
  are *deferred* (kept queued, retried after the breaker's probe
  window), not failed.
* **Scale-out** — with ``--cluster-port`` the service embeds a
  :class:`~repro.runtime.cluster.ClusterCoordinator` and prefers
  dispatching campaigns to remote workers under lease-fenced grants,
  merging their streamed count deltas into a live partial-report view;
  zero attached workers degrades back to the local thread pool.

Endpoints: ``POST /submit``, ``GET /status/<id>``, ``GET /campaigns``,
``POST /cancel/<id>``, ``GET /report/<id>``, ``GET /metrics``
(Prometheus text), ``GET /healthz``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import operator
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional

from .breaker import BreakerBoard
from .checkpoint import Checkpointer, Shard
from .cluster import ClusterCoordinator, LiveCoverage
from .executor import CampaignResult, Executor, RunJob, Stimulus
from .journal import Journal
from .telemetry import obs

logger = logging.getLogger(__name__)

#: campaign spec schema version carried in submit records
SPEC_VERSION = 1

KNOWN_METRICS = ("line", "toggle", "fsm", "ready_valid", "mux_toggle")

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL = (DONE, FAILED, CANCELLED)


class SpecError(ValueError):
    """A submitted campaign spec is malformed (HTTP 400)."""


class CampaignCancelled(Exception):
    """Raised inside the drive loop when a campaign's cancel flag is set."""


@dataclass
class CampaignSpec:
    """What one tenant asks the service to run.

    ``circuit`` is the textual IR of an (optionally pre-instrumented)
    circuit; ``metrics`` asks the service to instrument it first.
    ``deadline_s`` caps each attempt's wall clock (under process
    isolation, by SIGKILL).  Higher ``priority`` schedules earlier.
    """

    tenant: str
    circuit: str
    backend: str = "treadle"
    cycles: int = 1000
    metrics: tuple[str, ...] = ()
    seed: int = 0
    random_inputs: bool = True
    priority: int = 0
    deadline_s: Optional[float] = None
    reset_cycles: int = 1
    counter_width: Optional[int] = None
    checkpoint_every: int = 0
    #: count only the minimal cover basis; shards, WAL records, and
    #: cluster delta streams then carry fewer counters, and the final
    #: counts are reconstructed (bit-identical) before being reported
    min_instrument: bool = False

    def to_json_obj(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "tenant": self.tenant,
            "circuit": self.circuit,
            "backend": self.backend,
            "cycles": self.cycles,
            "metrics": list(self.metrics),
            "seed": self.seed,
            "random_inputs": self.random_inputs,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "reset_cycles": self.reset_cycles,
            "counter_width": self.counter_width,
            "checkpoint_every": self.checkpoint_every,
            "min_instrument": self.min_instrument,
        }

    @staticmethod
    def from_json_obj(data) -> "CampaignSpec":
        from ..backends import BACKENDS

        if not isinstance(data, dict):
            raise SpecError(f"spec must be a JSON object, got {type(data).__name__}")

        def pick(key, kind, default, *, required=False):
            value = data.get(key, default)
            if required and (value is None or value == ""):
                raise SpecError(f"spec field {key!r} is required")
            if value is None and default is None:
                return None
            if kind is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
                raise SpecError(
                    f"spec field {key!r}: expected {kind.__name__}, "
                    f"got {type(value).__name__}"
                )
            return value

        tenant = pick("tenant", str, "anon") or "anon"
        circuit = pick("circuit", str, None, required=True)
        backend = pick("backend", str, "treadle")
        if backend not in BACKENDS:
            raise SpecError(
                f"unknown backend {backend!r} (have: {', '.join(sorted(BACKENDS))})"
            )
        cycles = pick("cycles", int, 1000)
        if cycles <= 0:
            raise SpecError(f"cycles must be positive, got {cycles}")
        metrics_raw = data.get("metrics", [])
        if not isinstance(metrics_raw, list) or not all(
            isinstance(m, str) for m in metrics_raw
        ):
            raise SpecError("spec field 'metrics': expected a list of strings")
        unknown = sorted(set(metrics_raw) - set(KNOWN_METRICS))
        if unknown:
            raise SpecError(
                f"unknown metrics {', '.join(unknown)} "
                f"(have: {', '.join(KNOWN_METRICS)})"
            )
        deadline = pick("deadline_s", float, None)
        if deadline is not None and deadline <= 0:
            raise SpecError(f"deadline_s must be positive, got {deadline}")
        reset_cycles = pick("reset_cycles", int, 1)
        if reset_cycles < 0:
            raise SpecError("reset_cycles must be >= 0")
        checkpoint_every = pick("checkpoint_every", int, 0)
        if checkpoint_every < 0:
            raise SpecError("checkpoint_every must be >= 0")
        counter_width = pick("counter_width", int, None)
        if counter_width is not None and counter_width <= 0:
            raise SpecError("counter_width must be positive")
        # The circuit must at least parse — reject garbage at the door
        # with a 400 instead of failing the campaign later.
        from ..ir import parse_circuit

        try:
            parse_circuit(circuit)
        except Exception as error:
            raise SpecError(f"circuit does not parse: {error}") from None
        return CampaignSpec(
            tenant=tenant,
            circuit=circuit,
            backend=backend,
            cycles=cycles,
            metrics=tuple(metrics_raw),
            seed=pick("seed", int, 0),
            random_inputs=pick("random_inputs", bool, True),
            priority=pick("priority", int, 0),
            deadline_s=deadline,
            reset_cycles=reset_cycles,
            counter_width=counter_width,
            checkpoint_every=checkpoint_every,
            min_instrument=pick("min_instrument", bool, False),
        )


@dataclass
class Campaign:
    """One accepted campaign's live state inside the service."""

    id: str
    seq: int
    spec: CampaignSpec
    status: str = QUEUED
    detail: str = ""
    counts: Optional[dict] = None
    cycles_run: int = 0
    attempts: int = 0
    not_before: float = 0.0  # monotonic; breaker-deferral backoff
    cancel_event: threading.Event = field(default_factory=threading.Event)
    cancel_reason: str = ""
    #: streaming partial counts while RUNNING (local or merged deltas)
    live: Optional[LiveCoverage] = None
    remote: bool = False       # currently leased to a cluster worker
    worker: str = ""           # the leased worker's id (diagnostic)
    lease_token: int = 0       # current fencing token (diagnostic)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    def to_public(self) -> dict:
        out = {
            "id": self.id,
            "tenant": self.spec.tenant,
            "backend": self.spec.backend,
            "cycles": self.spec.cycles,
            "priority": self.spec.priority,
            "status": self.status,
            "detail": self.detail,
            "cycles_run": self.cycles_run,
            "attempts": self.attempts,
        }
        if self.remote and self.worker:
            out["worker"] = self.worker
        if self.counts is not None:
            out["covered"] = sum(1 for c in self.counts.values() if c)
            out["points"] = len(self.counts)
        return out


@dataclass
class ExecutionOutcome:
    """What one campaign execution produced (worker-thread result).

    ``counts`` is None when nothing trustworthy survived: the job never
    produced counts, or every shard it produced was quarantined.
    ``result`` is the executor's own report (failures, quarantine, the
    job's status) for front ends that print it.
    """

    status: str  # done | failed | interrupted
    detail: str = ""
    counts: Optional[dict] = None
    cycles_run: int = 0
    attempts: int = 0
    backend_ok: bool = False  # feeds the breaker
    result: Optional[CampaignResult] = None


class PreparedCampaign:
    """The front half of every campaign: circuit, namespace, stimulus.

    Parses the spec's circuit, instruments and/or minimizes it, and
    collects the cover names; then hands out what a run needs — a
    compile factory per backend, the seeded stimulus, and reconstruction
    of the covers minimization elided.  :func:`execute_spec` drives them
    through the executor, ``repro simulate --differential`` through the
    differential runner.
    """

    def __init__(self, spec: CampaignSpec) -> None:
        from ..coverage import all_cover_names, instrument
        from ..ir import parse_circuit

        self.spec = spec
        circuit = parse_circuit(spec.circuit)
        self._min_db = None
        if spec.metrics:
            state, db = instrument(
                circuit, metrics=list(spec.metrics), minimize=spec.min_instrument
            )
            circuit = state.circuit
            if spec.min_instrument:
                self._min_db = db
        elif spec.min_instrument:
            from ..analysis.implication import minimize_circuit

            state, self._min_db = minimize_circuit(circuit)
            circuit = state.circuit
        self.circuit = circuit
        self.names = all_cover_names(circuit)
        #: (name, width) of every randomly driven input, in port order
        self._inputs = [
            (p.name, getattr(p.type, "width", 1) or 1)
            for p in circuit.top.inputs
            if p.name not in ("clock", "reset")
        ]

    def make_sim(self, backend) -> Callable[[], object]:
        """A factory compiling a fresh simulation on ``backend``."""
        circuit, width = self.circuit, self.spec.counter_width
        return lambda: backend.compile(circuit, counter_width=width)

    def stimulus(self, lanes: int = 1,
                 cancel_event: Optional[threading.Event] = None
                 ) -> Optional[Stimulus]:
        """The per-cycle stimulus: the cancel check and seeded random inputs.

        The RNGs re-seed at cycle 0, so every attempt replays the same
        inputs.  With ``lanes > 1`` (a swarm job) lane *l* replays the
        stream of ``seed + l``; with one lane a poke drives every lane
        alike.  None when there is nothing to do per cycle, so the
        executor steps in blocks.
        """
        spec = self.spec
        if not spec.random_inputs and cancel_event is None:
            return None
        seed, inputs = spec.seed, self._inputs if spec.random_inputs else ()
        rngs = [random.Random() for _ in range(lanes)]
        draw = rngs[0].getrandbits

        def stimulus(sim, cycle):
            if cancel_event is not None and cancel_event.is_set():
                raise CampaignCancelled("cancelled")
            if not cycle:
                for lane, rng in enumerate(rngs):
                    rng.seed(seed + lane)
            if lanes == 1:
                for name, width in inputs:
                    sim.poke(name, draw(width))
            else:
                for name, width in inputs:
                    sim.poke_lanes(name, [rng.getrandbits(width) for rng in rngs])

        return stimulus

    def reconstruct(self, counts: dict) -> dict:
        """Full counts from the basis counts shards, WAL and deltas carry."""
        if self._min_db is None:
            return dict(counts)
        from ..coverage.common import InstanceTree

        return self._min_db.reconstruct_counts(
            counts, InstanceTree(self.circuit),
            counter_width=self.spec.counter_width,
        )

    @staticmethod
    def warm(factories, isolation: str) -> None:
        """Compile once in this process before any attempt forks.

        Forked workers inherit the warm in-memory model cache
        copy-on-write, so no attempt pays its own compile: exactly one
        per circuit and backend.  A no-op without process isolation or
        without a model cache.
        """
        from ..backends import default_cache

        if isolation == "process" and default_cache() is not None:
            for factory in factories:
                factory()


def execute_spec(
    spec: CampaignSpec,
    campaign_id: str,
    checkpointer: Optional[Checkpointer],
    *,
    cancel_event: Optional[threading.Event] = None,
    isolation: str = "thread",
    timeout: Optional[float] = None,
    retries: int = 0,
    progress=None,
    backend=None,
    resume: bool = True,
    **executor_options,
) -> ExecutionOutcome:
    """Run one campaign spec to completion (or interruption).

    The one path from a spec to counts: the service scheduler, the
    cluster worker, ``repro simulate`` and the tests computing reference
    counts all run it (the bit-identical recovery check *is* this
    function run twice).

    Deterministic by construction: the stimulus RNG is re-seeded from
    ``spec.seed`` at every attempt, so any two runs of the same spec —
    including a post-crash re-run — produce bit-identical counts.  On
    ``swarm`` lane *l* replays ``spec.seed + l`` and the job reports the
    lanes' merged counts.  With ``resume`` (and a checkpointer) a
    complete shard left by a previous run is adopted instead of re-run.

    ``backend`` replaces ``BACKENDS[spec.backend]()`` (the CLI's
    ``--no-jit`` and ``--lanes``); further keyword arguments configure
    the :class:`Executor` (``seed``, ``breaker``, ``mem_limit_mb``,
    ``cpu_limit_s``).  ``progress`` (optional ``fn(job_id, cycle,
    counts)``) is forwarded to the executor's checkpoint-boundary hook —
    the seam the service's live partial reports and the cluster workers'
    delta streams hang off.
    """
    from ..backends import BACKENDS

    executor = Executor(
        timeout=spec.deadline_s if spec.deadline_s is not None else timeout,
        retries=retries,
        checkpointer=checkpointer,
        isolation=isolation,
        tenant=spec.tenant,
        campaign=campaign_id,
        progress=progress,
        **executor_options,
    )
    plan = PreparedCampaign(spec)
    if backend is None:
        backend = BACKENDS[spec.backend]()
    swarm = spec.backend == "swarm"
    job = RunJob(
        job_id=campaign_id,
        backend_name=spec.backend,
        make_sim=plan.make_sim(backend),
        cycles=spec.cycles,
        stimulus=plan.stimulus(backend.lanes if swarm else 1, cancel_event),
        reset_cycles=spec.reset_cycles,
    )
    if swarm:
        job.read_counts = operator.methodcaller("merged_cover_counts")
    plan.warm([job.make_sim], isolation)
    result = executor.run_campaign(
        [job],
        known_names=plan.names,
        counter_width=spec.counter_width,
        resume=resume and checkpointer is not None,
    )
    outcome = result.outcomes[0]
    run = dict(cycles_run=outcome.cycles_run, attempts=outcome.attempts,
               result=result)
    if cancel_event is not None and cancel_event.is_set():
        return ExecutionOutcome("interrupted", "cancelled at a cycle boundary",
                                **run)
    if outcome.contributed and not result.quarantine.merged_job_ids:
        # Counts exist but failed validation: reporting {} would launder
        # the corruption into "0 points covered".
        return ExecutionOutcome(FAILED, "every shard was quarantined", **run)
    if outcome.status in ("ok", "resumed"):
        detail = "resumed from complete shard" if outcome.status == "resumed" else ""
        return ExecutionOutcome(DONE, detail, plan.reconstruct(result.merged),
                                backend_ok=True, **run)
    detail = "; ".join(f.format() for f in outcome.failures[-2:]) or outcome.status
    if outcome.status == "partial":
        return ExecutionOutcome(
            FAILED, f"partial ({outcome.cycles_run} cycles salvaged): {detail}",
            plan.reconstruct(result.merged), **run,
        )
    return ExecutionOutcome(FAILED, detail, **run)


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune (see the README flag table)."""

    state_dir: Path
    host: str = "127.0.0.1"
    port: int = 0
    max_workers: int = 2
    max_queue: int = 64
    tenant_quota: int = 16
    journal_fsync: bool = True
    compact_every: int = 256
    isolation: str = "thread"
    default_timeout: Optional[float] = None
    retries: int = 0
    checkpoint_every: int = 500
    breaker_threshold: int = 3
    breaker_retry_s: float = 0.25
    drain_grace: float = 30.0
    max_body_bytes: int = 8 << 20
    model_cache_dir: Optional[str] = None
    telemetry: bool = True
    #: default ``min_instrument`` for submitted specs that omit the key
    min_instrument: bool = False
    #: TCP port for the cluster coordinator (None = no cluster, 0 = auto)
    cluster_port: Optional[int] = None
    #: remote shard lease duration; a worker silent this long is presumed
    #: dead and its shard is re-dispatched under a new fencing token
    lease_s: float = 10.0
    #: heartbeat period handed to workers in the welcome frame
    cluster_heartbeat_s: float = 2.0
    #: Retry-After hint (seconds) stamped on 429/503 rejections
    retry_after_s: float = 1.0
    #: auto-compact the WAL once it grows past this many bytes (0 = off)
    compact_max_bytes: int = 4 << 20

    def __post_init__(self) -> None:
        self.state_dir = Path(self.state_dir)
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1")
        if self.lease_s <= 0:
            raise ValueError("lease_s must be positive")
        if self.cluster_heartbeat_s <= 0:
            raise ValueError("cluster_heartbeat_s must be positive")
        if self.retry_after_s < 0:
            raise ValueError("retry_after_s must be >= 0")
        if self.compact_max_bytes < 0:
            raise ValueError("compact_max_bytes must be >= 0")


class CoverageService:
    """The daemon: HTTP front end, fair scheduler, WAL-backed state."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.campaigns: dict[str, Campaign] = {}
        self.breakers = BreakerBoard(
            failure_threshold=max(1, config.breaker_threshold)
        )
        self.journal: Optional[Journal] = None
        self.recovery: dict = {}
        self.port: Optional[int] = None
        self.cluster: Optional[ClusterCoordinator] = None
        self.cluster_port: Optional[int] = None
        self._next_fence = 1  # monotonic fencing-token allocator (journaled)
        self._queue: list[Campaign] = []
        self._running: dict[str, Campaign] = {}
        self._tenant_served: dict[str, int] = {}
        self._next_seq = 1
        self._draining = False
        self._stopping = False
        self._pause_dispatch = False  # test seam: hold the queue still
        self._records_since_compact = 0
        self._clean_shutdown_seen = False
        self._pool = ThreadPoolExecutor(
            max_workers=config.max_workers,
            thread_name_prefix="repro-serve",
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Recover state from the journal, then start serving."""
        if self.config.telemetry:
            obs.enable()
        if self.config.model_cache_dir:
            from ..backends import ModelCache, set_default_cache

            set_default_cache(ModelCache(self.config.model_cache_dir))
        self.config.state_dir.mkdir(parents=True, exist_ok=True)
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._recover()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.cluster_port is not None:
            # After _recover(): the coordinator's lease table starts its
            # fencing tokens at the journaled next_fence watermark.
            self.cluster = ClusterCoordinator(self)
            await self.cluster.start()
            self.cluster_port = self.cluster.port
        self._scheduler_task = asyncio.create_task(self._scheduler_loop())
        logger.info(
            "serving on %s:%d (state: %s, recovered: %s)",
            self.config.host, self.port, self.config.state_dir, self.recovery,
        )

    async def run(self) -> None:
        """CLI entry point: serve until SIGTERM/SIGINT drains us."""
        await self.start()
        print(
            f"repro serve: listening on http://{self.config.host}:{self.port}",
            flush=True,
        )
        if self.cluster_port is not None:
            print(
                f"repro serve: cluster coordinator on "
                f"{self.config.host}:{self.cluster_port}",
                flush=True,
            )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self._drain_and_stop())
                )
            except NotImplementedError:  # pragma: no cover — non-POSIX loop
                pass
        await self._stopped.wait()

    def start_in_thread(self, timeout: float = 30.0) -> "CoverageService":
        """Run the service on a background thread (tests, examples).

        Returns once the HTTP socket is bound; ``self.port`` is then
        valid.  Stop with :meth:`shutdown`.
        """
        started = threading.Event()
        failure: list[BaseException] = []

        async def body():
            try:
                await self.start()
            except BaseException as error:  # surface bind/recovery failures
                failure.append(error)
                started.set()
                return
            started.set()
            await self._stopped.wait()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(body()), daemon=True,
            name="repro-serve-loop",
        )
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("service failed to start within the timeout")
        if failure:
            raise failure[0]
        return self

    def shutdown(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop a threaded service.

        ``drain=True`` is the SIGTERM path: stop admitting, finish or
        interrupt in-flight campaigns, journal ``clean-shutdown``.
        ``drain=False`` aborts without the clean-shutdown record — the
        in-process stand-in for ``kill -9`` in recovery tests.
        """
        if self._loop is None or self._thread is None:
            return
        try:
            if drain:
                self._loop.call_soon_threadsafe(
                    lambda: asyncio.ensure_future(self._drain_and_stop())
                )
            else:
                self._loop.call_soon_threadsafe(self._abort)
        except RuntimeError:
            pass  # loop already closed: shutdown is idempotent
        self._thread.join(timeout)

    async def _drain_and_stop(self) -> None:
        """Graceful drain: the SIGTERM semantics (§12 in DESIGN.md)."""
        if self._draining:
            return
        self._draining = True
        logger.info(
            "draining: %d running, %d queued", len(self._running),
            len(self._queue),
        )
        deadline = time.monotonic() + self.config.drain_grace
        while self._running and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        if self._running:
            # Past grace: interrupt at the next cycle boundary.  The
            # campaigns stay journaled as in-flight and resume next start.
            for campaign in list(self._running.values()):
                if campaign.remote:
                    # Remote shards are revoked, not waited for: the
                    # journaled submit record resumes them next start.
                    if self.cluster is not None:
                        self.cluster.revoke(campaign.id, "drain")
                    self._running.pop(campaign.id, None)
                    campaign.status = QUEUED
                    campaign.detail = (
                        "interrupted by drain; will resume on restart"
                    )
                    campaign.remote = False
                    campaign.live = None
                    self._queue.append(campaign)
                    continue
                campaign.cancel_reason = "drain"
                campaign.cancel_event.set()
            hard_deadline = time.monotonic() + 10.0
            while self._running and time.monotonic() < hard_deadline:
                await asyncio.sleep(0.05)
        try:
            self.journal.append({
                "type": "clean-shutdown",
                "queued": sorted(c.id for c in self._queue),
            })
        except Exception:
            logger.exception("clean-shutdown record failed")
        self._abort()

    def _abort(self) -> None:
        """Tear down the loop side without touching the journal."""
        self._stopping = True
        if self.cluster is not None:
            self.cluster.close()
        if self._server is not None:
            self._server.close()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
        if self.journal is not None:
            self.journal.close()
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self._stopped is not None:
            self._stopped.set()

    # -- recovery --------------------------------------------------------------

    def shard_dir(self, campaign_id: str) -> Path:
        return self.config.state_dir / "shards" / campaign_id

    def _checkpointer(self, campaign: Campaign) -> Checkpointer:
        return Checkpointer(
            self.shard_dir(campaign.id),
            every=campaign.spec.checkpoint_every or self.config.checkpoint_every,
            fsync=True,
            campaign=campaign.id,
        )

    def _recover(self) -> None:
        """Replay the journal and rebuild the campaign table.

        Crash-recovery invariant: the executor persists a campaign's
        complete shard *before* the service journals its ``finish``
        record, so every journal state is recoverable — a crash between
        the two leaves an in-flight campaign whose ``resume`` adopts the
        complete shard and re-journals the same terminal state.
        """
        self.journal = Journal(
            self.config.state_dir / "journal.wal",
            fsync=self.config.journal_fsync,
            auto_compact_bytes=self.config.compact_max_bytes,
            snapshot_provider=self._snapshot_record,
        )
        replayed = self.journal.recovered
        for record in replayed.records:
            self._apply_record(record)
        adopted = requeued = lost = 0
        for campaign in sorted(self.campaigns.values(), key=lambda c: c.seq):
            if campaign.status == DONE:
                shard = self._load_complete_shard(campaign.id)
                if shard is not None:
                    campaign.counts = dict(shard.counts)
                    adopted += 1
                    if obs.enabled:
                        obs.inc("repro_serve_recovered_campaigns_total",
                                outcome="adopted")
                else:
                    # Journal says done but the shard is gone/corrupt:
                    # re-run deterministically rather than lose the job.
                    campaign.status = QUEUED
                    campaign.detail = "requeued: finished shard unreadable"
                    campaign.counts = None
                    self._enqueue(campaign, recovering=True)
                    requeued += 1
            elif campaign.terminal:
                adopted += 1
            else:
                campaign.status = QUEUED
                if not campaign.detail:
                    campaign.detail = "requeued after restart"
                self._enqueue(campaign, recovering=True)
                requeued += 1
                if obs.enabled:
                    obs.inc("repro_serve_recovered_campaigns_total",
                            outcome="requeued")
        self.recovery = {
            "replayed_records": len(replayed.records),
            "torn_tail": replayed.torn,
            "clean_shutdown": self._clean_shutdown_seen,
            "adopted": adopted,
            "requeued": requeued,
            "lost": lost,  # structurally zero: every submit is journaled
        }

    def _apply_record(self, record: dict) -> None:
        kind = record.get("type")
        if kind == "submit":
            try:
                spec = CampaignSpec.from_json_obj(record.get("spec"))
            except SpecError as error:  # journal from a newer/older schema
                logger.warning("skipping unreplayable submit record: %s", error)
                return
            campaign = Campaign(
                id=str(record.get("id")), seq=int(record.get("seq", 0)),
                spec=spec,
            )
            self.campaigns[campaign.id] = campaign
            self._next_seq = max(self._next_seq, campaign.seq + 1)
        elif kind == "finish":
            campaign = self.campaigns.get(str(record.get("id")))
            if campaign is not None:
                campaign.status = str(record.get("status", FAILED))
                campaign.detail = str(record.get("detail", ""))
                campaign.cycles_run = int(record.get("cycles_run", 0))
                campaign.attempts = int(record.get("attempts", 0))
        elif kind == "lease":
            # A fencing token was armed before this journal life ended;
            # the next token must land strictly above it, or a zombie
            # holder could collide with a fresh grant.
            self._next_fence = max(
                self._next_fence, int(record.get("token", 0)) + 1
            )
        elif kind == "clean-shutdown":
            self._clean_shutdown_seen = True
        elif kind == "snapshot":
            self.campaigns.clear()
            self._next_seq = max(1, int(record.get("next_seq", 1)))
            self._next_fence = max(
                self._next_fence, int(record.get("next_fence", 1))
            )
            for entry in record.get("campaigns", []):
                self._apply_record(dict(entry, type="submit"))
                if entry.get("status") in TERMINAL:
                    self._apply_record(dict(entry, type="finish"))
        else:
            logger.warning("unknown journal record type %r ignored", kind)

    def _load_complete_shard(self, campaign_id: str):
        try:
            shard = Checkpointer(self.shard_dir(campaign_id)).load(campaign_id)
        except Exception:
            return None
        return shard if shard is not None and shard.complete else None

    def _snapshot_record(self) -> dict:
        entries = []
        for campaign in sorted(self.campaigns.values(), key=lambda c: c.seq):
            entry = {
                "id": campaign.id,
                "seq": campaign.seq,
                "status": campaign.status,
                "detail": campaign.detail,
                "cycles_run": campaign.cycles_run,
                "attempts": campaign.attempts,
                "spec": campaign.spec.to_json_obj(),
            }
            entries.append(entry)
        return {
            "type": "snapshot",
            "next_seq": self._next_seq,
            "next_fence": self._next_fence,
            "campaigns": entries,
        }

    def _maybe_compact(self) -> None:
        self._records_since_compact += 1
        if self._records_since_compact < self.config.compact_every:
            return
        try:
            self.journal.compact(self._snapshot_record())
            self._records_since_compact = 0
        except Exception:
            logger.exception("journal compaction failed; appends continue")

    def _journal_lease(self, campaign_id: str, worker_id: str,
                       token: int) -> bool:
        """Durably arm a fencing token *before* the grant can exist.

        Write-ahead for fencing: if this append fails the grant never
        happens; if it succeeds and the coordinator dies, recovery
        restarts token allocation strictly above it.  Returns False on
        journal trouble (the caller falls back to the local pool).
        """
        try:
            self.journal.append({
                "type": "lease",
                "id": campaign_id,
                "worker": worker_id,
                "token": token,
            })
        except Exception:
            logger.exception(
                "campaign %s: lease record failed; not granting", campaign_id
            )
            return False
        self._next_fence = max(self._next_fence, token + 1)
        self._maybe_compact()
        return True

    # -- admission & scheduling ------------------------------------------------

    def _tenant_load(self, tenant: str) -> int:
        return sum(
            1 for c in self._queue if c.spec.tenant == tenant
        ) + sum(1 for c in self._running.values() if c.spec.tenant == tenant)

    def admission_reason(self, tenant: str) -> Optional[str]:
        """Why a submit from ``tenant`` must be refused (None = admit)."""
        if self._draining or self._stopping:
            return "draining"
        if len(self._queue) >= self.config.max_queue:
            return "queue-full"
        if self._tenant_load(tenant) >= self.config.tenant_quota:
            return "tenant-quota"
        return None

    def _enqueue(self, campaign: Campaign, recovering: bool = False) -> None:
        self._queue.append(campaign)
        self._gauge_queue(campaign.spec.tenant)
        if not recovering and self._wake is not None:
            self._wake.set()

    def _gauge_queue(self, tenant: str) -> None:
        if obs.enabled:
            depth = sum(1 for c in self._queue if c.spec.tenant == tenant)
            obs.set_gauge("repro_serve_queue_depth", depth, tenant=tenant)

    def pick_next(self) -> Optional[Campaign]:
        """The queued campaign the scheduler should run next.

        Order: highest priority first; within a priority band, the tenant
        with the least in-flight work, then the least-recently-served
        tenant, then submission order — per-tenant fairness that a
        flooding tenant cannot starve.  Campaigns whose backend breaker
        refuses them are deferred in place (kept queued with a retry
        backoff), not failed: degraded-mode queueing.
        """
        now = time.monotonic()
        running_by_tenant: dict[str, int] = {}
        for c in self._running.values():
            running_by_tenant[c.spec.tenant] = (
                running_by_tenant.get(c.spec.tenant, 0) + 1
            )
        eligible = sorted(
            (c for c in self._queue if c.not_before <= now),
            key=lambda c: (
                -c.spec.priority,
                running_by_tenant.get(c.spec.tenant, 0),
                self._tenant_served.get(c.spec.tenant, 0),
                c.seq,
            ),
        )
        for campaign in eligible:
            if not self.breakers.allow(campaign.spec.backend):
                campaign.not_before = now + self.config.breaker_retry_s
                campaign.detail = (
                    f"deferred: circuit breaker open for {campaign.spec.backend}"
                )
                if obs.enabled:
                    obs.inc("repro_serve_breaker_deferrals_total",
                            backend=campaign.spec.backend)
                continue
            return campaign
        return None

    async def _scheduler_loop(self) -> None:
        try:
            while not self._stopping:
                if self.cluster is not None:
                    self.cluster.tick()
                self._dispatch_ready()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.1)
                except asyncio.TimeoutError:
                    pass
                self._wake.clear()
        except asyncio.CancelledError:
            pass

    def _local_running(self) -> int:
        """In-flight campaigns occupying local thread-pool slots."""
        return sum(1 for c in self._running.values() if not c.remote)

    def _dispatch_ready(self) -> None:
        """Drain the queue onto remote workers first, local slots second.

        Remote capacity is preferred (it is usually the larger pool and
        keeps the local slots free for when the fleet shrinks); with zero
        workers attached this degrades to exactly the pre-cluster local
        scheduling.  A failed grant (journal trouble) falls back to a
        local slot in the same pass.
        """
        if self._draining or self._pause_dispatch:
            return
        while True:
            worker = (
                self.cluster.pick_worker() if self.cluster is not None
                else None
            )
            local_free = self._local_running() < self.config.max_workers
            if worker is None and not local_free:
                return
            campaign = self.pick_next()
            if campaign is None:
                return
            if worker is not None and self._dispatch_remote(campaign, worker):
                continue
            if not local_free:
                return
            self._dispatch(campaign)

    def _start_running(self, campaign: Campaign) -> None:
        """Shared queued→running bookkeeping for both dispatch paths."""
        self._queue.remove(campaign)
        self._gauge_queue(campaign.spec.tenant)
        campaign.status = RUNNING
        campaign.detail = ""
        self._running[campaign.id] = campaign
        tenant = campaign.spec.tenant
        self._tenant_served[tenant] = self._tenant_served.get(tenant, 0) + 1
        if obs.enabled:
            obs.set_gauge("repro_serve_active_campaigns", len(self._running))

    def _dispatch_remote(self, campaign: Campaign, worker) -> bool:
        """Lease ``campaign`` to a cluster worker; False falls back local."""
        if not self.cluster.dispatch(campaign, worker):
            return False
        self._start_running(campaign)
        campaign.remote = True
        campaign.worker = worker.id
        lease = self.cluster.leases.get(campaign.id)
        campaign.lease_token = lease.token if lease is not None else 0
        if obs.enabled:
            obs.inc("repro_cluster_dispatches_total", mode="remote")
        return True

    def _dispatch(self, campaign: Campaign) -> None:
        self._start_running(campaign)
        campaign.live = LiveCoverage(source="local")
        if obs.enabled and self.cluster is not None:
            obs.inc("repro_cluster_dispatches_total", mode="local")
        future = self._loop.run_in_executor(
            self._pool, self._execute, campaign
        )
        future.add_done_callback(
            lambda fut, c=campaign: self._on_done(c, fut)
        )

    def _execute(self, campaign: Campaign) -> ExecutionOutcome:
        """Worker-thread body: run the campaign spec under the executor."""

        def live_progress(job_id: str, cycle: int, counts: dict) -> None:
            # Worker thread → loop-thread readers: LiveCoverage fields are
            # replaced wholesale (never mutated in place), so /report sees
            # either the previous checkpoint's view or this one.
            live = campaign.live
            if live is None:
                return
            live.counts = counts
            live.cycle = cycle
            live.updated_at = time.monotonic()

        try:
            return execute_spec(
                campaign.spec,
                campaign.id,
                self._checkpointer(campaign),
                cancel_event=campaign.cancel_event,
                isolation=self.config.isolation,
                timeout=self.config.default_timeout,
                retries=self.config.retries,
                progress=live_progress,
            )
        except Exception as error:
            logger.exception("campaign %s: runner failed", campaign.id)
            return ExecutionOutcome(status=FAILED, detail=str(error))

    def _finalize(self, campaign: Campaign, status: str, detail: str,
                  counts: Optional[dict], cycles_run: int,
                  attempts: int) -> None:
        """Shared terminal path: set state, journal ``finish``, account."""
        campaign.status = status
        campaign.detail = detail
        campaign.counts = counts
        campaign.cycles_run = cycles_run
        campaign.attempts = attempts
        campaign.live = None
        campaign.remote = False
        try:
            self.journal.append({
                "type": "finish",
                "id": campaign.id,
                "status": status,
                "detail": campaign.detail,
                "cycles_run": campaign.cycles_run,
                "attempts": campaign.attempts,
            })
        except Exception:
            logger.exception(
                "campaign %s: finish record failed; state is in-memory only",
                campaign.id,
            )
        if obs.enabled:
            obs.inc("repro_serve_campaigns_total",
                    tenant=campaign.spec.tenant, status=status)
        self._maybe_compact()
        if self._wake is not None:
            self._wake.set()

    def _on_done(self, campaign: Campaign, future) -> None:
        """Back on the loop thread: record the outcome durably."""
        self._running.pop(campaign.id, None)
        if obs.enabled:
            obs.set_gauge("repro_serve_active_campaigns", len(self._running))
        try:
            outcome = future.result()
        except Exception as error:  # pool shutdown / cancelled future
            outcome = ExecutionOutcome(status="interrupted", detail=str(error))
        self.breakers.record(campaign.spec.backend, ok=outcome.backend_ok)
        if outcome.status == "interrupted" and campaign.cancel_reason == "drain":
            # Drain interruption is not an outcome: the campaign goes back
            # to queued (journal already holds its submit record) and the
            # next process life resumes it.
            campaign.status = QUEUED
            campaign.detail = "interrupted by drain; will resume on restart"
            campaign.cancel_event.clear()
            campaign.cancel_reason = ""
            campaign.live = None
            self._queue.append(campaign)
            self._gauge_queue(campaign.spec.tenant)
            return
        status = (
            CANCELLED if outcome.status == "interrupted" else outcome.status
        )
        self._finalize(campaign, status, outcome.detail, outcome.counts,
                       outcome.cycles_run, outcome.attempts)

    # -- cluster callbacks (loop thread, called by the coordinator) -------------

    def _finish_remote(self, campaign_id: str, *, status: str, detail: str,
                       counts: Optional[dict], cycles_run: int, attempts: int,
                       backend_ok: bool, worker: str, token: int) -> None:
        """A fenced-valid ``done`` frame arrived for a remote campaign."""
        campaign = self.campaigns.get(campaign_id)
        if campaign is None or campaign.status != RUNNING or not campaign.remote:
            return  # finished/cancelled while the frame was in flight
        self._running.pop(campaign_id, None)
        if obs.enabled:
            obs.set_gauge("repro_serve_active_campaigns", len(self._running))
        self.breakers.record(campaign.spec.backend, ok=backend_ok)
        final = CANCELLED if status == "interrupted" else status
        if final == DONE and counts is not None:
            # Crash-recovery invariant (same as the local executor): the
            # complete shard is on disk *before* the finish record, so a
            # crash between the two re-adopts instead of re-running.
            try:
                self._checkpointer(campaign).write(Shard(
                    job_id=campaign_id,
                    backend=campaign.spec.backend,
                    cycle=cycles_run,
                    counts=dict(counts),
                    complete=True,
                    origin=f"{worker}#{token}",
                ))
            except Exception:
                logger.exception(
                    "campaign %s: persisting remote shard failed", campaign_id
                )
        self._finalize(campaign, final, detail, counts, cycles_run, attempts)

    def _remote_lost(self, campaign_id: str, reason: str) -> None:
        """A remote campaign's lease died (expiry/disconnect): requeue it.

        Deterministic seeding makes the re-run — on any worker or the
        local pool — bit-identical, so losing a worker costs time, never
        correctness.
        """
        campaign = self.campaigns.get(campaign_id)
        if campaign is None or campaign.status != RUNNING or not campaign.remote:
            return
        self._running.pop(campaign_id, None)
        if obs.enabled:
            obs.set_gauge("repro_serve_active_campaigns", len(self._running))
        campaign.status = QUEUED
        campaign.detail = f"requeued: {reason}"
        campaign.remote = False
        campaign.worker = ""
        campaign.lease_token = 0
        campaign.live = None
        campaign.cancel_event.clear()
        self._queue.append(campaign)
        self._gauge_queue(campaign.spec.tenant)
        if self._wake is not None:
            self._wake.set()

    # -- submit/cancel (loop thread) -------------------------------------------

    def submit(self, spec: CampaignSpec) -> tuple[Optional[Campaign], Optional[str]]:
        """Admit, journal, and enqueue one campaign.

        Returns ``(campaign, None)`` or ``(None, rejection_reason)``.
        The campaign exists only after its submit record is durable —
        write-ahead, then acknowledge.
        """
        reason = self.admission_reason(spec.tenant)
        if reason is not None:
            if obs.enabled:
                obs.inc("repro_serve_admission_rejections_total",
                        tenant=spec.tenant, reason=reason)
            return None, reason
        seq = self._next_seq
        campaign = Campaign(id=f"c{seq:06d}", seq=seq, spec=spec)
        self.journal.append({
            "type": "submit",
            "id": campaign.id,
            "seq": seq,
            "spec": spec.to_json_obj(),
        })
        self._next_seq = seq + 1
        self.campaigns[campaign.id] = campaign
        self._enqueue(campaign)
        self._maybe_compact()
        return campaign, None

    def cancel(self, campaign_id: str) -> tuple[int, dict]:
        campaign = self.campaigns.get(campaign_id)
        if campaign is None:
            return 404, {"error": f"no campaign {campaign_id}"}
        if campaign.terminal:
            return 409, {"error": f"campaign is already {campaign.status}"}
        if campaign.status == QUEUED:
            self._queue.remove(campaign)
            self._gauge_queue(campaign.spec.tenant)
            campaign.status = CANCELLED
            campaign.detail = "cancelled while queued"
            self.journal.append({
                "type": "finish", "id": campaign.id, "status": CANCELLED,
                "detail": campaign.detail, "cycles_run": 0, "attempts": 0,
            })
            if obs.enabled:
                obs.inc("repro_serve_campaigns_total",
                        tenant=campaign.spec.tenant, status=CANCELLED)
            return 200, campaign.to_public()
        if campaign.remote:
            # Remote: revoke the lease (the worker stops at its next cycle
            # boundary and goes quiet) and finalize immediately — any late
            # frame under the dead token is fenced off at the door.
            if self.cluster is not None:
                self.cluster.revoke(campaign.id, "cancelled by user")
            self._running.pop(campaign.id, None)
            if obs.enabled:
                obs.set_gauge("repro_serve_active_campaigns",
                              len(self._running))
            self._finalize(campaign, CANCELLED, "cancelled by user", None,
                           campaign.cycles_run, campaign.attempts)
            return 200, campaign.to_public()
        # Running locally: flag it; the drive loop raises at the next cycle.
        campaign.cancel_reason = "user"
        campaign.cancel_event.set()
        return 202, campaign.to_public()

    # -- HTTP ------------------------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        endpoint = "?"
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), timeout=30.0
                )
            except _HttpError as error:
                endpoint = error.endpoint
                await self._respond(writer, error.code, {"error": error.message},
                                    endpoint=endpoint)
                return
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError):
                return
            method, path, body = request
            endpoint = path.strip("/").split("/", 1)[0] or "root"
            code, payload, content_type = self._route(method, path, body)
            await self._respond(writer, code, payload,
                                content_type=content_type, endpoint=endpoint)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader) -> tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, path, _version = parts
        headers = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > self.config.max_body_bytes:
            raise _HttpError(
                413,
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit",
                endpoint=path.strip("/").split("/", 1)[0] or "root",
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    def _route(self, method: str, path: str, body: bytes):
        """Dispatch one request; returns (code, payload, content-type)."""
        parts = [p for p in path.split("?")[0].split("/") if p]
        head = parts[0] if parts else ""
        if method == "POST" and head == "submit":
            try:
                obj = json.loads(body or b"{}")
            except json.JSONDecodeError as error:
                return 400, {"error": f"body is not JSON: {error}"}, None
            if (
                self.config.min_instrument
                and isinstance(obj, dict)
                and "min_instrument" not in obj
            ):
                # server-wide default: submitters may still opt out with
                # an explicit "min_instrument": false
                obj["min_instrument"] = True
            try:
                spec = CampaignSpec.from_json_obj(obj)
            except SpecError as error:
                return 400, {"error": str(error)}, None
            try:
                campaign, reason = self.submit(spec)
            except Exception as error:
                logger.exception("submit failed")
                return 500, {"error": f"submit failed: {error}"}, None
            if campaign is None:
                code = 503 if reason == "draining" else 429
                return code, {"error": f"admission refused: {reason}",
                              "reason": reason,
                              "retry_after": self.config.retry_after_s}, None
            return 202, {"id": campaign.id, "status": campaign.status}, None
        if method == "GET" and head == "status" and len(parts) == 2:
            campaign = self.campaigns.get(parts[1])
            if campaign is None:
                return 404, {"error": f"no campaign {parts[1]}"}, None
            return 200, campaign.to_public(), None
        if method == "GET" and head == "campaigns":
            return 200, {
                "campaigns": [
                    c.to_public()
                    for c in sorted(self.campaigns.values(), key=lambda c: c.seq)
                ]
            }, None
        if method == "POST" and head == "cancel" and len(parts) == 2:
            code, payload = self.cancel(parts[1])
            return code, payload, None
        if method == "GET" and head == "report" and len(parts) == 2:
            campaign = self.campaigns.get(parts[1])
            if campaign is None:
                return 404, {"error": f"no campaign {parts[1]}"}, None
            if campaign.counts is None:
                live = campaign.live
                if (campaign.status == RUNNING and live is not None
                        and live.updated_at > 0):
                    # Mid-run: serve the streamed partial view, clearly
                    # marked — advisory counts, exact ones come at finish.
                    return 200, {
                        "id": campaign.id,
                        "status": campaign.status,
                        "partial": True,
                        "cycles_run": live.cycle,
                        "counts": live.counts,
                        "progress": round(
                            live.cycle / max(1, campaign.spec.cycles), 4
                        ),
                        "staleness_s": round(
                            max(0.0, time.monotonic() - live.updated_at), 3
                        ),
                        "source": live.source,
                    }, None
                return 409, {"error": f"campaign is {campaign.status}; "
                                      "no counts yet"}, None
            return 200, {"id": campaign.id, "status": campaign.status,
                         "partial": False,
                         "cycles_run": campaign.cycles_run,
                         "counts": campaign.counts}, None
        if method == "GET" and head == "metrics":
            return 200, obs.metrics.to_prometheus(), "text/plain; version=0.0.4"
        if method == "GET" and head == "healthz":
            by_status: dict[str, int] = {}
            for c in self.campaigns.values():
                by_status[c.status] = by_status.get(c.status, 0) + 1
            out = {
                "status": "draining" if self._draining else "ok",
                "queued": len(self._queue),
                "running": len(self._running),
                "campaigns": by_status,
                "recovery": self.recovery,
                "breakers": self.breakers.snapshot(),
                "journal_bytes": self.journal.size_bytes,
                "journal_compactions": self.journal.compactions,
            }
            if self.cluster is not None:
                out["cluster"] = dict(
                    self.cluster.snapshot(), port=self.cluster_port
                )
            return 200, out, None
        return 404, {"error": f"no route for {method} {path}"}, None

    async def _respond(self, writer, code: int, payload,
                       content_type: Optional[str] = None,
                       endpoint: str = "?") -> None:
        if content_type is None:
            content_type = "application/json"
            body = json.dumps(payload, sort_keys=True).encode() + b"\n"
        else:
            body = payload.encode() if isinstance(payload, str) else payload
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 409: "Conflict",
                  413: "Payload Too Large", 429: "Too Many Requests",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(code, "OK")
        retry_after = ""
        if code in (429, 503):
            # Back-pressure responses tell the client when to come back;
            # the client jitters around it so the herd does not re-sync.
            hint = max(1, int(round(self.config.retry_after_s)))
            retry_after = f"Retry-After: {hint}\r\n"
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{retry_after}"
            "Connection: close\r\n\r\n"
        )
        if obs.enabled:
            obs.inc("repro_serve_requests_total",
                    endpoint=endpoint, code=str(code))
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except ConnectionError:
            pass


class _HttpError(Exception):
    def __init__(self, code: int, message: str, endpoint: str = "?") -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.endpoint = endpoint
