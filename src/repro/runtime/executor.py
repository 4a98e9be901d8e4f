"""Fault-tolerant execution of coverage jobs across unreliable backends.

A *job* is one ``(backend, circuit, stimulus)`` triple.  The executor runs
each job with:

* **crash containment** — a raising backend produces a structured
  :class:`~repro.backends.api.RunFailure` instead of an exception that
  kills the campaign,
* **a wall-clock watchdog** — each attempt runs in a worker thread; if it
  exceeds ``timeout`` seconds the attempt is abandoned and recorded as a
  timeout (the portable fallback against a wedged in-process simulator);
  with ``isolation='process'`` the attempt instead runs in a supervised
  forked process (:mod:`~repro.runtime.procworker`) that can actually be
  SIGKILLed and resource-capped,
* **circuit breakers** — with a :class:`~repro.runtime.breaker.\
BreakerBoard`, a backend that keeps failing gets its remaining jobs
  skipped instead of burning the retry budget,
* **bounded retries** — up to ``retries`` extra attempts per job, with
  exponential backoff plus seeded jitter between attempts; every attempt
  gets a *fresh* simulation from the job's factory,
* **checkpoints** — live count snapshots (``RunJob.read_counts``) every
  K cycles via a :class:`~repro.runtime.checkpoint.Checkpointer`, so a
  job that dies mid-run still contributes its last-good counts, and
* **validated merge with quarantine** — shards are checked against the
  cover namespace before merging; corrupt shards land in the
  :class:`~repro.runtime.validate.QuarantineReport` instead of the merge.
"""

from __future__ import annotations

import logging
import operator
import random
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from ..backends.api import (
    BlockSource,
    CoverCounts,
    InputBlock,
    RunFailure,
    SimulationTimeout,
)
from .breaker import BreakerBoard
from .checkpoint import Checkpointer, Shard, ShardError
from .procworker import (
    ResourceLimits,
    SupervisionPolicy,
    process_isolation_available,
    run_blocks,
    run_process_attempt,
)
from .telemetry import obs
from .validate import QuarantineReport, QuarantinedShard, ShardIssue, merge_shards

logger = logging.getLogger(__name__)


def poked_blocks(stimulus: Callable[[object, int], None],
                 widths: dict[str, int]) -> BlockSource:
    """A block source recording a per-cycle testbench's pokes.

    ``stimulus(sim, cycle)`` is a testbench that only pokes; each block
    calls it once per cycle on a recorder and names the ports it poked,
    in ``widths`` order (``{name: width}``, as
    :func:`~repro.backends.api.input_widths` gives it).  A port's value
    before its first poke is the last one recorded, 0 from cycle 0 — the
    value every input holds after reset.  Raises ``KeyError`` for a poke
    of a port missing from ``widths``.
    """
    return _PokeRecorder(stimulus, widths)


class _PokeRecorder:
    """The simulation a per-cycle testbench pokes (see :func:`poked_blocks`)."""

    def __init__(self, stimulus, widths: dict[str, int]) -> None:
        self._stimulus = stimulus
        self._widths = widths
        self._values: dict[str, int] = {}
        self._poked: set[str] = set()

    def poke(self, port: str, value: int) -> None:
        if port not in self._widths:
            raise KeyError(f"no such input port: {port}")
        self._values[port] = value
        self._poked.add(port)

    def __call__(self, cycle: int, n: int) -> InputBlock:
        if cycle == 0:
            self._values = dict.fromkeys(self._widths, 0)
        self._poked = set()
        rows = []
        for k in range(cycle, cycle + n):
            self._stimulus(self, k)
            rows.append(dict(self._values))
        names = [name for name in self._widths if name in self._poked]
        return InputBlock.encode(
            [(name, self._widths[name]) for name in names],
            [[row[name] for name in names] for row in rows],
        )


@dataclass
class RunJob:
    """One unit of campaign work.

    ``make_sim`` is a zero-argument factory returning a *fresh* simulation
    — called once per attempt, so retries never reuse a poisoned instance.
    ``stimulus`` (optional) is a block source, ``(cycle, n) ->
    InputBlock``: the run loop asks it for each block of inputs in turn,
    from cycle 0 on every attempt, and ``drive``s the simulation with it
    (:func:`poked_blocks` adapts a per-cycle poking testbench).  Without
    one the loop only ``step``s.
    ``read_counts(sim)`` is what the job reports — at every checkpoint
    and at the end: ``cover_counts()`` by default, the lane-merged
    ``merged_cover_counts()`` for a swarm job.
    """

    job_id: str
    backend_name: str
    make_sim: Callable[[], object]
    cycles: int
    stimulus: Optional[BlockSource] = None
    reset_cycles: int = 1
    read_counts: Callable[[object], CoverCounts] = operator.methodcaller(
        "cover_counts"
    )

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError(f"job {self.job_id}: cycles must be positive")


@dataclass
class RunOutcome:
    """Everything the campaign knows about one finished job.

    ``abandoned_attempts`` counts thread-mode attempts whose worker thread
    outlived its watchdog and was left behind as a daemon — a leak the
    campaign should surface, not hide.  ``skip_reason`` is set when the
    job never ran at all (e.g. ``breaker-open``).
    """

    job_id: str
    backend: str
    status: str  # ok | partial | failed | resumed | skipped
    counts: CoverCounts = field(default_factory=dict)
    cycles_run: int = 0
    attempts: int = 0
    failures: list[RunFailure] = field(default_factory=list)
    abandoned_attempts: int = 0
    skip_reason: Optional[str] = None

    @property
    def contributed(self) -> bool:
        """Whether this job has any counts to offer the merge."""
        return self.status in ("ok", "partial", "resumed")

    def shard(self) -> Shard:
        return Shard(
            job_id=self.job_id,
            backend=self.backend,
            cycle=self.cycles_run,
            counts=dict(self.counts),
            complete=self.status in ("ok", "resumed"),
        )


@dataclass
class CampaignResult:
    """A full campaign: per-job outcomes plus the validated merge."""

    outcomes: list[RunOutcome]
    merged: CoverCounts
    quarantine: QuarantineReport
    breakers: Optional[BreakerBoard] = None

    @property
    def failures(self) -> list[RunFailure]:
        return [f for o in self.outcomes for f in o.failures]

    @property
    def abandoned_attempts(self) -> int:
        """Worker threads the campaign abandoned (leaked daemons)."""
        return sum(o.abandoned_attempts for o in self.outcomes)

    @property
    def skipped(self) -> list[RunOutcome]:
        return [o for o in self.outcomes if o.status == "skipped"]

    def format(self) -> str:
        lines = []
        for outcome in self.outcomes:
            if outcome.status == "skipped":
                lines.append(
                    f"{outcome.job_id} ({outcome.backend}): skipped "
                    f"({outcome.skip_reason})"
                )
                continue
            lines.append(
                f"{outcome.job_id} ({outcome.backend}): {outcome.status} "
                f"after {outcome.attempts} attempt(s), "
                f"{outcome.cycles_run} cycles, {len(outcome.counts)} points"
            )
            lines += [f"  ! {failure.format()}" for failure in outcome.failures]
        if self.abandoned_attempts:
            lines.append(
                f"abandoned {self.abandoned_attempts} wedged worker thread(s) "
                "— consider isolation='process'"
            )
        if self.breakers is not None:
            lines.append(self.breakers.format())
        lines.append(self.quarantine.format())
        covered = sum(1 for c in self.merged.values() if c)
        lines.append(f"merged coverage: {covered}/{len(self.merged)} points hit")
        return "\n".join(lines)


class _Attempt(threading.Thread):
    """One watchdogged attempt, run to completion or abandoned.

    ``abandoned`` is set by the watchdog when the attempt times out.  The
    drive loop polls it: an abandoned attempt stops stepping and never
    writes another checkpoint, so a slow-but-not-hung attempt that later
    unwedges cannot clobber a successful retry's shard with stale counts.
    """

    def __init__(self, run: Callable[[], None]) -> None:
        super().__init__(daemon=True)
        self._run = run
        self.error: Optional[BaseException] = None
        self.counts: Optional[CoverCounts] = None
        self.cycles_run = 0
        self.abandoned = threading.Event()

    def run(self) -> None:  # noqa: D102 — Thread API
        try:
            self._run()
        except BaseException as error:  # contained, reported as RunFailure
            self.error = error


class Executor:
    """Runs jobs with timeouts, retries, checkpoints, and quarantine.

    ``timeout`` is the per-attempt wall-clock budget in seconds (None
    disables the watchdog).  ``retries`` is the number of *extra* attempts
    after the first.  ``backoff_base`` doubles per retry and gains up to
    ``backoff_base`` seconds of seeded jitter; ``sleep`` is injectable so
    tests can assert the schedule without actually waiting.

    ``isolation`` selects the containment level per attempt:

    * ``"thread"`` — the PR-1 watchdog: a wedged attempt is abandoned as a
      daemon thread (still burning CPU) and a hard interpreter fault kills
      the campaign,
    * ``"process"`` — each attempt runs in a supervised forked process
      (:mod:`~repro.runtime.procworker`): heartbeats over a pipe, SIGKILL
      + reap on deadline or silence, optional in-child rlimit caps
      (``mem_limit_mb``, ``cpu_limit_s``), checkpoint shards streamed to
      the parent so a killed worker still salvages its last-good counts.

    ``breaker`` (a :class:`~repro.runtime.breaker.BreakerBoard`) lets
    :meth:`run_campaign` skip jobs for a backend that keeps failing.
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff_base: float = 0.05,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        checkpointer: Optional[Checkpointer] = None,
        isolation: str = "thread",
        mem_limit_mb: Optional[int] = None,
        cpu_limit_s: Optional[int] = None,
        heartbeat_timeout: float = 1.0,
        max_missed_heartbeats: int = 5,
        heartbeat_cycles: int = 64,
        breaker: Optional[BreakerBoard] = None,
        tenant: str = "",
        campaign: str = "",
        progress: Optional[Callable[[str, int, CoverCounts], None]] = None,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None to disable)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if isolation not in ("thread", "process"):
            raise ValueError(
                f"isolation must be 'thread' or 'process', got {isolation!r}"
            )
        if isolation == "process" and not process_isolation_available():
            raise RuntimeError(
                "process isolation requires the 'fork' start method (POSIX)"
            )
        if (mem_limit_mb or cpu_limit_s) and isolation != "process":
            raise ValueError("resource limits require isolation='process'")
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.seed = seed
        self.sleep = sleep
        self.checkpointer = checkpointer
        self.isolation = isolation
        self.breaker = breaker
        #: service identity labels on per-job metrics ("" outside the service)
        self.tenant = tenant
        self.campaign = campaign
        #: ``progress(job_id, cycle, counts)`` fires at every checkpoint
        #: boundary with the live cover counts — the streaming seam the
        #: coverage service and cluster workers use to serve partial
        #: results mid-run.  Requires a periodic checkpointer (the hook
        #: shares its cadence); exceptions are contained, never fatal.
        self.progress = progress
        limits = None
        if mem_limit_mb or cpu_limit_s:
            limits = ResourceLimits(
                address_space_mb=mem_limit_mb, cpu_seconds=cpu_limit_s
            )
        self.supervision = SupervisionPolicy(
            deadline=timeout,
            heartbeat_timeout=heartbeat_timeout,
            max_missed_heartbeats=max_missed_heartbeats,
            heartbeat_cycles=heartbeat_cycles,
            limits=limits,
        )

    # -- single job ------------------------------------------------------------

    def backoff_delay(self, attempt: int, job_id: str = "") -> float:
        """Delay before retry ``attempt`` (attempt 2 is the first retry).

        The jitter is seeded per *job*, not just per attempt: with the
        seed alone, every job that fails attempt N sleeps the identical
        "random" delay and the whole campaign retries in lockstep — a
        synchronized stampede against whatever shared resource caused
        the failures in the first place.
        """
        rng = random.Random(f"{self.seed}:{job_id}:backoff:{attempt}")
        return self.backoff_base * (2 ** (attempt - 2)) + rng.uniform(
            0, self.backoff_base
        )

    def run_job(self, job: RunJob) -> RunOutcome:
        with obs.span(
            "job", cat="campaign", job=job.job_id, backend=job.backend_name
        ):
            outcome = self._run_job(job)
        if obs.enabled:
            obs.inc("repro_job_outcomes_total", status=outcome.status,
                    tenant=self.tenant, campaign=self.campaign)
        return outcome

    def _run_job(self, job: RunJob) -> RunOutcome:
        outcome = RunOutcome(job.job_id, job.backend_name, "failed")
        attempt_fn = (
            self._process_attempt if self.isolation == "process"
            else self._thread_attempt
        )
        for attempt in range(1, self.retries + 2):
            if attempt > 1:
                delay = self.backoff_delay(attempt, job.job_id)
                if obs.enabled:
                    obs.inc("repro_retries_total", backend=job.backend_name)
                    obs.inc(
                        "repro_backoff_seconds_total",
                        amount=delay,
                        backend=job.backend_name,
                    )
                self.sleep(delay)
            outcome.attempts = attempt
            with obs.span(
                "attempt", cat="run", job=job.job_id,
                backend=job.backend_name, attempt=attempt,
            ) as span:
                started = time.perf_counter()
                failure = attempt_fn(job, attempt, outcome)
                if obs.enabled:
                    result = "ok" if failure is None else failure.kind
                    span.set(result=result)
                    obs.inc(
                        "repro_attempts_total",
                        backend=job.backend_name, result=result,
                    )
                    obs.observe(
                        "repro_attempt_duration_seconds",
                        time.perf_counter() - started,
                        backend=job.backend_name,
                    )
            if failure is None:
                outcome.status = "ok"
                self._write_shard(outcome)
                return outcome
            outcome.failures.append(failure)
        # All attempts failed: salvage the last checkpoint, if any.
        salvaged = None
        if self.checkpointer is not None:
            with obs.span("salvage", cat="run", job=job.job_id):
                try:
                    salvaged = self.checkpointer.load(job.job_id)
                except (ShardError, OSError):
                    # Corrupt/unreadable shard: nothing to salvage; the file
                    # is reported via the load_all quarantine path, and the
                    # job stays "failed" instead of killing the campaign.
                    salvaged = None
        if salvaged is not None and salvaged.counts:
            outcome.status = "partial"
            outcome.counts = salvaged.counts
            outcome.cycles_run = salvaged.cycle
            if obs.enabled:
                obs.inc("repro_salvaged_jobs_total", backend=job.backend_name)
        return outcome

    def _thread_attempt(
        self, job: RunJob, attempt: int, outcome: RunOutcome
    ) -> Optional[RunFailure]:
        """One watchdogged in-thread attempt; None means success."""
        worker = _Attempt(lambda: self._drive(job, worker))
        started = time.monotonic()
        worker.start()
        worker.join(self.timeout)
        if worker.is_alive():
            # Wedged attempt: abandon the daemon thread, record a timeout.
            # The flag stops the thread from stepping or checkpointing if
            # it ever unwedges, so it cannot race a later attempt's shard.
            worker.abandoned.set()
            outcome.abandoned_attempts += 1
            elapsed = time.monotonic() - started
            if obs.enabled:
                obs.inc(
                    "repro_abandoned_threads_total", backend=job.backend_name
                )
            if outcome.abandoned_attempts == 1:
                # Warn once per job; repeats are counted (outcome +
                # repro_abandoned_threads_total) instead of re-warned.
                logger.warning(
                    "job %s (%s): abandoning wedged worker thread after "
                    "%.1fs elapsed (attempt %d, watchdog %ss) — the daemon "
                    "thread may keep consuming CPU; use isolation='process' "
                    "to kill wedged workers instead",
                    job.job_id, job.backend_name, elapsed, attempt,
                    self.timeout,
                )
            else:
                logger.debug(
                    "job %s (%s): abandoned another wedged worker thread "
                    "after %.1fs elapsed (attempt %d; %d abandoned so far)",
                    job.job_id, job.backend_name, elapsed, attempt,
                    outcome.abandoned_attempts,
                )
            error: BaseException = SimulationTimeout(
                f"attempt exceeded {self.timeout}s wall clock"
            )
        elif worker.error is not None:
            error = worker.error
            if not isinstance(error, Exception):
                raise error  # KeyboardInterrupt etc. must not be swallowed
        else:
            outcome.counts = worker.counts or {}
            outcome.cycles_run = worker.cycles_run
            return None
        return RunFailure(
            job_id=job.job_id,
            backend=job.backend_name,
            kind=RunFailure.kind_of(error),
            attempt=attempt,
            cycle=worker.cycles_run or None,
            message=str(error),
        )

    def _process_attempt(
        self, job: RunJob, attempt: int, outcome: RunOutcome
    ) -> Optional[RunFailure]:
        """One supervised forked-process attempt; None means success."""
        result = run_process_attempt(
            job,
            attempt,
            self.supervision,
            checkpoint_every=self._checkpoint_every,
            on_shard=partial(self._checkpoint, job),
        )
        if result.status == "ok":
            outcome.counts = result.counts or {}
            outcome.cycles_run = result.cycles_run
            return None
        # killed/died workers only leave their last heartbeat as post-mortem
        cycle = (
            result.cycles_run if result.status == "error"
            else result.last_beat_cycle
        )
        return RunFailure(
            job_id=job.job_id,
            backend=job.backend_name,
            kind=result.failure_kind,
            attempt=attempt,
            cycle=cycle or None,
            message=result.message,
        )

    def _drive(self, job: RunJob, worker: _Attempt) -> None:
        """The thread attempt's body (runs on the worker thread).

        The block loop the process worker runs too
        (:func:`~repro.runtime.procworker.run_blocks`), with blocks ending
        at checkpoint boundaries.  Each boundary records the cycles run and
        checkpoints when one is due.  Once the watchdog abandons the
        attempt, it writes no checkpoint, stops before the next block and
        leaves no counts behind.
        """
        sim = job.make_sim()

        def at_boundary(cycle: int) -> None:
            worker.cycles_run = cycle
            if (
                self.checkpointer
                and self.checkpointer.due(cycle)
                and not worker.abandoned.is_set()
            ):
                self._checkpoint(job, cycle, job.read_counts(sim))

        run_blocks(
            sim, job, at_boundary, (self._checkpoint_every,),
            worker.abandoned.is_set,
        )
        if not worker.abandoned.is_set():
            worker.counts = dict(job.read_counts(sim))

    @property
    def _checkpoint_every(self) -> int:
        return self.checkpointer.every if self.checkpointer else 0

    def _checkpoint(self, job: RunJob, cycle: int, counts: CoverCounts) -> None:
        """Write ``job``'s partial shard at a due boundary; report progress.

        The one checkpoint path of both isolation levels: the thread
        attempt calls it with its live counts, the process parent with
        each shard the child streams up.  A raising ``progress`` hook is
        logged, never fatal.
        """
        counts = dict(counts)
        self.checkpointer.write(
            Shard(
                job_id=job.job_id,
                backend=job.backend_name,
                cycle=cycle,
                counts=counts,
                complete=False,
            )
        )
        if self.progress is None:
            return
        try:
            self.progress(job.job_id, cycle, counts)
        except Exception:  # a broken observer must not fail the attempt
            logger.debug("progress hook raised", exc_info=True)

    def _write_shard(self, outcome: RunOutcome) -> None:
        if self.checkpointer:
            self.checkpointer.write(outcome.shard())

    # -- whole campaign ---------------------------------------------------------

    def run_campaign(
        self,
        jobs: Sequence[RunJob],
        known_names: Optional[Iterable[str]] = None,
        counter_width: Optional[int] = None,
        resume: bool = False,
    ) -> CampaignResult:
        """Run every job, then merge the surviving shards with quarantine.

        With ``resume`` (requires a checkpointer), jobs whose shard on disk
        is marked complete are not re-run — their counts are loaded
        directly, so an interrupted campaign picks up where it left off.

        With a :class:`~repro.runtime.breaker.BreakerBoard` configured,
        jobs for a backend whose breaker is open are recorded as
        ``skipped`` (reason ``breaker-open``) instead of burning the full
        timeout × retries budget on a backend that keeps failing.
        """
        if resume and self.checkpointer is None:
            raise ValueError("resume requires a checkpointer")
        with obs.span("campaign", cat="campaign", jobs=len(jobs)):
            return self._run_campaign(jobs, known_names, counter_width, resume)

    def _run_campaign(
        self,
        jobs: Sequence[RunJob],
        known_names: Optional[Iterable[str]],
        counter_width: Optional[int],
        resume: bool,
    ) -> CampaignResult:
        outcomes: list[RunOutcome] = []
        for job in jobs:
            if resume:
                existing = self._load_resumable(job.job_id)
                if existing is not None:
                    if obs.enabled:
                        obs.inc("repro_job_outcomes_total", status="resumed",
                                tenant=self.tenant, campaign=self.campaign)
                    outcomes.append(
                        RunOutcome(
                            job_id=job.job_id,
                            backend=existing.backend,
                            status="resumed",
                            counts=existing.counts,
                            cycles_run=existing.cycle,
                        )
                    )
                    continue
            if self.breaker is not None and not self.breaker.allow(
                job.backend_name
            ):
                logger.warning(
                    "job %s: breaker open for backend %s — skipping",
                    job.job_id, job.backend_name,
                )
                if obs.enabled:
                    obs.inc(
                        "repro_breaker_skips_total", backend=job.backend_name
                    )
                    obs.inc("repro_job_outcomes_total", status="skipped",
                            tenant=self.tenant, campaign=self.campaign)
                outcomes.append(
                    RunOutcome(
                        job_id=job.job_id,
                        backend=job.backend_name,
                        status="skipped",
                        skip_reason="breaker-open",
                    )
                )
                continue
            outcome = self.run_job(job)
            if self.breaker is not None:
                self.breaker.record(job.backend_name, ok=outcome.status == "ok")
            outcomes.append(outcome)

        shards = [o.shard() for o in outcomes if o.contributed]
        with obs.span("merge", cat="campaign", shards=len(shards)):
            merged, quarantine = merge_shards(shards, known_names, counter_width)
        # Shard files that exist but cannot even be parsed are quarantined too.
        if self.checkpointer:
            _, unreadable = self.checkpointer.load_all()
            for path, detail in unreadable:
                quarantine.quarantined.append(
                    QuarantinedShard(
                        job_id=Path(path).name,
                        backend="?",
                        issues=[ShardIssue("unreadable", None, detail)],
                        path=path,
                    )
                )
        return CampaignResult(outcomes, merged, quarantine, breakers=self.breaker)

    def _load_resumable(self, job_id: str) -> Optional[Shard]:
        assert self.checkpointer is not None
        try:
            shard = self.checkpointer.load(job_id)
        except Exception:
            return None  # corrupt shard: re-run the job, quarantine handles the file
        if shard is not None and shard.complete:
            return shard
        return None
