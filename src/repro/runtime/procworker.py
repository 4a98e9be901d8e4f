"""Process-isolated attempt execution with heartbeat supervision.

PR 1's watchdog contains hangs at *thread* granularity: a wedged attempt
is abandoned as a daemon thread that keeps burning CPU, and a hard
interpreter fault (OOM, segfault in a pathological design, runaway C
recursion) still kills the whole campaign.  This module is the next level
of containment: each attempt runs in a forked OS process that the
supervisor can actually kill.

The protocol, over a one-way ``multiprocessing`` pipe (child → parent):

* ``("beat", cycle)`` — liveness + progress: the last completed cycle,
* ``("shard", cycle, counts)`` — a periodic checkpoint snapshot; the
  *parent* persists it through its :class:`~repro.runtime.checkpoint.\
Checkpointer`, so a killed worker still salvages its last-good counts,
* ``("done", cycles_run, counts)`` — the attempt finished,
* ``("error", kind, message, cycle)`` — the attempt raised; ``kind`` is a
  :class:`~repro.backends.api.RunFailure` kind string,
* ``("spans", events)`` — telemetry only (when the parent's ``obs`` was
  enabled at fork time): trace spans the child recorded since its last
  flush, re-parented into the supervisor's trace on arrival,
* ``("counters", deltas)`` — telemetry only: counter *growth* since the
  child's previous flush.  The fork inherits the parent's accumulated
  counter values copy-on-write, so the child snapshots them at startup
  and ships deltas against that baseline — without this, increments made
  inside a worker (model-cache hits, backend cycles) die with it.

The supervisor kills the worker with ``SIGKILL`` (and reaps it) when the
wall-clock deadline passes or ``max_missed_heartbeats`` consecutive poll
windows elapse without a message — a hang that ignores every cooperative
cancellation mechanism dies anyway.  Optional POSIX ``resource`` caps
(address space, CPU seconds) are applied *inside* the child, so a runaway
attempt hits its own limit instead of the campaign's host.

Requires the ``fork`` start method (POSIX): job factories are closures and
must be inherited, not pickled.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..backends.api import CoverCounts, RunFailure, Simulation, hold_reset
from .telemetry import obs

#: message tags on the child → parent pipe
BEAT = "beat"
SHARD = "shard"
DONE = "done"
ERROR = "error"
SPANS = "spans"
COUNTERS = "counters"

#: the longest block a run loop hands a simulation: the period of the
#: stimulus's cancel check (and of a thread attempt's abandonment check)
BLOCK_CYCLES = 4096


def block_cycles(cycle: int, total: int, *periods: int) -> int:
    """Cycles in the block a run loop drives from ``cycle``.

    Up to ``total`` cycles, ending at the next multiple of
    :data:`BLOCK_CYCLES` and of every non-zero period in ``periods``
    (checkpoints, heartbeats), so each boundary falls between blocks.
    """
    size = total - cycle
    for period in (BLOCK_CYCLES, *periods):
        if period:
            size = min(size, period - cycle % period)
    return size


def run_blocks(
    sim: Simulation,
    job,
    at_boundary: Callable[[int], None],
    periods: tuple[int, ...] = (),
    halted: Callable[[], bool] = lambda: False,
) -> None:
    """The attempt body both isolation levels run: reset, then blocks.

    Holds reset for ``job.reset_cycles`` edges, then drives ``sim`` with
    ``job.stimulus`` (or, without one, steps it) in blocks of
    :func:`block_cycles` over ``periods``, up to ``job.cycles``.  After
    each block that advanced, ``at_boundary(cycle)`` gets the cycles run
    so far.  A stop, a block that ran short, or ``halted()`` (checked
    before each block) ends the loop; a stop during reset therefore ends
    it with no boundary reported.  Whatever the simulation or the
    callbacks raise propagates.
    """
    hold_reset(sim, job.reset_cycles)
    cycle = 0
    while cycle < job.cycles and not halted():
        size = block_cycles(cycle, job.cycles, *periods)
        if job.stimulus is not None:
            result = sim.drive(job.stimulus(cycle, size))
        else:
            result = sim.step(size)
        cycle += result.cycles
        if result.cycles:
            at_boundary(cycle)
        if result.stopped or result.cycles < size:
            break  # a stop, or a sim refusing to advance


# Executor-level attempt number, set in the child before the job factory
# runs.  Fault injectors (FaultyBackend) use it to model transient faults
# correctly under fork: the child's copy of the backend starts from the
# parent's counter, so without this every forked attempt would look like
# attempt 1 and "fails twice, succeeds on the third try" plans never heal.
_CURRENT_ATTEMPT = 0


def current_attempt() -> int:
    """The supervising executor's attempt number, inside a process worker.

    Returns 0 when not running inside a process worker (thread mode, or
    production code importing this module directly).
    """
    return _CURRENT_ATTEMPT


def process_isolation_available() -> bool:
    """Whether this platform can run process-isolated attempts."""
    return "fork" in multiprocessing.get_all_start_methods()


def address_space_mb() -> Optional[int]:
    """Current virtual address-space size (VmSize) of this process, in MiB.

    Tests use this to set an ``RLIMIT_AS`` cap a known margin above the
    interpreter's existing footprint, so an injected memory balloon pops
    after a *deterministic* number of fixed-size chunks instead of racing
    a watchdog.  Returns None where ``/proc`` is unavailable.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmSize:"):
                    return int(line.split()[1]) >> 10  # kB -> MiB
    except (OSError, ValueError, IndexError):
        pass
    return None


def rlimit_as_enforceable() -> bool:
    """Whether ``RLIMIT_AS`` actually stops allocations on this platform.

    Some sandboxes accept ``setrlimit(RLIMIT_AS, ...)`` and then ignore
    it; a balloon test would hang against its watchdog instead of
    popping.  Probe for real: fork a child, cap it slightly above the
    current footprint, and check that a modest allocation burst dies
    with ``MemoryError``.
    """
    if not process_isolation_available():
        return False
    try:
        import resource  # noqa: F401
    except ImportError:  # pragma: no cover — non-POSIX
        return False
    base = address_space_mb()
    if base is None:
        return False

    def probe(conn) -> None:
        chunks = []
        try:
            ResourceLimits(address_space_mb=base + 64).apply()
            for _ in range(16):  # 16 * 16 MiB = 256 MiB >> the 64 MiB slack
                chunks.append(bytearray(16 << 20))
            conn.send(False)   # the cap never bit
        except MemoryError:
            chunks.clear()     # free before touching the pipe
            conn.send(True)
        except Exception:
            conn.send(False)
        finally:
            conn.close()

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    child = ctx.Process(target=probe, args=(child_conn,), daemon=True)
    child.start()
    child_conn.close()
    enforced = False
    try:
        if parent_conn.poll(10):
            enforced = bool(parent_conn.recv())
    except (EOFError, OSError):
        enforced = False
    finally:
        _kill_and_reap(child)
        parent_conn.close()
    return enforced


@dataclass
class ResourceLimits:
    """POSIX rlimit caps applied inside a worker process.

    ``address_space_mb`` caps ``RLIMIT_AS`` (a memory balloon gets a
    ``MemoryError`` instead of taking down the host); ``cpu_seconds`` caps
    ``RLIMIT_CPU`` (a spinning worker is killed by ``SIGXCPU``).  On
    platforms without the ``resource`` module the caps are silently
    unavailable — supervision still works, only the in-child limits drop.
    """

    address_space_mb: Optional[int] = None
    cpu_seconds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.address_space_mb is not None and self.address_space_mb <= 0:
            raise ValueError("address_space_mb must be positive")
        if self.cpu_seconds is not None and self.cpu_seconds <= 0:
            raise ValueError("cpu_seconds must be positive")

    def apply(self) -> None:
        try:
            import resource
        except ImportError:  # pragma: no cover — non-POSIX
            return
        if self.address_space_mb is not None:
            cap = self.address_space_mb << 20
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        if self.cpu_seconds is not None:
            resource.setrlimit(
                resource.RLIMIT_CPU, (self.cpu_seconds, self.cpu_seconds)
            )


@dataclass
class SupervisionPolicy:
    """When the supervisor gives up on a worker.

    ``deadline`` is the per-attempt wall-clock budget in seconds (None
    disables it).  ``heartbeat_timeout`` is one poll window; a worker that
    stays silent for ``max_missed_heartbeats`` consecutive windows is
    presumed wedged and killed even without a deadline.
    ``heartbeat_cycles`` is the child's beat cadence in simulation cycles.
    """

    deadline: Optional[float] = None
    heartbeat_timeout: float = 1.0
    max_missed_heartbeats: int = 5
    heartbeat_cycles: int = 64
    limits: Optional[ResourceLimits] = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None to disable)")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if self.max_missed_heartbeats < 1:
            raise ValueError("max_missed_heartbeats must be >= 1")
        if self.heartbeat_cycles < 1:
            raise ValueError("heartbeat_cycles must be >= 1")


@dataclass
class ProcessAttemptResult:
    """Everything the supervisor learned from one process attempt.

    ``status`` is ``ok`` (clean finish), ``error`` (the child raised and
    reported it), ``killed`` (supervisor SIGKILLed a wedged/overdue child)
    or ``died`` (the child vanished without reporting — segfault, OOM
    kill, ``SIGXCPU``).  ``last_beat_cycle`` records the final progress
    report, which is all the post-mortem a killed worker leaves behind.
    """

    status: str
    counts: Optional[CoverCounts] = None
    cycles_run: int = 0
    failure_kind: str = "error"
    message: str = ""
    last_beat_cycle: int = 0


def _flush_telemetry(conn, baseline: dict) -> None:
    """Send the child's spans and counter growth up the pipe (telemetry on).

    ``baseline`` is the counter snapshot the last flush (or the fork)
    left behind; it is advanced in place after each send so every delta
    is shipped exactly once.
    """
    if not obs.enabled:
        return
    events = obs.tracer.drain()
    if events:
        conn.send((SPANS, events))
    deltas = obs.counter_deltas(baseline)
    if deltas:
        conn.send((COUNTERS, deltas))
        baseline.update(obs.counter_state())


def _child_main(conn, job, attempt: int, policy: SupervisionPolicy,
                checkpoint_every: int) -> None:
    """Worker body: apply limits, run the attempt's blocks, stream progress."""
    global _CURRENT_ATTEMPT
    _CURRENT_ATTEMPT = attempt
    cycles_done = last_batch_cycle = 0
    if obs.enabled:
        # Drop span events inherited across the fork (they belong to the
        # parent's trace); keep the epoch so child timestamps stay on the
        # parent's timeline.
        obs.tracer.clear()
    # Inherited counter values belong to the parent too — only growth past
    # this snapshot is the child's to report.
    baseline = obs.counter_state() if obs.enabled else {}
    attempt_start = batch_start = obs.tracer.clock() if obs.enabled else 0.0

    def mark_batch() -> None:
        nonlocal batch_start, last_batch_cycle
        if obs.enabled:
            now = obs.tracer.clock()
            obs.tracer.record(
                "step-batch", "worker", batch_start, now,
                backend=job.backend_name, cycles=cycles_done - last_batch_cycle,
            )
            batch_start = now
        last_batch_cycle = cycles_done

    def at_boundary(cycle: int) -> None:
        nonlocal cycles_done
        cycles_done = cycle
        if cycle % policy.heartbeat_cycles == 0:
            mark_batch()
            conn.send((BEAT, cycle))
        if checkpoint_every and cycle % checkpoint_every == 0:
            with obs.span(
                "shard-stream", cat="worker",
                backend=job.backend_name, cycle=cycle,
            ):
                conn.send((SHARD, cycle, dict(job.read_counts(sim))))
            _flush_telemetry(conn, baseline)

    try:
        if policy.limits is not None:
            policy.limits.apply()
        conn.send((BEAT, 0))  # alive before the (possibly slow) compile
        with obs.span(
            "compile", cat="worker", backend=job.backend_name, attempt=attempt
        ):
            sim = job.make_sim()
        conn.send((BEAT, 0))
        _flush_telemetry(conn, baseline)
        if obs.enabled:
            batch_start = obs.tracer.clock()
        # blocks end on heartbeat and checkpoint boundaries, so every
        # beat and shard falls exactly on its period
        run_blocks(
            sim, job, at_boundary, (policy.heartbeat_cycles, checkpoint_every)
        )
        if obs.enabled:
            if cycles_done > last_batch_cycle:
                mark_batch()
            obs.tracer.record(
                "child-attempt", "worker", attempt_start, obs.tracer.clock(),
                backend=job.backend_name, attempt=attempt, cycles=cycles_done,
            )
        _flush_telemetry(conn, baseline)
        conn.send((DONE, cycles_done, dict(job.read_counts(sim))))
    except MemoryError:
        # The sim's allocations still pin address space; a well-behaved
        # fault frees before raising (see FaultySimulation), and this small
        # tuple usually fits.  If it doesn't, the parent sees a hard death.
        conn.send((ERROR, "crash", "worker exceeded its memory cap",
                   cycles_done))
    except BaseException as error:
        if obs.enabled:
            obs.tracer.record(
                "child-attempt", "worker", attempt_start, obs.tracer.clock(),
                backend=job.backend_name, attempt=attempt, cycles=cycles_done,
                error=type(error).__name__,
            )
            try:
                _flush_telemetry(conn, baseline)
            except OSError:  # pragma: no cover — broken pipe on teardown
                pass
        conn.send((ERROR, RunFailure.kind_of(error), str(error), cycles_done))
    finally:
        conn.close()


def _kill_and_reap(process) -> None:
    """SIGKILL the worker and wait for the corpse — no zombie, no leak."""
    if process.is_alive() and process.pid is not None:
        try:
            os.kill(process.pid, signal.SIGKILL)
        except ProcessLookupError:  # already gone
            pass
    process.join()


def run_process_attempt(
    job,
    attempt: int,
    policy: SupervisionPolicy,
    checkpoint_every: int = 0,
    on_shard: Optional[Callable[[int, CoverCounts], None]] = None,
) -> ProcessAttemptResult:
    """Run one attempt of ``job`` in a supervised forked process.

    ``on_shard(cycle, counts)`` is invoked in the *parent* for every
    checkpoint snapshot the child streams up — the caller persists them,
    so a later SIGKILL still salvages the last snapshot.
    """
    if not process_isolation_available():
        raise RuntimeError(
            "process isolation requires the 'fork' start method (POSIX); "
            "use thread isolation on this platform"
        )
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    worker = ctx.Process(
        target=_child_main,
        args=(child_conn, job, attempt, policy, checkpoint_every),
        daemon=True,
    )
    worker.start()
    child_conn.close()
    result = ProcessAttemptResult(status="died")
    deadline = (
        time.monotonic() + policy.deadline if policy.deadline is not None else None
    )
    missed = 0
    backend = getattr(job, "backend_name", "?")
    last_message_at = time.monotonic()

    def kill(reason: str, message: str) -> None:
        _kill_and_reap(worker)
        if obs.enabled:
            obs.inc("repro_worker_kills_total", backend=backend, reason=reason)
        result.status = "killed"
        result.failure_kind = "timeout"
        result.message = (
            f"{message}; worker killed "
            f"(last heartbeat: cycle {result.last_beat_cycle})"
        )

    try:
        while True:
            window = policy.heartbeat_timeout
            if deadline is not None:
                window = min(window, max(0.0, deadline - time.monotonic()))
            if parent_conn.poll(window):
                try:
                    message = parent_conn.recv()
                except EOFError:
                    # Child closed the pipe without a verdict: hard death.
                    worker.join()
                    result.status = "died"
                    result.failure_kind = "crash"
                    result.message = (
                        f"worker died without reporting "
                        f"(exit code {worker.exitcode})"
                    )
                    break
                if obs.enabled:
                    now = time.monotonic()
                    obs.observe(
                        "repro_heartbeat_lag_seconds",
                        now - last_message_at,
                        backend=backend,
                    )
                    last_message_at = now
                missed = 0
                tag = message[0]
                if tag == BEAT:
                    _, result.last_beat_cycle = message
                elif tag == SPANS:
                    obs.ingest_child_spans(message[1], child_pid=worker.pid)
                elif tag == COUNTERS:
                    obs.ingest_child_counters(message[1])
                elif tag == SHARD:
                    _, cycle, counts = message
                    result.last_beat_cycle = cycle
                    if on_shard is not None:
                        on_shard(cycle, counts)
                elif tag == DONE:
                    _, result.cycles_run, result.counts = message
                    result.status = "ok"
                    break
                elif tag == ERROR:
                    _, result.failure_kind, result.message, result.cycles_run = (
                        message
                    )
                    result.status = "error"
                    break
            else:
                if deadline is not None and time.monotonic() >= deadline:
                    kill("deadline",
                         f"attempt exceeded {policy.deadline}s wall clock")
                    break
                missed += 1
                if missed >= policy.max_missed_heartbeats:
                    kill("silence",
                         f"no heartbeat for {missed} consecutive "
                         f"{policy.heartbeat_timeout}s windows")
                    break
    finally:
        # Whatever ended the loop, never leave a live child or a zombie.
        _kill_and_reap(worker)
        parent_conn.close()
    return result
