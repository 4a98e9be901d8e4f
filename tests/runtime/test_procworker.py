"""Process-isolated workers: supervision, SIGKILL + salvage, rlimits.

The headline test here is the one PR 1 could not have: a *hard* hang that
ignores every cooperative cancellation mechanism.  Under the thread-mode
executor that attempt would leak a spinning daemon thread for the life of
the interpreter (and the faults-suite SIGALRM deadline would fire);
the process supervisor SIGKILLs it, reaps the corpse, and salvages the
last streamed checkpoint shard.
"""

import multiprocessing

import pytest

from repro.backends import TreadleBackend
from repro.backends.api import input_widths
from repro.coverage import all_cover_names, instrument
from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.runtime import (
    Checkpointer,
    Executor,
    FaultPlan,
    FaultyBackend,
    ResourceLimits,
    RunJob,
    SupervisionPolicy,
    poked_blocks,
    process_isolation_available,
    run_process_attempt,
)
from repro.runtime.procworker import address_space_mb, rlimit_as_enforceable

pytestmark = [
    pytest.mark.faults,
    pytest.mark.skipif(
        not process_isolation_available(),
        reason="process isolation requires the fork start method",
    ),
]


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


def reference_counts(gcd_state, cycles):
    sim = TreadleBackend().compile_state(gcd_state)
    sim.poke("reset", 1)
    sim.step(1)
    sim.poke("reset", 0)
    for cycle in range(cycles):
        gcd_stimulus(sim, cycle)
        sim.step(1)
    return sim.cover_counts()


class TestConfigValidation:
    def test_policy_rejects_bad_values(self):
        with pytest.raises(ValueError, match="deadline"):
            SupervisionPolicy(deadline=0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            SupervisionPolicy(heartbeat_timeout=0)
        with pytest.raises(ValueError, match="max_missed_heartbeats"):
            SupervisionPolicy(max_missed_heartbeats=0)
        with pytest.raises(ValueError, match="heartbeat_cycles"):
            SupervisionPolicy(heartbeat_cycles=0)

    def test_limits_reject_bad_values(self):
        with pytest.raises(ValueError, match="address_space_mb"):
            ResourceLimits(address_space_mb=0)
        with pytest.raises(ValueError, match="cpu_seconds"):
            ResourceLimits(cpu_seconds=-1)

    def test_executor_rejects_limits_without_process_isolation(self):
        with pytest.raises(ValueError, match="isolation='process'"):
            Executor(mem_limit_mb=256)

    def test_executor_rejects_unknown_isolation(self):
        with pytest.raises(ValueError, match="isolation"):
            Executor(isolation="fiber")


class TestProcessAttempt:
    def test_healthy_attempt_matches_reference(self, gcd_state):
        job = make_job(TreadleBackend(), gcd_state)
        result = run_process_attempt(job, 1, SupervisionPolicy(deadline=60))
        assert result.status == "ok"
        assert result.cycles_run == 60
        assert result.counts == reference_counts(gcd_state, 60)

    def test_child_exception_is_reported_not_fatal(self, gcd_state):
        backend = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=10, seed=1))
        job = make_job(backend, gcd_state)
        result = run_process_attempt(job, 1, SupervisionPolicy(deadline=60))
        assert result.status == "error"
        assert result.failure_kind == "crash"
        assert "injected crash" in result.message

    def test_deadline_kills_cooperative_hang(self, gcd_state):
        backend = FaultyBackend(TreadleBackend(), FaultPlan(hang_at=5, seed=2))
        job = make_job(backend, gcd_state)
        policy = SupervisionPolicy(
            deadline=0.5, heartbeat_timeout=0.1, heartbeat_cycles=1
        )
        result = run_process_attempt(job, 1, policy)
        assert result.status == "killed"
        assert result.failure_kind == "timeout"
        assert "worker killed" in result.message
        assert not multiprocessing.active_children()


class TestHardHang:
    """Acceptance: a stimulus that ignores cancellation must still die."""

    def test_hard_hang_killed_checkpoint_salvaged_campaign_completes(
        self, gcd_state, tmp_path
    ):
        # hang_hard_at ignores both the executor's abandoned flag and the
        # fault injector's release event: under PR 1's thread executor the
        # worker would spin forever as a leaked daemon (this test's SIGALRM
        # deadline is what would catch the regression).
        backend = FaultyBackend(TreadleBackend(), FaultPlan(hang_hard_at=10, seed=3))
        checkpointer = Checkpointer(tmp_path, every=4)
        executor = Executor(
            isolation="process",
            timeout=5,
            heartbeat_timeout=0.2,
            max_missed_heartbeats=3,
            heartbeat_cycles=1,
            checkpointer=checkpointer,
            sleep=lambda s: None,
        )
        names = all_cover_names(gcd_state.circuit)
        jobs = [
            make_job(backend, gcd_state, job_id="wedged", cycles=100),
            make_job(TreadleBackend(), gcd_state, job_id="healthy"),
        ]
        result = executor.run_campaign(jobs, known_names=names)

        wedged, healthy = result.outcomes
        # killed within the deadline, last streamed shard salvaged
        assert wedged.status == "partial"
        assert [f.kind for f in wedged.failures] == ["timeout"]
        assert "worker killed" in wedged.failures[0].message
        assert wedged.cycles_run == 8  # checkpoints streamed at cycles 4, 8
        assert wedged.counts == reference_counts(gcd_state, 8)
        # no leaked worker process
        assert not multiprocessing.active_children()
        # ... and the campaign completed around it
        assert healthy.status == "ok"
        assert result.quarantine.merged_job_ids == ["wedged", "healthy"]

    def test_silence_without_deadline_is_killed_by_missed_heartbeats(
        self, gcd_state
    ):
        backend = FaultyBackend(TreadleBackend(), FaultPlan(hang_hard_at=5, seed=4))
        executor = Executor(
            isolation="process",
            timeout=None,  # no deadline: heartbeat supervision must fire
            heartbeat_timeout=0.2,
            max_missed_heartbeats=3,
            heartbeat_cycles=1,
        )
        outcome = executor.run_job(make_job(backend, gcd_state))
        assert outcome.status == "failed"
        assert [f.kind for f in outcome.failures] == ["timeout"]
        assert "no heartbeat for 3" in outcome.failures[0].message


class TestResourceCaps:
    def test_memory_balloon_pops_on_rlimit(self, gcd_state):
        """The balloon must hit the address-space cap before heartbeat
        supervision gives up on the silent child: the cap sits a fixed
        margin above the worker's baseline VmSize and the balloon grows
        in deterministic fixed-size chunks, so only a handful of
        allocations (well under a second) pop it — no race against the
        watchdog, no dependence on the machine's memory layout."""
        if not rlimit_as_enforceable():
            pytest.skip("platform does not enforce RLIMIT_AS for this user")
        base_mb = address_space_mb()
        assert base_mb is not None  # rlimit_as_enforceable() proved /proc works
        backend = FaultyBackend(
            TreadleBackend(),
            FaultPlan(balloon_at=5, balloon_chunk_mb=16, seed=5),
        )
        executor = Executor(
            isolation="process",
            timeout=30,
            mem_limit_mb=base_mb + 96,  # ~6 chunks past baseline
            heartbeat_cycles=1,
        )
        outcome = executor.run_job(make_job(backend, gcd_state))
        assert outcome.status == "failed"
        assert [f.kind for f in outcome.failures] == ["crash"]
        assert "memory balloon popped" in outcome.failures[0].message
        assert not multiprocessing.active_children()


class TestRetriesAcrossForks:
    def test_transient_fault_heals_despite_forked_attempt_counters(
        self, gcd_state
    ):
        """Each forked child gets a copy of the backend's attempt counter;
        the executor's attempt number (via current_attempt) must win, or a
        fails-twice plan would fault on every fork forever."""
        backend = FaultyBackend(
            TreadleBackend(), FaultPlan(crash_at=8, fail_attempts=2, seed=6)
        )
        executor = Executor(
            isolation="process", timeout=30, retries=2, sleep=lambda s: None
        )
        outcome = executor.run_job(make_job(backend, gcd_state))
        assert outcome.status == "ok"
        assert outcome.attempts == 3
        assert [f.kind for f in outcome.failures] == ["crash", "crash"]
        assert outcome.counts == reference_counts(gcd_state, 60)


class TestModelCacheAcrossShards:
    def test_exactly_one_compile_per_circuit_backend(self, tmp_path, gcd_state):
        """Warm-before-fork: the parent compiles once; every process shard
        inherits the in-memory entry copy-on-write and reports a cache hit
        through the counter-forwarding pipe.  The misses metric staying at
        one proves no shard recompiled."""
        from repro.backends import ModelCache
        from repro.runtime.telemetry import obs

        obs.reset()
        obs.enable()
        try:
            cache = ModelCache(tmp_path / "cache")
            backend = TreadleBackend(cache=cache)
            backend.compile_state(gcd_state)  # the one cold compile
            assert (cache.misses, cache.hits) == (1, 0)
            misses = obs.metrics.get("repro_model_cache_misses_total")
            assert misses.value(backend="treadle") == 1

            executor = Executor(isolation="process", timeout=60)
            names = all_cover_names(gcd_state.circuit)
            jobs = [
                make_job(backend, gcd_state, job_id=f"shard-{i}")
                for i in range(3)
            ]
            result = executor.run_campaign(jobs, known_names=names)
            assert [o.status for o in result.outcomes] == ["ok"] * 3

            # each forked shard hit the inherited warm cache, and its
            # counter delta came back over the pipe
            hits = obs.metrics.get("repro_model_cache_hits_total")
            assert hits.value(backend="treadle") >= 3
            assert misses.value(backend="treadle") == 1
            assert cache.misses == 1  # parent never recompiled either
        finally:
            obs.disable()
            obs.reset()
