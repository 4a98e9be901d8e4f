"""Circuit breakers: state machine unit tests + campaign integration."""

import pytest

from repro.backends import TreadleBackend
from repro.backends.api import input_widths
from repro.coverage import all_cover_names, instrument
from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.runtime import (
    BreakerBoard,
    CircuitBreaker,
    Executor,
    FaultPlan,
    FaultyBackend,
    RunJob,
    poked_blocks,
)


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker("b", failure_threshold=0)
        with pytest.raises(ValueError, match="probe_after"):
            CircuitBreaker("b", probe_after=0)

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker("b", failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_opens_at_consecutive_threshold(self):
        breaker = CircuitBreaker("b", failure_threshold=3)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.skipped == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker("b", failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # never 3 *consecutive*

    def test_half_open_probe_success_recloses(self):
        breaker = CircuitBreaker("b", failure_threshold=2, probe_after=2)
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.allow()  # skip 1
        assert not breaker.allow()  # skip 2
        assert breaker.allow()  # half-open probe
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker("b", failure_threshold=2, probe_after=1)
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()  # probe
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # back to skipping
        assert breaker.opens == 2

    def test_snapshot_and_format(self):
        breaker = CircuitBreaker("essent", failure_threshold=1)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["failures"] == 1
        assert "essent: open" in breaker.format()


class TestBreakerBoard:
    def test_breakers_are_per_backend(self):
        board = BreakerBoard(failure_threshold=1)
        board.record("bad", ok=False)
        assert not board.allow("bad")
        assert board.allow("good")
        assert board.tripped == ["bad"]

    def test_json_snapshot(self):
        board = BreakerBoard(failure_threshold=1)
        board.record("bad", ok=False)
        assert '"state": "open"' in board.to_json()


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


@pytest.mark.faults
class TestCampaignIntegration:
    """Acceptance: broken backend's remaining jobs are skipped, not failed."""

    def test_breaker_opens_and_remaining_jobs_skip(self, gcd_state):
        crashing = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=3, seed=8))
        board = BreakerBoard(failure_threshold=2, probe_after=100)
        executor = Executor(breaker=board, sleep=lambda s: None)
        names = all_cover_names(gcd_state.circuit)

        def job(job_id, backend, backend_name):
            return RunJob(
                job_id,
                backend_name,
                lambda: backend.compile_state(gcd_state),
                cycles=60,
                stimulus=gcd_blocks(gcd_state),
            )

        healthy = TreadleBackend()
        jobs = [
            job("bad-1", crashing, "essent"),
            job("good-1", healthy, "treadle"),
            job("bad-2", crashing, "essent"),
            job("bad-3", crashing, "essent"),
            job("bad-4", crashing, "essent"),
            job("good-2", healthy, "treadle"),
        ]
        result = executor.run_campaign(jobs, known_names=names)
        statuses = {o.job_id: o.status for o in result.outcomes}
        # two failures trip the breaker; the rest of essent's jobs skip
        assert statuses == {
            "bad-1": "failed",
            "good-1": "ok",
            "bad-2": "failed",
            "bad-3": "skipped",
            "bad-4": "skipped",
            "good-2": "ok",
        }
        skipped = {o.job_id: o.skip_reason for o in result.skipped}
        assert skipped == {"bad-3": "breaker-open", "bad-4": "breaker-open"}
        # skipped jobs burned zero attempts and recorded zero failures
        for outcome in result.skipped:
            assert outcome.attempts == 0
            assert not outcome.failures
        # breaker state lands in the campaign report
        assert result.breakers is board
        assert board.breakers["essent"].state == "open"
        assert board.breakers["treadle"].state == "closed"
        report = result.format()
        assert "skipped (breaker-open)" in report
        assert "essent: open" in report
        # healthy backend still contributed to the merge
        assert result.quarantine.merged_job_ids == ["good-1", "good-2"]

    def test_half_open_probe_heals_a_recovered_backend(self, gcd_state):
        transient = FaultyBackend(
            TreadleBackend(), FaultPlan(crash_at=3, fail_attempts=2, seed=9)
        )
        board = BreakerBoard(failure_threshold=2, probe_after=1)
        executor = Executor(breaker=board, sleep=lambda s: None)

        def job(job_id):
            return RunJob(
                job_id,
                "treadle",
                lambda: transient.compile_state(gcd_state),
                cycles=60,
                stimulus=gcd_blocks(gcd_state),
            )

        # attempts 1 and 2 fault (fail_attempts=2), tripping the breaker;
        # job 3 skips; job 4 is the half-open probe and succeeds (attempt 3
        # of the plan runs clean), re-closing the breaker for job 5.
        result = executor.run_campaign([job(f"j{i}") for i in range(1, 6)])
        statuses = [o.status for o in result.outcomes]
        assert statuses == ["failed", "failed", "skipped", "ok", "ok"]
        assert board.breakers["treadle"].state == "closed"
