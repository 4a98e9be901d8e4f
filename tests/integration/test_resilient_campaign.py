"""Acceptance: a multi-backend campaign that degrades gracefully (ISSUE 1).

A four-job campaign over treadle, verilator, and essent, where one backend
is wrapped in the fault injector (hard crash at cycle N) and another
produces a corrupted-counts shard.  The campaign must complete and its
merged report must contain:

* the healthy backends' full counts,
* the crashed backend's last-checkpoint counts (partial contribution),
* the corrupted shard in the quarantine report — not in the merge.
"""

import pytest

from repro.backends import EssentBackend, TreadleBackend, VerilatorBackend
from repro.backends.api import input_widths
from repro.coverage import all_cover_names, instrument, merge_counts
from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.runtime import (
    Checkpointer,
    Executor,
    FaultPlan,
    FaultyBackend,
    RunJob,
    poked_blocks,
)

pytestmark = pytest.mark.faults

CYCLES = 120
CHECKPOINT_EVERY = 25
CRASH_AT = 80


def stimulus(sim, cycle):
    sim.poke("req_valid", 1)
    sim.poke("req_bits", ((cycle % 11 + 2) << 8) | (cycle % 5 + 1))
    sim.poke("resp_ready", 1)


def clean_reference_counts(state, cycles):
    """What an unwrapped backend reports for the campaign stimulus."""
    sim = TreadleBackend().compile_state(state)
    sim.poke("reset", 1)
    sim.step(1)
    sim.poke("reset", 0)
    for cycle in range(cycles):
        stimulus(sim, cycle)
        sim.step(1)
    return sim.cover_counts()


class TestResilientCampaign:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        state, _ = instrument(elaborate(Gcd(width=8)), metrics=["line", "fsm"])
        names = all_cover_names(state.circuit)
        checkpointer = Checkpointer(
            tmp_path_factory.mktemp("shards"), every=CHECKPOINT_EVERY
        )
        crashing = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=CRASH_AT, seed=21))
        corrupting = FaultyBackend(
            EssentBackend(), FaultPlan(corrupt_keys=2, negate_keys=1, seed=22)
        )
        blocks = poked_blocks(stimulus, input_widths(state.circuit))
        jobs = [
            RunJob("healthy-treadle", "treadle",
                   lambda: TreadleBackend().compile_state(state), CYCLES, blocks),
            RunJob("healthy-verilator", "verilator",
                   lambda: VerilatorBackend().compile_state(state), CYCLES, blocks),
            RunJob("crashing-treadle", "faulty-treadle",
                   lambda: crashing.compile_state(state), CYCLES, blocks),
            RunJob("corrupting-essent", "faulty-essent",
                   lambda: corrupting.compile_state(state), CYCLES, blocks),
        ]
        executor = Executor(
            timeout=60, retries=1, checkpointer=checkpointer, sleep=lambda s: None
        )
        result = executor.run_campaign(jobs, known_names=names, counter_width=16)
        return state, names, result

    def test_campaign_completes_despite_faults(self, campaign):
        _, _, result = campaign
        statuses = {o.job_id: o.status for o in result.outcomes}
        assert statuses["healthy-treadle"] == "ok"
        assert statuses["healthy-verilator"] == "ok"
        assert statuses["crashing-treadle"] == "partial"
        assert statuses["corrupting-essent"] == "ok"  # ran fine; shard is the problem

    def test_healthy_backends_contribute_full_counts(self, campaign):
        state, _, result = campaign
        reference = clean_reference_counts(state, CYCLES)
        by_id = {o.job_id: o for o in result.outcomes}
        assert by_id["healthy-treadle"].counts == reference
        assert by_id["healthy-verilator"].counts == reference

    def test_crashed_backend_contributes_last_checkpoint(self, campaign):
        state, _, result = campaign
        by_id = {o.job_id: o for o in result.outcomes}
        partial = by_id["crashing-treadle"]
        # last checkpoint strictly before the injected crash, on the period
        assert partial.cycles_run == 75
        assert partial.counts == clean_reference_counts(state, 75)
        assert [f.kind for f in partial.failures] == ["crash", "crash"]

    def test_corrupted_shard_is_quarantined_not_merged(self, campaign):
        _, _, result = campaign
        assert [q.job_id for q in result.quarantine.quarantined] == [
            "corrupting-essent"
        ]
        kinds = {i.kind for q in result.quarantine.quarantined for i in q.issues}
        assert "unknown-key" in kinds and "negative-count" in kinds
        assert sorted(result.quarantine.merged_job_ids) == [
            "crashing-treadle", "healthy-treadle", "healthy-verilator",
        ]

    def test_merged_counts_are_exactly_the_survivors_sum(self, campaign):
        state, names, result = campaign
        full = clean_reference_counts(state, CYCLES)
        partial = clean_reference_counts(state, 75)
        expected = merge_counts(full, full, partial, counter_width=16)
        assert result.merged == expected
        assert set(result.merged) <= set(names)

    def test_report_narrates_the_campaign(self, campaign):
        _, _, result = campaign
        text = result.format()
        assert "crashing-treadle" in text and "partial" in text
        assert "quarantined 1 shard(s)" in text
        assert "merged coverage:" in text
