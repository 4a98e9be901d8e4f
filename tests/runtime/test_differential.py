"""Differential quorum: vote mechanics + Byzantine backend detection."""

import json

import pytest

from repro.backends import EssentBackend, TreadleBackend, VerilatorBackend
from repro.backends.api import input_widths
from repro.coverage import all_cover_names, instrument
from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.runtime import (
    DifferentialRunner,
    Executor,
    FaultPlan,
    FaultyBackend,
    poked_blocks,
    quorum_merge,
)


class TestQuorumMerge:
    def test_unanimous_legs_merge_cleanly(self):
        counts = {"a": 3, "b": 0}
        merged, report = quorum_merge(
            "job", {"t": dict(counts), "v": dict(counts), "e": dict(counts)}
        )
        assert merged == counts
        assert report.clean
        assert report.outvoted == {}

    def test_majority_outvotes_the_liar(self):
        merged, report = quorum_merge(
            "job", {"t": {"a": 3}, "v": {"a": 3}, "e": {"a": 9}}
        )
        assert merged == {"a": 3}
        assert report.outvoted == {"e": ["a"]}
        assert report.deltas("e") == {"a": 6}

    def test_two_way_split_detects_but_cannot_localise(self):
        merged, report = quorum_merge("job", {"t": {"a": 3}, "v": {"a": 5}})
        assert merged == {}  # no majority: the cover is withheld
        assert report.no_quorum == ["a"]
        assert report.outvoted == {}
        assert "no quorum" in report.format()

    def test_missing_cover_counts_as_disagreement(self):
        merged, report = quorum_merge(
            "job", {"t": {"a": 3, "b": 1}, "v": {"a": 3, "b": 1}, "e": {"a": 3}}
        )
        assert merged == {"a": 3, "b": 1}
        assert report.outvoted == {"e": ["b"]}
        # a backend that dropped the cover has no numeric delta
        assert report.deltas("e") == {}

    def test_report_json_is_structured(self):
        _, report = quorum_merge(
            "job", {"t": {"a": 3}, "v": {"a": 3}, "e": {"a": 9}}
        )
        data = json.loads(report.to_json())
        assert data["outvoted"] == {"e": ["a"]}
        assert data["disagreements"][0]["cover"] == "a"
        assert data["disagreements"][0]["quorum_value"] == 3


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


def honest_counts(gcd_state, cycles=60):
    sim = TreadleBackend().compile_state(gcd_state)
    sim.poke("reset", 1)
    sim.step(1)
    sim.poke("reset", 0)
    for cycle in range(cycles):
        gcd_stimulus(sim, cycle)
        sim.step(1)
    return sim.cover_counts()


@pytest.mark.faults
class TestDifferentialRunner:
    def test_requires_two_backends(self):
        with pytest.raises(ValueError, match=">= 2 backends"):
            DifferentialRunner().run("j", {"t": lambda: None}, cycles=10)

    def test_honest_backends_agree(self, gcd_state):
        result = DifferentialRunner().run(
            "agree",
            {
                "treadle": lambda: TreadleBackend().compile_state(gcd_state),
                "verilator": lambda: VerilatorBackend().compile_state(gcd_state),
            },
            cycles=60,
            stimulus=gcd_blocks(gcd_state),
            known_names=all_cover_names(gcd_state.circuit),
        )
        assert result.agreed
        assert result.merged == honest_counts(gcd_state)
        assert result.quarantine.clean

    def test_lying_backend_is_outvoted(self, gcd_state):
        """Acceptance: plausible-but-wrong counts — invisible to namespace
        and range validation — are outvoted by the honest majority; the
        merged counts match the honest backends exactly and the report
        names the liar and the affected covers."""
        liar = FaultyBackend(
            EssentBackend(), FaultPlan(lie_keys=2, lie_delta=7, seed=11)
        )
        names = all_cover_names(gcd_state.circuit)
        result = DifferentialRunner().run(
            "byzantine",
            {
                "treadle": lambda: TreadleBackend().compile_state(gcd_state),
                "verilator": lambda: VerilatorBackend().compile_state(gcd_state),
                "essent": lambda: liar.compile_state(gcd_state),
            },
            cycles=60,
            stimulus=gcd_blocks(gcd_state),
            known_names=names,
        )
        # the lie really was plausible: every key in-namespace, every count
        # a non-negative int (validation alone would have merged it)
        lying_counts = result.outcomes["essent"].counts
        assert set(lying_counts) <= set(names)
        assert all(type(c) is int and c >= 0 for c in lying_counts.values())
        assert lying_counts != honest_counts(gcd_state)

        # quorum-merged counts match the honest backends exactly
        assert result.merged == honest_counts(gcd_state)
        # the report names the liar and the affected covers
        outvoted = result.report.outvoted
        assert list(outvoted) == ["essent"]
        assert len(outvoted["essent"]) == 2
        assert all(
            delta == 7 for delta in result.report.deltas("essent").values()
        )
        # ... and the liar's contribution is quarantined with evidence
        quarantined = result.quarantine.quarantined
        assert [q.backend for q in quarantined] == ["essent"]
        assert {i.kind for i in quarantined[0].issues} == {"outvoted"}
        assert sorted(result.quarantine.merged_job_ids) == [
            "byzantine@treadle",
            "byzantine@verilator",
        ]

    def test_failed_leg_is_excluded_not_voted(self, gcd_state):
        crashing = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=5, seed=12))
        result = DifferentialRunner(Executor(sleep=lambda s: None)).run(
            "crashleg",
            {
                "treadle": lambda: TreadleBackend().compile_state(gcd_state),
                "verilator": lambda: VerilatorBackend().compile_state(gcd_state),
                "essent": lambda: crashing.compile_state(gcd_state),
            },
            cycles=60,
            stimulus=gcd_blocks(gcd_state),
        )
        assert result.report.voters == ["treadle", "verilator"]
        assert "essent" in result.report.excluded
        assert "status: failed" in result.report.excluded["essent"]
        assert result.merged == honest_counts(gcd_state)

    def test_detectably_corrupt_leg_is_quarantined_before_the_vote(
        self, gcd_state
    ):
        corrupting = FaultyBackend(
            TreadleBackend(), FaultPlan(corrupt_keys=2, seed=13)
        )
        result = DifferentialRunner().run(
            "corruptleg",
            {
                "treadle": lambda: TreadleBackend().compile_state(gcd_state),
                "verilator": lambda: VerilatorBackend().compile_state(gcd_state),
                "essent": lambda: corrupting.compile_state(gcd_state),
            },
            cycles=60,
            stimulus=gcd_blocks(gcd_state),
            known_names=all_cover_names(gcd_state.circuit),
        )
        assert result.report.excluded == {"essent": "failed shard validation"}
        assert result.report.voters == ["treadle", "verilator"]
        quarantined = result.quarantine.quarantined
        assert [q.backend for q in quarantined] == ["essent"]
        assert {i.kind for i in quarantined[0].issues} == {"unknown-key"}
        assert result.merged == honest_counts(gcd_state)
