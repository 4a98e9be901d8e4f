"""Thread and process isolation run one attempt body.

Both isolation levels drive an attempt through ``procworker.run_blocks``
and checkpoint through ``Executor._checkpoint``.  So for one job they
must report the same ``progress`` cycles, write the same partial shards
and end with the same outcome, although the process worker's blocks
also end at its 64-cycle heartbeats.  Each case pins its expected cycles,
and every reported count must equal a direct run to that cycle.
"""

from dataclasses import dataclass

import pytest

from repro.backends import TreadleBackend
from repro.backends.api import InputBlock, hold_reset, input_widths
from repro.coverage import instrument
from repro.hcl import Module, elaborate
from repro.runtime import (
    Checkpointer,
    Executor,
    RunJob,
    poked_blocks,
    process_isolation_available,
)

ISOLATIONS = [
    "thread",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not process_isolation_available(),
            reason="process isolation requires the fork start method",
        ),
    ),
]


class _Ticker(Module):
    """Counts the cycles ``en`` is high; stops when the count is ``stop_at``.

    The stop's condition is unconditional, so ``stop_at=0`` fires on the
    first reset edge, before any block runs.
    """

    def __init__(self, stop_at: int) -> None:
        super().__init__()
        self.stop_at = stop_at

    def signature(self):
        return ("Ticker", self.stop_at)

    def build(self, m):
        en = m.input("en")
        count = m.output("count", 8)
        cnt = m.reg("cnt", 8, init=0)
        with m.when(en):
            cnt <<= cnt + 1
        count <<= cnt
        m.cover(cnt == 3, "at_three")
        m.stop(cnt == self.stop_at, 1, "done")


def _enable(pattern):
    """A block source driving ``en`` with ``pattern(cycle)``."""

    def blocks(cycle: int, n: int) -> InputBlock:
        return InputBlock.encode(
            [("en", 1)], [[pattern(k)] for k in range(cycle, cycle + n)]
        )

    return blocks


def _poke_en(sim, cycle):
    sim.poke("en", int(cycle % 3 != 0))


@dataclass
class Case:
    stop_at: int
    cycles: int
    #: "none", or the block source's name
    stimulus: str
    progress: list
    cycles_run: int

    def job(self, state) -> RunJob:
        backend = TreadleBackend()
        return RunJob(
            job_id="parity",
            backend_name="treadle",
            make_sim=lambda: backend.compile_state(state),
            cycles=self.cycles,
            stimulus=self.blocks(state),
        )

    def blocks(self, state):
        if self.stimulus == "always":
            return _enable(lambda k: 1)
        if self.stimulus == "alternating":
            return _enable(lambda k: (k * 5 // 3) & 1)
        if self.stimulus == "poked":
            return poked_blocks(_poke_en, input_widths(state.circuit))
        return None


CASES = {
    # the stop fires on the reset edge: no block advances, nothing is
    # reported, and the attempt ends at cycle 0
    "stop-during-reset": Case(0, 100, "none", [], 0),
    # blocks end at 74 (thread) or 64 (process); the stop fires at the
    # edge where cnt == 50, the 51st, inside either block
    "stop-mid-block": Case(50, 100, "always", [37], 51),
    # checkpoints every 37 cycles and beats every 64 cut the process
    # worker's blocks at 37, 64, 74, 111, 128, ...; progress stays at 37s
    "checkpoint-37-heartbeat-64": Case(
        255, 300, "alternating", [37, 74, 111, 148, 185, 222, 259, 296], 300
    ),
    # a per-cycle poking testbench: en is high unless cycle % 3 == 0, so
    # cnt reaches 90 after edge 134 and the stop fires on edge 135
    "poked-blocks": Case(90, 200, "poked", [37, 74, 111], 136),
}


class _RecordingCheckpointer(Checkpointer):
    """A checkpointer that also keeps ``(cycle, complete, counts)`` per write."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.written = []

    def write(self, shard):
        self.written.append((shard.cycle, shard.complete, dict(shard.counts)))
        return super().write(shard)


def _direct_counts(case: Case, state, cycles: int) -> dict:
    """Counts of one uninterrupted run of ``cycles`` cycles, no executor."""
    sim = TreadleBackend().compile_state(state)
    hold_reset(sim, 1)
    blocks = case.blocks(state)
    if cycles:
        if blocks is None:
            sim.step(cycles)
        else:
            sim.drive(blocks(0, cycles))
    return sim.cover_counts()


@pytest.fixture(scope="module")
def states():
    return {
        stop_at: instrument(
            elaborate(_Ticker(stop_at)), metrics=["line", "toggle"]
        )[0]
        for stop_at in {case.stop_at for case in CASES.values()}
    }


@pytest.mark.parametrize("isolation", ISOLATIONS)
@pytest.mark.parametrize("name", list(CASES))
def test_isolation_levels_report_alike(name, isolation, states, tmp_path):
    case = CASES[name]
    state = states[case.stop_at]
    progress = []
    checkpointer = _RecordingCheckpointer(tmp_path, every=37)
    executor = Executor(
        checkpointer=checkpointer,
        isolation=isolation,
        progress=lambda job_id, cycle, counts: progress.append((cycle, counts)),
    )
    outcome = executor.run_job(case.job(state))

    assert [cycle for cycle, _ in progress] == case.progress
    partial = [(c, counts) for c, complete, counts in checkpointer.written
               if not complete]
    assert partial == progress
    for cycle, counts in progress:
        assert counts == _direct_counts(case, state, cycle)
    assert (outcome.status, outcome.cycles_run) == ("ok", case.cycles_run)
    assert outcome.counts == _direct_counts(case, state, case.cycles)
    assert checkpointer.written[-1] == (case.cycles_run, True, outcome.counts)
