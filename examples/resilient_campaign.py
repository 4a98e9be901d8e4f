"""Resilient coverage campaign: timeouts, retries, checkpoints, quarantine.

Runs one instrumented design across four jobs on three backend families,
two of which misbehave on purpose:

* ``treadle`` and ``verilator`` — healthy,
* a fault-injected treadle that crashes at cycle 80 (its last checkpoint
  still contributes),
* a fault-injected essent whose counts come back corrupted (quarantined
  instead of poisoning the merge).

Run with::

    PYTHONPATH=src python examples/resilient_campaign.py
"""

import tempfile

from repro.backends import EssentBackend, TreadleBackend, VerilatorBackend
from repro.backends.api import input_widths
from repro.coverage import all_cover_names, instrument
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

CYCLES = 120


def stimulus(sim, cycle):
    sim.poke("req_valid", 1)
    sim.poke("req_bits", ((cycle % 11 + 2) << 8) | (cycle % 5 + 1))
    sim.poke("resp_ready", 1)


def main():
    state, _ = instrument(elaborate(Gcd(width=8)), metrics=["line", "fsm"])
    names = all_cover_names(state.circuit)

    crashing = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=80, seed=21))
    corrupting = FaultyBackend(
        EssentBackend(), FaultPlan(corrupt_keys=2, negate_keys=1, seed=22)
    )
    # the per-cycle testbench, recorded into blocks each job drives
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

    with tempfile.TemporaryDirectory() as shard_dir:
        executor = Executor(
            timeout=30,             # per-attempt wall-clock watchdog
            retries=1,              # one retry with backoff + jitter
            checkpointer=Checkpointer(shard_dir, every=25),
        )
        result = executor.run_campaign(jobs, known_names=names, counter_width=16)

    print(result.format())
    print()
    print("quarantine report JSON:")
    print(result.quarantine.to_json())


if __name__ == "__main__":
    main()
