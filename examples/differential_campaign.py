"""Differential coverage campaign: quorum voting against a lying backend.

Runs the same instrumented design on three backend families and
cross-checks their per-cover counts:

* ``treadle`` and ``verilator`` — honest,
* a fault-injected essent that reports *plausible-but-wrong* counts:
  every key is in the cover namespace and every value a non-negative
  int, so shard validation alone would happily merge the lie.

The :class:`DifferentialRunner` outvotes the liar (2-of-3 quorum per
cover), merges only the agreed counts, and quarantines the lying leg
with a per-cover disagreement report.

Run with::

    PYTHONPATH=src python examples/differential_campaign.py
"""

from repro.backends import EssentBackend, TreadleBackend, VerilatorBackend
from repro.backends.api import input_widths
from repro.coverage import all_cover_names, instrument
from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.runtime import DifferentialRunner, FaultPlan, FaultyBackend, poked_blocks

CYCLES = 120


def stimulus(sim, cycle):
    sim.poke("req_valid", 1)
    sim.poke("req_bits", ((cycle % 11 + 2) << 8) | (cycle % 5 + 1))
    sim.poke("resp_ready", 1)


def main():
    state, _ = instrument(elaborate(Gcd(width=8)), metrics=["line", "fsm"])
    names = all_cover_names(state.circuit)

    liar = FaultyBackend(
        EssentBackend(), FaultPlan(lie_keys=3, lie_delta=9, seed=31)
    )
    result = DifferentialRunner().run(
        "gcd-differential",
        {
            "treadle": lambda: TreadleBackend().compile_state(state),
            "verilator": lambda: VerilatorBackend().compile_state(state),
            "essent": lambda: liar.compile_state(state),
        },
        cycles=CYCLES,
        stimulus=poked_blocks(stimulus, input_widths(state.circuit)),
        known_names=names,
    )

    print(result.format())
    print()
    print("disagreement report JSON:")
    print(result.report.to_json())
    print()
    print("quarantine report JSON:")
    print(result.quarantine.to_json())


if __name__ == "__main__":
    main()
