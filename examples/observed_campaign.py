"""Observed campaign: tracing and metrics around a fault-injected run.

Enables the ``obs`` telemetry facade, runs a campaign where two backends
misbehave on purpose — one crashes on every attempt (the breaker opens
and its remaining job is skipped), one crashes late enough that its last
checkpoint is salvaged — and then prints the artifacts an operator would
look at:

* the campaign report (what survived),
* the metrics that record each defence firing: attempts by result,
  retries, breaker transitions, salvaged jobs, breaker skips,
* the span trace, written as Chrome trace-event JSON for
  chrome://tracing or https://ui.perfetto.dev.

Run with::

    PYTHONPATH=src python examples/observed_campaign.py
"""

import tempfile
from pathlib import Path

from repro.backends import TreadleBackend, VerilatorBackend
from repro.backends.api import input_widths
from repro.coverage import all_cover_names, instrument
from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.runtime import (
    BreakerBoard,
    Checkpointer,
    Executor,
    FaultPlan,
    FaultyBackend,
    RunJob,
    obs,
    poked_blocks,
)

CYCLES = 120


def stimulus(sim, cycle):
    sim.poke("req_valid", 1)
    sim.poke("req_bits", ((cycle % 11 + 2) << 8) | (cycle % 5 + 1))
    sim.poke("resp_ready", 1)


def main():
    obs.enable()

    state, _ = instrument(elaborate(Gcd(width=8)), metrics=["line", "fsm"])
    names = all_cover_names(state.circuit)

    # crashes immediately, on every attempt: retries burn, the breaker
    # opens after two failed jobs, the third is skipped without a sim
    hopeless = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=5, seed=31))
    # crashes late: the checkpoint at cycle 100 is salvaged (status: partial)
    late_crash = FaultyBackend(TreadleBackend(), FaultPlan(crash_at=110, seed=32))

    # the per-cycle testbench, recorded into blocks each job drives
    blocks = poked_blocks(stimulus, input_widths(state.circuit))
    jobs = [
        RunJob("healthy", "verilator",
               lambda: VerilatorBackend().compile_state(state), CYCLES, blocks),
        RunJob("hopeless-1", "faulty-treadle",
               lambda: hopeless.compile_state(state), CYCLES, blocks),
        RunJob("hopeless-2", "faulty-treadle",
               lambda: hopeless.compile_state(state), CYCLES, blocks),
        RunJob("hopeless-3", "faulty-treadle",
               lambda: hopeless.compile_state(state), CYCLES, blocks),
        RunJob("late-crash", "late-treadle",
               lambda: late_crash.compile_state(state), CYCLES, blocks),
    ]

    with tempfile.TemporaryDirectory() as shard_dir:
        executor = Executor(
            timeout=30,
            retries=1,
            checkpointer=Checkpointer(shard_dir, every=25),
            breaker=BreakerBoard(failure_threshold=2),
        )
        result = executor.run_campaign(jobs, known_names=names, counter_width=16)

    print(result.format())

    print()
    print("== what the defences did (from --metrics-out) ==")

    def total(name, **labels):
        metric = obs.metrics.get(name)
        return int(metric.value(**labels)) if metric else 0

    attempts = obs.metrics.get("repro_attempts_total")
    for labels, value in attempts.samples():
        print(f"attempts backend={labels['backend']} "
              f"result={labels['result']}: {int(value)}")
    retries = sum(
        total("repro_retries_total", backend=b)
        for b in ("faulty-treadle", "late-treadle")
    )
    print(f"retries:             {retries}")
    print(f"breaker -> open:     {total('repro_breaker_transitions_total', backend='faulty-treadle', to='open')}")
    print(f"breaker skips:       {total('repro_breaker_skips_total', backend='faulty-treadle')}")
    print(f"salvaged jobs:       {total('repro_salvaged_jobs_total', backend='late-treadle')}")
    print(f"checkpoint writes:   {total('repro_checkpoint_writes_total', result='written', campaign='')}")

    trace_path = Path(tempfile.gettempdir()) / "observed_campaign_trace.json"
    obs.tracer.write(trace_path)
    spans = sum(1 for e in obs.tracer.events() if e.get("ph") == "X")
    print()
    print(f"wrote {spans} spans to {trace_path} — open in chrome://tracing")

    obs.disable()


if __name__ == "__main__":
    main()
