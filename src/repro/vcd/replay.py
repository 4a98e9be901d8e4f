"""Input-replay testbenches (the paper's overhead-isolation harness).

``record_inputs`` runs a real testbench once under any backend while
recording the top-level inputs; ``InputReplay`` then drives a fresh
simulation from the recording — "a minimal testbench that only replays the
top-level inputs from the VCD", isolating raw simulator throughput from
stimulus generation for the Table 2 / Figure 8 measurements.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..backends.api import CoverCounts, InputBlock, StepResult
from .reader import VcdData, parse_vcd
from .writer import VcdRecorder


def record_inputs(sim, input_widths: dict[str, int], drive: Callable, cycles: int) -> str:
    """Run ``drive(sim, cycle)`` for each cycle, recording inputs to VCD text.

    ``drive`` pokes whatever stimulus it likes before each clock edge.
    """
    recorder = VcdRecorder(sim, input_widths)
    for cycle in range(cycles):
        drive(sim, cycle)
        recorder.cycle()
    return recorder.finish()


class InputReplay:
    """Replays recorded input vectors into a simulation.

    The recording becomes one :class:`~repro.backends.api.InputBlock` at
    load, so a replay is one ``drive`` call: the cycle loop runs inside
    the simulation, never in Python.  ``inputs`` picks the recorded
    signals to drive (default: every signal but ``clock``).
    """

    def __init__(self, vcd_text_or_data, inputs: Optional[list[str]] = None) -> None:
        data = (
            vcd_text_or_data
            if isinstance(vcd_text_or_data, VcdData)
            else parse_vcd(vcd_text_or_data)
        )
        self.data = data
        names = inputs if inputs is not None else [n for n in data.signals if n != "clock"]
        self.names = names
        self.block = InputBlock.encode(
            [(name, data.signals[name]) for name in names],
            ([vector[name] for name in names] for vector in data.as_cycles(names)),
        )

    @property
    def cycles(self) -> int:
        return self.block.cycles

    def run(self, sim, cycles: Optional[int] = None) -> StepResult:
        """Drive the recorded inputs, for ``cycles`` (default all)."""
        return sim.drive(self.block if cycles is None else self.block[:cycles])


def replay_counts(backend, state_or_circuit, replay: InputReplay) -> CoverCounts:
    """Compile with ``backend``, run the replay, return cover counts."""
    if hasattr(backend, "compile_state") and not hasattr(state_or_circuit, "module_names"):
        sim = backend.compile_state(state_or_circuit)
    else:
        sim = backend.compile(state_or_circuit)
    replay.run(sim)
    return sim.cover_counts()
