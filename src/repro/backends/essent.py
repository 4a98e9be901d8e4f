"""ESSENT-like backend: compiled simulation with activity gating (§3.5).

ESSENT ("Efficiently Exploiting Low Activity Factors to Accelerate RTL
Simulation") skips re-evaluating logic whose inputs did not change.  This
backend reproduces the idea at whole-design granularity: each cycle it
compares the register/input state signature against the previous cycle and
skips the combinational sweep entirely when nothing changed (memory writes
invalidate the cache).  Cover statements are still sampled every cycle —
coverage counts cycles, not activity.

The paper's point about this backend is integration effort: adding the
cover primitive took ~5 hours / 60 lines.  Here it took none: essent is
the one scalar renderer (:func:`~repro.backends.pycodegen.render_python`)
with its activity-gate option on — the honest analog of that story.
"""

from __future__ import annotations

from typing import Optional

from ..ir.nodes import Circuit
from .verilator import VerilatorBackend, VerilatorSimulation


class EssentSimulation(VerilatorSimulation):
    """Activity-gated compiled simulation (Simulation protocol).

    Shares the whole poke/peek/step/fork wrapper with
    :class:`VerilatorSimulation`; only the generated class (activity
    gating) and its stats differ.
    """

    backend_name = "essent"

    @property
    def activity_stats(self) -> tuple[int, int]:
        """(evaluated cycles, skipped cycles) — the low-activity win."""
        return self._sim.evals, self._sim.skips


class EssentBackend(VerilatorBackend):
    """Factory for activity-gated compiled simulations."""

    name = "essent"
    simulation_cls = EssentSimulation
    activity_gate = True

    def compile(self, circuit: Circuit, counter_width: Optional[int] = None) -> EssentSimulation:
        return self._compile(circuit, counter_width)

    def compile_state(self, state, counter_width: Optional[int] = None) -> EssentSimulation:
        return self._compile(state, counter_width)
