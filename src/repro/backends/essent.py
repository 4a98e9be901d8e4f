"""ESSENT-like backend: the scalar renderer under ESSENT's name (§3.5).

ESSENT ("Efficiently Exploiting Low Activity Factors to Accelerate RTL
Simulation") is the paper's fifth simulator, added late to measure what
supporting the cover primitive costs: about 5 hours / 60 lines.  Here it
costs none: essent runs the one scalar renderer's generated class
(:func:`~repro.backends.pycodegen.render_python`), byte for byte the
class verilator and the treadle JIT run.  Its own name keeps its model
cache entries and its ``StepMeter`` label apart.
"""

from __future__ import annotations

from .verilator import VerilatorBackend, VerilatorSimulation


class EssentSimulation(VerilatorSimulation):
    """The scalar simulation, metered as ``essent``."""

    backend_name = "essent"


class EssentBackend(VerilatorBackend):
    """Factory for scalar simulations cached and metered as ``essent``."""

    name = "essent"
    simulation_cls = EssentSimulation
