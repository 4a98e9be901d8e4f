"""Simulation and verification backends implementing the cover primitive.

The backends of the paper's §3 (plus the native tier), all behind one
interface:

========== ==================================== =======================
backend    stands in for                        character
========== ==================================== =======================
treadle    Treadle (JVM FIRRTL interpreter)     zero build, slow run
verilator  Verilator (compile to C++)           slow build, fast run
essent     ESSENT (activity-driven simulator)   same class as verilator
firesim    FireSim (FPGA-accelerated)           scan-chain counters
formal     SymbiYosys (BMC cover traces)        proves/finds reachability
c          native codegen (cc + ctypes)         slow build, fastest run
swarm      bit-parallel packed lanes            N stimuli per wide-int op
========== ==================================== =======================

The authoritative capability matrix lives in :data:`BACKEND_MATRIX`
(rendered into DESIGN.md §14 by :func:`backend_matrix_markdown`).
"""

from dataclasses import dataclass

from .api import (
    CoverCounts,
    RunFailure,
    ScanChainCorruption,
    Simulation,
    SimulationCrash,
    SimulationFault,
    SimulationTimeout,
    SimulatorBackend,
    StepResult,
    has_port,
    reset_and_run,
    saturate,
)
from .essent import EssentBackend, EssentSimulation
from .firesim import FireSimBackend, FireSimSimulation
from .modelcache import (
    CacheEntry,
    ModelCache,
    cache_key,
    circuit_fingerprint,
    compile_cached,
    default_cache,
    set_default_cache,
)
from .cbackend import CBackend, CSimulation
from .swarm import SwarmBackend, SwarmSimulation
from .treadle import TreadleBackend, TreadleSimulation
from .verilator import (
    VerilatorBackend,
    VerilatorSimulation,
    convert_coverage_dat,
    parse_coverage_dat,
    write_coverage_dat,
)

BACKENDS = {
    "treadle": TreadleBackend,
    "verilator": VerilatorBackend,
    "essent": EssentBackend,
    "firesim": FireSimBackend,
    "c": CBackend,
    "swarm": SwarmBackend,
}

@dataclass(frozen=True)
class BackendCapabilities:
    """One row of the backend architecture matrix (DESIGN.md §14).

    The authoritative record of what each simulation tier can do; the
    documented matrix is generated from this registry by
    :func:`backend_matrix_markdown` and drift-guarded by a test, exactly
    like the §9 metrics catalog.
    """

    name: str
    execution: str  # how cycles actually run
    block_drive: bool  # drive(block) runs the block's edges in one call
    peek_poke: bool  # value probes / interactive peeks + pokes
    covers: bool  # cover counters read back per canonical name
    cache_tier: str  # what the content-addressed model cache stores
    isolation: bool  # usable under --isolation process (procworker/cluster)
    fallback: str  # tier used when this backend is unavailable


#: ``BACKENDS`` (plus the interpreter/JIT split inside ``treadle``)
#: annotated with capabilities.  Update this table — and regenerate
#: DESIGN.md §14 — whenever a backend or capability is added.
BACKEND_MATRIX = [
    BackendCapabilities(
        "treadle", "tree-walking interpreter", False, True, True,
        "execution model", True, "-"),
    BackendCapabilities(
        "treadle-jit", "scalar renderer's generated Python class", True, True, True,
        "model + Python source + bytecode", True, "treadle interpreter"),
    BackendCapabilities(
        "verilator", "scalar renderer's generated Python class", True, True, True,
        "model + Python source + bytecode", True, "-"),
    BackendCapabilities(
        "essent", "scalar renderer's generated Python class", True, True, True,
        "model + Python source + bytecode", True, "-"),
    BackendCapabilities(
        "c", "C renderer, cc-compiled shared object (ctypes)", True, True, True,
        "model + C source + .so artifact", True, "treadle JIT"),
    BackendCapabilities(
        "swarm", "packed-lane renderer, bit-parallel wide ints", True, True, True,
        "model + Python source + bytecode (keyed by lane count)", True, "-"),
]


def backend_matrix_markdown() -> str:
    """Render :data:`BACKEND_MATRIX` as the DESIGN.md §14 table."""
    header = (
        "| backend | execution | drives a block in one call | peek/poke | covers | "
        "cache tier | process isolation | fallback |"
    )
    rule = "|---|---|---|---|---|---|---|---|"
    yes_no = {True: "yes", False: "no"}
    lines = [header, rule]
    for row in BACKEND_MATRIX:
        lines.append(
            f"| `{row.name}` | {row.execution} | {yes_no[row.block_drive]} | "
            f"{yes_no[row.peek_poke]} | {yes_no[row.covers]} | "
            f"{row.cache_tier} | {yes_no[row.isolation]} | {row.fallback} |"
        )
    return "\n".join(lines)

__all__ = [
    "BACKENDS",
    "BACKEND_MATRIX",
    "BackendCapabilities",
    "CBackend",
    "CSimulation",
    "backend_matrix_markdown",
    "CacheEntry",
    "CoverCounts",
    "ModelCache",
    "cache_key",
    "circuit_fingerprint",
    "compile_cached",
    "default_cache",
    "set_default_cache",
    "EssentBackend",
    "EssentSimulation",
    "FireSimBackend",
    "FireSimSimulation",
    "RunFailure",
    "ScanChainCorruption",
    "Simulation",
    "SimulationCrash",
    "SimulationFault",
    "SimulationTimeout",
    "SimulatorBackend",
    "StepResult",
    "SwarmBackend",
    "SwarmSimulation",
    "has_port",
    "TreadleBackend",
    "TreadleSimulation",
    "VerilatorBackend",
    "VerilatorSimulation",
    "convert_coverage_dat",
    "parse_coverage_dat",
    "reset_and_run",
    "saturate",
    "write_coverage_dat",
]
