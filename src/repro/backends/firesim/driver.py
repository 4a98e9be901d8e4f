"""FireSim-like simulation driver (§3.3, §5.2).

Wraps a scan-chain-transformed circuit running on any software backend and
plays the role of FireSim's FPGA-hosted controller plus C++ driver: it can
pause the target, freeze the coverage counters, clock out the whole scan
chain, and re-associate the bits with cover names using the chain metadata.

Scanning is non-destructive: the driver recirculates ``scan_out`` back into
``scan_in`` so that after one full rotation every counter holds its
original value again.

The wall-clock model (:class:`FireSimTimingModel`) converts simulated
cycles into FPGA time using the F_max estimate, reproducing the §5.2
"boot Linux at 65 MHz, scan out 8060 counters in 12 ms" style numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...passes.base import CompileState
from ..api import CoverCounts, InputBlock, ScanChainCorruption, StepResult
from .resources import FmaxEstimate, Resources, estimate_fmax, estimate_module
from .scanchain import CoverageScanChainPass, ScanChainInfo

#: scan chain shift clock on the host interface (paper: ~10 MHz effective)
SCAN_CLOCK_HZ = 10_000_000


def scan_crc(bits: list[int]) -> int:
    """CRC-16/CCITT over a scanned-out bitstream (one bit per entry)."""
    crc = 0xFFFF
    for bit in bits:
        crc ^= (bit & 1) << 15
        crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1) & 0xFFFF
    return crc


class FireSimSimulation:
    """Simulation protocol over a scan-chain-instrumented design.

    With ``verify_scans`` the driver defends against host read-path
    corruption in two layers:

    1. **Sample-before-commit.**  The scan protocol is destructive (each
       shift consumes a bit), so whatever the host reads is what gets
       recirculated into the chain.  Before committing a bit back via
       ``scan_in``, the driver samples ``scan_out`` twice; if the samples
       disagree, a transient read flip just happened and the driver raises
       :class:`ScanChainCorruption` *before* the corrupted value is
       recirculated — the chain's stored counts are never poisoned by a
       detected flip.
    2. **Rotation replay.**  After the data rotation the driver rotates
       the chain a second time and compares the two raw bitstreams
       bit-for-bit (CRCs are reported in the error for telemetry).  This
       catches residual corruption that slipped past layer 1, e.g. a bit
       whose chain storage changed between rotations.

    Known limitation: a *persistent* fault (stuck-at on the read path) or
    a transient flip that identically corrupts both samples of the same
    bit (probability p² per bit for independent flips) defeats layer 1,
    and — because the corrupted value is then recirculated — rereads as
    itself in layer 2.  Detecting that class needs hardware support (a
    chain-resident CRC word); the orchestrator's shard validation
    (counter-width/namespace checks) is the remaining backstop.

    On :class:`ScanChainCorruption` the chain state is undefined (the
    rotation was aborted mid-way); discard the simulation instance and
    retry with a fresh one, as the run orchestrator does.
    """

    def __init__(self, base_sim, info: ScanChainInfo, verify_scans: bool = False) -> None:
        self._sim = base_sim
        self.info = info
        self.verify_scans = verify_scans
        self.scan_cycles_total = 0
        self.last_scan_crc: Optional[int] = None
        base_sim.poke("cover_en", 1)
        base_sim.poke("scan_en", 0)
        base_sim.poke("scan_in", 0)

    # -- pass-through ----------------------------------------------------------

    def poke(self, port: str, value: int) -> None:
        if port in ("cover_en", "scan_en", "scan_in"):
            raise KeyError(f"port {port} is owned by the FireSim driver")
        self._sim.poke(port, value)

    def peek(self, port: str) -> int:
        return self._sim.peek(port)

    def step(self, cycles: int = 1) -> StepResult:
        return self._sim.step(cycles)

    def drive(self, block: InputBlock) -> StepResult:
        """Pass ``block`` to the host simulation; the scan ports hold their value."""
        for name, _ in block.ports:
            if name in ("cover_en", "scan_en", "scan_in"):
                raise KeyError(f"port {name} is owned by the FireSim driver")
        return self._sim.drive(block)

    @property
    def cycle(self) -> int:
        """Target cycles simulated so far (delegates to the host sim)."""
        return self._sim.cycle

    # -- the scan-out protocol ---------------------------------------------------

    def _rotate_chain(self) -> list[int]:
        """One full non-destructive rotation; returns the bits read.

        With ``verify_scans``, every bit is sampled twice before being
        recirculated; a sample disagreement aborts the rotation (raising
        :class:`ScanChainCorruption`) before the bad value is committed
        back into the chain.
        """
        sim = self._sim
        bits: list[int] = []
        for position in range(self.info.length_bits):
            bit = sim.peek("scan_out")
            if self.verify_scans:
                resample = sim.peek("scan_out")
                if resample != bit:
                    raise ScanChainCorruption(
                        f"scan-out bit {position}/{self.info.length_bits} read "
                        f"unstable ({bit} then {resample}); aborting before the "
                        f"corrupted bit is recirculated into the chain"
                    )
            bits.append(bit)
            sim.poke("scan_in", bit)  # recirculate: scanning is non-destructive
            sim.step(1)
        self.scan_cycles_total += self.info.length_bits
        return bits

    def cover_counts(self) -> CoverCounts:
        """Pause, freeze counters, clock out the chain, restore, resume."""
        sim = self._sim
        sim.poke("cover_en", 0)  # freeze counts
        sim.poke("scan_en", 1)
        try:
            bits = self._rotate_chain()
            self.last_scan_crc = scan_crc(bits)
            if self.verify_scans:
                replay = self._rotate_chain()
                if replay != bits:
                    diverged = next(
                        i for i, (a, b) in enumerate(zip(bits, replay)) if a != b
                    )
                    raise ScanChainCorruption(
                        f"scan-out rotations diverge at bit {diverged}: "
                        f"first rotation CRC {self.last_scan_crc:#06x}, "
                        f"replay CRC {scan_crc(replay):#06x} "
                        f"({self.info.length_bits} bits)"
                    )
        finally:
            sim.poke("scan_en", 0)
            sim.poke("scan_in", 0)
            sim.poke("cover_en", 1)
        return self.info.decode(bits)

    def scan_out_seconds(self, scan_clock_hz: int = SCAN_CLOCK_HZ) -> float:
        """Host-side wall-clock cost of one full scan-out."""
        return self.info.length_bits / scan_clock_hz


@dataclass
class FireSimTimingModel:
    """Converts target cycles to FPGA wall clock (the §5.2 numbers)."""

    fmax: FmaxEstimate
    chain: ScanChainInfo

    @property
    def fmax_hz(self) -> float:
        """Placed design frequency in Hz; RuntimeError if it failed to place."""
        if self.fmax.fmax_mhz is None:
            raise RuntimeError("design failed to place; no timing model")
        return self.fmax.fmax_mhz * 1e6

    def simulation_seconds(self, cycles: int) -> float:
        """Wall-clock seconds to simulate ``cycles`` target cycles on the FPGA."""
        return cycles / self.fmax_hz

    def scan_out_seconds(self, scan_clock_hz: int = SCAN_CLOCK_HZ) -> float:
        """Wall-clock seconds to shift the whole chain out at ``scan_clock_hz``."""
        return self.chain.length_bits / scan_clock_hz


class FireSimBackend:
    """Factory: scan-chain transform + software host simulation + driver.

    ``host_backend`` chooses what stands in for the FPGA (default: the
    compiled backend); ``counter_width`` is the user-selected LUT/accuracy
    trade-off from §3.3.
    """

    name = "firesim"

    def __init__(
        self,
        host_backend=None,
        counter_width: int = 16,
        verify_scans: bool = False,
    ) -> None:
        if host_backend is None:
            from ..verilator import VerilatorBackend

            host_backend = VerilatorBackend()
        self.host_backend = host_backend
        self.counter_width = counter_width
        self.verify_scans = verify_scans

    def compile(self, circuit, counter_width: Optional[int] = None) -> FireSimSimulation:
        from ...passes import lower
        from ..modelcache import materialize

        state = lower(materialize(circuit), flatten=True)
        return self.compile_state(state, counter_width)

    def compile_state(self, state: CompileState, counter_width: Optional[int] = None) -> FireSimSimulation:
        width = counter_width if counter_width is not None else self.counter_width
        chain_pass = CoverageScanChainPass(width)
        transformed = chain_pass.run(state)
        assert chain_pass.info is not None
        base = self.host_backend.compile_state(transformed)
        return FireSimSimulation(base, chain_pass.info, verify_scans=self.verify_scans)

    def timing_model(self, state: CompileState, counter_width: Optional[int] = None) -> FireSimTimingModel:
        """Resource/F_max estimate for the instrumented design."""
        width = counter_width if counter_width is not None else self.counter_width
        chain_pass = CoverageScanChainPass(width)
        module = state.circuit.top
        n_covers = sum(
            1 for s in module.body if type(s).__name__ == "Cover"
        )
        base = estimate_module(module)
        fmax = estimate_fmax(base, n_covers, width, seed=module.name)
        transformed = chain_pass.run(state)
        assert chain_pass.info is not None
        return FireSimTimingModel(fmax, chain_pass.info)
