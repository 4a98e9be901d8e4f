"""The simulator-independent coverage interface (§3 of the paper).

Every backend — software interpreter, compiled simulator, FPGA-accelerated
model, formal engine — implements a single contract:

* it can simulate any synchronous circuit expressible in the IR, and
* it implements the ``cover`` primitive: a saturating counter, keyed by the
  cover statement's name joined with its instance path, incremented on every
  rising clock edge where the covered predicate is true.

Coverage results are plain ``dict[str, int]`` maps from canonical
hierarchical cover names to counts, which is what makes results from
different backends trivially mergeable.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Protocol, runtime_checkable

from ..ir.nodes import Circuit
from ..ir.types import bit_width, mask

#: canonical coverage result: hierarchical cover name -> saturating count
CoverCounts = dict[str, int]


def saturate(count: int, counter_width: Optional[int]) -> int:
    """Clamp a count to the maximum value of a ``counter_width``-bit counter.

    ``count`` is a raw non-negative event count; the return value is the
    same count, or ``2**counter_width - 1`` if it would overflow the
    hardware counter being modeled.  ``counter_width=None`` means
    unbounded software counters (no clamping).  Pure function, safe from
    any thread.
    """
    if counter_width is None:
        return count
    limit = (1 << counter_width) - 1
    return count if count < limit else limit


@dataclass
class StepResult:
    """Outcome of advancing the simulation by some clock cycles.

    ``cycles`` is the number of rising clock edges actually executed in
    this call — less than requested when a ``stop`` statement fired, and
    ``0`` when the simulation was already halted (re-stepping a halted
    simulation reports the original ``stop_name``/``exit_code`` again
    without advancing).  ``stop_name`` is the canonical hierarchical name
    of the stop that fired, and ``exit_code`` its FIRRTL exit value
    (non-zero conventionally means assertion failure).
    """

    cycles: int
    stopped: bool = False
    stop_name: Optional[str] = None
    exit_code: int = 0


@dataclass(frozen=True)
class InputBlock:
    """Raw input words for ``cycles`` clock edges: what :meth:`Simulation.drive` applies.

    ``ports`` names the inputs the block drives as ``(name, width)``: a
    subset of the top-level inputs other than ``clock``, which producers
    list in port order.  Inputs it does not name hold their value.
    Each cycle is ``stride`` little-endian 32-bit words, port after port:
    a ``width``-bit value takes ``ceil(width / 32)`` words, least
    significant first, and its last word keeps the remaining bits in its
    *top* bits.  That is the layout ``random.Random.getrandbits`` draws,
    so a seeded block is one ``randbytes(4 * stride * cycles)`` call.
    ``words`` holds one such array per lane: one for a scalar simulation
    (a swarm broadcasts it to every lane), one per lane for a swarm job.

    The block reads as a sequence of per-cycle ``{name: value}`` frames
    (lane 0), and a slice is the sub-block of those cycles.  Immutable,
    so one block may be shared across threads.  Construction raises
    ``ValueError`` for a ``clock`` port, a width below 1, or word arrays
    of the wrong length.
    """

    ports: tuple[tuple[str, int], ...]
    cycles: int
    words: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if any(name == "clock" or width < 1 for name, width in self.ports):
            raise ValueError(f"a block drives inputs of width >= 1 other than clock: {self.ports}")
        size = 4 * self.stride * self.cycles
        if not self.words or any(len(words) != size for words in self.words):
            raise ValueError(f"each lane of a {self.cycles}-cycle block holds {size} bytes")

    @cached_property
    def stride(self) -> int:
        """32-bit words per cycle."""
        return sum((width + 31) >> 5 for _, width in self.ports)

    @classmethod
    def encode(cls, ports, rows) -> "InputBlock":
        """A one-lane block from per-cycle rows of values, one per port.

        Each value is masked to its port's width, as a poke would.
        """
        ports = tuple((name, width) for name, width in ports)
        slots, bit = [], 0
        for _, width in ports:
            count = (width + 31) >> 5
            low = 32 * (count - 1)
            slots.append((mask(width), mask(low), low, low + 32 * count - width, bit))
            bit += 32 * count
        size = bit >> 3
        out = bytearray()
        cycles = 0
        for row in rows:
            acc = 0
            for (keep, low_mask, low, top, at), value in zip(slots, row):
                value &= keep
                acc |= ((value & low_mask) | (value >> low << top)) << at
            out += acc.to_bytes(size, "little")
            cycles += 1
        return cls(ports, cycles, (bytes(out),))

    def check(self, widths: dict[str, int], lanes: int = 1) -> None:
        """Raise unless the block fits inputs of ``widths`` and ``lanes`` lanes.

        ``KeyError`` for a port not in ``widths``, ``ValueError`` for a
        width that is not the port's or more word arrays than ``lanes``.
        """
        if len(self.words) > lanes:
            raise ValueError(f"{len(self.words)} lanes of inputs for a {lanes}-lane simulation")
        for name, width in self.ports:
            if name not in widths:
                raise KeyError(f"no such input port: {name}")
            if widths[name] != width:
                raise ValueError(f"input {name} is {widths[name]} bits wide, not {width}")

    def columns(self, lane: int = 0) -> list[list[int]]:
        """Per port, its value on every cycle, decoded from ``lane``'s words."""
        words = array("I", self.words[lane])
        if sys.byteorder == "big":
            words.byteswap()
        stride, offset, out = self.stride, 0, []
        for _, width in self.ports:
            count = (width + 31) >> 5
            last = offset + count - 1
            drop = 32 * count - width
            column = [word >> drop for word in words[last::stride]]
            for at in range(last - 1, offset - 1, -1):
                column = [high << 32 | word for high, word in zip(column, words[at::stride])]
            out.append(column)
            offset += count
        return out

    def __len__(self) -> int:
        return self.cycles

    def __iter__(self):
        names = [name for name, _ in self.ports]
        rows = zip(*self.columns()) if names else [()] * self.cycles
        for values in rows:
            yield dict(zip(names, values))

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.cycles)
            if step != 1:
                raise ValueError("a block slice takes consecutive cycles")
            stop = max(start, stop)
            size = 4 * self.stride
            return InputBlock(
                self.ports, stop - start,
                tuple(words[start * size:stop * size] for words in self.words),
            )
        if not -self.cycles <= index < self.cycles:
            raise IndexError(f"cycle {index} of a {self.cycles}-cycle block")
        index %= self.cycles
        return next(iter(self[index:index + 1]))


#: ``(cycle, n) -> InputBlock``: the inputs of the ``n`` cycles from ``cycle``
BlockSource = Callable[[int, int], InputBlock]


def input_widths(circuit: Circuit) -> dict[str, int]:
    """``{name: width}`` of the top-level inputs a block may drive, in port order."""
    return {p.name: bit_width(p.type) for p in circuit.top.inputs if p.name != "clock"}


class SimulationFault(RuntimeError):
    """Base class for contained backend failures.

    Raised by (or on behalf of) a misbehaving simulation; the run
    orchestrator (:mod:`repro.runtime`) converts these into structured
    :class:`RunFailure` records instead of letting them kill a campaign.
    """


class SimulationCrash(SimulationFault):
    """The backend process/model died mid-run."""


class SimulationTimeout(SimulationFault):
    """A ``step()`` call exceeded its wall-clock budget (hang)."""


class ScanChainCorruption(SimulationFault):
    """A FireSim scan-out read back inconsistent bits (CRC mismatch)."""


@dataclass
class RunFailure:
    """One failed attempt of one job, as recorded by the executor."""

    job_id: str
    backend: str
    kind: str  # crash | timeout | scan-corruption | error
    attempt: int
    cycle: Optional[int] = None
    message: str = ""

    def format(self) -> str:
        """One-line human-readable rendering for logs and reports."""
        where = f" at cycle {self.cycle}" if self.cycle is not None else ""
        return (
            f"[{self.job_id}/{self.backend}] attempt {self.attempt}: "
            f"{self.kind}{where}: {self.message}"
        )

    @staticmethod
    def kind_of(error: BaseException) -> str:
        """Classify an exception into a stable failure-kind string."""
        if isinstance(error, SimulationTimeout):
            return "timeout"
        if isinstance(error, ScanChainCorruption):
            return "scan-corruption"
        if isinstance(error, SimulationCrash):
            return "crash"
        return "error"


@runtime_checkable
class Simulation(Protocol):
    """A live simulation instance.

    Ports are addressed by their top-level names; values are raw
    (non-negative) bit patterns — an N-bit signed port carries its
    two's-complement encoding in ``[0, 2**N)``, never a negative int.

    Instances are **not** thread-safe: one simulation belongs to one
    thread (the executor gives every worker its own instance, sharing
    only immutable compiled artifacts between them).  Methods may raise
    :class:`SimulationFault` subclasses when the underlying engine
    crashes or hangs; those are contained by the run orchestrator.
    """

    def poke(self, port: str, value: int) -> None:
        """Drive a top-level input with a raw bit pattern.

        ``value`` is masked to the port's width (extra high bits are
        dropped, matching Verilog assignment semantics); it takes effect
        at the next combinational settle or clock edge.  Raises
        ``KeyError`` if ``port`` is not a top-level input.
        """
        ...

    def peek(self, port: str) -> int:
        """Sample a top-level port (input or output) as a raw bit pattern.

        Settles combinational logic first, so the value reflects all
        pokes since the last edge.  The result is always non-negative;
        reinterpret signed ports yourself.  Raises ``KeyError`` for an
        unknown port name.
        """
        ...

    def step(self, cycles: int = 1) -> StepResult:
        """Advance by ``cycles`` rising clock edges.

        Returns early if a ``stop`` statement fires, with
        ``StepResult.cycles`` counting only the edges executed.
        ``cycles <= 0`` is a no-op returning ``StepResult(0)``.  May
        raise :class:`SimulationTimeout` (wall-clock budget exceeded) or
        :class:`SimulationCrash` (engine died) on misbehaving designs.
        """
        ...

    def drive(self, block: InputBlock) -> StepResult:
        """Apply ``block``: per cycle, set its inputs and step one edge.

        The cycle loop of every driver (seeded stimulus, replay, fuzzing)
        in one call.  It stops at the first stop, like ``step``, with
        ``StepResult.cycles`` counting the edges run; a halted simulation
        still takes the first cycle's inputs and reports its stop again
        with 0 cycles.  Inputs the block does not name hold their value,
        and afterwards peeks see the last applied cycle's inputs.
        ``block.cycles == 0`` is a no-op returning ``StepResult(0)``.
        Equivalent to the reference :func:`drive` (poke, then ``step(1)``,
        per cycle), which tiers without a native loop use.  Raises
        ``KeyError`` for a port that is not a top-level input and
        ``ValueError`` for a width that is not the port's; may raise
        :class:`SimulationFault` like ``step``.
        """
        ...

    def cover_counts(self) -> CoverCounts:
        """Saturating cover counters keyed by canonical hierarchical name.

        Counts are cumulative edges-where-predicate-held since the last
        reset, clamped per :func:`saturate` when a ``counter_width`` was
        requested at compile time.  Reading does not perturb the
        counters; the returned dict is a snapshot the caller owns.
        """
        ...


class SimulatorBackend(Protocol):
    """A factory turning circuits into simulations.

    Backends are cheap to construct and safe to share across threads;
    the :class:`Simulation` objects they hand out are not (see that
    protocol's notes).  Compilation may be arbitrarily expensive —
    backends route it through :func:`repro.backends.modelcache.compile_cached`
    so repeated compiles of the same circuit hit the model cache.
    """

    name: str

    def compile(self, circuit: Circuit, counter_width: Optional[int] = None) -> Simulation:
        """Compile ``circuit`` into a fresh, reset simulation instance.

        ``counter_width`` bounds cover counters to that many bits
        (``None`` = unbounded software counters).  Raises
        ``ValueError``/``KeyError`` on malformed circuits; backends with
        native toolchains (verilator, c) degrade to a slower tier with a
        ``RuntimeWarning`` rather than raise when the toolchain is
        missing.
        """
        ...

    def compile_state(self, state, counter_width: Optional[int] = None) -> Simulation:
        """Like :meth:`compile`, but from an already-lowered CompileState.

        Skips re-running the lowering pipeline when the caller (the
        instrumentation flow, the model cache) already holds the lowered
        form; semantics, units, and failure modes are those of
        :meth:`compile`.  The state is treated as immutable — backends
        that must transform it (e.g. FireSim's scan-chain insertion)
        work on a copy.
        """
        ...


def has_port(sim: Simulation, port: str) -> bool:
    """Whether ``sim`` exposes a top-level port named ``port``.

    Probes via ``peek`` — every backend raises ``KeyError`` for unknown
    ports, which is the only portable signal the protocol offers.
    """
    try:
        sim.peek(port)
    except KeyError:
        return False
    return True


def metered_step(meter, run: Callable[[], StepResult]) -> StepResult:
    """Run one ``step()`` batch, crediting wall time and cycles to ``meter``.

    The one telemetry wrapper every software backend's hot loop shares:
    one attribute check when telemetry is disabled, one timed call and a
    :class:`~repro.runtime.telemetry.StepMeter` credit of the result's
    ``cycles`` when enabled.  Time is wall-clock seconds
    (``time.perf_counter``), cycles are clock edges; together they feed
    the ``repro_backend_cycles_per_second`` gauge.  Thread-safety is the
    meter's concern: :class:`StepMeter` adds are not atomic, so each
    simulation owns its own meter.  Exceptions from ``run`` propagate
    unchanged with nothing credited.
    """
    if not obs.enabled:
        return run()
    started = time.perf_counter()
    result = run()
    meter.add(result.cycles, time.perf_counter() - started)
    return result


def drive(sim: Simulation, block: InputBlock) -> StepResult:
    """The reference :meth:`Simulation.drive`: poke each cycle's inputs, then ``step(1)``.

    Serves every tier without a native block loop — the tree-walking
    interpreter, a simulation with watched signals, fault injection (so
    an injected fault lands on its cycle) — and is what the parity suite
    holds each native ``drive`` to.  Drives lane 0 of ``block`` through
    ``poke``; raises ``ValueError`` for a block of several lanes, which
    only a swarm's own ``drive`` applies.  Stops at the first stop, or
    when a ``step(1)`` runs no edge.
    """
    if len(block.words) != 1:
        raise ValueError(f"a {len(block.words)}-lane block needs a swarm simulation")
    done = 0
    for frame in block:
        for name, value in frame.items():
            sim.poke(name, value)
        result = sim.step(1)
        done += result.cycles
        if result.stopped or not result.cycles:
            return StepResult(done, result.stopped, result.stop_name, result.exit_code)
    return StepResult(done)


def hold_reset(sim: Simulation, cycles: int) -> None:
    """Hold ``reset`` high for ``cycles`` clock edges, then release it.

    The one reset prologue every run loop shares (the executor's attempt
    loop, the process worker, :func:`reset_and_run`).  Designs without a
    top-level ``reset`` port, and ``cycles == 0``, skip it.  Probing the
    port settles the design once (see :func:`has_port`); anything the
    underlying ``poke``/``step`` raises propagates.
    """
    if cycles and has_port(sim, "reset"):
        sim.poke("reset", 1)
        sim.step(cycles)
        sim.poke("reset", 0)


def reset_and_run(sim: Simulation, cycles: int, reset_cycles: int = 1) -> StepResult:
    """Common harness helper: hold reset (if the design has one), then run.

    Designs without a top-level ``reset`` port simply skip the reset phase
    rather than blowing up the harness.  Raises ``ValueError`` on
    non-positive ``cycles`` or negative ``reset_cycles``; anything the
    underlying ``step`` raises propagates.
    """
    if cycles <= 0:
        raise ValueError(f"cycles must be positive, got {cycles}")
    if reset_cycles < 0:
        raise ValueError(f"reset_cycles must be non-negative, got {reset_cycles}")
    hold_reset(sim, reset_cycles)
    return sim.step(cycles)


# Imported last: repro.runtime.executor imports this module while the
# runtime package initializes, so a top-of-file import would hit a cycle
# before the protocol types above exist.  telemetry itself has no
# intra-package imports and is always initialized first.
from ..runtime.telemetry import obs  # noqa: E402
