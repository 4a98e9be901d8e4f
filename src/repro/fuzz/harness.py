"""rfuzz-style fuzzing harness: bytes in, coverage counts out (§5.4).

Following rfuzz and RTL Fuzz Lab, a fuzz input is an opaque byte string
that the harness deterministically decodes into per-cycle values for every
top-level input port: each clock cycle consumes ``ceil(total_input_bits/8)``
bytes, sliced bitwise across the ports.  The design is reset once, then
driven until the input bytes run out (a partial trailing chunk is
zero-padded and still counts as a cycle, so every appended byte changes
the decoded stimulus) — one :class:`~repro.backends.api.InputBlock`, so
an execution is one ``drive`` call.

The *feedback* function is pluggable: because every metric is just cover
statements behind the shared API, any instrumented metric — line, toggle,
FSM, ready/valid, rfuzz's own mux toggle — can serve as the fuzzer's
coverage map.  That interchangeability is the point of §5.4.

When the backend is a :class:`~repro.backends.swarm.SwarmBackend`,
:meth:`FuzzHarness.execute_batch` packs up to ``lanes`` queue entries
into one swarm simulation: each input becomes one lane, lanes retire as
their bytes run out (or their design stops), and the per-lane counts are
bit-identical to running each input through :meth:`FuzzHarness.execute`
scalar-style — the batch is purely a throughput multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..backends.api import CoverCounts, InputBlock, hold_reset, input_widths
from ..coverage.common import CoverageDB, InstanceTree
from ..passes.base import CompileState


@dataclass
class PortSpec:
    name: str
    width: int


class FuzzHarness:
    """Compiles the instrumented design once; executes byte-string inputs.

    ``lanes`` > 1 selects the bit-parallel swarm backend (when ``backend``
    is None) so :meth:`execute_batch` runs that many inputs per settle.
    A backend that cannot ``fork()`` its compiled template is routed
    through the content-addressed model cache, so N executions still cost
    exactly one compile.
    """

    def __init__(
        self,
        state: CompileState,
        backend=None,
        max_cycles: int = 512,
        reset_cycles: int = 1,
        lanes: int = 1,
    ) -> None:
        if backend is None:
            if lanes > 1:
                from ..backends.swarm import SwarmBackend

                backend = SwarmBackend(lanes=lanes)
            else:
                from ..backends.verilator import VerilatorBackend

                backend = VerilatorBackend()
        from ..backends.modelcache import ModelCache, default_cache

        self._backend = backend
        # Arm an in-memory model cache before the first compile: if the
        # template turns out not to fork(), every execution re-enters
        # backend.compile_state, and without a cache each one would be a
        # full recompile inside the fuzz loop.
        if (
            hasattr(backend, "compile_state")
            and getattr(backend, "_cache", False) is None
            and default_cache() is None
        ):
            backend._cache = ModelCache()
        self._template = backend.compile_state(state) if hasattr(backend, "compile_state") else None
        self._state = state
        self.max_cycles = max_cycles
        self.reset_cycles = reset_cycles
        self.lanes = (
            getattr(backend, "lanes", 1)
            if hasattr(self._template, "poke_lanes")
            else 1
        )
        self.ports = [
            PortSpec(name, width)
            for name, width in input_widths(state.circuit).items()
            if name != "reset"
        ]
        self.bits_per_cycle = sum(p.width for p in self.ports)
        self.bytes_per_cycle = max((self.bits_per_cycle + 7) // 8, 1)
        self.executions = 0
        self.cycles_executed = 0

    def decode(self, data: bytes) -> InputBlock:
        """Deterministically decode bytes into a block of per-cycle inputs.

        Ceil division: a partial trailing chunk is zero-padded into a
        full cycle rather than dropped, so appending a single byte to an
        input always changes the decoded stimulus.
        """
        return InputBlock.encode(
            [(port.name, port.width) for port in self.ports], self._rows(data)
        )

    def _rows(self, data: bytes) -> list[list[int]]:
        """Per decoded cycle, each port's value."""
        size = self.bytes_per_cycle
        n_cycles = min(max(-(-len(data) // size), 1), self.max_cycles)
        slices = []
        offset = 0
        for port in self.ports:
            slices.append((offset, (1 << port.width) - 1))
            offset += port.width
        rows = []
        for cycle in range(n_cycles):
            chunk = data[cycle * size : (cycle + 1) * size]
            value = int.from_bytes(chunk, "little")
            rows.append([(value >> at) & keep for at, keep in slices])
        return rows

    def _fresh_sim(self):
        template = self._template
        if template is not None and hasattr(template, "fork"):
            return template.fork()
        if hasattr(self._backend, "compile_state"):
            # warm by construction: __init__ armed a model cache before
            # the template compile, so this is a cache hit, not a rebuild
            return self._backend.compile_state(self._state)
        raise RuntimeError("backend cannot create simulations from a compile state")

    def execute(self, data: bytes) -> CoverCounts:
        """Run one fuzz input from reset; returns this run's cover counts."""
        sim = self._fresh_sim()
        hold_reset(sim, self.reset_cycles)
        result = sim.drive(self.decode(data))
        # a design that reset already stopped still spent its one
        # attempted cycle, as a swarm lane does
        self.cycles_executed += max(result.cycles, 1)
        self.executions += 1
        return sim.cover_counts()

    def execute_batch(self, batch: list[bytes]) -> list[CoverCounts]:
        """Counts for each input, packing ``lanes`` inputs per swarm step.

        On a scalar backend this degrades to a loop over
        :meth:`execute`; either way the returned list is index-aligned
        with ``batch`` and bit-identical between the two paths.
        """
        if self.lanes <= 1:
            return [self.execute(data) for data in batch]
        results: list[CoverCounts] = []
        for start in range(0, len(batch), self.lanes):
            results.extend(self._execute_swarm(batch[start : start + self.lanes]))
        return results

    def _execute_swarm(self, chunk: list[bytes]) -> list[CoverCounts]:
        """One packed run: lane *l* replays ``chunk[l]`` scalar-exactly."""
        sim = self._fresh_sim()
        n = len(chunk)
        for lane in range(n, sim.lanes):
            sim.retire_lane(lane)
        hold_reset(sim, self.reset_cycles)
        frames = [self._rows(data) for data in chunk]
        done = [False] * n
        cycle = 0
        while True:
            live = []
            for lane in range(n):
                if done[lane]:
                    continue
                if cycle >= len(frames[lane]):
                    # bytes ran out: freeze the lane's counts, exactly
                    # where the scalar run would have returned them
                    sim.retire_lane(lane)
                    done[lane] = True
                    continue
                live.append(lane)
            if not live:
                break
            for index, port in enumerate(self.ports):
                sim.poke_lanes(
                    port.name,
                    [
                        frames[lane][cycle][index]
                        if not done[lane] and cycle < len(frames[lane])
                        else 0
                        for lane in range(n)
                    ],
                )
            sim.step(1)
            # every live lane attempted this cycle — including a lane
            # that turns out to have already stopped, matching the
            # scalar loop's step-then-check accounting
            self.cycles_executed += len(live)
            for lane in live:
                if not sim.lane_active(lane):
                    done[lane] = True
            cycle += 1
        self.executions += n
        return [sim.cover_counts(lane) for lane in range(n)]


def metric_filter(db: CoverageDB, state: CompileState, metric: str) -> Callable[[CoverCounts], CoverCounts]:
    """Build a filter keeping only the covers one metric contributed.

    Canonical count keys resolve through the instance tree back to
    (module, local-name) pairs, which are then matched against the metric's
    metadata — mixing and matching feedback metrics is a dictionary filter.
    """
    tree = InstanceTree(state.circuit)
    wanted: set[str] = set()
    for module, cover_name, _payload in db.covers_of(metric):
        wanted.add(f"{module}\x00{cover_name}")

    def filter_counts(counts: CoverCounts) -> CoverCounts:
        out = {}
        for key, count in counts.items():
            module, local = tree.resolve(key)
            if f"{module}\x00{local}" in wanted:
                out[key] = count
        return out

    return filter_counts
