"""Verilator-like backend: compile the circuit to Python code (§3.2).

Mirrors Verilator's role in the paper: the circuit is lowered, flattened
and *compiled* — here to a single specialized Python class, rendered by
:func:`~repro.backends.pycodegen.render_python` and then ``exec``'d —
trading startup time for throughput.  Cover statements map to in-line
counter increments, exactly like the SystemVerilog cover statements
Verilator implements for the paper's flow.  :class:`VerilatorSimulation`
is the wrapper every scalar tier (treadle, essent, c) shares around its
engine.

The backend also reproduces two Verilator-specific artifacts:

* a *built-in line coverage* mode (:meth:`VerilatorBackend.compile_with_native_coverage`)
  that instruments internally, standing in for ``verilator --coverage-line``
  in the Figure-8 overhead comparison, and
* the ``coverage.dat`` file format plus the converter that re-associates
  its entries with our canonical cover names (the paper's §3.2 converter,
  upstreamed to chiseltest).
"""

from __future__ import annotations

import io
import re
from functools import partial
from typing import Optional

from ..ir.nodes import Circuit
from ..runtime.telemetry import StepMeter
from .api import CoverCounts, StepResult, metered_step, saturate
from .modelcache import CacheEntry, ModelCache, compile_schedule
from .pycodegen import ScalarPlan, render_python
from .schedule import Schedule


def scalar_plan(entry: CacheEntry, probes: tuple[str, ...] = ()) -> ScalarPlan:
    """The entry's exec'd ``GeneratedSim``, built on first use per process."""
    plan = entry.runtime.get("plan")
    if plan is None:
        plan = entry.runtime["plan"] = ScalarPlan(
            entry.runtime["schedule"], entry.source, probes
        )
    return plan


class VerilatorSimulation:
    """The scalar simulation: one engine instance behind the protocol.

    The engine is an instance of the plan's ``GeneratedSim`` class
    (:func:`~repro.backends.pycodegen.render_python`).  Treadle, essent
    and c reuse this wrapper — treadle's reference interpreter and c's
    native state are engines with the same interface — so pokes, peeks,
    stops, value probes, saturation and forks behave the same on every
    scalar tier.  ``plan`` is what each engine is made from: a
    :class:`~repro.backends.pycodegen.ScalarPlan` here, the loaded
    library for c, None for the interpreter.
    """

    #: backend label used for spans/meters
    backend_name = "verilator"

    def __init__(
        self,
        schedule: Schedule,
        counter_width: Optional[int] = None,
        plan=None,
    ) -> None:
        self._schedule = schedule
        self._counter_width = counter_width
        self._plan = plan
        self._sim, self._state, self._keys = self._new_engine()
        self._input_masks = schedule.input_masks
        self._ports = schedule.ports
        self._watched: dict[str, dict[int, int]] = {}
        self._dirty = True
        self._meter = StepMeter(self.backend_name)

    def _new_engine(self):
        """A fresh engine, the dict holding its signal values, and their keys."""
        sim = self._plan.cls()
        return sim, vars(sim), self._schedule.ids

    def poke(self, port: str, value: int) -> None:
        bits = self._input_masks.get(port)
        if bits is None:
            raise KeyError(f"no such input port: {port}")
        self._state[self._keys[port]] = value & bits
        self._dirty = True

    def peek(self, port: str) -> int:
        if port not in self._ports:
            raise KeyError(f"no such port: {port}")
        return self._read(port)

    def peek_internal(self, name: str) -> int:
        """Debug access to any internal signal."""
        if name not in self._keys:
            raise KeyError(f"no such signal: {name}")
        return self._read(name)

    def step(self, cycles: int = 1) -> StepResult:
        return metered_step(self._meter, lambda: self._step(cycles))

    def cover_counts(self) -> CoverCounts:
        counters, width = self._sim.counters, self._counter_width
        return {
            name: saturate(counters[slot], width)
            for name, slot in self._schedule.slots.items()
        }

    def watch_values(self, signal: str) -> None:
        """Efficient ``cover-values``: histogram a signal's value per cycle.

        The §6 alternative to exponential per-value cover statements —
        implemented "in software by indexing into an array of counters".
        Watching at run time steps one edge at a time; compile-time
        ``value_probes`` keep the fused loop.
        """
        if signal not in self._keys:
            raise KeyError(f"no such signal: {signal}")
        self._watched.setdefault(signal, {})

    def value_histogram(self, signal: str) -> dict[int, int]:
        """Snapshot of a probed signal's value -> occurrences histogram.

        Raises ``KeyError`` for a signal neither watched nor compiled in
        as a value probe.
        """
        if signal in self._watched:
            return dict(self._watched[signal])
        probes = getattr(self._plan, "probes", ())
        if signal not in probes:
            raise KeyError(f"no value probe on {signal}")
        return dict(getattr(self._sim, f"hist_{probes.index(signal)}"))

    @property
    def cycle(self) -> int:
        """Rising clock edges executed since construction."""
        return self._sim.cycle

    @property
    def stopped(self) -> bool:
        """Whether a stop statement has halted this simulation."""
        return self._sim.halted is not None

    @property
    def source(self) -> str:
        """The generated module source this simulation runs."""
        return self._plan.source

    @property
    def build_seconds(self) -> float:
        """Wall time spent loading the generated class (``exec``)."""
        return self._plan.build_seconds

    def fork(self) -> "VerilatorSimulation":
        """A fresh simulation of the same design, skipping recompilation."""
        return type(self)(self._schedule, self._counter_width, self._plan)

    # -- internals -------------------------------------------------------------

    def _read(self, name: str) -> int:
        if self._dirty and name not in self._input_masks:
            self._sim.settle()
            self._dirty = False
        return self._state[self._keys[name]]

    def _step(self, cycles: int) -> StepResult:
        sim = self._sim
        done = 0
        if cycles > 0 and sim.halted is None:
            done = self._run_watched(cycles) if self._watched else sim.run(cycles)
            self._dirty = True
        if cycles <= 0 or sim.halted is None:
            return StepResult(done)
        stop = self._schedule.model.stops[sim.halted]
        return StepResult(done, True, stop.name, stop.exit_code)

    def _run_watched(self, cycles: int) -> int:
        """One edge at a time, histogramming the settled pre-edge values."""
        sim, state, keys = self._sim, self._state, self._keys
        done = 0
        while done < cycles and sim.halted is None:
            sim.settle()
            for signal, histogram in self._watched.items():
                value = state[keys[signal]]
                histogram[value] = histogram.get(value, 0) + 1
            done += sim.run(1)
        return done


class VerilatorBackend:
    """Factory for compiled simulations."""

    name = "verilator"
    simulation_cls = VerilatorSimulation
    #: essent's option: skip the comb sweep on edges with unchanged state
    activity_gate = False

    def __init__(self, cache: Optional[ModelCache] = None) -> None:
        self._cache = cache

    def compile(
        self,
        circuit: Circuit,
        counter_width: Optional[int] = None,
        value_probes: tuple[str, ...] = (),
    ) -> VerilatorSimulation:
        return self._compile(circuit, counter_width, value_probes)

    def compile_state(
        self,
        state,
        counter_width: Optional[int] = None,
        value_probes: tuple[str, ...] = (),
    ) -> VerilatorSimulation:
        return self._compile(state, counter_width, value_probes)

    def _compile(self, circuit_or_state, counter_width, value_probes=()):
        probes = tuple(value_probes)
        render = partial(
            render_python, value_probes=probes, activity_gate=self.activity_gate
        )
        entry = compile_schedule(
            circuit_or_state, self.name, render, cache=self._cache, options=probes
        )
        return self.simulation_cls(
            entry.runtime["schedule"], counter_width, scalar_plan(entry, probes)
        )

    def compile_with_native_coverage(
        self, circuit: Circuit, counter_width: Optional[int] = None
    ):
        """Built-in line coverage, like ``verilator --coverage-line``.

        Instruments internally (invisible to the user's compiler pipeline)
        and reports through :func:`write_coverage_dat`.  Used as the
        baseline of the Figure-8 overhead comparison.
        """
        from ..coverage import instrument

        state, db = instrument(circuit, metrics=["line"])
        return self.compile_state(state, counter_width), db


# -- the Verilator coverage.dat format and converter (§3.2) ---------------------


def write_coverage_dat(counts: CoverCounts, out: io.TextIOBase) -> None:
    """Serialize counts in a ``coverage.dat``-style annotated format."""
    out.write("# SystemC::Coverage-3\n")
    for name, count in sorted(counts.items()):
        hier, _, point = name.rpartition(".")
        out.write(f"C '\x01n\x02{point}\x01h\x02{hier or 'TOP'}\x01page\x02v_user' {count}\n")


def parse_coverage_dat(text: str) -> CoverCounts:
    """Parse the coverage.dat format back into a raw entry map."""
    counts: CoverCounts = {}
    pattern = re.compile(r"^C '(.*)' (\d+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        fields: dict[str, str] = {}
        for chunk in match.group(1).split("\x01"):
            if "\x02" in chunk:
                key, _, value = chunk.partition("\x02")
                fields[key] = value
        name = fields.get("n", "")
        hier = fields.get("h", "")
        key = f"{hier}.{name}" if hier and hier != "TOP" else name
        counts[key] = counts.get(key, 0) + int(match.group(2))
    return counts


def convert_coverage_dat(text: str, expected: Optional[set[str]] = None) -> CoverCounts:
    """Re-associate coverage.dat entries with canonical cover names.

    The converter the paper describes: Verilator's custom format is parsed
    and joined back against the cover statements in the source IR, producing
    the exact same map as the natively-integrated backends.
    """
    raw = parse_coverage_dat(text)
    if expected is None:
        return raw
    out = {name: raw.get(name, 0) for name in expected}
    return out
