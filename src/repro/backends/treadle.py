"""Treadle-like backend: a tree-walking IR interpreter, JIT-compiled by default.

Mirrors the role of Treadle in the paper (§3.1): zero build time, modest
throughput, runs directly on the IR, preferred for short runs and unit
tests.  Cover support is native — a saturating counter per cover statement,
sampled at each rising clock edge (the ~200-lines-of-Scala integration the
paper describes maps to the ``_sample_covers`` method here).

Two engines sit behind the same :class:`TreadleSimulation` wrapper:

* the **tree-walking interpreter** (``TreadleBackend(jit=False)``, CLI
  ``--no-jit``) — the executable semantics reference, and
* the **JIT** (the default): the ``GeneratedSim`` class of the one scalar
  renderer, :func:`~repro.backends.pycodegen.render_python` — the same
  code verilator runs.  Property tests pin the two engines against each
  other cycle-for-cycle; the interpreter stays the arbiter.
"""

from __future__ import annotations

from typing import Optional

from ..ir.nodes import Expr, MemRead, Mux, PrimOp, Ref, SIntLiteral, UIntLiteral
from ..ir.ops import OPS
from ..ir.types import SIntType, UIntType, bit_width, mask, value_of
from .model import CircuitModel
from .modelcache import ModelCache, compile_schedule
from .pycodegen import render_python
from .verilator import VerilatorSimulation, scalar_plan


class Interpreter:
    """The tree-walking reference engine.

    Evaluates the model's IR directly — its own cover sampling, stop
    checks and collect-then-apply commit, not the schedule's lowered
    effects — so the parity suites hold every renderer to it.  It offers
    the wrapper what a ``GeneratedSim`` instance does: ``settle()``,
    ``run(cycles)``, raw ``counters`` by cover slot, ``halted`` and
    ``cycle``; signal values live in ``values``, keyed by name.
    """

    def __init__(self, model: CircuitModel, slots: dict[str, int]) -> None:
        self._model = model
        self._slots = [slots[c.name] for c in model.covers]
        self.values: dict[str, int] = {p.name: 0 for p in model.inputs}
        self.values.update((r.name, 0) for r in model.registers)
        # Padded like the generated class's memories; the pad slots are
        # never written (writes are guarded to `depth`), so reads of them
        # return 0.
        self.mems: dict[str, list[int]] = {
            m.name: [0] * m.padded_depth for m in model.memories
        }
        self.counters = [0] * len(slots)
        self.halted: Optional[int] = None
        self.cycle = 0

    def settle(self) -> None:
        """One combinational sweep in topological order."""
        values = self.values
        for name, expr in self._model.comb:
            values[name] = self._eval(expr)

    def run(self, cycles: int) -> int:
        """Run up to ``cycles`` edges; stops after the edge a stop fires on."""
        done = 0
        for _ in range(cycles):
            self.settle()
            self._sample_covers()
            stop = self._check_stops()
            self._commit_state()
            done += 1
            if stop is not None:
                self.halted = stop
                break
        self.cycle += done
        return done

    def _eval(self, expr: Expr) -> int:
        kind = type(expr)
        if kind is Ref:
            return self.values[expr.name]
        if kind is UIntLiteral:
            return expr.value
        if kind is SIntLiteral:
            return expr.value & mask(expr.width)
        if kind is PrimOp:
            args = [self._eval(a) for a in expr.args]
            return OPS[expr.op].evaluate(args, [a.tpe for a in expr.args], expr.consts)
        if kind is Mux:
            chosen = expr.tval if self._eval(expr.cond) else expr.fval
            raw = self._eval(chosen)
            # encode the chosen arm into the mux's (possibly wider) type
            return _encode(value_of(raw, chosen.tpe), expr.type)
        if kind is MemRead:
            memory = self.mems[expr.mem]
            addr = self._eval(expr.addr)
            return memory[addr] if addr < len(memory) else 0
        raise TypeError(f"cannot evaluate {expr!r}")

    def _sample_covers(self) -> None:
        counters = self.counters
        for slot, cover in zip(self._slots, self._model.covers):
            if self._eval(cover.en) and self._eval(cover.pred):
                counters[slot] += 1

    def _check_stops(self) -> Optional[int]:
        for index, stop in enumerate(self._model.stops):
            if self._eval(stop.en) and self._eval(stop.pred):
                return index
        return None

    def _commit_state(self) -> None:
        values = self.values
        next_values: list[tuple[str, int]] = []
        for reg in self._model.registers:
            if reg.reset is not None and self._eval(reg.reset):
                assert reg.init is not None
                raw = self._eval(reg.init)
                raw = _encode(value_of(raw, reg.init.tpe), _reg_type(reg))
            else:
                raw = self._eval(reg.next)
                raw = _encode(value_of(raw, reg.next.tpe), _reg_type(reg))
            next_values.append((reg.name, raw))
        mem_writes: list[tuple[str, int, int]] = []
        for memory in self._model.memories:
            for write in memory.writes:
                if self._eval(write.en):
                    addr = self._eval(write.addr)
                    if addr < memory.depth:
                        data = self._eval(write.data) & mask(memory.width)
                        mem_writes.append((memory.name, addr, data))
        for name, raw in next_values:
            values[name] = raw
        for name, addr, data in mem_writes:
            self.mems[name][addr] = data


def _reg_type(reg):
    return SIntType(reg.width) if reg.signed else UIntType(reg.width)


def _encode(value: int, tpe) -> int:
    return value & mask(bit_width(tpe))


class TreadleSimulation(VerilatorSimulation):
    """Treadle's simulation: the JIT, or with no plan the interpreter.

    The wrapper every scalar Python tier shares, over the generated class
    (``plan`` set, the default) or over the :class:`Interpreter`
    (``plan=None``, ``--no-jit``); peeks, pokes, value probes, stops and
    cover counts behave identically on both engines.
    """

    backend_name = "treadle"

    def _new_engine(self):
        if self._plan is not None:
            return super()._new_engine()
        sim = Interpreter(self._schedule.model, self._schedule.slots)
        return sim, sim.values, {name: name for name in self._schedule.names}


class TreadleBackend:
    """Factory for interpreting simulations.

    ``jit=True`` (the default) runs the class rendered by
    :func:`~repro.backends.pycodegen.render_python`; ``jit=False`` is the
    pure tree-walking reference (CLI ``--no-jit``).  ``cache`` overrides
    the process-default :class:`~repro.backends.modelcache.ModelCache`.
    """

    name = "treadle"

    def __init__(self, jit: bool = True, cache: Optional[ModelCache] = None) -> None:
        self.jit = jit
        self._cache = cache

    def compile(self, circuit, counter_width: Optional[int] = None) -> TreadleSimulation:
        return self._compile(circuit, counter_width)

    def compile_state(self, state, counter_width: Optional[int] = None) -> TreadleSimulation:
        """Build a simulation from an already-lowered CompileState."""
        return self._compile(state, counter_width)

    def _compile(self, circuit_or_state, counter_width) -> TreadleSimulation:
        entry = compile_schedule(
            circuit_or_state,
            self.name,
            render_python if self.jit else None,
            cache=self._cache,
            options=("jit",) if self.jit else (),
        )
        plan = scalar_plan(entry) if self.jit else None
        return TreadleSimulation(entry.runtime["schedule"], counter_width, plan)
