"""The lowered schedule: one clock edge, resolved once for every renderer.

Every code-generating tier renders the same :class:`Schedule`: the scalar
Python class behind treadle's JIT, verilator and essent
(:func:`~repro.backends.pycodegen.render_python`), the packed swarm lanes
(:func:`~repro.backends.swarm.generate_swarm_source`) and native C
(:func:`~repro.backends.cbackend.generate_c_source`).  It is built once
from a :class:`~repro.backends.model.CircuitModel` and fixes what those
renderers would otherwise each re-derive:

* the identifier of every signal and memory, the peek/poke index order
  of the signals, and the width mask of every input;
* one counter slot per canonical cover name — covers sharing a name share
  a counter, exactly like the interpreter's name-keyed counts;
* the widest value the model holds or computes, which sizes swarm's lane
  stride and C's machine word;
* the effect order of one edge (:meth:`Schedule.walk`), with register
  nexts already muxed with their reset and re-encoded to the register
  width, and memory write data already masked to the element width — as
  IR, which each renderer's expression generator translates like any
  other expression.

The tree-walking interpreter does not consume the lowered effects: it
evaluates the model directly and stays the independent reference the
parity suites hold every renderer to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..ir.nodes import Expr, Mux, PrimOp
from ..ir.traversal import walk_expr
from ..ir.types import SIntType, UIntType, bit_width, is_signed, mask
from .model import CircuitModel, MemoryModel, RegisterModel


def pynames(names: list[str]) -> dict[str, str]:
    """Map signal names to safe, unique identifiers (valid in Python and C)."""
    out: dict[str, str] = {}
    used: set[str] = set()
    for index, name in enumerate(names):
        base = "v_" + re.sub(r"[^A-Za-z0-9_]", "_", name)
        candidate = base
        while candidate in used:
            candidate = f"{base}_{index}"
        used.add(candidate)
        out[name] = candidate
    return out


@dataclass
class WriteEffect:
    """One memory write of the edge, with its guard resolved.

    ``data`` is masked to the element width; ``bound`` is the depth the
    address must stay under — set only for non-power-of-two depths,
    where a masked address can reach the padding slots.
    """

    memory: MemoryModel
    mem_id: str
    addr: Expr
    data: Expr
    en: Expr
    bound: Optional[int]


def _truncate(expr: Expr, width: int) -> Expr:
    """``expr``'s raw value cut to at most ``width`` bits."""
    if bit_width(expr.tpe) > width:
        return PrimOp("bits", (expr,), (width - 1, 0), UIntType(width))
    return expr


def _fit(expr: Expr, width: int) -> Expr:
    """Re-encode ``expr``'s raw value into ``width`` bits.

    The interpreter's commit rule: narrower signed values sign-extend,
    wider values truncate, everything else is already the raw pattern.
    """
    if is_signed(expr.tpe) and bit_width(expr.tpe) < width:
        return PrimOp("pad", (expr,), (width,), SIntType(width))
    return _truncate(expr, width)


def _register_next(reg: RegisterModel) -> Expr:
    """The value a register takes at the edge, in its own width."""
    nxt = _fit(reg.next, reg.width)
    if reg.reset is None or reg.init is None:
        return nxt
    return Mux(reg.reset, _fit(reg.init, reg.width), nxt, UIntType(reg.width))


class Schedule:
    """One clock edge of a model, with names, slots and effects resolved.

    Cheap to build (the width scan is lazy); renderers and the
    simulations that drive their output share one per compiled model.
    """

    def __init__(self, model: CircuitModel) -> None:
        self.model = model
        #: peek/poke index order: inputs, registers, then comb signals
        self.names = (
            [p.name for p in model.inputs]
            + [r.name for r in model.registers]
            + [name for name, _ in model.comb]
        )
        self.ids = pynames(self.names)
        self.mem_ids = {m.name: f"m_{i}" for i, m in enumerate(model.memories)}
        self.ports = model.port_names
        #: input port name -> mask of its width (what a poke keeps)
        self.input_masks = {p.name: mask(model.widths[p.name]) for p in model.inputs}
        #: canonical cover name -> counter slot
        self.slots: dict[str, int] = {}
        #: ``(slot, pred, en)`` per cover statement, in statement order
        self.covers: list[tuple[int, Expr, Expr]] = []
        for cover in model.covers:
            slot = self.slots.setdefault(cover.name, len(self.slots))
            self.covers.append((slot, cover.pred, cover.en))
        #: per register, its next value (reset mux included)
        self.nexts = [_register_next(reg) for reg in model.registers]
        self.writes = [
            WriteEffect(
                memory,
                self.mem_ids[memory.name],
                write.addr,
                _truncate(write.data, memory.width),
                write.en,
                memory.depth if memory.needs_write_guard else None,
            )
            for memory in model.memories
            for write in memory.writes
        ]

    @cached_property
    def widest(self) -> int:
        """The widest value anywhere in the model, in bits.

        Signals, memory elements and every intermediate expression node:
        raw values fit their own width, so this bounds them all.
        """
        widest = max(
            [1, *self.model.widths.values(), *(m.width for m in self.model.memories)]
        )
        for root in self._exprs():
            for node in walk_expr(root):
                widest = max(widest, bit_width(node.tpe))
        return widest

    def _exprs(self):
        """Every expression one rendered edge evaluates."""
        for _, expr in self.model.comb:
            yield expr
        for _, pred, en in self.covers:
            yield pred
            yield en
        for stop in self.model.stops:
            yield stop.pred
            yield stop.en
        yield from self.nexts
        for write in self.writes:
            yield write.addr
            yield write.data
            yield write.en

    def walk(self, target) -> None:
        """Drive ``target`` through one clock edge, in the one effect order.

        ``target`` receives, in order: ``assign(name, expr)`` per comb
        signal in topological order; ``settled()`` once the comb sweep is
        done; ``cover(slot, pred, en)`` per cover; ``stop(index, pred,
        en)`` per stop in statement order — the first that fires wins,
        and its index is what the simulation reports; ``next(index,
        expr)`` per register; ``write(effect)`` per memory write; and
        ``commit(index, name)`` per register, after every read of the
        old state.
        """
        for name, expr in self.model.comb:
            target.assign(name, expr)
        target.settled()
        for slot, pred, en in self.covers:
            target.cover(slot, pred, en)
        for index, stop in enumerate(self.model.stops):
            target.stop(index, stop.pred, stop.en)
        for index, expr in enumerate(self.nexts):
            target.next(index, expr)
        for write in self.writes:
            target.write(write)
        for index, reg in enumerate(self.model.registers):
            target.commit(index, reg.name)
