"""Shared execution model extracted from a flat, lowered circuit.

All software backends consume this: it normalizes a circuit into ports,
a topologically-ordered combinational plan, register/memory state elements,
and cover/stop effects with canonical coverage names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ir.nodes import (
    Connect,
    Cover,
    DefInstance,
    DefMemory,
    DefNode,
    DefRegister,
    DefWire,
    Expr,
    MemRead,
    Module,
    Port,
    Ref,
    Stop,
    When,
)
from ..ir.traversal import references, walk_expr, walk_stmts
from ..ir.types import ClockType, bit_width
from ..passes import CompileState, InlineInstances, PassError, lower
from ..passes.expand_whens import has_whens


@dataclass
class RegisterModel:
    """One register: next/reset/init expressions plus width and signedness."""

    name: str
    width: int
    signed: bool
    next: Expr
    reset: Optional[Expr]
    init: Optional[Expr]


@dataclass
class MemoryModel:
    """One memory: backing-store shape and its (possibly guarded) writes."""

    name: str
    width: int
    depth: int
    writes: list  # list of MemWrite

    @property
    def padded_depth(self) -> int:
        """Backing-store size: ``depth`` rounded up to a power of two.

        Reads at or past it return 0 and writes at or past ``depth`` are
        dropped, so the padding slots always read 0.
        """
        if self.depth & (self.depth - 1):
            return 1 << self.depth.bit_length()
        return self.depth


@dataclass
class CoverModel:
    """One cover statement: firing condition plus its two name forms."""

    name: str  # canonical hierarchical name
    local_name: str  # flat statement name
    pred: Expr
    en: Expr


@dataclass
class StopModel:
    """One stop statement: firing condition and the exit code it reports."""

    name: str
    pred: Expr
    en: Expr
    exit_code: int


@dataclass
class CircuitModel:
    """Everything a software simulator needs, in evaluation order."""

    name: str
    inputs: list[Port]
    outputs: list[Port]
    comb: list[tuple[str, Expr]]  # (signal name, expression) in topo order
    registers: list[RegisterModel]
    memories: list[MemoryModel]
    covers: list[CoverModel]
    stops: list[StopModel]
    widths: dict[str, int]
    cover_paths: dict[str, str]

    @property
    def port_names(self) -> set[str]:
        """All top-level port names, inputs and outputs alike."""
        return {p.name for p in self.inputs} | {p.name for p in self.outputs}


def build_model(circuit_or_state) -> CircuitModel:
    """Flatten + lower a circuit (if needed) and extract the execution model."""
    if isinstance(circuit_or_state, CompileState):
        state = circuit_or_state
        if len(state.circuit.modules) > 1:
            state = InlineInstances().run(state)
    else:
        state = lower(circuit_or_state, flatten=True)
    module = state.circuit.top
    if has_whens(module):
        raise PassError("execution model requires low form (run ExpandWhens)")
    return _extract(module, state.cover_paths or {})


def _extract(module: Module, cover_paths: dict[str, str]) -> CircuitModel:
    registers: dict[str, DefRegister] = {}
    memories: dict[str, MemoryModel] = {}
    connects: dict[str, Connect] = {}
    nodes: dict[str, Expr] = {}
    covers: list[CoverModel] = []
    stops: list[StopModel] = []
    widths: dict[str, int] = {}

    for port in module.ports:
        widths[port.name] = 1 if isinstance(port.type, ClockType) else bit_width(port.type)

    for stmt in module.body:
        if isinstance(stmt, DefNode):
            nodes[stmt.name] = stmt.value
            widths[stmt.name] = bit_width(stmt.value.tpe)
        elif isinstance(stmt, DefWire):
            widths[stmt.name] = bit_width(stmt.type)
        elif isinstance(stmt, DefRegister):
            registers[stmt.name] = stmt
            widths[stmt.name] = bit_width(stmt.type)
        elif isinstance(stmt, DefMemory):
            memories[stmt.name] = MemoryModel(
                stmt.name, bit_width(stmt.data_type), stmt.depth, []
            )
        elif isinstance(stmt, Connect):
            assert isinstance(stmt.loc, Ref), "flat module cannot contain instance ports"
            connects[stmt.loc.name] = stmt
        elif isinstance(stmt, Cover):
            canonical = cover_paths.get(stmt.name, stmt.name)
            covers.append(CoverModel(canonical, stmt.name, stmt.pred, stmt.en))
        elif isinstance(stmt, Stop):
            canonical = cover_paths.get(stmt.name, stmt.name)
            stops.append(StopModel(canonical, stmt.pred, stmt.en, stmt.exit_code))
        elif isinstance(stmt, DefInstance):
            raise PassError("execution model requires a flattened circuit")
        else:
            from ..ir.nodes import MemWrite

            if isinstance(stmt, MemWrite):
                memories[stmt.mem].writes.append(stmt)
            else:
                raise PassError(f"unexpected statement {stmt!r}")

    # combinational assignments: nodes plus connects to wires/outputs
    comb_exprs: dict[str, Expr] = dict(nodes)
    for name, stmt in connects.items():
        if name not in registers:
            comb_exprs[name] = stmt.expr

    order = _topo_sort(comb_exprs, registers)

    reg_models = []
    for name, stmt in registers.items():
        connect = connects.get(name)
        next_expr: Expr = connect.expr if connect is not None else Ref(name, stmt.type)
        reg_models.append(
            RegisterModel(
                name,
                bit_width(stmt.type),
                _signed(stmt.type),
                next_expr,
                stmt.reset,
                stmt.init,
            )
        )

    inputs = [p for p in module.ports if p.direction == "input"]
    outputs = [p for p in module.ports if p.direction == "output"]
    return CircuitModel(
        name=module.name,
        inputs=inputs,
        outputs=outputs,
        comb=[(name, comb_exprs[name]) for name in order],
        registers=reg_models,
        memories=list(memories.values()),
        covers=covers,
        stops=stops,
        widths=widths,
        cover_paths=cover_paths,
    )


def _signed(tpe) -> bool:
    from ..ir.types import is_signed

    return is_signed(tpe)


def _topo_sort(comb: dict[str, Expr], registers: dict[str, DefRegister]) -> list[str]:
    """Order combinational signals so every dependency precedes its user.

    Deterministic: roots in ``comb``'s order, dependencies in the order
    each expression first references them.
    """
    deps: dict[str, list[str]] = {}
    for name, expr in comb.items():
        deps[name] = [
            d for d in dict.fromkeys(references(expr)) if d in comb and d not in registers
        ]

    order: list[str] = []
    done: set[str] = set()
    visiting: set[str] = set()
    for root in comb:
        if root in done:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        visiting.add(root)
        while stack:
            name, idx = stack[-1]
            children = deps[name]
            if idx < len(children):
                stack[-1] = (name, idx + 1)
                child = children[idx]
                if child in done:
                    continue
                if child in visiting:
                    raise PassError(f"combinational cycle through {child!r}")
                visiting.add(child)
                stack.append((child, 0))
            else:
                stack.pop()
                visiting.discard(name)
                done.add(name)
                order.append(name)
    return order
