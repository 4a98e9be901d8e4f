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
  width, memory write data already masked to the element width, and
  memory reads and writes bounded the way the interpreter bounds them —
  as IR, which each renderer's expression generator translates like any
  other expression;
* one *shared* edge: every expression node the edge uses at two or more
  sites is a temporary computed once per edge, and runs of covers that
  test single bits of one source sit behind one guard on it.

The tree-walking interpreter does not consume the lowered effects: it
evaluates the unshared model directly and stays the independent
reference the parity suites hold every renderer to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from ..ir.nodes import Expr, MemRead, Mux, PrimOp, Ref, SIntLiteral, UIntLiteral
from ..ir.traversal import map_expr_children, walk_expr
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
    address must stay under — set only where the address is wide enough
    to reach past it (the interpreter drops such writes).
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


def _write_bound(memory: MemoryModel, addr: Expr) -> Optional[int]:
    """``memory.depth`` where ``addr`` can reach past it, else None."""
    return memory.depth if (1 << bit_width(addr.tpe)) > memory.depth else None


def _bounded_read(read: MemRead, memory: MemoryModel) -> Expr:
    """``read`` as the interpreter evaluates it: 0 past the backing store.

    Where the address can reach past ``padded_depth`` this is
    ``mux(lt(addr, padded), m[bits(addr)], 0)``: the sliced index keeps
    the read in range even where both mux arms are evaluated (swarm, or
    a shared temporary hoisted out of a lazy Python arm).
    """
    addr = read.addr
    width = bit_width(addr.tpe)
    padded = memory.padded_depth
    if (1 << width) <= padded:
        return read
    if is_signed(addr.tpe):
        addr = PrimOp("asUInt", (addr,), (), UIntType(width))
    index_width = padded.bit_length() - 1
    index: Expr = (
        PrimOp("bits", (addr,), (index_width - 1, 0), UIntType(index_width))
        if index_width
        else UIntLiteral(0, 1)
    )
    in_range = PrimOp("lt", (addr, UIntLiteral(padded, width)), (), UIntType(1))
    zero_cls = SIntLiteral if is_signed(read.type) else UIntLiteral
    zero = zero_cls(0, bit_width(read.type))
    return Mux(in_range, MemRead(read.mem, index, read.type), zero, read.type)


def _read_bounder(memories: list[MemoryModel]) -> Callable[[Expr], Expr]:
    """A rewrite bounding every memory read the way the interpreter does.

    Memoised on ``id()``, so a subtree shared by several roots is
    rewritten once and keeps one identity; the read a bound wraps is
    built here and never rewritten again.
    """
    by_name = {m.name: m for m in memories}
    memo: dict[int, Expr] = {}

    def bound(expr: Expr) -> Expr:
        out = memo.get(id(expr))
        if out is None:
            out = map_expr_children(expr, bound)
            if type(out) is MemRead:
                out = _bounded_read(out, by_name[out.mem])
            memo[id(expr)] = out
        return out

    return bound


def _rebuild(expr: Expr, args: list[Expr]) -> Expr:
    """``expr`` over new children."""
    kind = type(expr)
    if kind is PrimOp:
        return PrimOp(expr.op, tuple(args), expr.consts, expr.type)
    if kind is Mux:
        return Mux(*args, expr.type)
    return MemRead(expr.mem, args[0], expr.type)


class _Dag:
    """The edge's expressions hash-consed into one node graph.

    Built bottom-up in O(nodes): a node's key is (kind, op, consts, type,
    child ids), so equal subtrees get one id without hashing any
    expression tree recursively, and an expression object met again is
    looked up by identity.  ``uses[i]`` counts the references to node
    ``i`` from distinct parent nodes and from the edge's sites.
    """

    def __init__(self) -> None:
        #: representative expression, child ids and use count per node id
        self.exprs: list[Expr] = []
        self.kids: list[tuple[int, ...]] = []
        self.uses: list[int] = []
        self._ids: dict = {}
        self._seen: dict[int, int] = {}

    def node(self, expr: Expr) -> int:
        """The node id of ``expr``, interning it and its subtree."""
        nid = self._seen.get(id(expr))
        if nid is not None:
            return nid
        kind = type(expr)
        if kind is PrimOp:
            kids = tuple([self.node(arg) for arg in expr.args])
            key = (expr.op, expr.consts, expr.type, kids)
        elif kind is Mux:
            kids = (self.node(expr.cond), self.node(expr.tval), self.node(expr.fval))
            key = (Mux, expr.type, kids)
        elif kind is MemRead:
            kids = (self.node(expr.addr),)
            key = (MemRead, expr.mem, expr.type, kids)
        else:
            kids = ()
            key = expr
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.exprs)
            self.exprs.append(expr)
            self.kids.append(kids)
            self.uses.append(0)
            for kid in kids:
                self.uses[kid] += 1
        self._seen[id(expr)] = nid
        return nid

    def reads(self, root: int, memories: set[str]) -> bool:
        """Whether node ``root`` reads any of ``memories``."""
        stack, seen = [root], {root}
        while stack:
            nid = stack.pop()
            expr = self.exprs[nid]
            if type(expr) is MemRead and expr.mem in memories:
                return True
            for kid in self.kids[nid]:
                if kid not in seen:
                    seen.add(kid)
                    stack.append(kid)
        return False


class _Guard(NamedTuple):
    """A run of covers ``walk`` puts behind one ``guard(expr)``."""

    expr: Expr
    covers: list[tuple[int, Expr, Expr]]


class _SharedEdge:
    """The edge :meth:`Schedule.walk` drives, every shared node computed once.

    ``sweep`` is the comb sweep: ``(name, expr)`` per comb signal and per
    temporary, dependencies first; every later effect references the
    temporaries.  A non-leaf node becomes a temporary when the edge uses
    it twice or more, or when it is a write operand reading a memory an
    earlier write of the edge writes (so it sees pre-edge memory); a
    node equal to a comb signal's expression is that signal instead.
    Every site is read with its memory reads bounded.
    """

    def __init__(self, schedule: "Schedule") -> None:
        model, bound = schedule.model, schedule._bound
        dag = self.dag = _Dag()
        exprs, kids, uses = dag.exprs, dag.kids, dag.uses

        def site(expr: Expr) -> int:
            nid = dag.node(bound(expr))
            uses[nid] += 1
            return nid

        comb = [(name, site(expr)) for name, expr in model.comb]
        covers = [(slot, site(pred), site(en)) for slot, pred, en in schedule.covers]
        stops = [(site(stop.pred), site(stop.en)) for stop in model.stops]
        nexts = [site(expr) for expr in schedule.nexts]
        writes = [
            (write, site(write.addr), site(write.data), site(write.en))
            for write in schedule.writes
        ]

        names: dict[int, str] = {}
        for name, nid in comb:
            if kids[nid]:
                names.setdefault(nid, name)
        forced: set[int] = set()
        written: set[str] = set()
        for write, *operands in writes:
            if written:
                forced.update(nid for nid in operands if dag.reads(nid, written))
            written.add(write.memory.name)
        taken = schedule.ids
        self.temps: list[str] = []
        for nid in range(len(exprs)):
            if kids[nid] and nid not in names and (uses[nid] > 1 or nid in forced):
                temp = f"t_{len(self.temps)}"
                while temp in taken:
                    temp += "_"
                names[nid] = temp
                self.temps.append(temp)
        self._refs = {nid: Ref(name, exprs[nid].tpe) for nid, name in names.items()}

        self.sweep: list[tuple[str, Expr]] = []
        self._emitted: set[int] = set()
        for name, nid in comb:
            if not kids[nid]:
                self.sweep.append((name, exprs[nid]))
                continue
            self._need(nid)
            if names[nid] != name:
                self.sweep.append((name, self._refs[nid]))
        self.covers = self._cover_runs(covers)
        self.stops = [(self._site(pred), self._site(en)) for pred, en in stops]
        self.nexts = [self._site(nid) for nid in nexts]
        self.writes = [
            replace(write, addr=self._site(addr), data=self._site(data), en=self._site(en))
            for write, addr, data, en in writes
        ]

    def _expr(self, nid: int) -> Expr:
        """Node ``nid`` as an effect reads it: its reference, or its inline tree."""
        ref = self._refs.get(nid)
        if ref is not None:
            return ref
        return self._inline(nid)

    def _inline(self, nid: int) -> Expr:
        expr = self.dag.exprs[nid]
        kids = self.dag.kids[nid]
        if not kids:
            return expr
        return _rebuild(expr, [self._expr(kid) for kid in kids])

    def _need(self, nid: int) -> None:
        """Append every temporary ``nid`` reads (and ``nid`` itself) to the sweep."""
        if nid in self._refs:
            if nid in self._emitted:
                return
            self._emitted.add(nid)
        for kid in self.dag.kids[nid]:
            self._need(kid)
        if nid in self._refs:
            self.sweep.append((self._refs[nid].name, self._inline(nid)))

    def _site(self, nid: int) -> Expr:
        self._need(nid)
        return self._expr(nid)

    def _cover_runs(self, covers: list[tuple[int, int, int]]) -> list:
        """Covers in statement order, bit tests of one source guarded.

        Consecutive single-bit ``bits(src, k, k)`` tests of one
        referenced source sit behind one guard on it, whatever their
        enables: each cover keeps its own ``(pred, en)``.
        """
        items: list = []
        for src, run in _runs(covers, lambda cover: self._bit_source(cover[1])):
            sites = [(slot, self._site(pred), self._site(en)) for slot, pred, en in run]
            if src is None or len(sites) < 2:
                items += sites
            else:
                items.append(_Guard(self._expr(src), sites))
        return items

    def _bit_source(self, nid: int) -> Optional[int]:
        """The source of a ``bits(src, k, k)`` test of a reference, else None."""
        expr = self.dag.exprs[nid]
        if type(expr) is not PrimOp or expr.op != "bits" or expr.consts[0] != expr.consts[1]:
            return None
        (src,) = self.dag.kids[nid]
        if src in self._refs or type(self.dag.exprs[src]) is Ref:
            return src
        return None


def _runs(items: list, key) -> list[tuple[object, list]]:
    """``items`` split into maximal runs of one ``key``, in order."""
    runs: list[tuple[object, list]] = []
    for item in items:
        k = key(item)
        if runs and runs[-1][0] == k:
            runs[-1][1].append(item)
        else:
            runs.append((k, [item]))
    return runs


class Schedule:
    """One clock edge of a model, with names, slots and effects resolved.

    Construction resolves names and slots only; the width scan, the
    bounded settle sweep (:attr:`comb`) and the shared edge
    (:attr:`refs`, :meth:`walk`) are built on first use, each in
    O(expression nodes).  Renderers and the simulations that drive their
    output share one per compiled model, so a simulation of an
    already-rendered model never builds the shared edge.
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
                _write_bound(memory, write.addr),
            )
            for memory in model.memories
            for write in memory.writes
        ]

    @cached_property
    def widest(self) -> int:
        """The widest value anywhere in the model, in bits.

        Signals, memory elements and every intermediate expression node:
        raw values fit their own width, so this bounds them all (a
        bounded read adds only nodes no wider than its address or data).
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

    @cached_property
    def _edge(self) -> _SharedEdge:
        return _SharedEdge(self)

    @cached_property
    def refs(self) -> dict[str, str]:
        """The identifier of every name an edge reads: signals and temporaries.

        A temporary's name is its identifier; it collides with no
        signal's name or identifier, and it is not a signal — it is not
        in :attr:`names` and no settle sweep assigns it.
        """
        return {**self.ids, **{temp: temp for temp in self._edge.temps}}

    @cached_property
    def _bound(self) -> Callable[[Expr], Expr]:
        """Bounds the memory reads of any expression of this model."""
        return _read_bounder(self.model.memories)

    @cached_property
    def comb(self) -> list[tuple[str, Expr]]:
        """The settle sweep: the model's own comb signals, in its order.

        Unshared; memory reads are bounded like the interpreter's.
        """
        return [(name, self._bound(expr)) for name, expr in self.model.comb]

    def walk(self, target) -> None:
        """Drive ``target`` through one clock edge, in the one effect order.

        ``target`` receives, in order: ``assign(name, expr)`` per comb
        signal and per shared temporary (:attr:`refs` holds both
        identifiers), dependencies first; ``settled()`` once the comb
        sweep is done; ``cover(slot, pred, en)`` per cover, where runs of
        covers that test single bits of one source sit between
        ``guard(expr)`` and ``unguard()`` — a guard only skips work when
        ``expr`` is zero, every cover inside keeps its own ``pred`` and
        ``en``, and guards do not nest;
        ``stop(index, pred, en)`` per stop in statement order — the first
        that fires wins, and its index is what the simulation reports;
        ``next(index, expr)`` per register; ``write(effect)`` per memory
        write, whose operands read pre-edge memory; and ``commit(index,
        name)`` per register, after every read of the old state.
        """
        edge = self._edge
        for name, expr in edge.sweep:
            target.assign(name, expr)
        target.settled()
        for item in edge.covers:
            if type(item) is _Guard:
                target.guard(item.expr)
                for cover in item.covers:
                    target.cover(*cover)
                target.unguard()
            else:
                target.cover(*item)
        for index, (pred, en) in enumerate(edge.stops):
            target.stop(index, pred, en)
        for index, expr in enumerate(edge.nexts):
            target.next(index, expr)
        for write in edge.writes:
            target.write(write)
        for index, reg in enumerate(self.model.registers):
            target.commit(index, reg.name)
