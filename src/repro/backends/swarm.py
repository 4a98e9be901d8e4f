"""Swarm backend: N bit-parallel simulation lanes packed per signal.

The §5.4 fuzzing workload is "same netlist, many stimuli" — embarrassingly
SIMD.  This backend packs ``lanes`` independent executions into one Python
integer per signal at a uniform lane stride (see
:class:`~repro.backends.pycodegen.SwarmEmitter`): gate-level ops run as a
single wide-int ``&``/``|``/``^`` regardless of the lane count, arithmetic
and comparisons run as SWAR carry-contained ops, and cover predicates
accumulate into vertical (bit-plane) counters whose per-lane values are
bit-identical to the scalar backends' saturating counters — popcounting a
plane set yields aggregate counts directly.

Per-lane semantics are exactly the scalar contract: lane ``l`` poked and
stepped through :class:`SwarmSimulation`'s ``poke_lane``/``peek_lane``/
``cover_counts(lane)`` behaves like one :class:`TreadleSimulation` fed the
same stimulus, including stop statements (each lane latches the first stop
that fires for it and leaves the active set) and counter saturation
(clamped at read time).  The aggregate ``merged_cover_counts()`` is the
:func:`~repro.coverage.common.merge_counts` of all lanes.

Two per-lane caveats, documented rather than papered over:

* registers of a stopped/retired lane keep free-running (the active mask
  gates cover sampling, stop claiming, and memory writes — not register
  commit), so ``peek_lane`` of an inactive lane reflects that free-run;
  its *counts* are frozen, which is what the bit-identity contract
  covers, and
* ``watch_values`` value probes are unsupported — the packed hot loop has
  no per-cycle scalar observation point.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

from ..ir.nodes import PrimOp
from ..ir.types import bit_width, mask
from ..runtime.telemetry import StepMeter
from .api import CoverCounts, InputBlock, StepResult, metered_step, saturate
from .model import CircuitModel
from .modelcache import ModelCache, compile_schedule
from .pycodegen import (
    RUNTIME_HELPERS,
    SWARM_RUNTIME_HELPERS,
    CodeBuilder,
    SwarmEmitter,
)
from .schedule import Schedule

#: lane-count bounds: 1 is the degenerate scalar case (still packed form),
#: the ceiling keeps a single packed signal under ~0.5 Mbit on wide designs
MAX_LANES = 4096


def lane_stride(model: CircuitModel) -> int:
    """The uniform per-lane stride for ``model``.

    The schedule's widest value (every signal *and every intermediate
    expression node*), plus two spare bits: one absorbs SWAR carries
    (add/sub/compare intermediates reach ``2**(w+1)``), one is the
    always-free lane top bit the packed non-zero test carries into.
    """
    return Schedule(model).widest + 2


class _LaneRenderer:
    """Emits one packed edge of a swarm ``run`` loop from the schedule walk.

    The cover trie becomes a lane-mask tree: each branch narrows the
    enclosing mask to the lanes where its literals hold (a one-bit value
    holds lane-base bits only, so a literal is one AND, its negation an
    AND-NOT), skips its arm when no lane is left, and its ``else`` arm
    takes ``parent ^ then``.  An implied ``src != 0`` literal only skips
    work: the bit tests beneath it mask their own lanes.  A count adds
    the enclosing mask into the slot's bit planes.  A toggle run
    (``count_bits``) adds its packed source, ANDed with the enclosing
    mask times the run's covered bits, into the run's own planes
    ``r_<j>``, laid out like the source: lane *l*'s count of bit *k*
    sits at bit ``l * _S + k`` of each plane.

    ``masked`` starts the tree from the active-lane set (the mask at
    cycle start, so the cycle a lane stops on still counts, exactly like
    the scalar order) and ANDs stop/memory-write masks with it; the
    unmasked variant serves stop-free models, where ``active`` cannot
    change inside one ``run`` call — when every lane is live the masking
    would be pure overhead.
    """

    def __init__(self, schedule: Schedule, emitter: SwarmEmitter,
                 body: CodeBuilder, masked: bool) -> None:
        self.ids = schedule.refs
        self.emitter = emitter
        self.body = body
        self.masked = masked
        #: the enclosing lane mask; None is every lane
        self.mask: Optional[str] = "active" if masked else None
        #: per open branch: the mask around it, its own, and the levels it indents
        self.open: list[tuple[Optional[str], Optional[str], int]] = []
        self.run = 0

    def assign(self, name, expr) -> None:
        self.body.emit(f"{self.ids[name]} = {self.emitter.gen(expr)}")

    def settled(self) -> None:
        pass

    def branch(self, literals) -> None:
        body, emitter, parent = self.body, self.emitter, self.mask
        if bit_width(literals[0].expr.tpe) > 1:
            # an implied src != 0 literal, never in a conjunction
            body.emit(f"if {emitter.gen(literals[0].expr)}:")
            body.depth += 1
            self.open.append((parent, parent, 1))
            return
        name, levels = f"_m{len(self.open)}", 1
        expr = literals[0].expr
        if (len(literals) == 1 and literals[0].positive and type(expr) is PrimOp
                and expr.op == "bits" and expr.consts[0]):
            # a single-bit test: an in-place AND — no shift — skips the
            # arm when no lane has the bit
            k = expr.consts[0]
            body.emit(f"{name} = {emitter.gen(expr.args[0])} & {emitter.rep(1 << k)}")
            body.emit(f"if {name}:")
            body.depth += 1
            shifted = f"({name} >> {k})"
            body.emit(f"{name} = {parent} & {shifted}" if parent else f"{name} = {shifted}")
            levels = 2
        else:
            factors = [parent] if parent else []
            factors += [emitter.gen(lit.expr) for lit in literals if lit.positive]
            factors = factors or ["_R1"]
            factors += [f"~{emitter.gen(lit.expr)}" for lit in literals if not lit.positive]
            body.emit(f"{name} = {' & '.join(factors)}")
        body.emit(f"if {name}:")
        body.depth += 1
        self.open.append((parent, name, levels))
        self.mask = name

    def else_(self) -> None:
        parent, name, levels = self.open[-1]
        body = self.body
        body.depth -= levels
        body.emit(f"{name} = {parent or '_R1'} ^ {name}")
        body.emit(f"if {name}:")
        body.depth += 1
        self.open[-1] = (parent, name, 1)
        self.mask = name

    def end(self) -> None:
        parent, _, levels = self.open.pop()
        self.body.depth -= levels
        self.mask = parent

    def count(self, slot) -> None:
        self.body.emit(f"_vadd(c_{slot}, {self.mask or '_R1'})")

    def count_bits(self, src, bits) -> None:
        covered = sum(1 << k for k, _ in bits)
        spread = f"({self.mask} * {covered})" if self.mask else self.emitter.rep(covered)
        self.body.emit(f"_vadd(r_{self.run}, {self.emitter.gen(src)} & {spread})")
        self.run += 1

    def stop(self, index, pred, en) -> None:
        # claim in statement order: a lane removed by an earlier stop is
        # invisible to later ones, like the scalar if/elif chain
        body = self.body
        body.emit(f"_f = {self.emitter.predicate(pred, en)} & active")
        body.emit("if _f:")
        body.depth += 1
        body.emit("active &= ~_f")
        body.emit("while _f:")
        body.depth += 1
        body.emit("_b = _f & -_f")
        body.emit("_i = (_b.bit_length() - 1) // _S")
        body.emit(f"stop_lane[_i] = {index}")
        body.emit("stop_cycle[_i] = base + done")
        body.emit("_f ^= _b")
        body.depth -= 2

    def next(self, index, expr) -> None:
        self.body.emit(f"n_{index} = {self.emitter.gen(expr)}")

    def write(self, write) -> None:
        body, gen = self.body, self.emitter.gen
        en = gen(write.en)
        body.emit(f"_e = {en} & active" if self.masked else f"_e = {en}")
        body.emit("if _e:")
        body.depth += 1
        body.emit(f"_wa = {gen(write.addr)}")
        body.emit(f"_wd = {gen(write.data)}")
        body.emit("while _e:")
        body.depth += 1
        body.emit("_b = _e & -_e")
        body.emit("_p = _b.bit_length() - 1")
        body.emit(f"_a = (_wa >> _p) & {mask(bit_width(write.addr.tpe))}")
        store = (
            f"{write.mem_id}[_p // _S][_a] = "
            f"(_wd >> _p) & {mask(write.memory.width)}"
        )
        if write.bound is not None:
            body.emit(f"if _a < {write.bound}: {store}")
        else:
            body.emit(store)
        body.emit("_e ^= _b")
        body.depth -= 2

    def commit(self, index, name) -> None:
        self.body.emit(f"{self.ids[name]} = n_{index}")


def generate_swarm_source(model: CircuitModel, lanes: int) -> str:
    """Render the packed ``settle``/``run`` module for ``model``.

    The same :meth:`Schedule.walk` as the scalar renderer — settle,
    covers, stops, register/memory commit — except every value is a
    packed integer, cover counters are vertical plane lists indexed by
    slot, and a ``ctl`` dict carries the active-lane mask plus per-lane
    stop bookkeeping across calls.  Like the scalar loop, ``run`` takes
    every input from one row per edge: ``rows`` (a block's packed
    inputs) or the held inputs repeated ``cycles`` times.
    """
    schedule = Schedule(model)
    ids, mem_ids = schedule.ids, schedule.mem_ids
    stride = schedule.widest + 2
    emitter = SwarmEmitter(lanes, stride, schedule.refs.__getitem__, mem_ids.__getitem__)
    state = [p.name for p in model.inputs] + [r.name for r in model.registers]
    row = ", ".join(ids[p.name] for p in model.inputs) + "," if model.inputs else ""
    body = CodeBuilder()

    def load() -> None:
        for name in state:
            body.emit(f"{ids[name]} = values[{name!r}]")
        for name, mem_id in mem_ids.items():
            body.emit(f"{mem_id} = mems[{name!r}]")

    # -- settle: one combinational sweep, written back into `values` --------
    body.emit("def settle(values, mems):")
    body.depth += 1
    load()
    for name, expr in schedule.comb:
        body.emit(f"{ids[name]} = {emitter.gen(expr)}")
        body.emit(f"values[{name!r}] = {ids[name]}")
    if not (state or model.comb or model.memories):
        body.emit("pass")
    body.depth -= 1
    body.emit()

    def emit_run(fname: str, masked: bool) -> None:
        body.emit(f"def {fname}(values, mems, counts, ctl, cycles, rows=None):")
        body.depth += 1
        load()
        for slot in range(len(schedule.slots)):
            body.emit(f"c_{slot} = counts[{slot}]")
        for j in range(len(schedule.runs)):
            body.emit(f"r_{j} = counts[{len(schedule.slots) + j}]")
        body.emit("active = ctl['active']")
        if model.stops:
            body.emit("stop_lane = ctl['stop_lane']")
            body.emit("stop_cycle = ctl['stop_cycle']")
        body.emit("base = ctl['cycle']")
        body.emit("if rows is None:")
        body.emit(f"    rows = _repeat(({row}), cycles)")
        body.emit("done = 0")
        body.emit(f"for {row or '_'} in rows:")
        body.depth += 1
        schedule.walk(_LaneRenderer(schedule, emitter, body, masked))
        body.emit("done += 1")
        if masked:
            body.emit("if not active: break")
        body.depth -= 1
        for name in state:
            body.emit(f"values[{name!r}] = {ids[name]}")
        body.emit("ctl['active'] = active")
        body.emit("ctl['cycle'] = base + done")
        body.emit("return done")
        body.depth -= 1
        body.emit()

    emit_run("run", masked=True)
    if not model.stops:
        emit_run("run_full", masked=False)

    head = CodeBuilder()
    head.emit('"""Generated by repro.backends.swarm — do not edit."""')
    head.emit("from itertools import repeat as _repeat")
    for line in RUNTIME_HELPERS.strip().splitlines():
        head.emit(line)
    head.emit()
    head.emit(f"_L = {lanes}")
    head.emit(f"_S = {stride}")
    head.emit("_R1 = ((1 << (_L * _S)) - 1) // ((1 << _S) - 1)")
    head.emit("_HALF = ((1 << (_S - 1)) - 1) * _R1")
    head.emit("_TOP = (1 << (_S - 1)) * _R1")
    head.emit("_SHS = _S - 1")
    head.emit(f"_RUNS = {tuple(schedule.runs)!r}")
    for line in SWARM_RUNTIME_HELPERS.strip().splitlines():
        head.emit(line)
    head.emit()
    for line in emitter.prelude_lines():
        head.emit(line)
    head.emit()
    return head.source() + body.source()


class _SwarmPlan:
    """The exec'd packed closures for one (model, lanes) pair.

    ``counters`` is how many vertical counters ``run`` takes: one per
    slot, then one per toggle run.  ``parts[slot]`` lists the
    ``(counter, k)`` run bits that also count the slot.
    """

    __slots__ = ("schedule", "source", "settle", "run", "run_full", "lanes", "stride",
                 "rep1", "counters", "parts")

    def __init__(self, schedule: Schedule, source: str, code) -> None:
        self.schedule = schedule
        self.source = source
        namespace: dict = {}
        exec(code, namespace)
        self.settle = namespace["settle"]
        self.run = namespace["run"]
        self.run_full = namespace.get("run_full")
        self.lanes = namespace["_L"]
        self.stride = namespace["_S"]
        self.rep1 = namespace["_R1"]
        slots = len(schedule.slots)
        self.counters = slots + len(namespace["_RUNS"])
        self.parts: list[list[tuple[int, int]]] = [[] for _ in range(slots)]
        for j, bits in enumerate(namespace["_RUNS"]):
            for k, slot in bits:
                self.parts[slot].append((slots + j, k))


class SwarmSimulation:
    """``lanes`` independent simulations advancing in lock step.

    The scalar :class:`~repro.backends.api.Simulation` protocol applies
    with broadcast semantics: ``poke`` and a one-lane ``drive`` block
    drive every lane, ``peek`` samples lane 0, ``cover_counts()`` reads
    lane 0; a block with one word array per lane drives each lane its
    own inputs.  The lane-addressed surface
    — ``poke_lane``/``poke_lanes``/``peek_lane``/``cover_counts(lane)``/
    ``merged_cover_counts``/``retire_lane``/``lane_active``/``lane_stop``
    — is what batch harnesses (the fuzzer, a swarm campaign job) drive.
    """

    def __init__(self, plan: _SwarmPlan, counter_width: Optional[int] = None) -> None:
        model = plan.schedule.model
        self._model = model
        self._slots = plan.schedule.slots
        self._counter_width = counter_width
        self._plan = plan
        self.lanes = plan.lanes
        self._stride = plan.stride
        self._rep1 = plan.rep1
        self._values: dict[str, int] = {}
        self._mems: dict[str, list[list[int]]] = {
            m.name: [[0] * m.padded_depth for _ in range(self.lanes)]
            for m in model.memories
        }
        #: vertical counters: per cover slot, then per toggle run, a list of bit planes
        self._counts: list[list[int]] = [[] for _ in range(plan.counters)]
        self._ctl: dict = {
            "active": plan.rep1,
            "cycle": 0,
            "stop_lane": [None] * self.lanes,
            "stop_cycle": [None] * self.lanes,
        }
        self._dirty = True
        self._input_names = {p.name for p in model.inputs}
        self._meter = StepMeter("swarm", lanes=self.lanes)
        for port in model.inputs:
            self._values[port.name] = 0
        for reg in model.registers:
            self._values[reg.name] = 0

    # -- broadcast (scalar-protocol) API -------------------------------------

    def poke(self, port: str, value: int) -> None:
        """Drive every lane of a top-level input with the same value."""
        width = self._check_input(port)
        self._values[port] = (value & mask(width)) * self._rep1
        self._dirty = True

    def peek(self, port: str) -> int:
        """Sample lane 0 of a top-level port."""
        return self.peek_lane(port, 0)

    def step(self, cycles: int = 1) -> StepResult:
        return metered_step(self._meter, lambda: self._step(cycles))

    def drive(self, block: InputBlock) -> StepResult:
        """Apply ``block`` in the packed edge loop, in one call.

        A one-lane block drives every lane alike, like ``poke``; a block
        of several word arrays drives lane *l* from array *l*, and lanes
        past the last array from 0, like ``poke_lanes``.
        """
        block.check(self._plan.schedule.input_widths, self.lanes)
        return metered_step(self._meter, lambda: self._step(block.cycles, block))

    def cover_counts(self, lane: int = 0) -> CoverCounts:
        """Saturated cover counts for one lane (lane 0 by default).

        Defaulting to lane 0 keeps the scalar :class:`Simulation`
        protocol exact: under broadcast ``poke`` every lane sees the same
        stimulus, so lane 0 *is* the scalar run and swarm can stand in as
        a differential-runner leg.  Use :meth:`merged_cover_counts` for
        the campaign-wide view.
        """
        self._check_lane(lane)
        base = lane * self._stride
        return {
            name: saturate(self._slot_count(slot, base), self._counter_width)
            for name, slot in self._slots.items()
        }

    def merged_cover_counts(self) -> CoverCounts:
        """Cover counts merged across every lane.

        Follows :func:`~repro.coverage.common.merge_counts` semantics
        exactly — per-lane counts clamp to the counter width, their sum
        clamps again — so a swarm run merges transparently with scalar
        shards.
        """
        return {name: self._aggregate(slot) for name, slot in self._slots.items()}

    @property
    def stopped(self) -> bool:
        """Whether every lane has stopped or been retired."""
        return not self._ctl["active"]

    @property
    def cycle(self) -> int:
        """Clock cycles stepped so far (shared by every lane)."""
        return self._ctl["cycle"]

    def fork(self) -> "SwarmSimulation":
        """A fresh swarm of the same design (shares the compiled plan)."""
        return SwarmSimulation(self._plan, self._counter_width)

    # -- lane-addressed API ---------------------------------------------------

    def poke_lane(self, port: str, lane: int, value: int) -> None:
        """Drive one lane of a top-level input."""
        width = self._check_input(port)
        self._check_lane(lane)
        slot = lane * self._stride
        hole = self._values[port] & ~(mask(width) << slot)
        self._values[port] = hole | ((value & mask(width)) << slot)
        self._dirty = True

    def poke_lanes(self, port: str, values) -> None:
        """Drive the leading lanes of an input with per-lane values.

        Lanes beyond ``len(values)`` are driven to 0.
        """
        width = self._check_input(port)
        if len(values) > self.lanes:
            raise ValueError(
                f"{len(values)} values for {self.lanes}-lane swarm"
            )
        packed = 0
        slot = 0
        for value in values:
            packed |= (value & mask(width)) << slot
            slot += self._stride
        self._values[port] = packed
        self._dirty = True

    def peek_lane(self, port: str, lane: int) -> int:
        """Sample one lane of a top-level port as a raw bit pattern."""
        if port not in self._model.port_names:
            raise KeyError(f"no such port: {port}")
        self._check_lane(lane)
        self._settle()
        width = self._model.widths.get(port, 1)
        return (self._values.get(port, 0) >> (lane * self._stride)) & mask(width)

    def lane_active(self, lane: int) -> bool:
        """Whether a lane is still running (not stopped, not retired)."""
        self._check_lane(lane)
        return bool((self._ctl["active"] >> (lane * self._stride)) & 1)

    def lane_stop(self, lane: int):
        """``(stop_name, exit_code, cycle)`` for a stopped lane, else None."""
        self._check_lane(lane)
        index = self._ctl["stop_lane"][lane]
        if index is None:
            return None
        stop = self._model.stops[index]
        return (stop.name, stop.exit_code, self._ctl["stop_cycle"][lane])

    def retire_lane(self, lane: int) -> None:
        """Remove a lane from the active set (its counts freeze)."""
        self._check_lane(lane)
        self._ctl["active"] &= ~(1 << (lane * self._stride))

    # -- internals -------------------------------------------------------------

    def _check_input(self, port: str) -> int:
        width = self._model.widths.get(port)
        if width is None or port not in self._input_names:
            raise KeyError(f"no such input port: {port}")
        return width

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} out of range [0, {self.lanes})")

    def _settle(self) -> None:
        if not self._dirty:
            return
        self._plan.settle(self._values, self._mems)
        self._dirty = False

    def _feed(self, block: InputBlock):
        """One row of packed inputs per edge of ``block``."""
        lanes = [block.columns(lane) for lane in range(len(block.words))]
        packed = {}
        for index, (name, _) in enumerate(block.ports):
            if len(lanes) == 1:
                packed[name] = [value * self._rep1 for value in lanes[0][index]]
                continue
            column = [0] * block.cycles
            for lane, columns in enumerate(lanes):
                shift = lane * self._stride
                column = [acc | value << shift for acc, value in zip(column, columns[index])]
            packed[name] = column
        return zip(*[
            packed.get(port.name) or repeat(self._values[port.name], block.cycles)
            for port in self._model.inputs
        ])

    def _step(self, cycles: int, block: Optional[InputBlock] = None) -> StepResult:
        if cycles <= 0:
            return StepResult(0)
        ctl = self._ctl
        rows = self._feed(block) if block is not None and block.ports else None
        if not ctl["active"]:
            if rows is not None:
                # a halted swarm still takes the first cycle's inputs
                self._values.update(zip([p.name for p in self._model.inputs], next(rows)))
                self._dirty = True
            return StepResult(0, True, *self._halt_info())
        run = self._plan.run
        if self._plan.run_full is not None and ctl["active"] == self._rep1:
            run = self._plan.run_full
        done = run(self._values, self._mems, self._counts, ctl, cycles, rows)
        if done:
            self._dirty = True
        if not ctl["active"]:
            return StepResult(done, True, *self._halt_info())
        return StepResult(done)

    def _halt_info(self):
        for index in self._ctl["stop_lane"]:
            if index is not None:
                stop = self._model.stops[index]
                return (stop.name, stop.exit_code)
        return (None, 0)

    def _lane_count(self, planes: list[int], at: int) -> int:
        """The count whose bits sit at bit ``at`` of each plane."""
        count = 0
        for k, plane in enumerate(planes):
            count |= ((plane >> at) & 1) << k
        return count

    def _slot_count(self, slot: int, base: int) -> int:
        """The raw count of ``slot`` in the lane at bit ``base``: its own and its run bits'."""
        counts = self._counts
        count = self._lane_count(counts[slot], base)
        for counter, k in self._plan.parts[slot]:
            count += self._lane_count(counts[counter], base + k)
        return count

    def _aggregate(self, slot: int) -> int:
        width = self._counter_width
        counts = self._counts
        if width is None:
            # unbounded counters: the lane sum is a pure popcount reduction
            total = sum(p.bit_count() << i for i, p in enumerate(counts[slot]))
            for counter, k in self._plan.parts[slot]:
                lanes = self._rep1 << k
                total += sum((p & lanes).bit_count() << i for i, p in enumerate(counts[counter]))
            return total
        total = 0
        for lane in range(self.lanes):
            total += saturate(self._slot_count(slot, lane * self._stride), width)
        return saturate(total, width)


class SwarmBackend:
    """Factory for bit-parallel swarm simulations.

    ``lanes`` is the pack width (default 64 — one lane per host word bit
    is the classic swarm-testing sweet spot; anything up to
    :data:`MAX_LANES` works, larger packs amortize Python dispatch better
    until big-int arithmetic dominates).  ``cache`` overrides the
    process-default model cache; the lane count is part of the cache key,
    so differently-sized swarms never collide with each other or with the
    scalar backends.
    """

    name = "swarm"

    def __init__(
        self, lanes: int = 64, cache: Optional[ModelCache] = None
    ) -> None:
        if not 1 <= lanes <= MAX_LANES:
            raise ValueError(
                f"lanes must be in [1, {MAX_LANES}], got {lanes}"
            )
        self.lanes = lanes
        self._cache = cache

    def compile(self, circuit, counter_width: Optional[int] = None) -> SwarmSimulation:
        return self._compile(circuit, counter_width)

    def compile_state(self, state, counter_width: Optional[int] = None) -> SwarmSimulation:
        """Build a swarm simulation from an already-lowered CompileState."""
        return self._compile(state, counter_width)

    def _compile(self, circuit_or_state, counter_width) -> SwarmSimulation:
        entry = compile_schedule(
            circuit_or_state,
            self.name,
            lambda model: generate_swarm_source(model, self.lanes),
            cache=self._cache,
            options=(f"lanes={self.lanes}",),
            bytecode=True,
        )
        plan = entry.runtime.get("plan")
        if plan is None:
            plan = entry.runtime["plan"] = _SwarmPlan(
                entry.runtime["schedule"], entry.source, entry.code()
            )
        return SwarmSimulation(plan, counter_width)
