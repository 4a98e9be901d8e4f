"""Python code generation shared by the compiled simulator backends.

Translates IR expressions into Python source over *raw masked integers*.
The invariant: every generated sub-expression evaluates to the operand's
raw bit pattern (non-negative, already truncated to its width).  Signed
interpretation happens locally inside each op via inline sign-fixup
expressions, mirroring :mod:`repro.ir.ops` exactly — a property test pins
the two against each other.

:func:`render_python` is the one scalar renderer: the ``GeneratedSim``
class treadle's JIT, verilator and essent all run, emitted from the
:class:`~repro.backends.schedule.Schedule` walk.  :class:`SwarmEmitter`
is the packed-lane expression generator the swarm renderer uses.
"""

from __future__ import annotations

import time
from typing import Callable

from ..ir.nodes import Expr, MemRead, Mux, PrimOp, Ref, SIntLiteral, UIntLiteral
from ..ir.types import bit_width, is_signed, mask
from .schedule import Schedule

#: Version of the generated-code contract.  Any change to the code a
#: renderer emits — operator lowering, state layout, cover sampling, the
#: effect order — must bump it: the content-addressed model cache
#: (:mod:`repro.backends.modelcache`) mixes it into every cache key, so a
#: bump invalidates all persisted entries (and C artifacts) at once.
CODEGEN_VERSION = 3

RefFn = Callable[[str], str]
MemFn = Callable[[str], str]


class CodeBuilder:
    """Indentation-tracking line accumulator for generated modules."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        """Append one line at the current indentation depth."""
        self.lines.append("    " * self.depth + text if text else "")

    def source(self) -> str:
        """The accumulated module source, newline-terminated."""
        return "\n".join(self.lines) + "\n"


def predicate(gen, pred, en) -> str:
    """A cover/stop firing condition, dropping a constant-true enable."""
    pred_text = gen(pred)
    if isinstance(en, UIntLiteral) and en.value == 1:
        return pred_text
    return f"({gen(en)}) and ({pred_text})"


def _s(text: str, width: int) -> str:
    """Sign-interpret a raw ``width``-bit value (inline expression)."""
    sign_bit = 1 << (width - 1)
    offset = 1 << width
    return f"({text} - {offset} if {text} & {sign_bit} else {text})"


def _val(expr: Expr, text: str) -> str:
    """The numeric value of an operand (signed interpretation if needed)."""
    if is_signed(expr.tpe):
        return _s(text, bit_width(expr.tpe))
    return text


def gen_expr(expr: Expr, ref: RefFn, mem: MemFn) -> str:
    """Generate a Python expression computing ``expr``'s raw value."""
    if isinstance(expr, Ref):
        return ref(expr.name)
    if isinstance(expr, UIntLiteral):
        return str(expr.value)
    if isinstance(expr, SIntLiteral):
        return str(expr.value & mask(expr.width))
    if isinstance(expr, Mux):
        cond = gen_expr(expr.cond, ref, mem)
        width = bit_width(expr.type)
        arms = []
        for arm in (expr.tval, expr.fval):
            text = gen_expr(arm, ref, mem)
            if is_signed(arm.tpe) and bit_width(arm.tpe) < width:
                text = f"({_s(text, bit_width(arm.tpe))} & {mask(width)})"
            arms.append(text)
        return f"({arms[0]} if {cond} else {arms[1]})"
    if isinstance(expr, MemRead):
        addr = gen_expr(expr.addr, ref, mem)
        return f"{mem(expr.mem)}[{addr}]"
    if isinstance(expr, PrimOp):
        return _gen_primop(expr, ref, mem)
    raise TypeError(f"cannot generate code for {expr!r}")


def _gen_primop(expr: PrimOp, ref: RefFn, mem: MemFn) -> str:
    op = expr.op
    args = expr.args
    texts = [gen_expr(a, ref, mem) for a in args]
    result_w = bit_width(expr.type)
    result_mask = mask(result_w)

    if op in ("add", "sub", "mul"):
        symbol = {"add": "+", "sub": "-", "mul": "*"}[op]
        return f"(({_val(args[0], texts[0])} {symbol} {_val(args[1], texts[1])}) & {result_mask})"
    if op == "div":
        return f"(_tdiv({_val(args[0], texts[0])}, {_val(args[1], texts[1])}) & {result_mask})"
    if op == "rem":
        return f"(_trem({_val(args[0], texts[0])}, {_val(args[1], texts[1])}) & {result_mask})"
    if op in ("lt", "leq", "gt", "geq", "eq", "neq"):
        symbol = {"lt": "<", "leq": "<=", "gt": ">", "geq": ">=", "eq": "==", "neq": "!="}[op]
        return f"(1 if {_val(args[0], texts[0])} {symbol} {_val(args[1], texts[1])} else 0)"
    if op in ("and", "or", "xor"):
        symbol = {"and": "&", "or": "|", "xor": "^"}[op]
        return f"(({_val(args[0], texts[0])} {symbol} {_val(args[1], texts[1])}) & {result_mask})"
    if op == "not":
        return f"(({_val(args[0], texts[0])} ^ -1) & {result_mask})"
    if op == "neg":
        return f"((-{_val(args[0], texts[0])}) & {result_mask})"
    if op in ("asUInt", "asSInt"):
        return texts[0]
    if op == "cat":
        lo_w = bit_width(args[1].tpe)
        return f"(({texts[0]} << {lo_w}) | {texts[1]})"
    if op == "bits":
        hi, lo = expr.consts
        if lo == 0:
            return f"({texts[0]} & {mask(hi + 1)})"
        return f"(({texts[0]} >> {lo}) & {mask(hi - lo + 1)})"
    if op == "head":
        (count,) = expr.consts
        shift = bit_width(args[0].tpe) - count
        return f"(({texts[0]} >> {shift}) & {mask(count)})"
    if op == "tail":
        (count,) = expr.consts
        return f"({texts[0]} & {mask(bit_width(args[0].tpe) - count)})"
    if op == "shl":
        (count,) = expr.consts
        return f"({texts[0]} << {count})"
    if op == "shr":
        (count,) = expr.consts
        if is_signed(args[0].tpe):
            return f"(({_val(args[0], texts[0])} >> {count}) & {result_mask})"
        if count >= bit_width(args[0].tpe):
            return "0"
        return f"({texts[0]} >> {count})"
    if op == "dshl":
        if is_signed(args[0].tpe):
            return f"(({_val(args[0], texts[0])} << {texts[1]}) & {result_mask})"
        return f"({texts[0]} << {texts[1]})"
    if op == "dshr":
        if is_signed(args[0].tpe):
            return f"(({_val(args[0], texts[0])} >> {texts[1]}) & {result_mask})"
        return f"({texts[0]} >> {texts[1]})"
    if op == "andr":
        return f"(1 if {texts[0]} == {mask(bit_width(args[0].tpe))} else 0)"
    if op == "orr":
        return f"(1 if {texts[0]} else 0)"
    if op == "xorr":
        return f"(({texts[0]}).bit_count() & 1)"
    if op == "pad":
        if is_signed(args[0].tpe) and bit_width(args[0].tpe) < result_w:
            return f"({_val(args[0], texts[0])} & {result_mask})"
        return texts[0]
    raise TypeError(f"cannot generate code for primop {op}")


RUNTIME_HELPERS = '''
def _tdiv(a, b):
    """Division truncating toward zero; x/0 == 0 (matches repro.ir.ops)."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _trem(a, b):
    """Remainder with the dividend's sign; x%0 == x."""
    if b == 0:
        return a
    return a - _tdiv(a, b) * b
'''


# -- the scalar renderer ------------------------------------------------------


def render_python(
    model, value_probes: tuple[str, ...] = (), activity_gate: bool = False
) -> str:
    """Render the one scalar simulation class, ``GeneratedSim``, for ``model``.

    Inputs, registers and memories are instance attributes named by the
    schedule's identifiers; ``counters`` is a list of raw counts indexed
    by cover slot (clamping happens at read time).  ``settle()`` runs one
    combinational sweep and stores every signal on the instance;
    ``run(cycles)`` is the fused loop over :meth:`Schedule.walk` — shared
    temporaries are its locals, guards are ``if`` blocks — returns the
    edges it ran and leaves a fired stop's index in ``halted``.

    ``value_probes`` histogram those signals on every edge inside the
    fused loop (``hist_<i>``, the efficient cover-values of §6).
    ``activity_gate`` is essent's option (§3.5): skip the combinational
    sweep on edges whose inputs, registers and memories did not change
    since the previous edge of the same ``run`` call, counting evaluated
    and skipped edges in ``evals`` and ``skips``.
    """
    return _ScalarRenderer(Schedule(model), tuple(value_probes), activity_gate).render()


class _ScalarRenderer:
    """Emits ``GeneratedSim``; its walk methods emit one edge of ``run``."""

    def __init__(self, schedule: Schedule, probes: tuple[str, ...], gate: bool) -> None:
        self.schedule = schedule
        self.probes = probes
        self.gate = gate
        self.b = CodeBuilder()
        self.ids = schedule.refs
        mem_ids = schedule.mem_ids
        self.gen = lambda expr: gen_expr(expr, self.ids.__getitem__, mem_ids.__getitem__)

    def render(self) -> str:
        model, b, ids = self.schedule.model, self.b, self.ids
        state = [ids[p.name] for p in model.inputs] + [ids[r.name] for r in model.registers]
        mems = list(self.schedule.mem_ids.values())

        def load() -> None:
            for name in state + mems:
                b.emit(f"{name} = self.{name}")

        b.emit('"""Generated by repro.backends.pycodegen — do not edit."""')
        for line in RUNTIME_HELPERS.strip().splitlines():
            b.emit(line)
        b.emit()
        b.emit("class GeneratedSim:")
        b.depth += 1
        b.emit("def __init__(self):")
        b.depth += 1
        for name in state:
            b.emit(f"self.{name} = 0")
        for memory, name in zip(model.memories, mems):
            b.emit(f"self.{name} = [0] * {memory.padded_depth}")
        b.emit(f"self.counters = [0] * {len(self.schedule.slots)}")
        for i in range(len(self.probes)):
            b.emit(f"self.hist_{i} = {{}}")
        b.emit("self.cycle = 0")
        b.emit("self.halted = None")
        if self.gate:
            b.emit("self.evals = 0")
            b.emit("self.skips = 0")
        b.depth -= 1
        b.emit()

        b.emit("def settle(self):")
        b.depth += 1
        load()
        for name, expr in self.schedule.comb:
            b.emit(f"self.{ids[name]} = {ids[name]} = {self.gen(expr)}")
        if not (state or mems or model.comb):
            b.emit("pass")
        b.depth -= 1
        b.emit()

        b.emit("def run(self, cycles):")
        b.depth += 1
        b.emit("cnt = self.counters")
        for i in range(len(self.probes)):
            b.emit(f"hist_{i} = self.hist_{i}")
        load()
        b.emit("halted = None")
        if self.gate:
            b.emit("prev_sig = None")
            b.emit("mem_dirty = True")
        b.emit("done = 0")
        b.emit("for _ in range(cycles):")
        b.depth += 1
        if self.gate:
            b.emit(f"sig = ({''.join(name + ', ' for name in state)})")
            b.emit("if mem_dirty or sig != prev_sig:")
            b.depth += 1
        self.schedule.walk(self)
        b.emit("done += 1")
        if model.stops:
            b.emit("if halted is not None: break")
        b.depth -= 1
        for reg in model.registers:
            b.emit(f"self.{ids[reg.name]} = {ids[reg.name]}")
        b.emit("self.halted = halted")
        b.emit("self.cycle += done")
        b.emit("return done")
        return b.source()

    # -- the edge, driven by Schedule.walk ------------------------------------

    def assign(self, name: str, expr: Expr) -> None:
        self.b.emit(f"{self.ids[name]} = {self.gen(expr)}")

    def settled(self) -> None:
        b = self.b
        if self.gate:
            b.emit("prev_sig = sig")
            b.emit("mem_dirty = False")
            b.emit("self.evals += 1")
            b.depth -= 1
            b.emit("else:")
            b.emit("    self.skips += 1")
        for i, probe in enumerate(self.probes):
            b.emit(f"_v = {self.ids[probe]}")
            b.emit(f"hist_{i}[_v] = hist_{i}.get(_v, 0) + 1")

    def guard(self, expr: Expr) -> None:
        self.b.emit(f"if {self.gen(expr)}:")
        self.b.depth += 1

    def unguard(self) -> None:
        self.b.depth -= 1

    def cover(self, slot: int, pred: Expr, en: Expr) -> None:
        self.b.emit(f"if {predicate(self.gen, pred, en)}: cnt[{slot}] += 1")

    def stop(self, index: int, pred: Expr, en: Expr) -> None:
        keyword = "elif" if index else "if"
        self.b.emit(f"{keyword} {predicate(self.gen, pred, en)}: halted = {index}")

    def next(self, index: int, expr: Expr) -> None:
        self.b.emit(f"n_{index} = {self.gen(expr)}")

    def write(self, write) -> None:
        addr = self.gen(write.addr)
        guard = self.gen(write.en)
        if write.bound is not None:
            guard = f"{guard} and ({addr}) < {write.bound}"
        self.b.emit(f"if {guard}:")
        self.b.emit(f"    {write.mem_id}[{addr}] = {self.gen(write.data)}")
        if self.gate:
            self.b.emit("    mem_dirty = True")

    def commit(self, index: int, name: str) -> None:
        self.b.emit(f"{self.ids[name]} = n_{index}")


class ScalarPlan:
    """One rendered ``GeneratedSim`` class, exec'd once per process.

    Memoized on the model-cache entry, so every simulation of the same
    compiled model — cache hits and forks alike — shares the class.
    ``build_seconds`` is the wall time the ``exec`` took.
    """

    __slots__ = ("schedule", "source", "probes", "cls", "build_seconds")

    def __init__(self, schedule: Schedule, source: str, probes: tuple[str, ...] = ()) -> None:
        started = time.perf_counter()
        namespace: dict = {}
        exec(compile(source, f"<generated {schedule.model.name}>", "exec"), namespace)
        self.schedule = schedule
        self.source = source
        self.probes = probes
        self.cls = namespace["GeneratedSim"]
        self.build_seconds = time.perf_counter() - started


# -- swarm (bit-parallel lane) emission ---------------------------------------

#: ops with no packed lowering: per-lane products/quotients and data-dependent
#: shifts genuinely need per-lane arithmetic, and ``xorr`` is a parity
#: reduction with no carry trick.  Everything else stays a handful of
#: wide-int operations regardless of the lane count.
TRANSPOSED_OPS = frozenset({"mul", "div", "rem", "dshl", "dshr", "xorr"})

SWARM_RUNTIME_HELPERS = '''
def _sx(x, sh, ext):
    """Packed sign-extension: OR each lane's sign bit, spread over ``ext``.

    ``sh`` is the sign-bit position inside the lane, ``ext`` the (scalar)
    extension-bit mask; multiplying the lane-base sign bits by it fills
    every negative lane's extension bits in one operation.
    """
    return x | (((x >> sh) & _R1) * ext)


def _nz(x):
    """Per-lane ``value != 0``, as a lane-base bit mask.

    Adding ``2**(_S-1) - 1`` to each lane carries into the (always spare)
    top lane bit exactly when the lane is non-zero; lanes never overflow
    into each other because packed values use at most ``_S - 2`` bits.
    """
    return ((x + _HALF) & _TOP) >> _SHS


def _sel(c, t, f, m, km):
    """Packed 2:1 mux: ``c`` holds lane-base condition bits.

    ``m`` is the scalar result mask, ``km`` its lane-replicated form;
    ``c * m`` spreads each set condition bit across its whole lane.
    """
    s = c * m
    return (t & s) | (f & (s ^ km))


def _t1(f, a, ma):
    """Transpose a unary op: apply scalar ``f`` to every lane of ``a``."""
    r = 0
    sh = 0
    for _ in range(_L):
        r |= f((a >> sh) & ma) << sh
        sh += _S
    return r


def _t2(f, a, ma, b, mb):
    """Transpose a binary op lane by lane (see :data:`TRANSPOSED_OPS`)."""
    r = 0
    sh = 0
    for _ in range(_L):
        r |= f((a >> sh) & ma, (b >> sh) & mb) << sh
        sh += _S
    return r


def _mr(banks, a, ma):
    """Per-lane memory read: lane ``l`` reads its own backing store."""
    r = 0
    sh = 0
    for bank in banks:
        r |= bank[(a >> sh) & ma] << sh
        sh += _S
    return r


def _vadd(planes, m):
    """Carry-save add of a lane-base firing mask into a vertical counter.

    ``planes[k]`` holds bit ``k`` of every lane's count; ripple the mask
    upward, growing the list on overflow, so counters never saturate in
    the hot loop — clamping happens at read time like the scalar backends.
    """
    i = 0
    while m:
        if i == len(planes):
            planes.append(m)
            return
        c = planes[i] & m
        planes[i] ^= m
        m = c
        i += 1
'''


class SwarmEmitter:
    """Lane-transposed expression emission over a uniform lane stride.

    Packs ``lanes`` independent simulations into one Python integer per
    signal: lane ``l`` occupies bits ``[l*stride, l*stride + width)`` and
    holds exactly the raw masked value the scalar codegen maintains — the
    per-lane invariant is the scalar invariant, verbatim.  The stride is
    *uniform* across every signal (max node width in the design, plus two
    spare bits), which is what keeps width-changing ops — slices, ``cat``,
    constant shifts, pads — single shift-and-mask operations, and lets
    add/sub/compare run as SWAR arithmetic whose carries the spare bits
    absorb.  Only the ops in :data:`TRANSPOSED_OPS` (and memory ports)
    loop per lane, through scalar lambdas produced by :func:`gen_expr`,
    so their per-lane semantics are the scalar backends' by construction.

    Replicated constants (``value`` repeated in every lane) and transpose
    lambdas are hoisted into module-level names, deduplicated by value.
    """

    def __init__(self, lanes: int, stride: int, ref: RefFn, mem: MemFn) -> None:
        self.lanes = lanes
        self.stride = stride
        self.ref = ref
        self.mem = mem
        self._consts: dict[int, str] = {}
        self._lambdas: dict[str, str] = {}

    # -- hoisting -------------------------------------------------------------

    def rep(self, value: int) -> str:
        """The name of the hoisted lane-replicated constant for ``value``."""
        if value == 0:
            return "0"
        name = self._consts.get(value)
        if name is None:
            name = self._consts[value] = f"_K{len(self._consts)}"
        return name

    def _lam(self, params: str, body: str) -> str:
        """The name of the hoisted scalar lambda ``lambda params: body``."""
        source = f"lambda {params}: {body}"
        name = self._lambdas.get(source)
        if name is None:
            name = self._lambdas[source] = f"_F{len(self._lambdas)}"
        return name

    def prelude_lines(self) -> list[str]:
        """Hoisted assignments; emit after ``_R1`` is defined."""
        lines = [
            f"{name} = {value} * _R1"
            for value, name in self._consts.items()
        ]
        lines += [
            f"{name} = {source}" for source, name in self._lambdas.items()
        ]
        return lines

    # -- packed re-encoding ----------------------------------------------------

    def extend(self, text: str, tpe, width: int) -> str:
        """Zero/sign-extend a packed raw value to ``width`` bits per lane."""
        w = bit_width(tpe)
        if is_signed(tpe) and w < width:
            return f"_sx({text}, {w - 1}, {mask(width) ^ mask(w)})"
        return text

    # -- expression emission ---------------------------------------------------

    def gen(self, expr: Expr) -> str:
        """Generate a packed expression computing ``expr`` in every lane."""
        if isinstance(expr, Ref):
            return self.ref(expr.name)
        if isinstance(expr, UIntLiteral):
            return self.rep(expr.value)
        if isinstance(expr, SIntLiteral):
            return self.rep(expr.value & mask(expr.width))
        if isinstance(expr, Mux):
            width = bit_width(expr.type)
            cond = self.gen(expr.cond)
            arms = [
                self.extend(self.gen(arm), arm.tpe, width)
                for arm in (expr.tval, expr.fval)
            ]
            return (
                f"_sel({cond}, {arms[0]}, {arms[1]}, "
                f"{mask(width)}, {self.rep(mask(width))})"
            )
        if isinstance(expr, MemRead):
            addr = self.gen(expr.addr)
            addr_mask = mask(bit_width(expr.addr.tpe))
            return f"_mr({self.mem(expr.mem)}, {addr}, {addr_mask})"
        if isinstance(expr, PrimOp):
            return self._gen_primop(expr)
        raise TypeError(f"cannot generate swarm code for {expr!r}")

    def predicate(self, pred: Expr, en: Expr) -> str:
        """A packed firing mask, dropping a constant-true enable."""
        pred_text = self.gen(pred)
        if isinstance(en, UIntLiteral) and en.value == 1:
            return pred_text
        return f"({self.gen(en)} & {pred_text})"

    def _transpose(self, expr: PrimOp, texts: list[str]) -> str:
        """Per-lane fallback: a scalar lambda applied lane by lane.

        The lambda body comes from :func:`gen_expr` on a copy of the op
        whose args are plain parameter refs, so per-lane semantics equal
        the scalar backends' bit for bit.
        """
        params = ("_a", "_b")[: len(expr.args)]
        synthetic = PrimOp(
            expr.op,
            tuple(Ref(p, a.tpe) for p, a in zip(params, expr.args)),
            expr.consts,
            expr.type,
        )
        body = gen_expr(synthetic, lambda n: n, lambda n: n)
        fname = self._lam(", ".join(params), body)
        operands = ", ".join(
            f"{text}, {mask(bit_width(a.tpe))}"
            for text, a in zip(texts, expr.args)
        )
        return f"_t{len(expr.args)}({fname}, {operands})"

    def _gen_primop(self, expr: PrimOp) -> str:
        op = expr.op
        args = expr.args
        texts = [self.gen(a) for a in args]
        result_w = bit_width(expr.type)

        if op in TRANSPOSED_OPS:
            return self._transpose(expr, texts)
        if op in ("add", "sub"):
            # SWAR: extend both args to the result width (per-arg sign,
            # exactly the scalar `_val` semantics mod 2**result_w), then
            # one packed add; subtraction biases the minuend by 2**w per
            # lane so borrows can never cross a lane boundary.
            exts = [
                self.extend(t, a.tpe, result_w) for t, a in zip(texts, args)
            ]
            if op == "add":
                if any(is_signed(a.tpe) for a in args):
                    return (
                        f"(({exts[0]} + {exts[1]}) & "
                        f"{self.rep(mask(result_w))})"
                    )
                # unsigned sum already fits the (max+1)-bit result width
                return f"({exts[0]} + {exts[1]})"
            return (
                f"(({exts[0]} + {self.rep(1 << result_w)} - {exts[1]}) & "
                f"{self.rep(mask(result_w))})"
            )
        if op in ("lt", "leq", "gt", "geq"):
            return self._gen_compare(op, args, texts)
        if op in ("eq", "neq"):
            k = max(bit_width(a.tpe) for a in args)
            # one extra bit disambiguates sign: -1 (raw all-ones) must not
            # compare equal to the same-width unsigned all-ones value
            if any(is_signed(a.tpe) for a in args):
                k += 1
            exts = [self.extend(t, a.tpe, k) for t, a in zip(texts, args)]
            diff = f"({exts[0]} ^ {exts[1]})"
            return f"(_nz{diff} ^ _R1)" if op == "eq" else f"_nz{diff}"
        if op in ("and", "or", "xor"):
            symbol = {"and": "&", "or": "|", "xor": "^"}[op]
            exts = [
                self.extend(t, a.tpe, result_w) for t, a in zip(texts, args)
            ]
            return f"({exts[0]} {symbol} {exts[1]})"
        if op == "not":
            return f"({texts[0]} ^ {self.rep(mask(result_w))})"
        if op == "neg":
            ext = self.extend(texts[0], args[0].tpe, result_w)
            return (
                f"(({self.rep(1 << result_w)} - {ext}) & "
                f"{self.rep(mask(result_w))})"
            )
        if op in ("asUInt", "asSInt"):
            return texts[0]
        if op == "cat":
            lo_w = bit_width(args[1].tpe)
            return f"(({texts[0]} << {lo_w}) | {texts[1]})"
        if op == "bits":
            hi, lo = expr.consts
            if lo == 0:
                return f"({texts[0]} & {self.rep(mask(hi + 1))})"
            return f"(({texts[0]} >> {lo}) & {self.rep(mask(hi - lo + 1))})"
        if op == "head":
            (count,) = expr.consts
            shift = bit_width(args[0].tpe) - count
            return f"(({texts[0]} >> {shift}) & {self.rep(mask(count))})"
        if op == "tail":
            (count,) = expr.consts
            keep = bit_width(args[0].tpe) - count
            return f"({texts[0]} & {self.rep(mask(keep))})"
        if op == "shl":
            (count,) = expr.consts
            return texts[0] if count == 0 else f"({texts[0]} << {count})"
        if op == "shr":
            # unlike the scalar emitter a packed right shift drags the
            # next lane's low bits in, so the result is always masked
            (count,) = expr.consts
            width = bit_width(args[0].tpe)
            if count == 0:
                return texts[0]
            if count >= width:
                if is_signed(args[0].tpe):
                    return f"(({texts[0]} >> {width - 1}) & _R1)"
                return "0"
            return f"(({texts[0]} >> {count}) & {self.rep(mask(width - count))})"
        if op == "andr":
            width = bit_width(args[0].tpe)
            return f"(_nz({texts[0]} ^ {self.rep(mask(width))}) ^ _R1)"
        if op == "orr":
            return f"_nz({texts[0]})"
        if op == "pad":
            return self.extend(texts[0], args[0].tpe, result_w)
        raise TypeError(f"cannot generate swarm code for primop {op}")

    def _gen_compare(self, op: str, args, texts: list[str]) -> str:
        """Packed ordered compare via the SWAR borrow trick.

        Per lane, bit ``k`` of ``a + 2**k - b`` is set exactly when
        ``a >= b`` for ``k``-bit operands; signedness is handled by
        sign-extending to a common width and flipping the sign bit
        (mapping two's complement onto the same unsigned order).
        """
        k = max(bit_width(a.tpe) for a in args)
        if any(is_signed(a.tpe) for a in args):
            k += 1
            bias = self.rep(1 << (k - 1))
            exts = [
                f"({self.extend(t, a.tpe, k)} ^ {bias})"
                for t, a in zip(texts, args)
            ]
        else:
            exts = [
                self.extend(t, a.tpe, k) for t, a in zip(texts, args)
            ]
        if op in ("leq", "gt"):  # leq(a, b) == geq(b, a)
            exts.reverse()
        geq = f"((({exts[0]} + {self.rep(1 << k)} - {exts[1]}) >> {k}) & _R1)"
        if op in ("geq", "leq"):
            return geq
        return f"({geq} ^ _R1)"
