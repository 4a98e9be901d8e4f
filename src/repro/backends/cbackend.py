"""Native C backend: compile the settle schedule to a shared object.

The portable JIT (:mod:`repro.backends.treadle`) recovered ~56x over the
tree-walking interpreter while staying pure Python; this backend takes
the remaining headroom the ROADMAP identifies by rendering C99 from the
*same* :class:`~repro.backends.schedule.Schedule` walk, shelling out
to a system C compiler (``cc -O2 -shared -fPIC``), and loading the
artifact through :mod:`ctypes` behind a small, stable ABI:

================================== ==========================================
symbol                             role
================================== ==========================================
``repro_create`` / ``repro_destroy``  allocate / free one simulation state
``repro_reset``                    zero all architectural state and counters
``repro_settle``                   one combinational sweep (before peeks)
``repro_step(s, n, words, …)``     run ``n`` rising edges, return cycles done
``repro_halted``                   fired stop index, or -1 while running
``repro_poke`` / ``repro_peek``    write an input / read any signal by index
``repro_read_covers``              flush the toggle runs, copy the raw
                                   64-bit cover counters out
``repro_abi_version`` & friends    load-time sanity checks on the artifact
================================== ==========================================

``repro_step`` takes an optional input block: ``words`` (NULL for a
plain step), the block's 32-bit words per cycle, and per input port the
word offset of its value in a cycle (-1 holds the port).  The loop
decodes each named input before each edge, so a block is one call.

Semantics mirror :mod:`repro.backends.pycodegen` exactly: every generated
sub-expression is the operand's *raw masked bit pattern* held in one
unsigned machine word (``uint64_t``, or ``__uint128_t`` when any
intermediate expression exceeds 64 bits), and signed interpretation is a
local inline sign-extension.  Truncating division/remainder, guarded
dynamic shifts (shifting by >= the word width is undefined behaviour in
C), and the register re-encode on commit all reproduce the interpreter's
behaviour bit-for-bit — the hypothesis parity suite pins this backend
against the interpreter the same way it pins the JIT.

Builds are keyed through the content-addressed model cache: the cache key
covers the emitted C (via the circuit fingerprint + ``CODEGEN_VERSION``)
*and* the identity of the discovered compiler
(first line of ``cc --version``), so a toolchain upgrade invalidates
stale ``.so`` artifacts instead of silently reusing them.  The ``.so``
lives next to the pickled model entry (``<key>.so``) and is rebuilt from
the cached C source whenever it is missing, truncated, or fails its
load-time ABI checks.

When no C compiler is on ``PATH`` (or a circuit needs arithmetic wider
than 128 bits), :meth:`CBackend.compile` degrades gracefully to the
Treadle JIT tier with a single warning and a
``repro_backend_fallback_total`` metric increment — campaigns keep
running, just slower.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Optional

from ..ir.nodes import Expr, MemRead, Mux, PrimOp, Ref, SIntLiteral, UIntLiteral
from ..ir.types import bit_width, is_signed, mask
from ..runtime.telemetry import obs
from .api import InputBlock
from .model import CircuitModel
from .modelcache import CacheEntry, ModelCache, compile_schedule, resolve_cache
from .pycodegen import CodeBuilder
from .schedule import Schedule
from .treadle import TreadleBackend
from .verilator import VerilatorSimulation

#: Version stamped into (and checked out of) every generated artifact.
C_ABI_VERSION = 3

#: Bit planes per toggle-run counter: a run counts up to ``2**RUN_PLANES - 1``
#: per bit before the planes flush into the 64-bit slot counters.
RUN_PLANES = 12

#: Every value crosses the ABI as this many little-endian 64-bit words,
#: regardless of the model's word width — peek/poke are not hot paths.
VALUE_WORDS = 2

#: compiler discovery order (first hit on PATH wins)
COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: flags for the shared-object build
CFLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")

SO_SUFFIX = ".so"

_U64_MASK = (1 << 64) - 1


class CBackendError(RuntimeError):
    """The native toolchain failed (compile error, bad artifact)."""


class CUnsupportedCircuit(Exception):
    """The circuit needs arithmetic wider than the emitter supports."""


# -- compiler discovery ---------------------------------------------------------


def find_compiler() -> Optional[str]:
    """The first C compiler on PATH (``cc``, ``gcc``, ``clang``), or None.

    Resolution happens at compile time, never at import time, so adding a
    compiler to the environment takes effect without a restart and tests
    can fake its absence by monkeypatching ``shutil.which``.
    """
    for name in COMPILER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


@lru_cache(maxsize=8)
def compiler_id(path: str) -> str:
    """A stable identity string for the compiler at ``path``.

    The first line of ``<path> --version`` (e.g. ``cc (Debian 12.2.0-14)
    12.2.0``).  Mixed into the model-cache key so entries and ``.so``
    artifacts built by one toolchain are never reused after an upgrade —
    codegen bugs fixed by a new compiler must not survive in the cache.
    """
    try:
        proc = subprocess.run(
            [path, "--version"], capture_output=True, text=True, timeout=10
        )
        text = (proc.stdout or proc.stderr or "").strip()
    except (OSError, subprocess.SubprocessError):
        return f"unknown:{path}"
    first = text.splitlines()[0].strip() if text else ""
    return first or f"unknown:{path}"


# -- C code generation ----------------------------------------------------------


def word_width(model: CircuitModel) -> int:
    """The machine word width (64 or 128) needed to hold every value.

    Raw masked values fit their expression's own bit width, so the
    schedule's widest value bounds the required word.  Raises
    :class:`CUnsupportedCircuit` past 128 bits — the caller falls back
    to the (arbitrary-precision) JIT tier rather than miscompute.
    """
    return _word(Schedule(model))


def _word(schedule: Schedule) -> int:
    widest = schedule.widest
    if widest <= 64:
        return 64
    if widest <= 128:
        return 128
    raise CUnsupportedCircuit(
        f"widest intermediate value is {widest} bits (limit: 128)"
    )


class _CExprGen:
    """Expression generator mirroring :func:`pycodegen.gen_expr` in C.

    Invariant (same as the Python generator): every emitted C expression
    has type ``uN`` and evaluates to the raw non-negative bit pattern,
    already truncated to the expression's width.  Sign interpretation is
    a local inline sign-extension into ``sN``.
    """

    def __init__(self, width: int, ref, mem):
        self.W = width
        self.ref = ref
        self.mem = mem

    # -- literal / helper emission ------------------------------------------

    def lit(self, value: int) -> str:
        if self.W == 64:
            return f"UINT64_C(0x{value:x})"
        if value <= _U64_MASK:
            return f"((uN)UINT64_C(0x{value:x}))"
        hi, lo = value >> 64, value & _U64_MASK
        return f"((((uN)UINT64_C(0x{hi:x})) << 64) | (uN)UINT64_C(0x{lo:x}))"

    def m(self, text: str, width: int) -> str:
        """Truncate ``text`` to ``width`` bits (no-op at full word width)."""
        if width >= self.W:
            return text
        return f"(({text}) & {self.lit(mask(width))})"

    def sx(self, text: str, width: int) -> str:
        """Sign-extend a raw ``width``-bit value into an ``sN`` (inline)."""
        shift = self.W - width
        if shift == 0:
            return f"((sN)({text}))"
        return f"((sN)((uN)({text}) << {shift}) >> {shift})"

    def _signed_operand(self, expr: Expr, text: str) -> str:
        """``expr``'s numeric value as an ``sN`` (for cmp/div/rem)."""
        w = bit_width(expr.tpe)
        if is_signed(expr.tpe):
            return self.sx(text, w)
        if w >= self.W:
            raise CUnsupportedCircuit(
                f"{self.W}-bit unsigned operand in a signed context"
            )
        return f"((sN)({text}))"

    def ext(self, expr: Expr, text: str) -> str:
        """``expr``'s value as a ``uN``, sign-extended to the full word.

        For the modular ops (add/sub/mul/bitwise) sign extension to W
        bits followed by a result mask is exactly Python's arbitrary-
        precision signed arithmetic followed by the same mask.
        """
        if is_signed(expr.tpe):
            return f"((uN){self.sx(text, bit_width(expr.tpe))})"
        return text

    # -- expression dispatch -------------------------------------------------

    def gen(self, expr: Expr) -> str:
        if isinstance(expr, Ref):
            return self.ref(expr.name)
        if isinstance(expr, UIntLiteral):
            return self.lit(expr.value)
        if isinstance(expr, SIntLiteral):
            return self.lit(expr.value & mask(expr.width))
        if isinstance(expr, Mux):
            cond = self.gen(expr.cond)
            width = bit_width(expr.type)
            arms = []
            for arm in (expr.tval, expr.fval):
                text = self.gen(arm)
                if is_signed(arm.tpe) and bit_width(arm.tpe) < width:
                    text = self.m(
                        f"((uN){self.sx(text, bit_width(arm.tpe))})", width
                    )
                arms.append(text)
            return f"(({cond}) ? ({arms[0]}) : ({arms[1]}))"
        if isinstance(expr, MemRead):
            # the schedule bounds every read: the address is in range
            return f"{self.mem(expr.mem)}[(size_t)({self.gen(expr.addr)})]"
        if isinstance(expr, PrimOp):
            return self._primop(expr)
        raise TypeError(f"cannot generate C for {expr!r}")

    def _primop(self, expr: PrimOp) -> str:
        op = expr.op
        args = expr.args
        texts = [self.gen(a) for a in args]
        result_w = bit_width(expr.type)

        if op in ("add", "sub", "mul"):
            symbol = {"add": "+", "sub": "-", "mul": "*"}[op]
            a, b = self.ext(args[0], texts[0]), self.ext(args[1], texts[1])
            return self.m(f"({a} {symbol} {b})", result_w)
        if op in ("div", "rem"):
            if is_signed(args[0].tpe) or is_signed(args[1].tpe):
                a = self._signed_operand(args[0], texts[0])
                b = self._signed_operand(args[1], texts[1])
                fn = "_sdiv" if op == "div" else "_srem"
                return self.m(f"((uN){fn}({a}, {b}))", result_w)
            fn = "_udiv" if op == "div" else "_urem"
            return self.m(f"{fn}({texts[0]}, {texts[1]})", result_w)
        if op in ("lt", "leq", "gt", "geq", "eq", "neq"):
            symbol = {"lt": "<", "leq": "<=", "gt": ">", "geq": ">=",
                      "eq": "==", "neq": "!="}[op]
            if is_signed(args[0].tpe) or is_signed(args[1].tpe):
                a = self._signed_operand(args[0], texts[0])
                b = self._signed_operand(args[1], texts[1])
            else:
                a, b = texts[0], texts[1]
            return f"((uN)(({a}) {symbol} ({b})))"
        if op in ("and", "or", "xor"):
            symbol = {"and": "&", "or": "|", "xor": "^"}[op]
            a, b = self.ext(args[0], texts[0]), self.ext(args[1], texts[1])
            return self.m(f"({a} {symbol} {b})", result_w)
        if op == "not":
            return self.m(f"(~{self.ext(args[0], texts[0])})", result_w)
        if op == "neg":
            return self.m(f"((uN)0 - {self.ext(args[0], texts[0])})", result_w)
        if op in ("asUInt", "asSInt"):
            return texts[0]
        if op == "cat":
            lo_w = bit_width(args[1].tpe)
            return f"(({texts[0]} << {lo_w}) | {texts[1]})"
        if op == "bits":
            hi, lo = expr.consts
            if lo == 0:
                return self.m(texts[0], hi + 1)
            return self.m(f"({texts[0]} >> {lo})", hi - lo + 1)
        if op == "head":
            (count,) = expr.consts
            shift = bit_width(args[0].tpe) - count
            return self.m(f"({texts[0]} >> {shift})", count)
        if op == "tail":
            (count,) = expr.consts
            return self.m(texts[0], bit_width(args[0].tpe) - count)
        if op == "shl":
            (count,) = expr.consts
            return f"({texts[0]} << {count})"
        if op == "shr":
            (count,) = expr.consts
            w = bit_width(args[0].tpe)
            if is_signed(args[0].tpe):
                shifted = f"({self.sx(texts[0], w)} >> {min(count, self.W - 1)})"
                return self.m(f"((uN){shifted})", result_w)
            if count >= w:
                return self.lit(0)
            return f"({texts[0]} >> {count})"
        if op == "dshl":
            if is_signed(args[0].tpe):
                raw = f"(((uN){self.sx(texts[0], bit_width(args[0].tpe))}) << {texts[1]})"
                return self.m(raw, result_w)
            return f"({texts[0]} << {texts[1]})"
        if op == "dshr":
            if is_signed(args[0].tpe):
                sx = self.sx(texts[0], bit_width(args[0].tpe))
                return self.m(f"((uN)_sshr({sx}, {texts[1]}))", result_w)
            return f"_ushr({texts[0]}, {texts[1]})"
        if op == "andr":
            full = self.lit(mask(bit_width(args[0].tpe)))
            return f"((uN)({texts[0]} == {full}))"
        if op == "orr":
            return f"((uN)({texts[0]} != (uN)0))"
        if op == "xorr":
            return f"_xorr({texts[0]})"
        if op == "pad":
            w = bit_width(args[0].tpe)
            if is_signed(args[0].tpe) and w < result_w:
                return self.m(f"((uN){self.sx(texts[0], w)})", result_w)
            return texts[0]
        raise TypeError(f"cannot generate C for primop {op}")

    def predicate(self, pred: Expr, en: Expr) -> str:
        """A stop's firing condition, dropping a constant-true enable."""
        pred_text = self.gen(pred)
        if isinstance(en, UIntLiteral) and en.value == 1:
            return pred_text
        return f"({self.gen(en)}) && ({pred_text})"


_HELPERS_64 = """\
typedef uint64_t uN;
typedef int64_t sN;
#define WBITS 64
static inline uN _xorr(uN x) {
    return (uN)(__builtin_popcountll((unsigned long long)x) & 1);
}
"""

_HELPERS_128 = """\
typedef __uint128_t uN;
typedef __int128_t sN;
#define WBITS 128
static inline uN _xorr(uN x) {
    int bits = __builtin_popcountll((unsigned long long)(x >> 64))
             + __builtin_popcountll((unsigned long long)x);
    return (uN)(bits & 1);
}
"""

_HELPERS_COMMON = """\
static inline uN _udiv(uN a, uN b) { return b ? a / b : (uN)0; }
static inline uN _urem(uN a, uN b) { return b ? a % b : a; }
static inline sN _sdiv(sN a, sN b) { return b ? a / b : (sN)0; }
static inline sN _srem(sN a, sN b) {
    if (b == 0) return a;
    if (b == (sN)-1) return (sN)0; /* avoid the INT_MIN % -1 trap */
    return a % b;
}
static inline uN _ushr(uN x, uN s) { return s >= (uN)WBITS ? (uN)0 : x >> s; }
static inline sN _sshr(sN x, uN s) {
    return x >> (unsigned)(s > (uN)(WBITS - 1) ? (uN)(WBITS - 1) : s);
}
"""


def _decode(width: int, index: int) -> str:
    """C reading input ``index``'s ``width``-bit value from the cycle's words ``w``.

    The block layout: least significant word first, the last word's
    bits in its top bits.
    """
    count = (width + 31) >> 5
    drop = 32 * count - width
    parts = []
    for j in range(count):
        word = f"w[at[{index}] + {j}]" if j else f"w[at[{index}]]"
        if j == count - 1 and drop:
            word = f"({word} >> {drop})"
        parts.append(f"((uN){word} << {32 * j})" if j else f"(uN){word}")
    return " | ".join(parts)


class _StepRenderer:
    """Emits one edge of the ``repro_step`` loop from the schedule walk.

    A toggle run (``count_bits``) is a carry-save add of its masked
    source into the run's bit planes along time, ``s->runs[j]``: plane
    ``p`` holds bit ``p`` of every bit's count since the last flush.
    """

    def __init__(self, schedule: Schedule, gen: _CExprGen, b: CodeBuilder) -> None:
        self.ids = schedule.refs
        self.gen = gen
        self.b = b
        self.run = 0

    def assign(self, name, expr) -> None:
        self.b.emit(f"const uN {self.ids[name]} = {self.gen.gen(expr)};")

    def settled(self) -> None:
        pass

    def branch(self, literals) -> None:
        tests = " && ".join(
            f"({self.gen.gen(lit.expr)})" if lit.positive else f"!({self.gen.gen(lit.expr)})"
            for lit in literals
        )
        self.b.emit(f"if ({tests}) {{")
        self.b.depth += 1

    def else_(self) -> None:
        self.b.depth -= 1
        self.b.emit("} else {")
        self.b.depth += 1

    def end(self) -> None:
        self.b.depth -= 1
        self.b.emit("}")

    def count(self, slot) -> None:
        self.b.emit(f"cov[{slot}] += 1;")

    def count_bits(self, src, bits) -> None:
        covered = self.gen.lit(sum(1 << k for k, _ in bits))
        self.b.emit(f"_radd(s->runs[{self.run}], {self.gen.gen(src)} & {covered});")
        self.run += 1

    def stop(self, index, pred, en) -> None:
        keyword = "else if" if index else "if"
        self.b.emit(f"{keyword} ({self.gen.predicate(pred, en)}) s->halted = {index};")

    def next(self, index, expr) -> None:
        self.b.emit(f"const uN n_{index} = {self.gen.gen(expr)};")

    def write(self, write) -> None:
        gen = self.gen
        addr = gen.gen(write.addr)
        guard = gen.gen(write.en)
        if write.bound is not None:
            guard = f"({guard}) && (({addr}) < {gen.lit(write.bound)})"
        self.b.emit(f"if ({guard}) {write.mem_id}[(size_t)({addr})] = {gen.gen(write.data)};")

    def commit(self, index, name) -> None:
        self.b.emit(f"{self.ids[name]} = n_{index};")


def _run_helpers(schedule: Schedule, b: CodeBuilder) -> None:
    """``_radd`` and ``_flush``, the toggle runs' counter arithmetic.

    ``_radd`` ripples a run's masked source through its planes without a
    branch.  ``_flush`` adds every run bit's plane count into its slot
    counter from one table of ``{run, bit, slot}`` rows, then clears the
    planes and ``pend``, the edges since the last flush.
    """
    b.emit("static inline void _radd(uN* r, uN c) {")
    b.depth += 1
    b.emit("uN t;")
    for p in range(RUN_PLANES - 1):
        b.emit(f"t = r[{p}] & c; r[{p}] ^= c; c = t;")
    b.emit(f"r[{RUN_PLANES - 1}] ^= c;")
    b.depth -= 1
    b.emit("}")
    b.emit()
    rows = [(j, k, slot) for j, bits in enumerate(schedule.runs) for k, slot in bits]
    b.emit(f"static const uint32_t _run_bits[{len(rows)}][3] = {{")
    for j, k, slot in rows:
        b.emit(f"    {{{j}, {k}, {slot}}},")
    b.emit("};")
    b.emit()
    b.emit("static void _flush(state_t* s) {")
    b.depth += 1
    b.emit(f"for (uint32_t i = 0; i < {len(rows)}u; i++) {{")
    b.emit("    const uN* r = s->runs[_run_bits[i][0]];")
    b.emit("    const uint32_t k = _run_bits[i][1];")
    b.emit("    uint64_t n = 0;")
    b.emit(f"    for (uint32_t p = 0; p < {RUN_PLANES}u; p++) n |= (uint64_t)((r[p] >> k) & 1) << p;")
    b.emit("    s->covers[_run_bits[i][2]] += n;")
    b.emit("}")
    b.emit("memset(s->runs, 0, sizeof(s->runs));")
    b.emit("s->pend = 0;")
    b.depth -= 1
    b.emit("}")
    b.emit()


def generate_c_source(model: CircuitModel) -> str:
    """Emit the complete C99 translation unit for ``model``.

    One ``state_t`` struct holds every signal (inputs, registers, and —
    refreshed by ``repro_settle`` — combinational values), the memories,
    the raw 64-bit cover counters (one per slot), the toggle runs' bit
    planes with ``pend``, and the fired-stop index.  The hot
    ``repro_step`` loop is the schedule walk, keeping input and register
    state in locals and touching the struct only for
    covers/runs/stops/memories, like the scalar Python renderer's fused
    loop; given a block's words it sets each named input before each
    edge.  The runs flush into the slot counters every
    ``2**RUN_PLANES - 1`` edges, before any run bit's count can outgrow
    its planes, and at every ``repro_read_covers``.

    Raises :class:`CUnsupportedCircuit` when any intermediate value
    exceeds 128 bits.
    """
    schedule = Schedule(model)
    W = _word(schedule)
    names, ids, mem_ids = schedule.names, schedule.ids, schedule.mem_ids
    n_covers = len(schedule.slots)
    n_runs = len(schedule.runs)

    b = CodeBuilder()
    b.emit("/* Generated by repro.backends.cbackend -- do not edit. */")
    b.emit(f"/* model: {model.name}  word: {W} bits  abi: {C_ABI_VERSION} */")
    b.emit("#include <stdint.h>")
    b.emit("#include <stdlib.h>")
    b.emit("#include <string.h>")
    b.emit("#include <stddef.h>")
    b.emit()
    for line in (_HELPERS_64 if W == 64 else _HELPERS_128).splitlines():
        b.emit(line)
    for line in _HELPERS_COMMON.splitlines():
        b.emit(line)
    b.emit()

    # -- state struct -------------------------------------------------------
    b.emit("typedef struct {")
    b.depth += 1
    for name in names:
        b.emit(f"uN {ids[name]};")
    for memory in model.memories:
        b.emit(f"uN {mem_ids[memory.name]}[{memory.padded_depth}];")
    b.emit(f"uint64_t covers[{max(1, n_covers)}];")
    if n_runs:
        b.emit(f"uN runs[{n_runs}][{RUN_PLANES}];")
        b.emit("uint32_t pend;")
    b.emit("int32_t halted;")
    b.depth -= 1
    b.emit("} state_t;")
    b.emit()
    if n_runs:
        _run_helpers(schedule, b)

    # -- lifecycle ----------------------------------------------------------
    b.emit("void* repro_create(void) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)calloc(1, sizeof(state_t));")
    b.emit("if (s) s->halted = -1;")
    b.emit("return (void*)s;")
    b.depth -= 1
    b.emit("}")
    b.emit()
    b.emit("void repro_destroy(void* p) { free(p); }")
    b.emit()
    b.emit("void repro_reset(void* p) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    b.emit("memset(s, 0, sizeof(state_t));")
    b.emit("s->halted = -1;")
    b.depth -= 1
    b.emit("}")
    b.emit()

    # -- settle: one combinational sweep into the struct --------------------
    struct_gen = _CExprGen(W, lambda n: f"s->{ids[n]}", lambda n: f"s->{mem_ids[n]}")
    b.emit("void repro_settle(void* p) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    if not model.comb:
        b.emit("(void)s;")
    for name, expr in schedule.comb:
        b.emit(f"s->{ids[name]} = {struct_gen.gen(expr)};")
    b.depth -= 1
    b.emit("}")
    b.emit()

    # -- step: the fused hot loop -------------------------------------------
    local_gen = _CExprGen(W, schedule.refs.__getitem__, mem_ids.__getitem__)
    b.emit(
        "uint64_t repro_step(void* p, uint64_t cycles, const uint32_t* words, "
        "uint32_t stride, const int32_t* at) {"
    )
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    b.emit("if (s->halted >= 0) return 0;")
    state = [ids[p.name] for p in model.inputs] + [ids[r.name] for r in model.registers]
    for name in state:
        b.emit(f"uN {name} = s->{name};")
    for memory in model.memories:
        b.emit(
            f"uN * const {mem_ids[memory.name]} = s->{mem_ids[memory.name]};"
        )
    if n_covers:
        b.emit("uint64_t * const cov = s->covers;")
    b.emit("uint64_t done = 0;")
    b.emit("uint64_t i;")
    b.emit("for (i = 0; i < cycles; i++) {")
    b.depth += 1
    if model.inputs:
        b.emit("if (words) {")
        b.emit("    const uint32_t* w = words + i * stride;")
        for index, port in enumerate(model.inputs):
            value = _decode(model.widths[port.name], index)
            b.emit(f"    if (at[{index}] >= 0) {ids[port.name]} = {value};")
        b.emit("}")
    schedule.walk(_StepRenderer(schedule, local_gen, b))
    if n_runs:
        b.emit(f"if (++s->pend == {(1 << RUN_PLANES) - 1}u) _flush(s);")
    b.emit("done += 1;")
    if model.stops:
        b.emit("if (s->halted >= 0) break;")
    b.depth -= 1
    b.emit("}")
    for name in state:
        b.emit(f"s->{name} = {name};")
    b.emit("return done;")
    b.depth -= 1
    b.emit("}")
    b.emit()

    b.emit("int32_t repro_halted(void* p) { return ((state_t*)p)->halted; }")
    b.emit()

    # -- poke: inputs only, value pre-masked to the port width --------------
    b.emit("void repro_poke(void* p, uint32_t idx, const uint64_t* in) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    if W == 64:
        b.emit("const uN x = (uN)in[0];")
    else:
        b.emit("const uN x = (uN)in[0] | ((uN)in[1] << 64);")
    b.emit("switch (idx) {")
    b.depth += 1
    for index, port in enumerate(model.inputs):
        masked = struct_gen.m("x", model.widths[port.name])
        b.emit(f"case {index}: s->{ids[port.name]} = {masked}; break;")
    b.emit("default: break;")
    b.depth -= 1
    b.emit("}")
    b.depth -= 1
    b.emit("}")
    b.emit()

    # -- peek: any signal (comb values valid after repro_settle) ------------
    b.emit("void repro_peek(void* p, uint32_t idx, uint64_t* out) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    b.emit("uN x = (uN)0;")
    b.emit("switch (idx) {")
    b.depth += 1
    for index, name in enumerate(names):
        b.emit(f"case {index}: x = s->{ids[name]}; break;")
    b.emit("default: break;")
    b.depth -= 1
    b.emit("}")
    b.emit("out[0] = (uint64_t)x;")
    if W == 64:
        b.emit("out[1] = 0;")
    else:
        b.emit("out[1] = (uint64_t)(x >> 64);")
    b.depth -= 1
    b.emit("}")
    b.emit()

    b.emit("void repro_read_covers(void* p, uint64_t* out) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    if n_runs:
        b.emit("_flush(s);")
    if n_covers:
        b.emit(f"memcpy(out, s->covers, {n_covers} * sizeof(uint64_t));")
    else:
        b.emit("(void)s; (void)out;")
    b.depth -= 1
    b.emit("}")
    b.emit()

    # -- load-time sanity checks --------------------------------------------
    b.emit(f"uint32_t repro_abi_version(void) {{ return {C_ABI_VERSION}u; }}")
    b.emit(f"uint32_t repro_num_signals(void) {{ return {len(names)}u; }}")
    b.emit(f"uint32_t repro_num_covers(void) {{ return {n_covers}u; }}")
    b.emit(f"uint32_t repro_value_words(void) {{ return {VALUE_WORDS}u; }}")
    b.emit(f"uint32_t repro_word_bits(void) {{ return {W}u; }}")
    return b.source()


# -- shared-object build & load -------------------------------------------------

_SCRATCH: Optional[Path] = None


def _scratch_dir() -> Path:
    """Per-process artifact directory for cache-less builds."""
    global _SCRATCH
    if _SCRATCH is None:
        _SCRATCH = Path(tempfile.mkdtemp(prefix="repro-cbackend-"))
    return _SCRATCH


def _digest_path(so_path: Path) -> Path:
    return so_path.with_name(so_path.name + ".sha256")


def artifact_ok(so_path: Path) -> bool:
    """Whether a cached ``.so`` matches its sha256 sidecar.

    ``dlopen`` of a truncated ELF does not fail cleanly — glibc maps
    segments straight past end-of-file and the process dies with SIGBUS
    on first touch.  To keep the cache's "corruption can only ever cost
    a recompile, never a crash" contract for native artifacts, every
    build records a ``<key>.so.sha256`` sidecar and the loader refuses
    to ``dlopen`` any artifact whose bytes no longer match it.
    """
    try:
        expected = _digest_path(so_path).read_text().strip()
        actual = hashlib.sha256(so_path.read_bytes()).hexdigest()
    except OSError:
        return False
    return expected == actual


def build_shared_object(source: str, cc: str, out_path: Path) -> None:
    """Compile ``source`` with ``cc`` and atomically install ``out_path``.

    The object is built under a temporary name in the destination
    directory and ``os.replace``d into place, so concurrent processes
    racing on the same cache slot see either the old artifact or the new
    one — never a torn ``.so``.  Raises :class:`CBackendError` with the
    compiler's stderr on failure.
    """
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="repro-cbuild-") as tmp:
        c_file = Path(tmp) / "model.c"
        c_file.write_text(source)
        tmp_so = out_path.with_name(f".{out_path.name}.{os.getpid()}.tmp")
        cmd = [cc, *CFLAGS, "-o", str(tmp_so), str(c_file)]
        with obs.span("cc-build", cat="compile", backend="c"):
            proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            try:
                tmp_so.unlink()
            except OSError:
                pass
            raise CBackendError(
                f"{cc} failed ({proc.returncode}):\n{proc.stderr.strip()}"
            )
        digest = hashlib.sha256(tmp_so.read_bytes()).hexdigest()
        tmp_digest = tmp_so.with_name(tmp_so.name + ".sha256")
        tmp_digest.write_text(digest + "\n")
        os.replace(tmp_so, out_path)
        os.replace(tmp_digest, _digest_path(out_path))


class _CompiledLib:
    """One loaded ``.so`` plus the name->slot maps every fork shares.

    Performs the load-time handshake: the artifact must report the
    expected ABI version, signal count, cover count, and value word
    count, or loading raises :class:`CBackendError` and the caller
    rebuilds from source.  Instances are memoized on the cache entry's
    ``runtime`` dict, so forks and later compiles skip ``dlopen``.
    """

    def __init__(self, path: Path, schedule: Schedule) -> None:
        self.path = path
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise CBackendError(f"cannot load {path}: {exc}") from exc
        try:
            lib.repro_create.restype = ctypes.c_void_p
            lib.repro_create.argtypes = []
            lib.repro_destroy.restype = None
            lib.repro_destroy.argtypes = [ctypes.c_void_p]
            lib.repro_reset.restype = None
            lib.repro_reset.argtypes = [ctypes.c_void_p]
            lib.repro_settle.restype = None
            lib.repro_settle.argtypes = [ctypes.c_void_p]
            lib.repro_step.restype = ctypes.c_uint64
            lib.repro_step.argtypes = [
                ctypes.c_void_p, ctypes.c_uint64, ctypes.c_void_p,
                ctypes.c_uint32, ctypes.POINTER(ctypes.c_int32),
            ]
            lib.repro_halted.restype = ctypes.c_int32
            lib.repro_halted.argtypes = [ctypes.c_void_p]
            words = ctypes.POINTER(ctypes.c_uint64)
            lib.repro_poke.restype = None
            lib.repro_poke.argtypes = [ctypes.c_void_p, ctypes.c_uint32, words]
            lib.repro_peek.restype = None
            lib.repro_peek.argtypes = [ctypes.c_void_p, ctypes.c_uint32, words]
            lib.repro_read_covers.restype = None
            lib.repro_read_covers.argtypes = [ctypes.c_void_p, words]
            for probe in ("repro_abi_version", "repro_num_signals",
                          "repro_num_covers", "repro_value_words"):
                getattr(lib, probe).restype = ctypes.c_uint32
                getattr(lib, probe).argtypes = []
        except AttributeError as exc:
            raise CBackendError(f"{path} is missing ABI symbols: {exc}") from exc
        names = schedule.names
        checks = (
            ("abi version", lib.repro_abi_version(), C_ABI_VERSION),
            ("signal count", lib.repro_num_signals(), len(names)),
            ("cover count", lib.repro_num_covers(), len(schedule.slots)),
            ("value words", lib.repro_value_words(), VALUE_WORDS),
        )
        for what, got, want in checks:
            if got != want:
                raise CBackendError(
                    f"{path}: {what} mismatch (artifact: {got}, expected: {want})"
                )
        self._lib = lib
        self.index = {name: i for i, name in enumerate(names)}
        self.inputs = {port.name: i for i, port in enumerate(schedule.model.inputs)}
        self.slots = schedule.slots
        self.create = lib.repro_create
        self.destroy = lib.repro_destroy
        self.reset = lib.repro_reset
        self.settle = lib.repro_settle
        self.step = lib.repro_step
        self.halted = lib.repro_halted
        self.poke = lib.repro_poke
        self.peek = lib.repro_peek
        self.read_covers = lib.repro_read_covers

    def offsets(self, ports: tuple[tuple[str, int], ...]):
        """``repro_step``'s ``at`` array for a block naming ``ports``.

        Per input port, the word offset of its value within a cycle, or
        -1 for a port the block does not name.
        """
        at = (ctypes.c_int32 * max(1, len(self.inputs)))(*[-1] * len(self.inputs))
        offset = 0
        for name, width in ports:
            at[self.inputs[name]] = offset
            offset += (width + 31) >> 5
        return at


class _NativeState:
    """One native simulation state, behind the scalar engine interface.

    Offers :class:`~repro.backends.verilator.VerilatorSimulation` what a
    ``GeneratedSim`` instance does — ``settle()``, ``run(cycles)``, raw
    ``counters`` by cover slot, ``halted``, ``cycle`` — with signal
    values read and written by ABI index, as ``VALUE_WORDS`` 64-bit
    words.  ``run`` takes the :class:`~repro.backends.api.InputBlock`
    itself, whose words go to ``repro_step`` as they are.  Frees the
    native state when collected.
    """

    def __init__(self, clib: _CompiledLib) -> None:
        handle = clib.create()
        if not handle:
            raise MemoryError("repro_create returned NULL")
        self._clib = clib
        self._handle = handle
        self._buf = (ctypes.c_uint64 * VALUE_WORDS)()
        self.halted: Optional[int] = None
        self.cycle = 0

    def settle(self) -> None:
        self._clib.settle(self._handle)

    def run(self, cycles: int, block: Optional[InputBlock] = None) -> int:
        clib = self._clib
        if block is None:
            done = clib.step(self._handle, cycles, None, 0, None)
        else:
            done = clib.step(self._handle, cycles, block.words[0], block.stride,
                             clib.offsets(block.ports))
        self.cycle += done
        index = clib.halted(self._handle)
        if index >= 0:
            self.halted = index
        return done

    @property
    def counters(self):
        raw = (ctypes.c_uint64 * max(1, len(self._clib.slots)))()
        self._clib.read_covers(self._handle, raw)
        return raw

    def __getitem__(self, index: int) -> int:
        buf = self._buf
        self._clib.peek(self._handle, index, buf)
        return buf[0] | (buf[1] << 64)

    def __setitem__(self, index: int, raw: int) -> None:
        buf = self._buf
        buf[0] = raw & _U64_MASK
        buf[1] = (raw >> 64) & _U64_MASK
        self._clib.poke(self._handle, index, buf)

    def __del__(self) -> None:
        handle = getattr(self, "_handle", None)
        if handle:
            try:
                self._clib.destroy(handle)
            except Exception:
                pass
            self._handle = None


class CSimulation(VerilatorSimulation):
    """The scalar simulation wrapper over a native state.

    State lives entirely inside the loaded artifact; the wrapper every
    scalar tier shares maps names to ABI indices, settles before peeks,
    clamps counters at read time and reports cycles/second under the
    ``c`` label.  ``plan`` is the loaded :class:`_CompiledLib`.
    """

    backend_name = "c"

    @property
    def _clib(self) -> _CompiledLib:
        return self._plan

    def _feed(self, block: InputBlock) -> InputBlock:
        # the native loop decodes the block's words itself
        return block

    def _new_engine(self):
        state = _NativeState(self._plan)
        return state, state, self._plan.index


class CBackend:
    """Factory for native-code simulations.

    ``compile()`` discovers a C compiler on PATH at call time, keys the
    build through the content-addressed model cache (emitted C + compiler
    identity + codegen versions), and loads the resulting ``.so`` via
    ctypes.  With no compiler available — or a circuit whose intermediate
    values exceed 128 bits — it degrades to the Treadle JIT tier with a
    single warning per reason and a ``repro_backend_fallback_total``
    metric increment, so campaigns never fail for lack of a toolchain.
    """

    name = "c"

    def __init__(
        self,
        cache: Optional[ModelCache] = None,
        compiler: Optional[str] = None,
    ) -> None:
        self._cache = cache
        self._compiler = compiler
        self._warned: set[str] = set()
        self._fallback_backend: Optional[TreadleBackend] = None

    def compile(self, circuit, counter_width: Optional[int] = None):
        """Build a simulation for a circuit (lowering it as needed)."""
        return self._compile(circuit, counter_width)

    def compile_state(self, state, counter_width: Optional[int] = None):
        """Build a simulation from an already-lowered CompileState."""
        return self._compile(state, counter_width)

    def _compile(self, circuit_or_state, counter_width):
        cc = self._compiler or find_compiler()
        if cc is None:
            return self._fallback(circuit_or_state, counter_width, "no-compiler")
        ccid = compiler_id(cc)

        try:
            entry = compile_schedule(
                circuit_or_state,
                self.name,
                generate_c_source,
                cache=self._cache,
                options=(f"cc:{ccid}",),
            )
        except CUnsupportedCircuit as exc:
            return self._fallback(
                circuit_or_state, counter_width, "unsupported-width", str(exc)
            )
        clib = entry.runtime.get("clib")
        if clib is None:
            clib = self._load_or_build(entry, cc)
            entry.runtime["clib"] = clib
        return CSimulation(entry.runtime["schedule"], counter_width, clib)

    # -- internals -----------------------------------------------------------

    def _artifact_path(self, entry: CacheEntry, source: str) -> Path:
        cache = resolve_cache(self._cache)
        if cache is not None and cache.directory is not None and entry.key:
            return cache.directory / f"{entry.key}{SO_SUFFIX}"
        name = entry.key or hashlib.sha256(source.encode()).hexdigest()
        return _scratch_dir() / f"{name}{SO_SUFFIX}"

    def _load_or_build(self, entry: CacheEntry, cc: str) -> _CompiledLib:
        source = entry.source
        so_path = self._artifact_path(entry, source)
        schedule = entry.runtime["schedule"]
        if artifact_ok(so_path):
            try:
                return _CompiledLib(so_path, schedule)
            except CBackendError:
                # Truncated, corrupt, or ABI-stale artifact: rebuild it
                # from the cached source — a bad .so can only ever cost
                # a recompile, never a crash or a wrong simulation.
                pass
        build_shared_object(source, cc, so_path)
        return _CompiledLib(so_path, schedule)

    def _fallback(self, circuit_or_state, counter_width, reason, detail=""):
        if reason not in self._warned:
            self._warned.add(reason)
            extra = f" ({detail})" if detail else ""
            warnings.warn(
                f"c backend unavailable ({reason}{extra}); "
                "falling back to the treadle JIT tier",
                RuntimeWarning,
                stacklevel=3,
            )
        if obs.enabled:
            obs.inc(
                "repro_backend_fallback_total", backend=self.name, reason=reason
            )
        if self._fallback_backend is None:
            self._fallback_backend = TreadleBackend(jit=True, cache=self._cache)
        return self._fallback_backend._compile(circuit_or_state, counter_width)
