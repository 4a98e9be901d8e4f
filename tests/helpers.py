"""Shared test helpers: hypothesis strategies for random IR and circuits."""

from __future__ import annotations

import random as _random

from hypothesis import strategies as st

from repro.ir import (
    BOOL,
    CLOCK,
    Circuit,
    Connect,
    Cover,
    DefNode,
    DefRegister,
    Expr,
    Module,
    Port,
    PrimOp,
    Ref,
    SIntLiteral,
    SIntType,
    UIntLiteral,
    UIntType,
    bit_width,
    is_signed,
    mask,
    prim,
    u,
)

# ops usable in random generation (and their arity category)
BIN_ARITH = ["add", "sub", "mul", "div", "rem"]
BIN_CMP = ["lt", "leq", "gt", "geq", "eq", "neq"]
BIN_BITS = ["and", "or", "xor"]
UNARY = ["not", "neg", "andr", "orr", "xorr", "asUInt", "asSInt"]


@st.composite
def widths(draw, lo: int = 1, hi: int = 16):
    return draw(st.integers(lo, hi))


@st.composite
def literals(draw, width=None, signed=None):
    if width is None:
        width = draw(st.integers(1, 12))
    if signed is None:
        signed = draw(st.booleans())
    if signed:
        value = draw(st.integers(-(1 << (width - 1)), (1 << (width - 1)) - 1))
        return SIntLiteral(value, width)
    value = draw(st.integers(0, mask(width)))
    return UIntLiteral(value, width)


@st.composite
def expressions(draw, leaves: list[Expr], depth: int = 3) -> Expr:
    """A random expression over the given leaf expressions."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if leaves and draw(st.booleans()):
            return draw(st.sampled_from(leaves))
        return draw(literals())
    kind = draw(st.integers(0, 5))
    if kind == 0:  # binary same-sign op
        op = draw(st.sampled_from(BIN_ARITH + BIN_CMP + BIN_BITS))
        a = draw(expressions(leaves, depth - 1))
        b = draw(expressions(leaves, depth - 1))
        if is_signed(a.tpe) != is_signed(b.tpe):
            b = prim("asSInt", b) if is_signed(a.tpe) else prim("asUInt", b)
        return prim(op, a, b)
    if kind == 1:  # unary
        op = draw(st.sampled_from(UNARY))
        a = draw(expressions(leaves, depth - 1))
        return prim(op, a)
    if kind == 2:  # bits
        a = draw(expressions(leaves, depth - 1))
        width = bit_width(a.tpe)
        lo = draw(st.integers(0, width - 1))
        hi = draw(st.integers(lo, width - 1))
        return prim("bits", a, consts=[hi, lo])
    if kind == 3:  # shifts/pad
        a = draw(expressions(leaves, depth - 1))
        op = draw(st.sampled_from(["shl", "shr", "pad", "head", "tail"]))
        width = bit_width(a.tpe)
        if op == "shl":
            n = draw(st.integers(0, 4))
        elif op == "shr":
            n = draw(st.integers(0, width + 2))
        elif op == "pad":
            n = draw(st.integers(0, width + 4))
        elif op == "head":
            n = draw(st.integers(1, width))
        else:  # tail
            n = draw(st.integers(0, width - 1))
        return prim(op, a, consts=[n])
    if kind == 4:  # cat
        a = draw(expressions(leaves, depth - 1))
        b = draw(expressions(leaves, depth - 1))
        return prim("cat", a, b)
    # mux
    from repro.ir import Mux

    cond = draw(expressions(leaves, depth - 1))
    if bit_width(cond.tpe) != 1 or is_signed(cond.tpe):
        cond = prim("orr", cond)
    a = draw(expressions(leaves, depth - 1))
    b = draw(expressions(leaves, depth - 1))
    if is_signed(a.tpe) != is_signed(b.tpe):
        b = prim("asSInt", b) if is_signed(a.tpe) else prim("asUInt", b)
    return Mux.make(cond, a, b)


@st.composite
def cover_conditions(draw, atoms: list[Expr], depth: int = 2) -> Expr:
    """A random ``UInt<1>`` cover condition over the 1-bit ``atoms``.

    Mostly an atom, so literals repeat across covers; otherwise a
    negation, a conjunction, a constant true or false, or a
    contradiction ``and(a, not(a))``.
    """
    kind = draw(st.integers(0, 6)) if depth else 0
    if kind <= 2:
        return draw(st.sampled_from(atoms))
    if kind == 3:
        return prim("not", draw(cover_conditions(atoms, depth - 1)))
    if kind == 4:
        left = draw(cover_conditions(atoms, depth - 1))
        return prim("and", left, draw(cover_conditions(atoms, depth - 1)))
    if kind == 5:
        return UIntLiteral(draw(st.integers(0, 1)), 1)
    atom = draw(st.sampled_from(atoms))
    return prim("and", atom, prim("not", atom))


@st.composite
def random_circuits(draw, n_nodes: int = 6, n_regs: int = 2):
    """A random single-module sequential circuit with covers.

    Inputs: in_a (8), in_b (4), in_c (1).  Output: out.  Low-form by
    construction (no whens) so it can feed any backend directly.  The
    covers' predicates and enables (:func:`cover_conditions`) draw
    conjunctions, negations, complementary pairs, literals shared across
    covers, constant-false and contradictory conditions, and single-bit
    tests of one multi-bit node.
    """
    ports = [
        Port("clock", "input", CLOCK),
        Port("reset", "input", UIntType(1)),
        Port("in_a", "input", UIntType(8)),
        Port("in_b", "input", UIntType(4)),
        Port("in_c", "input", UIntType(1)),
    ]
    leaves: list[Expr] = [
        Ref("in_a", UIntType(8)),
        Ref("in_b", UIntType(4)),
        Ref("in_c", UIntType(1)),
    ]
    body = []
    clock = Ref("clock", CLOCK)
    reset = Ref("reset", UIntType(1))

    regs = []
    for i in range(n_regs):
        width = draw(st.integers(1, 10))
        name = f"r{i}"
        body.append(
            DefRegister(name, UIntType(width), clock, reset, UIntLiteral(0, width))
        )
        regs.append((name, width))
        leaves.append(Ref(name, UIntType(width)))

    for i in range(n_nodes):
        expr = draw(expressions(leaves, depth=3))
        name = f"n{i}"
        body.append(DefNode(name, expr))
        leaves.append(Ref(name, expr.tpe))

    # register next values: truncate a random leaf into the reg width
    for name, width in regs:
        src = draw(st.sampled_from(leaves))
        raw = prim("asUInt", src)
        if bit_width(raw.tpe) > width:
            value = prim("bits", raw, consts=[width - 1, 0])
        elif bit_width(raw.tpe) < width:
            value = prim("pad", raw, consts=[width])
        else:
            value = raw
        body.append(Connect(Ref(name, UIntType(width)), value))

    # covers whose pred and en reach every shape the cover trie rewrites
    atoms = [prim("orr", draw(st.sampled_from(leaves))) for _ in range(draw(st.integers(1, 3)))]
    atoms.append(Ref("in_c", UIntType(1)))
    wide = [leaf for leaf in leaves if bit_width(leaf.tpe) > 1]
    if wide:  # single-bit tests of one multi-bit node
        src = draw(st.sampled_from(wide))
        bits = st.integers(0, bit_width(src.tpe) - 1)
        for k in draw(st.lists(bits, min_size=1, max_size=3, unique=True)):
            atoms.append(prim("bits", src, consts=[k, k]))
    n_covers = draw(st.integers(1, 5))
    index = 0
    for _ in range(n_covers):
        pred = draw(cover_conditions(atoms))
        en = draw(st.one_of(st.just(UIntLiteral(1, 1)), cover_conditions(atoms)))
        body.append(Cover(f"c{index}", clock, pred, en))
        index += 1
        if draw(st.booleans()):  # its complement, under the same enable
            body.append(Cover(f"c{index}", clock, prim("not", pred), en))
            index += 1

    out_src = draw(st.sampled_from(leaves))
    out_u = prim("asUInt", out_src)
    out_width = bit_width(out_u.tpe)
    ports.append(Port("out", "output", UIntType(out_width)))
    body.append(Connect(Ref("out", UIntType(out_width)), out_u))

    module = Module("RandTop", ports, body)
    return Circuit("RandTop", [module])


def random_stimulus(seed: int, cycles: int):
    """Deterministic random input vectors for the random_circuits ports."""
    rng = _random.Random(seed)
    return [
        {
            "in_a": rng.randint(0, 255),
            "in_b": rng.randint(0, 15),
            "in_c": rng.randint(0, 1),
            "reset": 1 if cycle < 1 else 0,
        }
        for cycle in range(cycles)
    ]


def run_with_stimulus(sim, stimulus):
    """Apply stimulus, collecting the output each cycle."""
    outputs = []
    for frame in stimulus:
        for name, value in frame.items():
            sim.poke(name, value)
        outputs.append(sim.peek("out"))
        sim.step(1)
    return outputs
