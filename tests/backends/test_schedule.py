"""One lowered schedule: every software tier agrees on an edge's effects.

Each renderer takes the effect order and the encodings of one clock edge
from :class:`repro.backends.schedule.Schedule`.  These cases pin them on
every software tier, with the interpreter's answers as the expected
values: which of two stops firing on the same edge is reported, memory
write data wider than the element, a signed reset value narrower than
its register, writes that read a memory written earlier in the edge,
out-of-range memory addresses, a depth-1 memory, shared subexpressions
and the shapes of the cover trie: bit tests under one test of their
source, an ``else`` arm, nested whens, a contradictory cover, two covers
sharing one name and a when chain deeper than the trie's depth cap.
Toggle runs — single-bit tests of one source counted as one event, in
C's time-axis bit planes and swarm's source-shaped planes — are held to
the interpreter across C's plane flush, at both C carriers, under
``--min-instrument`` and per swarm lane.
"""

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backends import (
    CBackend,
    EssentBackend,
    ModelCache,
    StepResult,
    SwarmBackend,
    TreadleBackend,
    VerilatorBackend,
)
from repro.backends.api import InputBlock
from repro.backends.cbackend import RUN_PLANES, generate_c_source
from repro.backends.model import build_model
from repro.backends.pycodegen import gen_expr, render_python
from repro.backends.schedule import MAX_TRIE_DEPTH, Schedule, bit_tests
from repro.backends.swarm import generate_swarm_source
from repro.coverage import instrument
from repro.hcl import Module, elaborate
from repro.ir import parse_circuit, print_expr
from repro.ir.nodes import Ref
from repro.ir.types import UIntType
from repro.passes import CompileState, lower

TIERS = {
    "treadle-interpreter": lambda: TreadleBackend(jit=False),
    "treadle-jit": lambda: TreadleBackend(jit=True),
    "verilator": VerilatorBackend,
    "essent": EssentBackend,
    "c": CBackend,
    "swarm": lambda: SwarmBackend(lanes=4),
}

TWO_STOPS = """
circuit TwoStops {
  module TwoStops {
    input clock : Clock
    input reset : UInt<1>
    input go : UInt<1>
    output o : UInt<1>

    o <= go
    stop(clock, go, UInt<1>("h1"), 3) : first
    stop(clock, go, UInt<1>("h1"), 7) : second
  }
}
"""

WIDE_WRITE = """
circuit WideWrite {
  module WideWrite {
    input clock : Clock
    input reset : UInt<1>
    input addr : UInt<2>
    input data : UInt<8>
    input we : UInt<1>
    output q : UInt<4>

    mem m : UInt<4>[4]
    q <= m[addr]
    write m[addr] <= data when we on clock
    cover(clock, eq(m[UInt<2>("h1")], UInt<4>("hf")), UInt<1>("h1")) : full
  }
}
"""

NARROW_SIGNED_INIT = """
circuit NarrowInit {
  module NarrowInit {
    input clock : Clock
    input reset : UInt<1>
    output o : SInt<8>

    reg r : SInt<8>, clock reset => (reset, SInt<4>(-1))
    r <= r
    o <= r
    cover(clock, eq(r, SInt<8>(-1)), UInt<1>("h1")) : minus_one
  }
}
"""

WRITE_ORDER = """
circuit WriteOrder {
  module WriteOrder {
    input clock : Clock
    input reset : UInt<1>
    input d : UInt<8>
    output q : UInt<8>

    mem m : UInt<8>[4]
    q <= m[UInt<2>("h1")]
    write m[UInt<2>("h0")] <= d when UInt<1>("h1") on clock
    write m[UInt<2>("h1")] <= m[UInt<2>("h0")] when UInt<1>("h1") on clock
  }
}
"""

OUT_OF_RANGE = """
circuit OutOfRange {
  module OutOfRange {
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<3>
    input d : UInt<8>
    input we : UInt<1>
    output q : UInt<8>
    output q1 : UInt<8>

    mem m : UInt<8>[4]
    q <= m[a]
    q1 <= m[UInt<2>("h1")]
    write m[a] <= d when we on clock
    cover(clock, eq(m[a], UInt<8>("h5a")), UInt<1>("h1")) : hit
  }
}
"""

# one element: the UInt<1> address reaches one slot past the store
DEPTH_ONE = """
circuit DepthOne {
  module DepthOne {
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<1>
    input d : UInt<8>
    input we : UInt<1>
    output q : UInt<8>
    output q0 : UInt<8>

    mem m : UInt<8>[1]
    q <= m[a]
    q0 <= m[UInt<1>("h0")]
    write m[a] <= d when we on clock
    cover(clock, eq(m[a], UInt<8>("h5a")), UInt<1>("h1")) : hit
  }
}
"""

# xor(a, b) is used by a node, a cover predicate and a register next
SHARED = """
circuit Shared {
  module Shared {
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<8>

    reg r : UInt<8>, clock reset => (reset, UInt<8>("h0"))
    node n = and(xor(a, b), r)
    o <= n
    r <= tail(add(xor(a, b), r), 1)
    cover(clock, lt(xor(a, b), UInt<8>("h40")), UInt<1>("h1")) : low
    cover(clock, eq(n, UInt<8>("h0")), UInt<1>("h1")) : zero
  }
}
"""

GUARDED = """
circuit Guarded {
  module Guarded {
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    input x : UInt<4>
    output o : UInt<4>

    o <= x
    cover(clock, bits(x, 0, 0), en) : b0
    cover(clock, bits(x, 1, 1), en) : b1
    cover(clock, bits(x, 2, 2), en) : b2
    cover(clock, bits(x, 3, 3), en) : b3
  }
}
"""


@pytest.fixture(params=sorted(TIERS))
def backend(request):
    return TIERS[request.param]()


def _write_wide(sim):
    sim.poke("addr", 1)
    sim.poke("data", 0xFF)
    sim.poke("we", 1)
    sim.step(1)
    sim.poke("we", 0)
    sim.step(2)


def test_first_of_two_stops_wins(backend):
    sim = backend.compile(parse_circuit(TWO_STOPS))
    assert sim.step(2) == StepResult(2)
    sim.poke("go", 1)
    assert sim.step(5) == StepResult(1, True, "first", 3)
    assert sim.step(1) == StepResult(0, True, "first", 3)


def test_memory_write_data_is_masked_to_the_element(backend):
    sim = backend.compile(parse_circuit(WIDE_WRITE))
    _write_wide(sim)
    assert sim.peek("q") == 0xF
    assert sim.cover_counts() == {"full": 2}


def test_narrow_signed_reset_value_sign_extends(backend):
    sim = backend.compile(parse_circuit(NARROW_SIGNED_INIT))
    sim.poke("reset", 1)
    sim.step(1)
    sim.poke("reset", 0)
    sim.step(2)
    assert sim.peek("o") == 0xFF
    assert sim.cover_counts() == {"minus_one": 2}


@pytest.mark.parametrize("backend_cls", [VerilatorBackend, EssentBackend])
def test_counter_width_does_not_change_the_compiled_model(backend_cls):
    cache = ModelCache()
    circuit = parse_circuit(WIDE_WRITE)
    narrow = backend_cls(cache=cache).compile(circuit, counter_width=2)
    wide = backend_cls(cache=cache).compile(circuit)
    assert (cache.misses, cache.hits) == (1, 1)
    # saturation still applies, at read time
    for sim in (narrow, wide):
        _write_wide(sim)
        sim.step(4)
    assert wide.cover_counts() == {"full": 6}
    assert narrow.cover_counts() == {"full": 3}


def test_memory_writes_see_pre_edge_memory(backend):
    # the second write's data is m[0] before the edge, not the first write's d
    sim = backend.compile(parse_circuit(WRITE_ORDER))
    sim.poke("d", 0x5A)
    sim.step(1)
    assert sim.peek("q") == 0x0
    sim.step(1)
    assert sim.peek("q") == 0x5A


def test_out_of_range_memory_read_is_zero(backend):
    sim = backend.compile(parse_circuit(OUT_OF_RANGE))
    sim.poke("a", 1)
    sim.poke("d", 0x5A)
    sim.poke("we", 1)
    sim.step(1)
    sim.poke("we", 0)
    sim.step(1)  # m[1] == 0x5a: counts
    sim.poke("a", 5)  # past the backing store: reads 0, not m[1]
    sim.step(2)
    assert sim.peek("q") == 0x0
    assert sim.peek("q1") == 0x5A
    assert sim.cover_counts() == {"hit": 1}


def test_out_of_range_memory_write_is_dropped(backend):
    sim = backend.compile(parse_circuit(OUT_OF_RANGE))
    sim.poke("a", 5)
    sim.poke("d", 0x77)
    sim.poke("we", 1)
    sim.step(1)
    sim.poke("we", 0)
    sim.step(1)
    assert sim.peek("q1") == 0x0
    assert sim.peek("q") == 0x0


def _drive_depth_one(sim):
    trace = []
    # (a, d, we): write 0 and read it back at 0 and 1, write 1 (dropped)
    script = [(0, 0x5A, 1), (0, 0, 0), (1, 0, 0), (1, 0x77, 1), (1, 0, 0), (0, 0, 0)]
    for a, d, we in script:
        sim.poke("a", a)
        sim.poke("d", d)
        sim.poke("we", we)
        sim.step(1)
        trace.append((sim.peek("q"), sim.peek("q0")))
    return trace, sim.cover_counts()


def test_depth_one_memory_matches_the_interpreter(backend):
    circuit = parse_circuit(DEPTH_ONE)
    expected = _drive_depth_one(TreadleBackend(jit=False).compile(circuit))
    assert expected == (
        [(0x5A, 0x5A), (0x5A, 0x5A), (0x0, 0x5A), (0x0, 0x5A), (0x0, 0x5A), (0x5A, 0x5A)],
        {"hit": 2},
    )
    assert _drive_depth_one(backend.compile(circuit)) == expected


def _drive_shared(sim, seed=7, cycles=200):
    rng = random.Random(seed)
    trace = []
    for cycle in range(cycles):
        sim.poke("reset", int(cycle < 2 or rng.random() < 0.02))
        sim.poke("a", rng.getrandbits(8))
        sim.poke("b", rng.getrandbits(8))
        sim.step(1)
        trace.append(sim.peek("o"))
    return trace, sim.cover_counts()


def test_shared_subexpression_matches_the_interpreter(backend):
    circuit = parse_circuit(SHARED)
    expected = _drive_shared(TreadleBackend(jit=False).compile(circuit))
    assert _drive_shared(backend.compile(circuit)) == expected


def test_shared_subexpression_is_rendered_once_per_edge():
    source = render_python(build_model(parse_circuit(SHARED)))
    run = source[source.index("def run("):]
    assert run.count("v_a ^ v_b") == 1


def test_temporaries_are_not_signals():
    model = build_model(parse_circuit(SHARED))
    schedule = Schedule(model)
    signals = (
        [p.name for p in model.inputs]
        + [r.name for r in model.registers]
        + [name for name, _ in model.comb]
    )
    assert schedule.names == signals
    temps = set(schedule.refs) - set(schedule.names)
    assert temps  # the edge does share a node
    assert not temps & set(schedule.ids.values())
    # CBackend's load-time handshake checks the artifact against this
    source = generate_c_source(model)
    assert f"repro_num_signals(void) {{ return {len(signals)}u; }}" in source


_TRIE_EVENTS = ("branch", "else_", "end", "count", "count_bits")


class _Recorder:
    """Records the cover-trie events of a walk as short tokens."""

    def __init__(self):
        self.tokens = []

    def __getattr__(self, name):
        if name not in _TRIE_EVENTS:
            return lambda *args: None
        return lambda *args: self.tokens.append(_token(name, *args))


def _token(name, *args):
    if name == "branch":
        (literals,) = args
        return "if " + " & ".join(
            print_expr(lit.expr) if lit.positive else f"!{print_expr(lit.expr)}"
            for lit in literals
        )
    if name == "count":
        return f"count {args[0]}"
    if name == "count_bits":
        src, bits = args
        return f"count_bits {print_expr(src)} " + " ".join(f"{k}:{slot}" for k, slot in bits)
    return name


def _trie(circuit_or_state):
    """The cover-trie events of one edge, as tokens, and the schedule."""
    schedule = Schedule(build_model(circuit_or_state))
    recorder = _Recorder()
    schedule.walk(recorder)
    return recorder.tokens, schedule


def _enclosing(tokens, index):
    """The ``if`` tokens enclosing ``tokens[index]``, outermost first."""
    stack = []
    for token in tokens[:index]:
        if token.startswith("if "):
            stack.append(token)
        elif token == "end":
            stack.pop()
    return stack


def test_bit_covers_of_one_source_sit_behind_one_guard():
    # the guard is the trie's one test of x != 0, implied by each bit
    # test; under it and the one test of en the four bit tests are one
    # toggle run
    tokens, schedule = _trie(parse_circuit(GUARDED))
    slots = [schedule.slots[f"b{k}"] for k in range(4)]
    run = "count_bits x " + " ".join(f"{k}:{slot}" for k, slot in enumerate(slots))
    assert tokens == ["if x", "if en", run, "end", "end"]
    assert schedule.runs == [tuple(enumerate(slots))]
    # the scalar renderer expands the run into the per-bit tests it stands for
    lines = [line.strip() for line in render_python(build_model(parse_circuit(GUARDED))).splitlines()]
    for literal, slot in bit_tests(Ref("x", UIntType(4)), enumerate(slots)):
        at = lines.index(f"if {gen_expr(literal.expr, 'v_{}'.format, str)}:")
        assert lines[at + 1] == f"cnt[{slot}] += 1"


def _drive(sim, inputs, seed=5, cycles=150):
    rng = random.Random(seed)
    for cycle in range(cycles):
        sim.poke("reset", int(cycle == 0))
        for name, width in inputs:
            sim.poke(name, rng.getrandbits(width))
        sim.step(1)
    return sim.cover_counts()


def _matches_interpreter(backend, circuit_or_state, inputs):
    """Counts on ``backend`` over random inputs, held to the interpreter's."""
    compile_ = "compile_state" if isinstance(circuit_or_state, CompileState) else "compile"
    expected = _drive(getattr(TreadleBackend(jit=False), compile_)(circuit_or_state), inputs)
    assert _drive(getattr(backend, compile_)(circuit_or_state), inputs) == expected
    return expected


# a mux select and its negation (mux-toggle's pair), and a third cover
# that shares the select
PAIR = """
circuit Pair {
  module Pair {
    input clock : Clock
    input reset : UInt<1>
    input s : UInt<1>
    input a : UInt<3>
    output o : UInt<1>

    o <= s
    cover(clock, s, UInt<1>("h1")) : sel_hi
    cover(clock, not(s), UInt<1>("h1")) : sel_lo
    cover(clock, and(s, bits(a, 1, 1)), UInt<1>("h1")) : sel_a1
  }
}
"""


def test_complementary_covers_share_one_test_with_an_else_arm(backend):
    tokens, schedule = _trie(parse_circuit(PAIR))
    hi, lo, a1 = (schedule.slots[name] for name in ("sel_hi", "sel_lo", "sel_a1"))
    assert tokens == [
        "if s", f"count {hi}", "if bits(a, 1, 1)", f"count {a1}", "end",
        "else_", f"count {lo}", "end",
    ]
    counts = _matches_interpreter(backend, parse_circuit(PAIR), [("s", 1), ("a", 3)])
    assert counts["sel_hi"] + counts["sel_lo"] == 150
    assert 0 < counts["sel_a1"] < counts["sel_hi"]


class _Nested(Module):
    def build(self, m):
        a, b, c = m.input("a"), m.input("b"), m.input("c")
        out = m.output("o", 2)
        out <<= m.lit(0, 2)
        with m.when(a):
            out <<= m.lit(1, 2)
            with m.when(b):
                out <<= m.lit(2, 2)
            with m.otherwise():
                with m.when(c):
                    out <<= m.lit(3, 2)


def test_nested_when_covers_nest_in_the_trie(backend):
    state, _ = instrument(elaborate(_Nested()), metrics=["line"])
    tokens, schedule = _trie(state)
    # line coverage: the module, when a, when b, its otherwise, when c
    top, in_a, in_b, not_b, in_c = (f"count {slot}" for slot in schedule.slots.values())
    assert tokens == [
        top, "if a", in_a, "if b", in_b, "else_", not_b, "if c", in_c, "end", "end", "end",
    ]
    counts = _matches_interpreter(backend, state, [("a", 1), ("b", 1), ("c", 1)])
    assert len(counts) == 5 and all(counts.values())


CONTRADICTION = """
circuit Contradiction {
  module Contradiction {
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<1>
    input b : UInt<1>
    output o : UInt<1>

    o <= a
    cover(clock, and(a, not(a)), UInt<1>("h1")) : never
    cover(clock, b, and(not(b), a)) : never_either
    cover(clock, a, UInt<1>("h1")) : sometimes
  }
}
"""


def test_contradictory_cover_renders_nowhere_and_reads_zero(backend):
    circuit = parse_circuit(CONTRADICTION)
    tokens, schedule = _trie(circuit)
    assert tokens == ["if a", f"count {schedule.slots['sometimes']}", "end"]
    counts = _matches_interpreter(backend, circuit, [("a", 1), ("b", 1)])
    assert counts["never"] == counts["never_either"] == 0
    assert counts["sometimes"] > 0


SAME_NAME = """
circuit SameName {
  module SameName {
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<1>
    input b : UInt<1>
    output o : UInt<1>

    o <= a
    cover(clock, a, UInt<1>("h1")) : first
    cover(clock, b, a) : second
    cover(clock, not(a), UInt<1>("h1")) : third
    cover(clock, and(b, not(b)), UInt<1>("h1")) : fourth
  }
}
"""


def test_covers_sharing_one_name_share_one_counter(backend):
    # flattening names covers by instance path; two paths naming one
    # canonical key is what a shared counter looks like to the backends
    state = lower(parse_circuit(SAME_NAME))
    shared = {"first": "hit", "second": "hit", "third": "miss", "fourth": "miss"}
    state = CompileState(state.circuit, shared)
    tokens, schedule = _trie(state)
    assert schedule.slots == {"hit": 0, "miss": 1}
    assert tokens.count("count 0") == 2
    counts = _matches_interpreter(backend, state, [("a", 1), ("b", 1)])
    assert counts["hit"] > counts["miss"] > 0


CHAIN = 150
#: selects before, at and past the depth cap, and past the chain's end
CHAIN_SELECTS = [0, 2, 31, 32, 33, 90, 149, 150, 255, 33]


class _Chain(Module):
    def build(self, m):
        sel = m.input("sel", 8)
        out = m.output("o", 8)
        out <<= m.lit(0, 8)
        with m.when(sel == m.lit(0, 8)):
            out <<= m.lit(1, 8)
        for k in range(1, CHAIN):
            with m.elsewhen(sel == m.lit(k, 8)):
                out <<= m.lit(k + 1 & 0xFF, 8)


@functools.lru_cache(maxsize=1)
def _chain():
    """The line-instrumented chain and the interpreter's counts over the selects."""
    state, _ = instrument(elaborate(_Chain()), metrics=["line"])
    return state, _drive_chain(TreadleBackend(jit=False).compile_state(state))


def _drive_chain(sim):
    for sel in CHAIN_SELECTS:
        sim.poke("sel", sel)
        sim.step(1)
    return sim.cover_counts()


@pytest.mark.parametrize("tier", sorted(set(TIERS) - {"treadle-interpreter"}))
def test_when_chain_past_the_depth_cap_compiles_and_counts(tier):
    backend = TIERS[tier]()
    state, expected = _chain()
    tokens, _ = _trie(state)
    depth = max(len(_enclosing(tokens, i)) for i in range(len(tokens)))
    assert depth == MAX_TRIE_DEPTH + 1
    assert sum(1 for count in expected.values() if count) > len(set(CHAIN_SELECTS))
    assert _drive_chain(backend.compile_state(state)) == expected


_RENDER = """
import hashlib, sys
from repro.backends.cbackend import generate_c_source
from repro.backends.model import build_model
from repro.backends.pycodegen import gen_expr, render_python
from repro.backends.swarm import generate_swarm_source
from repro.coverage import instrument
from repro.designs import RiscvMini
from repro.hcl import elaborate

state, _ = instrument(elaborate(RiscvMini()), metrics=sys.argv[1:])
model = build_model(state)
for source in (render_python(model), generate_c_source(model), generate_swarm_source(model, 4)):
    print(hashlib.sha256(source.encode()).hexdigest())
"""


def test_generated_sources_do_not_depend_on_the_hash_seed():
    metrics = ["line", "toggle", "fsm", "ready_valid", "mux_toggle"]
    src = str(Path(__file__).resolve().parents[2] / "src")
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _RENDER, *metrics],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, text=True,
        )
        for seed in ("1", "2")
    ]
    digests = [run.communicate(timeout=300)[0].split() for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


def test_guarded_swarm_lanes_count_under_their_own_enable():
    circuit = parse_circuit(GUARDED)
    rng = random.Random(3)
    frames = [
        [(int(lane % 2 == 0 and rng.random() < 0.7), rng.getrandbits(4)) for lane in range(4)]
        for _ in range(40)
    ]
    # lanes 1 and 3 never enable, with bits of x set
    assert any(x for frame in frames for en, x in frame[1::2])
    swarm = SwarmBackend(lanes=4).compile(circuit)
    for frame in frames:
        swarm.poke_lanes("en", [en for en, _ in frame])
        swarm.poke_lanes("x", [x for _, x in frame])
        swarm.step(1)
    for lane in range(4):
        scalar = TreadleBackend(jit=False).compile(circuit)
        for frame in frames:
            scalar.poke("en", frame[lane][0])
            scalar.poke("x", frame[lane][1])
            scalar.step(1)
        assert swarm.cover_counts(lane) == scalar.cover_counts()


def _toggled(name, width, bits):
    """The toggle pass's hardware for ``bits`` of ``name``, by hand."""
    return [
        f"reg prev_{name} : UInt<{width}>, clock",
        f"prev_{name} <= {name}",
        f"node diff_{name} = xor({name}, prev_{name})",
        *(f"cover(clock, bits(diff_{name}, {k}, {k}), seen) : t_{name}_{k}" for k in bits),
    ]


def _runs_circuit(width):
    """Two toggle runs: an 8-bit counter, whose bit 0 toggles on every
    edge, and gapped bits of a ``width``-bit register, whose low bits
    toggle on every edge and whose top byte follows ``x``."""
    body = [
        "input clock : Clock",
        "input reset : UInt<1>",
        "input x : UInt<8>",
        "input halt : UInt<1>",
        "output o : UInt<8>",
        "reg seen : UInt<1>, clock",
        'seen <= UInt<1>("h1")',
        'reg cnt : UInt<8>, clock reset => (reset, UInt<8>("h0"))',
        'cnt <= tail(add(cnt, UInt<8>("h1")), 1)',
        f'reg wide : UInt<{width}>, clock reset => (reset, UInt<{width}>("h0"))',
        f"wide <= xor(not(wide), shl(x, {width - 8}))",
        "o <= cnt",
        'stop(clock, halt, UInt<1>("h1"), 3) : halted',
        *_toggled("cnt", 8, range(8)),
        *_toggled("wide", width, sorted({0, 1, 31, 32, 63 % width, 64 % width, width - 8, width - 1})),
    ]
    lines = "\n".join(f"    {line}" for line in body)
    return parse_circuit(f"circuit Runs {{\n  module Runs {{\n{lines}\n  }}\n}}\n")


# C's flush period: the cycle counts below cross it after a read
FLUSH_EDGES = (1 << RUN_PLANES) - 1
#: C's 64-bit word, and its 128-bit word
RUN_WIDTHS = [48, 100]
#: the counts are read after each of these many edges
RUN_READS = (100, 100 + FLUSH_EDGES + 5)


def _run_block(cycles, seed, halt_at=None):
    rng = random.Random(seed)
    rows = [(rng.getrandbits(8), int(cycle == halt_at)) for cycle in range(cycles)]
    return InputBlock.encode((("x", 8), ("halt", 1)), rows)


def _drive_reads(sim, block, reads):
    """Counts after each of ``reads`` edges of ``block``."""
    counts, done = [], 0
    for until in reads:
        sim.drive(block[done:until])
        counts.append(sim.cover_counts())
        done = until
    return counts


@functools.lru_cache(maxsize=None)
def _runs_state(design):
    """The lowered run circuit of a register width, or the ``"gap"`` design."""
    return _minimized_runs() if design == "gap" else lower(_runs_circuit(design))


@functools.lru_cache(maxsize=None)
def _interpreted(design, counter_width):
    """The interpreter's counts of a :func:`_runs_state` design at :data:`RUN_READS`."""
    sim = TreadleBackend(jit=False).compile_state(_runs_state(design), counter_width=counter_width)
    return _drive_reads(sim, _run_block(RUN_READS[-1], 1), RUN_READS)


@pytest.mark.parametrize("counter_width", [None, 2])
@pytest.mark.parametrize("width", RUN_WIDTHS)
def test_toggle_runs_count_like_the_interpreter(backend, width, counter_width):
    state = _runs_state(width)
    schedule = Schedule(build_model(state))
    assert [len(bits) for bits in schedule.runs] == [8, 8]
    assert (schedule.widest > 64) == (width > 64)
    expected = _interpreted(width, counter_width)
    # the counter's bit 0 has toggled on every edge but the first
    assert expected[-1]["t_cnt_0"] == (3 if counter_width else RUN_READS[-1] - 1)
    sim = backend.compile_state(state, counter_width=counter_width)
    assert _drive_reads(sim, _run_block(RUN_READS[-1], 1), RUN_READS) == expected


def _minimized_runs():
    """A toggle-instrumented, minimized design whose masked register's
    constant-zero bit 6 is elided from its run."""
    circuit = parse_circuit("""
circuit Gap {
  module Gap {
    input clock : Clock
    input reset : UInt<1>
    input x : UInt<8>
    input halt : UInt<1>
    output o : UInt<8>

    reg cnt : UInt<8>, clock reset => (reset, UInt<8>("h0"))
    reg masked : UInt<8>, clock reset => (reset, UInt<8>("h0"))
    cnt <= tail(add(cnt, UInt<8>("h1")), 1)
    masked <= or(and(xor(x, cnt), UInt<8>("hb7")), UInt<8>("h8"))
    o <= masked
    stop(clock, halt, UInt<1>("h1"), 3) : halted
  }
}
""")
    state, _ = instrument(circuit, metrics=["toggle"], minimize=True)
    return state


def test_min_instrument_run_with_a_gap_counts_like_the_interpreter(backend):
    state = _runs_state("gap")
    ks = [[k for k, _ in bits] for bits in Schedule(build_model(state)).runs]
    assert [0, 1, 2, 3, 4, 5, 7] in ks
    expected = _interpreted("gap", None)
    sim = backend.compile_state(state)
    assert _drive_reads(sim, _run_block(RUN_READS[-1], 1), RUN_READS) == expected


#: per lane: the edge its stop fires on, or None, and the edge it
#: retires after, or None to run to the last read
LANE_ENDS = [(None, None), (50, None), (None, 2000), (3000, None)]


def _lane_blocks(cycles):
    return [_run_block(cycles, 20 + lane, halt_at) for lane, (halt_at, _) in enumerate(LANE_ENDS)]


def _drive_lane(sim, block, retire):
    """A lane's counts at the first read and at its end, on a scalar tier."""
    return _drive_reads(sim, block, (RUN_READS[0], retire or block.cycles))


@functools.lru_cache(maxsize=1)
def _interpreted_lanes():
    blocks = _lane_blocks(RUN_READS[-1])
    return [
        _drive_lane(TreadleBackend(jit=False).compile_state(_runs_state(100)), block, retire)
        for block, (_, retire) in zip(blocks, LANE_ENDS)
    ]


def test_swarm_lanes_stop_and_retire_independently_under_a_run(backend):
    state, cycles = _runs_state(100), RUN_READS[-1]
    blocks = _lane_blocks(cycles)
    if isinstance(backend, SwarmBackend):
        swarm = backend.compile_state(state)
        lanes = range(len(LANE_ENDS))
        packed = InputBlock(blocks[0].ports, cycles, tuple(block.words[0] for block in blocks))
        swarm.drive(packed[:RUN_READS[0]])
        firsts = [swarm.cover_counts(lane) for lane in lanes]
        swarm.drive(packed[RUN_READS[0]:2000])
        swarm.retire_lane(2)
        swarm.drive(packed[2000:])
        got = [[counts, swarm.cover_counts(lane)] for lane, counts in zip(lanes, firsts)]
        assert [swarm.lane_active(lane) for lane in lanes] == [True, False, False, False]
    else:
        got = [
            _drive_lane(backend.compile_state(state), block, retire)
            for block, (_, retire) in zip(blocks, LANE_ENDS)
        ]
    expected = _interpreted_lanes()
    assert [counts["t_cnt_0"] for _, counts in expected] == [cycles - 1, 50, 1999, 3000]
    assert got == expected


#: reads on both sides of a flush edge, then two flush periods unread
LONG_READS = (FLUSH_EDGES, FLUSH_EDGES + 1, 3 * FLUSH_EDGES + 4)


def test_run_longer_than_the_flush_period_reads_like_the_jit(backend):
    # the JIT keeps the per-bit tests, so it is the reference for C's planes
    state = _runs_state(48)
    block = _run_block(LONG_READS[-1], 2)
    expected = _drive_reads(TreadleBackend(jit=True).compile_state(state), block, LONG_READS)
    assert expected[-1]["t_cnt_0"] == LONG_READS[-1] - 1
    assert _drive_reads(backend.compile_state(state), block, LONG_READS) == expected
