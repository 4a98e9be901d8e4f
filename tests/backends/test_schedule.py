"""One lowered schedule: every software tier agrees on an edge's effects.

Each renderer takes the effect order and the encodings of one clock edge
from :class:`repro.backends.schedule.Schedule`.  These cases pin them on
every software tier, with the interpreter's answers as the expected
values: which of two stops firing on the same edge is reported, memory
write data wider than the element, a signed reset value narrower than
its register, writes that read a memory written earlier in the edge,
out-of-range memory addresses, a depth-1 memory, shared subexpressions
and guarded cover runs.
"""

import random

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
from repro.backends.cbackend import generate_c_source
from repro.backends.model import build_model
from repro.backends.pycodegen import render_python
from repro.backends.schedule import Schedule
from repro.ir import parse_circuit

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


class _Recorder:
    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append(name)


def test_bit_covers_of_one_source_sit_behind_one_guard():
    recorder = _Recorder()
    Schedule(build_model(parse_circuit(GUARDED))).walk(recorder)
    start = recorder.calls.index("settled") + 1
    assert recorder.calls[start:start + 6] == ["guard"] + ["cover"] * 4 + ["unguard"]


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
