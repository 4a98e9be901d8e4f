"""One lowered schedule: every software tier agrees on an edge's effects.

Each renderer takes the effect order and the encodings of one clock edge
from :class:`repro.backends.schedule.Schedule`.  These cases pin three
of them on every software tier, with the interpreter's answers as the
expected values: which of two stops firing on the same edge is reported,
memory write data wider than the element, and a signed reset value
narrower than its register.
"""

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
