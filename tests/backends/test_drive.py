"""One ``drive(block)`` on every tier: the block layout and drive parity.

A seeded :class:`~repro.backends.api.InputBlock` is one ``randbytes``
draw per lane that decodes to exactly the values per-cycle
``getrandbits`` calls would give, whatever the block boundaries.  Every
tier's ``drive`` — each entry of the ``BACKENDS`` registry plus the
tree-walking interpreter — must equal the reference poke/``step(1)``
loop (:func:`~repro.backends.api.drive`) run on the same tier, in the
step results, in the peeks after each block and in the counts.
"""

import random

import pytest

from repro.backends import BACKENDS, StepResult, TreadleBackend
from repro.backends.api import InputBlock, drive, hold_reset, input_widths
from repro.ir import parse_circuit
from repro.runtime import poked_blocks
from repro.runtime.service import CampaignSpec, PreparedCampaign

WIDTHS = (1, 5, 8, 10, 31, 32, 33, 64, 65, 100, 128)

WIDE_INPUTS = """
circuit Widths {
  module Widths {
    input clock : Clock
    input reset : UInt<1>
%s
    output o : UInt<1>

    o <= i0
  }
}
""" % "\n".join(f"    input i{k} : UInt<{w}>" for k, w in enumerate(WIDTHS))

# widths crossing C's 64- and 128-bit carriers, a signed input, a port
# no block names (held), and a stop an input fires
DRIVE = """
circuit Drive {
  module Drive {
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<1>
    input b : UInt<33>
    input c : UInt<64>
    input d : UInt<65>
    input e : UInt<100>
    input f : UInt<128>
    input s : SInt<12>
    input held : UInt<8>
    input kill : UInt<1>
    output o_b : UInt<33>
    output o_c : UInt<64>
    output o_d : UInt<65>
    output o_e : UInt<100>
    output o_f : UInt<128>
    output o_s : SInt<12>
    output o_held : UInt<8>
    output o_r : UInt<8>

    reg r : UInt<8>, clock reset => (reset, UInt<8>("h0"))
    r <= tail(add(r, held), 1)
    o_b <= b
    o_c <= c
    o_d <= d
    o_e <= e
    o_f <= f
    o_s <= s
    o_held <= held
    o_r <= r
    cover(clock, a, UInt<1>("h1")) : a_hi
    cover(clock, bits(b, 32, 32), UInt<1>("h1")) : b_top
    cover(clock, bits(c, 63, 63), UInt<1>("h1")) : c_top
    cover(clock, bits(d, 64, 64), UInt<1>("h1")) : d_top
    cover(clock, bits(e, 99, 99), UInt<1>("h1")) : e_top
    cover(clock, bits(f, 127, 127), UInt<1>("h1")) : f_top
    cover(clock, bits(f, 0, 0), UInt<1>("h1")) : f_low
    cover(clock, lt(s, SInt<12>(0)), UInt<1>("h1")) : s_neg
    cover(clock, eq(held, UInt<8>("h2a")), UInt<1>("h1")) : held_42
    cover(clock, eq(r, UInt<8>("h0")), UInt<1>("h1")) : r_zero
    stop(clock, kill, UInt<1>("h1"), 3) : killed
  }
}
"""

TIERS = {**BACKENDS, "treadle --no-jit": lambda: TreadleBackend(jit=False)}

OUTPUTS = ("o_b", "o_c", "o_d", "o_e", "o_f", "o_s", "o_held", "o_r")
RANDOM_PORTS = tuple(
    (name, width) for name, width in input_widths(parse_circuit(DRIVE)).items()
    if name in "abcdefs"
)


def _random_block(rng: random.Random, cycles: int) -> InputBlock:
    stride = sum((width + 31) >> 5 for _, width in RANDOM_PORTS)
    return InputBlock(RANDOM_PORTS, cycles, (rng.randbytes(4 * stride * cycles),))


def _observe(sim):
    return [sim.peek(name) for name in OUTPUTS], sim.cover_counts()


# -- the block layout is getrandbits' ------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
@pytest.mark.parametrize("split, cycles", [(1, 150), (7, 300), (4096, 4100)])
def test_seeded_blocks_decode_to_per_cycle_getrandbits(seed, split, cycles):
    lanes = 3
    spec = CampaignSpec("t", WIDE_INPUTS, seed=seed, cycles=cycles)
    source = PreparedCampaign(spec).blocks(lanes)
    attempts = []
    for _ in range(2):  # each attempt re-seeds at cycle 0
        blocks = [source(cycle, min(split, cycles - cycle))
                  for cycle in range(0, cycles, split)]
        attempts.append(blocks)
    assert attempts[0] == attempts[1]
    decoded = [[[] for _ in WIDTHS] for _ in range(lanes)]
    for block in attempts[0]:
        assert block.ports == tuple((f"i{k}", w) for k, w in enumerate(WIDTHS))
        for lane, columns in enumerate(decoded):
            for column, values in zip(columns, block.columns(lane)):
                column.extend(values)
    for lane, columns in enumerate(decoded):
        rng = random.Random(seed + lane)
        expected = [[] for _ in WIDTHS]
        for _ in range(cycles):
            for column, width in zip(expected, WIDTHS):
                column.append(rng.getrandbits(width))
        assert columns == expected


def test_encode_round_trips_and_masks():
    rng = random.Random(11)
    ports = [(f"p{k}", width) for k, width in enumerate(WIDTHS)]
    rows = [[rng.getrandbits(width + 3) for width in WIDTHS] for _ in range(40)]
    block = InputBlock.encode(ports, rows)
    assert len(block) == 40
    assert block.stride == sum((width + 31) >> 5 for width in WIDTHS)
    masked = [[v & ((1 << w) - 1) for v, w in zip(row, WIDTHS)] for row in rows]
    assert [list(frame.values()) for frame in block] == masked
    assert block[-1] == dict(zip([name for name, _ in ports], masked[-1]))
    assert list(block[5:9]) == list(block)[5:9]
    assert len(block[30:99]) == 10


def test_a_block_never_names_clock():
    with pytest.raises(ValueError, match="clock"):
        InputBlock.encode([("clock", 1)], [[1]])


def test_poked_blocks_name_the_poked_ports_and_carry_their_values():
    def stimulus(sim, cycle):
        if cycle == 3:
            sim.poke("x", 9)
        if cycle >= 1:
            sim.poke("y", cycle)

    source = poked_blocks(stimulus, {"w": 2, "x": 4, "y": 8})
    first = source(0, 2)
    assert first.ports == (("y", 8),)
    assert list(first) == [{"y": 0}, {"y": 1}]
    second = source(2, 3)
    assert second.ports == (("x", 4), ("y", 8))
    assert [frame["x"] for frame in second] == [0, 9, 9]
    assert source(0, 2) == first  # a new attempt starts from 0 again


# -- drive parity over the registry --------------------------------------------


@pytest.fixture(params=sorted(TIERS))
def tier(request):
    return TIERS[request.param]()


def test_drive_equals_the_reference_loop(tier):
    circuit = parse_circuit(DRIVE)
    native, reference = tier.compile(circuit), tier.compile(circuit)
    for sim in (native, reference):
        hold_reset(sim, 1)
        sim.poke("held", 42)  # no block names it: it must hold
    rng = random.Random(5)
    for cycles in (0, 1, 7, 64, 3, 50):
        block = _random_block(rng, cycles)
        assert native.drive(block) == drive(reference, block) == StepResult(cycles)
        assert _observe(native) == _observe(reference)
    assert native.peek("o_held") == 42
    assert native.cover_counts()["held_42"] == 125


def test_a_stop_mid_block_ends_the_drive(tier):
    circuit = parse_circuit(DRIVE)
    native, reference = tier.compile(circuit), tier.compile(circuit)
    for sim in (native, reference):
        hold_reset(sim, 1)
    ports = [("kill", 1), ("b", 33), ("s", 12)]
    rows = [[int(k == 5), 7 * k + 1, -k] for k in range(20)]
    block = InputBlock.encode(ports, rows)
    stopped = StepResult(6, True, "killed", 3)
    assert native.drive(block) == drive(reference, block) == stopped
    assert _observe(native) == _observe(reference)
    assert native.peek("o_b") == 36  # the inputs of the edge the stop fired on
    # a halted simulation takes the next block's first inputs, runs nothing
    again = InputBlock.encode(ports, [[0, 99, 3]] * 10)
    assert native.drive(again) == drive(reference, again) == StepResult(0, True, "killed", 3)
    assert _observe(native) == _observe(reference)


def test_drive_rejects_a_port_of_the_wrong_width(tier):
    sim = tier.compile(parse_circuit(DRIVE))
    with pytest.raises(ValueError, match="bits wide"):
        sim.drive(InputBlock.encode([("b", 32)], [[1]]))
    with pytest.raises(KeyError):
        sim.drive(InputBlock.encode([("nope", 3)], [[1]]))
