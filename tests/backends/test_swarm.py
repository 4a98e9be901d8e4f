"""Swarm lanes must be indistinguishable from N scalar runs.

The differential acceptance criterion for the bit-parallel backend: lane
*l* of a swarm driven with per-lane stimulus must produce exactly the
counts, peeks, and stop behaviour of a scalar treadle run fed the same
stream — on random circuits, on every bundled design, under counter
saturation, and through the ``--min-instrument`` reconstruction algebra.
Also pins the operational surface: the broadcast (scalar-protocol) API,
lane retirement, packed memory state, lane-count cache keys, and the
StepMeter lanes multiplier.
"""

import random

import pytest
from hypothesis import given, settings

from repro.backends import ModelCache, TreadleBackend, cache_key
from repro.backends.swarm import (
    MAX_LANES,
    SwarmBackend,
    generate_swarm_source,
    lane_stride,
)
from repro.backends.model import build_model
from repro.coverage import InstanceTree, instrument, merge_counts
from repro.hcl import Module, elaborate
from repro.passes import lower
from repro.runtime.telemetry import obs

from ..helpers import random_circuits

LANES = 5


class _Counter(Module):
    def build(self, m):
        en = m.input("en")
        out = m.output("count", 8)
        cnt = m.reg("cnt", 8, init=0)
        with m.when(en):
            cnt <<= cnt + 1
        out <<= cnt
        m.cover(cnt == 3, "at_three")
        m.stop(cnt == 20, 7, "too_far")


class _NoReset(Module):
    """No reset port at all — exercises reset-less handling."""

    def build(self, m):
        a = m.input("a", 4)
        out = m.output("o", 4)
        total = m.reg("total", 4)
        total <<= total + a
        out <<= total
        m.cover(total == 7, "lucky")


def _inputs_of(circuit):
    ports = [
        p for p in circuit.top.inputs if p.name not in ("clock", "reset")
    ]
    return [(p.name, getattr(p.type, "width", 1) or 1) for p in ports]


def _stimulus(circuit, cycles, seed):
    """Per-cycle input frames from one seeded stream."""
    rng = random.Random(seed)
    inputs = _inputs_of(circuit)
    return [
        {name: rng.getrandbits(width) for name, width in inputs}
        for _ in range(cycles)
    ]


def _run_scalar(sim, frames):
    for frame in frames:
        for name, value in frame.items():
            sim.poke(name, value)
        result = sim.step()
        if result.stopped:
            break
    return sim.cover_counts()


def _run_swarm(sim, circuit, per_lane_frames):
    """Drive each lane with its own stream; stop when every lane halts."""
    cycles = max(len(frames) for frames in per_lane_frames)
    inputs = _inputs_of(circuit)
    for cycle in range(cycles):
        for name, _width in inputs:
            sim.poke_lanes(
                name,
                [frames[cycle][name] for frames in per_lane_frames],
            )
        if sim.step().stopped:
            break
    return [sim.cover_counts(lane) for lane in range(len(per_lane_frames))]


def _assert_lanes_match_scalar(
    circuit_or_state, cycles, seed, counter_width=None, lanes=LANES,
    compiled=False,
):
    compile_ = "compile_state" if compiled else "compile"
    swarm = getattr(SwarmBackend(lanes=lanes), compile_)(
        circuit_or_state, counter_width=counter_width
    )
    circuit = getattr(circuit_or_state, "circuit", circuit_or_state)
    per_lane = [
        _stimulus(circuit, cycles, seed + lane) for lane in range(lanes)
    ]
    got = _run_swarm(swarm, circuit, per_lane)
    backend = TreadleBackend(jit=False)
    for lane in range(lanes):
        ref = getattr(backend, compile_)(
            circuit_or_state, counter_width=counter_width
        )
        expected = _run_scalar(ref, per_lane[lane])
        assert got[lane] == expected, f"lane {lane} diverged"
    return swarm


# -- random circuits ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(random_circuits())
def test_lanes_match_scalar_on_random_circuits(circuit):
    state = lower(circuit, flatten=True)
    _assert_lanes_match_scalar(state, cycles=40, seed=1300, compiled=True)


@settings(max_examples=10, deadline=None)
@given(random_circuits(n_nodes=4, n_regs=1))
def test_lanes_match_scalar_under_saturation(circuit):
    state = lower(circuit, flatten=True)
    _assert_lanes_match_scalar(
        state, cycles=60, seed=7, counter_width=3, compiled=True
    )


@settings(max_examples=10, deadline=None)
@given(random_circuits(n_nodes=4, n_regs=1))
def test_output_lanes_match_scalar_peeks(circuit):
    state = lower(circuit, flatten=True)
    lanes = 3
    swarm = SwarmBackend(lanes=lanes).compile_state(state)
    refs = [TreadleBackend().compile_state(state) for _ in range(lanes)]
    per_lane = [_stimulus(circuit, 20, 40 + lane) for lane in range(lanes)]
    for cycle in range(20):
        for name, _width in _inputs_of(circuit):
            swarm.poke_lanes(
                name, [frames[cycle][name] for frames in per_lane]
            )
        swarm.step()
        for lane, ref in enumerate(refs):
            for name, value in per_lane[lane][cycle].items():
                ref.poke(name, value)
            ref.step()
            assert swarm.peek_lane("out", lane) == ref.peek("out")


# -- every bundled design -----------------------------------------------------


def _bundled_circuits():
    from repro.cli import _bundled_designs

    return _bundled_designs()


@pytest.mark.parametrize("name", sorted(_bundled_circuits()))
def test_every_bundled_design_is_bit_identical_per_lane(name):
    circuit = _bundled_circuits()[name]
    state, _db = instrument(circuit, metrics=["line"])
    _assert_lanes_match_scalar(
        state, cycles=60, seed=100, counter_width=3, lanes=4, compiled=True
    )


def test_min_instrument_reconstructs_per_lane():
    """PR 9's reconstruction algebra holds lane by lane."""
    circuit = _bundled_circuits()["SerialGcd"]
    full_state, _ = instrument(circuit, metrics=["line", "fsm"])
    min_state, min_db = instrument(
        circuit, metrics=["line", "fsm"], minimize=True
    )
    lanes, cycles, width = 4, 120, 3
    per_lane = [
        _stimulus(full_state.circuit, cycles, 900 + lane)
        for lane in range(lanes)
    ]
    full = _run_swarm(
        SwarmBackend(lanes=lanes).compile_state(
            full_state, counter_width=width
        ),
        full_state.circuit, per_lane,
    )
    mini = _run_swarm(
        SwarmBackend(lanes=lanes).compile_state(
            min_state, counter_width=width
        ),
        min_state.circuit, per_lane,
    )
    tree = InstanceTree(min_state.circuit)
    for lane in range(lanes):
        reconstructed = min_db.reconstruct_counts(
            mini[lane], tree, counter_width=width
        )
        assert reconstructed == full[lane], f"lane {lane} diverged"


# -- stops --------------------------------------------------------------------


class TestStops:
    def test_lanes_stop_independently(self):
        """Each lane halts at its own cycle; counts freeze per lane."""
        circuit = elaborate(_Counter())
        lanes = 3
        swarm = SwarmBackend(lanes=lanes).compile(circuit)
        swarm.poke("reset", 1)
        swarm.step()
        swarm.poke("reset", 0)
        # lane 0 counts every cycle, lane 1 one cycle in three, lane 2 never
        enables = [[1], [1, 0, 0], [0]]
        stopped_at = {}
        for cycle in range(120):
            swarm.poke_lanes(
                "en", [en[cycle % len(en)] for en in enables[:lanes]]
            )
            swarm.step()
            for lane in range(lanes):
                if lane not in stopped_at and not swarm.lane_active(lane):
                    stopped_at[lane] = swarm.cycle
        assert swarm.lane_stop(0) is not None
        assert swarm.lane_stop(0)[:2] == ("too_far", 7)
        assert swarm.lane_stop(1) is not None
        assert swarm.lane_stop(2) is None and swarm.lane_active(2)
        # lane 1's 1-in-3 enable stops roughly 3x later than lane 0
        assert stopped_at[1] > stopped_at[0]
        assert swarm.cover_counts(0)["at_three"] == 1

    def test_broadcast_stop_matches_scalar_protocol(self):
        circuit = elaborate(_Counter())
        swarm = SwarmBackend(lanes=4).compile(circuit)
        ref = TreadleBackend().compile(circuit)
        for sim in (swarm, ref):
            sim.poke("reset", 1)
            sim.step()
            sim.poke("reset", 0)
            sim.poke("en", 1)
        got, want = swarm.step(100), ref.step(100)
        assert (got.cycles, got.stopped, got.stop_name, got.exit_code) == (
            want.cycles, want.stopped, want.stop_name, want.exit_code
        )
        assert swarm.stopped and swarm.cover_counts() == ref.cover_counts()
        # a halted swarm refuses to advance, like the scalar backends
        again = swarm.step(5)
        assert again.cycles == 0 and again.stopped


# -- operational surface ------------------------------------------------------


class TestSurface:
    def test_broadcast_is_scalar_protocol(self):
        """poke/peek/cover_counts on a swarm == a scalar treadle run."""
        circuit = elaborate(_Counter())
        swarm = SwarmBackend(lanes=8).compile(circuit)
        ref = TreadleBackend().compile(circuit)
        for sim in (swarm, ref):
            sim.poke("reset", 1)
            sim.step()
            sim.poke("reset", 0)
            sim.poke("en", 1)
            sim.step(10)
        assert swarm.peek("count") == ref.peek("count")
        assert swarm.cover_counts() == ref.cover_counts()

    def test_reset_less_design(self):
        circuit = elaborate(_NoReset())
        swarm = SwarmBackend(lanes=2).compile(circuit)
        swarm.poke_lanes("a", [1, 2])
        swarm.step(7)
        assert swarm.peek_lane("o", 0) == 7
        assert swarm.peek_lane("o", 1) == 14 & 0xF
        swarm.step()  # covers sample pre-edge values: 7 is seen now
        assert swarm.cover_counts(0)["lucky"] == 1
        assert swarm.cover_counts(1)["lucky"] == 0

    def test_poke_lanes_zero_fills_and_validates(self):
        circuit = elaborate(_Counter())
        swarm = SwarmBackend(lanes=4).compile(circuit)
        swarm.poke("en", 1)  # broadcast 1 everywhere...
        swarm.poke_lanes("en", [1, 1])  # ...then lanes 2-3 back to 0
        swarm.poke("reset", 0)
        swarm.step(5)
        assert [swarm.peek_lane("count", lane) for lane in range(4)] == [
            5, 5, 0, 0
        ]
        with pytest.raises(ValueError):
            swarm.poke_lanes("en", [1] * 5)
        with pytest.raises(KeyError):
            swarm.poke_lane("count", 0, 1)  # outputs are not pokeable
        with pytest.raises(IndexError):
            swarm.peek_lane("count", 4)

    def test_retire_lane_freezes_counts(self):
        circuit = elaborate(_Counter())
        swarm = SwarmBackend(lanes=2).compile(circuit)
        swarm.poke("reset", 0)
        swarm.poke("en", 1)
        swarm.step(2)  # cnt == 2: lane 1 retires before at_three fires
        swarm.retire_lane(1)
        swarm.step(10)
        assert swarm.cover_counts(0)["at_three"] == 1
        assert swarm.cover_counts(1)["at_three"] == 0
        assert not swarm.lane_active(1) and swarm.lane_active(0)

    def test_merged_counts_follow_merge_semantics(self):
        circuit = elaborate(_Counter())
        width = 3
        swarm = SwarmBackend(lanes=3).compile(circuit, counter_width=width)
        swarm.poke("reset", 0)
        swarm.poke("en", 1)
        swarm.step(12)
        per_lane = [swarm.cover_counts(lane) for lane in range(3)]
        assert swarm.merged_cover_counts() == merge_counts(
            *per_lane, counter_width=width
        )

    def test_lane_bounds(self):
        with pytest.raises(ValueError):
            SwarmBackend(lanes=0)
        with pytest.raises(ValueError):
            SwarmBackend(lanes=MAX_LANES + 1)

    def test_fork_is_fresh(self):
        circuit = elaborate(_Counter())
        swarm = SwarmBackend(lanes=2).compile(circuit)
        swarm.poke("en", 1)
        swarm.poke("reset", 0)
        swarm.step(5)
        child = swarm.fork()
        assert child.cycle == 0 and child.peek("count") == 0
        assert swarm.peek("count") == 5

    def test_step_meter_reports_aggregate_lane_cycles(self):
        circuit = elaborate(_Counter())
        obs.reset()
        obs.enable()
        try:
            swarm = SwarmBackend(lanes=8).compile(circuit)
            swarm.poke("reset", 0)
            swarm.step(300)  # past the 256-cycle flush threshold
            total = obs.metrics.get("repro_backend_cycles_total")
            assert total.value(backend="swarm") == 300 * 8
        finally:
            obs.disable()
            obs.reset()


# -- cache keys ---------------------------------------------------------------


class TestCacheKeys:
    def test_lane_count_is_part_of_the_key(self):
        circuit = elaborate(_Counter())
        cache = ModelCache()
        SwarmBackend(lanes=4, cache=cache).compile(circuit)
        assert (cache.misses, cache.hits) == (1, 0)
        SwarmBackend(lanes=8, cache=cache).compile(circuit)
        assert (cache.misses, cache.hits) == (2, 0)
        SwarmBackend(lanes=4, cache=cache).compile(circuit)
        assert (cache.misses, cache.hits) == (2, 1)

    def test_swarm_never_collides_with_scalar_backends(self):
        circuit = elaborate(_Counter())
        state = lower(circuit, flatten=True)
        keys = {
            cache_key(state, "treadle", None, ("jit1",)),
            cache_key(state, "swarm", None, ("swarm1", "lanes=64")),
            cache_key(state, "swarm", None, ("swarm1", "lanes=128")),
        }
        assert len(keys) == 3


# -- generated source ---------------------------------------------------------


class TestEmission:
    def test_stride_covers_every_node_plus_carry_room(self):
        circuit = elaborate(_Counter())
        model = build_model(lower(circuit, flatten=True))
        stride = lane_stride(model)
        assert stride >= max(model.widths.values()) + 2

    def test_source_has_masked_and_full_speed_loops(self):
        circuit = elaborate(_NoReset())  # no stops: run_full is emitted
        model = build_model(lower(circuit, flatten=True))
        source = generate_swarm_source(model, 64)
        assert "def run(" in source and "def run_full(" in source

    def test_stops_suppress_the_unmasked_fast_path(self):
        circuit = elaborate(_Counter())
        model = build_model(lower(circuit, flatten=True))
        source = generate_swarm_source(model, 64)
        assert "def run_full(" not in source
