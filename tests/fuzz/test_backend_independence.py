"""Fuzzing is backend-independent (§5.4 on every scalar tier).

The fuzzer sees only cover counts, and every tier reports bit-identical
counts for the same inputs, so one fixed-seed campaign must make the same
schedule everywhere: the same executions, queue, coverage curve, covered
points and design cycles.  Swarm is left out: its lanes batch the
schedule by design (``tests/fuzz/test_harness_fixes.py`` pins its
per-lane counts against scalar runs instead).
"""

import pytest

from repro.backends import BACKENDS, TreadleBackend
from repro.coverage import instrument
from repro.designs.i2c import I2cPeripheral
from repro.fuzz import AflFuzzer, FuzzHarness, metric_filter
from repro.hcl import elaborate

#: small enough that the slowest tiers (the interpreter, firesim's scan
#: chain) stay near 3 s, large enough that the queue grows past its seed
EXECUTIONS = 32
SEED = 7

TIERS = {name: cls for name, cls in BACKENDS.items() if name != "swarm"}
TIERS["treadle-nojit"] = lambda: TreadleBackend(jit=False)


@pytest.fixture(scope="module")
def i2c():
    state, db = instrument(
        elaborate(I2cPeripheral()), metrics=["line", "mux_toggle"]
    )
    return state, metric_filter(db, state, "line")


def _harness(i2c, backend) -> FuzzHarness:
    return FuzzHarness(i2c[0], backend=backend, max_cycles=64)


def _campaign(i2c, harness, execute_batch=None) -> tuple:
    fuzzer = AflFuzzer(harness.execute, feedback=i2c[1], seed=SEED,
                       execute_batch=execute_batch)
    stats = fuzzer.run(EXECUTIONS)
    return (
        stats.executions,
        [(e.data, e.coverage, e.execution) for e in fuzzer.queue],
        stats.coverage_curve,
        stats.covered,
        harness.cycles_executed,
    )


@pytest.fixture(scope="module")
def reference(i2c):
    return _campaign(i2c, _harness(i2c, BACKENDS["verilator"]()))


@pytest.mark.parametrize("tier", list(TIERS))
def test_fixed_seed_campaign_is_identical_on_every_tier(tier, i2c, reference):
    executions, queue, curve, covered, cycles = reference
    assert executions == EXECUTIONS and len(queue) > 1 and covered
    assert _campaign(i2c, _harness(i2c, TIERS[tier]())) == reference


def test_scalar_fuzzing_is_batch_one(i2c, reference):
    """Through ``execute_batch`` at batch 1, the schedule ``execute`` makes."""
    harness = _harness(i2c, BACKENDS["verilator"]())
    sizes = []

    def execute_batch(batch):
        sizes.append(len(batch))
        return harness.execute_batch(batch)

    assert _campaign(i2c, harness, execute_batch) == reference
    assert sizes == [1] * EXECUTIONS


def test_batch_must_be_positive(i2c):
    fuzzer = AflFuzzer(lambda data: {}, feedback=i2c[1])
    with pytest.raises(ValueError, match="batch"):
        fuzzer.run(4, batch=0)
