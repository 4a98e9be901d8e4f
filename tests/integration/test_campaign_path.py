"""One campaign path: ``repro simulate`` runs through ``execute_spec``.

The CLI builds a :class:`CampaignSpec` and hands it to the same
:func:`execute_spec` that ``repro serve`` and ``repro worker`` run, so
the counts file ``repro simulate`` writes must be exactly the counts the
service reports for the same spec — on every backend, with and without
minimal-basis instrumentation.  On swarm, lane *l* replays ``seed + l``:
the merged counts are ``merge_counts`` over the scalar runs of those
seeds.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.backends import (
    BACKENDS,
    ModelCache,
    SwarmBackend,
    TreadleBackend,
    set_default_cache,
)
from repro.cli import main
from repro.coverage import counts_from_json, instrument, merge_counts
from repro.designs.serv import SerialGcd
from repro.hcl import elaborate
from repro.ir import print_circuit
from repro.runtime import Checkpointer, FaultPlan, FaultyBackend
from repro.runtime.service import CampaignSpec, execute_spec

CYCLES, SEED, LANES = 200, 7, 4

#: ``repro simulate`` flags per case; the spec names the first word
CASES = {
    "treadle": ["--backend", "treadle"],
    "treadle-nojit": ["--backend", "treadle", "--no-jit"],
    "verilator": ["--backend", "verilator"],
    "essent": ["--backend", "essent"],
    "c": ["--backend", "c"],
    "swarm": ["--backend", "swarm", "--lanes", str(LANES)],
}


@pytest.fixture(scope="module", autouse=True)
def model_cache():
    """One in-memory model cache: each backend compiles the design once."""
    previous = set_default_cache(ModelCache())
    yield
    set_default_cache(previous)


@pytest.fixture(scope="module")
def design(tmp_path_factory):
    """serv-chisel, line-instrumented, written as IR."""
    state, _db = instrument(elaborate(SerialGcd()), metrics=["line"])
    path = tmp_path_factory.mktemp("design") / "inst.fir"
    path.write_text(print_circuit(state.circuit))
    return path


def spec_for(design, backend: str, minimize: bool = False,
             seed: int = SEED) -> CampaignSpec:
    return CampaignSpec(
        tenant="t", circuit=design.read_text(), backend=backend,
        cycles=CYCLES, seed=seed, min_instrument=minimize,
    )


def simulate(design, tmp_path, *flags) -> dict:
    counts = tmp_path / "counts.json"
    assert main([
        "simulate", str(design), "--cycles", str(CYCLES), "--random-inputs",
        "--seed", str(SEED), "--counts", str(counts), *flags,
    ]) == 0
    return counts_from_json(counts.read_text())


def reference(spec: CampaignSpec, tmp_path, **options) -> dict:
    outcome = execute_spec(spec, "ref", Checkpointer(tmp_path / "ref"), **options)
    assert outcome.status == "done", outcome.detail
    return outcome.counts


@pytest.mark.parametrize("minimize", [False, True], ids=["full", "min"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_counts_equal_execute_spec(design, tmp_path, case, minimize):
    flags = CASES[case] + (["--min-instrument"] if minimize else [])
    counts = simulate(design, tmp_path, *flags)
    assert any(counts.values()), "the campaign hit no cover: proves nothing"
    backend = CASES[case][1]
    options = {"backend": SwarmBackend(lanes=LANES)} if backend == "swarm" else {}
    assert counts == reference(spec_for(design, backend, minimize), tmp_path,
                               **options)


def test_swarm_lanes_replay_consecutive_seeds(design, tmp_path):
    """Lane *l* of a swarm spec is the scalar run seeded ``seed + l``."""
    swarm = reference(spec_for(design, "swarm"), tmp_path / "swarm",
                      backend=SwarmBackend(lanes=LANES))
    lanes = [
        reference(spec_for(design, "treadle", seed=SEED + lane),
                  tmp_path / f"lane{lane}")
        for lane in range(LANES)
    ]
    assert swarm == merge_counts(*lanes)


def test_service_swarm_spec_merges_every_lane(design, tmp_path):
    """A served swarm spec is ``repro simulate --backend swarm --lanes 64``."""
    assert BACKENDS["swarm"]().lanes == 64
    counts = simulate(design, tmp_path, "--backend", "swarm", "--lanes", "64")
    assert counts == reference(spec_for(design, "swarm"), tmp_path)


@pytest.mark.faults
def test_quarantined_salvage_reports_no_counts(design, tmp_path, monkeypatch,
                                               isolation):
    """A crashed run whose only salvaged shard is corrupt yields no counts.

    The crash at cycle 120 leaves the cycle-100 checkpoint to salvage,
    and its renamed keys fail validation: reporting ``{}`` would launder
    the corruption into "0 points covered".
    """
    monkeypatch.setitem(
        BACKENDS, "treadle",
        lambda: FaultyBackend(TreadleBackend(),
                              FaultPlan(corrupt_keys=2, crash_at=120)),
    )
    spec = replace(spec_for(design, "treadle"), checkpoint_every=50)
    outcome = execute_spec(
        spec, "salvage",
        Checkpointer(tmp_path / "shards", every=spec.checkpoint_every),
        isolation=isolation,
    )
    assert outcome.status == "failed"
    assert outcome.counts is None
    assert outcome.result.outcomes[0].status == "partial"
    assert "quarantined" in outcome.detail
