"""One campaign path: ``repro simulate`` runs through ``execute_spec``.

The CLI builds a :class:`CampaignSpec` and hands it to the same
:func:`execute_spec` that ``repro serve`` and ``repro worker`` run, so
the counts file ``repro simulate`` writes must be exactly the counts the
service reports for the same spec — on every backend, with and without
minimal-basis instrumentation.  On swarm, lane *l* replays ``seed + l``:
the merged counts are ``merge_counts`` over the scalar runs of those
seeds.  With ``--model-cache-dir`` a second run hits the campaign
manifest, and its counts file is byte-identical to the first run's.
"""

from __future__ import annotations

import json
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
from repro.runtime import Checkpointer, FaultPlan, FaultyBackend, obs
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


def simulate_file(design, out, *flags) -> bytes:
    """Run ``repro simulate``; the bytes of the counts file it wrote."""
    assert main([
        "simulate", str(design), "--cycles", str(CYCLES), "--random-inputs",
        "--seed", str(SEED), "--counts", str(out), *flags,
    ]) == 0
    return out.read_bytes()


def manifest_outcome(trace) -> str:
    """``hit`` or ``miss``: the ``prepare`` span of a ``--trace-out`` file."""
    events = json.loads(trace.read_text())["traceEvents"]
    (span,) = [e for e in events if e.get("name") == "prepare"]
    return span["args"]["manifest"]


#: ``--model-cache-dir`` runs beyond the per-backend cases
CACHED_CASES = {
    **CASES,
    "process": ["--backend", "verilator", "--isolation", "process"],
    "differential": ["--differential", "treadle,verilator,c"],
}


@pytest.mark.parametrize("minimize", [False, True], ids=["full", "min"])
@pytest.mark.parametrize("case", sorted(CACHED_CASES))
def test_manifest_miss_and_hit_write_identical_counts(design, tmp_path, case,
                                                      minimize):
    flags = CACHED_CASES[case] + ["--counter-width", "3",
                                  "--model-cache-dir", str(tmp_path / "cache")]
    if minimize:
        flags.append("--min-instrument")
    files, outcomes = [], []
    for run in ("miss", "hit"):
        obs.reset()  # the tracer outlives one in-process call
        trace = tmp_path / f"{run}.trace.json"
        files.append(simulate_file(design, tmp_path / f"{run}.json", *flags,
                                   "--trace-out", str(trace)))
        outcomes.append(manifest_outcome(trace))
    assert outcomes == ["miss", "hit"]
    assert files[0] == files[1]
    assert any(counts_from_json(files[0].decode()).values())
