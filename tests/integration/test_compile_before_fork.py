"""Process isolation compiles once, before the fork, cache directory or not.

``repro simulate`` installs a model cache on every call, memory-only
without ``--model-cache-dir``.  With ``--isolation process`` the parent
therefore compiles before it forks, and the child's compile is a hit on
the entry it inherits: one miss and one hit in ``--metrics-out``.  A
child that compiled for itself sent no heartbeat while it did, and on
``c`` a large design was killed for that silence at cycle 0.  A library
call of ``execute_spec`` with no default cache installed does the same,
and leaves no default cache behind.
"""

from __future__ import annotations

import pytest

from repro.backends import default_cache
from repro.backends.cbackend import find_compiler
from repro.cli import main
from repro.coverage import instrument
from repro.designs.serv import SerialGcd
from repro.hcl import elaborate
from repro.ir import print_circuit
from repro.runtime import obs, process_isolation_available
from repro.runtime.service import DONE, CampaignSpec, execute_spec
from repro.runtime.telemetry import parse_prometheus

pytestmark = pytest.mark.skipif(
    not process_isolation_available(),
    reason="process isolation requires the fork start method",
)


@pytest.fixture(scope="module")
def design(tmp_path_factory):
    """serv-chisel, line- and toggle-instrumented, written as IR."""
    state, _db = instrument(elaborate(SerialGcd()), metrics=["line", "toggle"])
    path = tmp_path_factory.mktemp("design") / "inst.fir"
    path.write_text(print_circuit(state.circuit))
    return path


def simulate(design, tmp_path, backend: str, isolation: str):
    """One ``repro simulate`` call: its counts bytes and parsed metrics."""
    counts, metrics = tmp_path / f"{isolation}.json", tmp_path / f"{isolation}.prom"
    obs.reset()  # the registry outlives one in-process call
    assert main([
        "simulate", str(design), "--backend", backend, "--isolation", isolation,
        "--cycles", "300", "--random-inputs", "--seed", "3",
        "--counts", str(counts), "--metrics-out", str(metrics),
    ]) == 0
    return counts.read_bytes(), parse_prometheus(metrics.read_text())["metrics"]


def cache_total(metrics: dict, name: str, backend: str) -> float:
    return sum(
        sample["value"] for sample in metrics.get(name, {}).get("samples", [])
        if sample["labels"].get("backend") == backend
    )


@pytest.mark.parametrize("backend", ["treadle", "c"])
def test_process_isolation_without_a_cache_dir_compiles_once(design, tmp_path,
                                                             backend):
    if backend == "c" and find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    thread_counts, _ = simulate(design, tmp_path, backend, "thread")
    counts, metrics = simulate(design, tmp_path, backend, "process")
    assert cache_total(metrics, "repro_model_cache_misses_total", backend) == 1
    assert cache_total(metrics, "repro_model_cache_hits_total", backend) == 1
    assert counts == thread_counts


@pytest.mark.parametrize("backend", ["treadle", "c"])
def test_library_call_without_a_default_cache_compiles_once(design, backend):
    if backend == "c" and find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert default_cache() is None
    spec = CampaignSpec(tenant="lib", circuit=design.read_text(), backend=backend,
                        cycles=300, seed=3)
    thread = execute_spec(spec, "thread", None, isolation="thread")
    obs.reset()
    obs.enable()
    try:
        process = execute_spec(spec, "process", None, isolation="process")
        metrics = obs.metrics.snapshot()["metrics"]
    finally:
        obs.disable()
        obs.reset()
    assert default_cache() is None
    assert process.status == thread.status == DONE
    assert process.counts == thread.counts
    assert cache_total(metrics, "repro_model_cache_misses_total", backend) == 1
    assert cache_total(metrics, "repro_model_cache_hits_total", backend) == 1
