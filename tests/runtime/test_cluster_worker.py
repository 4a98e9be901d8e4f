"""A cluster worker's shard run ends in exactly one ``done`` frame.

``ClusterWorker._run_shard`` builds the frame in one place from an
``ExecutionOutcome``: the one ``execute_spec`` returned, or a failed one
when the run raised on the worker.  A revoked (suppressed) run sends
nothing.  The worker runs the shard synchronously here, over a channel
stub, with no coordinator.
"""

from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.ir import print_circuit
from repro.runtime.cluster import ClusterWorker, WorkerConfig, _ShardRun
from repro.runtime.service import CampaignSpec, execute_spec


class _Sink:
    """A channel stub recording every frame sent."""

    def __init__(self):
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)


def _run_shard(tmp_path, spec, suppressed=False):
    worker = ClusterWorker(WorkerConfig("127.0.0.1", 0, state_dir=tmp_path))
    worker._channel = sink = _Sink()
    run = _ShardRun(token=3, suppressed=suppressed)
    worker._active["c1"] = run
    worker._run_shard(
        "c1", {"spec": spec, "token": 3, "checkpoint_every": 16}, run
    )
    assert "c1" not in worker._active
    return sink.sent


def test_local_failure_reports_failed_with_no_counts(tmp_path):
    sent = _run_shard(tmp_path, {"cycles": 40})  # no circuit: SpecError
    assert sent == [{
        "type": "done", "shard": "c1", "token": 3, "status": "failed",
        "detail": "worker-local execution error", "counts": {},
        "cycles_run": 0, "attempts": 0, "backend_ok": False,
    }]


def test_finished_shard_streams_deltas_then_done(tmp_path):
    spec = {"circuit": print_circuit(elaborate(Gcd(width=4))),
            "cycles": 40, "seed": 1, "metrics": ["line"]}
    *deltas, done = _run_shard(tmp_path, spec)
    assert [(f["type"], f["to_cycle"]) for f in deltas] == [
        ("delta", 16), ("delta", 32)
    ]
    expected = execute_spec(CampaignSpec.from_json_obj(spec), "c1", None)
    assert done == {
        "type": "done", "shard": "c1", "token": 3, "status": "done",
        "detail": expected.detail, "counts": expected.counts,
        "cycles_run": 40, "attempts": 1, "backend_ok": True,
    }


def test_suppressed_run_sends_nothing(tmp_path):
    assert _run_shard(tmp_path, {"cycles": 40}, suppressed=True) == []
