"""Fault-tolerant coverage-run orchestration.

The paper's merge property (§3, §5.3) assumes every backend returns
pristine counts; this subsystem drops that assumption.  Jobs run behind a
wall-clock watchdog with bounded, jittered retries — or, with
``isolation='process'``, inside supervised forked workers that heartbeat
over a pipe and are SIGKILLed (and resource-capped) when they wedge.
Live counts checkpoint to shard files so crashes only cost the cycles
since the last snapshot; every shard is validated against the cover
namespace — corrupt shards are quarantined into a report instead of
poisoning the merge; per-backend circuit breakers stop feeding jobs to a
systematically broken backend; and cross-backend differential runs turn
the shared namespace into a quorum defense against plausible-but-wrong
counts.

Pieces:

* :mod:`~repro.runtime.executor` — watchdog, retries/backoff, campaigns
* :mod:`~repro.runtime.procworker` — forked workers, heartbeats, SIGKILL
  supervision, rlimit caps
* :mod:`~repro.runtime.breaker` — per-backend circuit breakers
* :mod:`~repro.runtime.differential` — same job on ≥2 backends, majority
  vote per cover, structured disagreement reports
* :mod:`~repro.runtime.checkpoint` — atomic JSON shard files, resume
* :mod:`~repro.runtime.validate` — namespace/width validation, quarantine
* :mod:`~repro.runtime.journal` — crash-safe append-only write-ahead
  journal (length-prefixed, CRC-checked, fsync'd; atomic compaction)
* :mod:`~repro.runtime.service` — the ``repro serve`` daemon: JSON/HTTP
  campaign API, bounded admission with per-tenant quotas, fair
  scheduling, journal-backed crash recovery, graceful drain
* :mod:`~repro.runtime.protocol` — the newline-delimited JSON frames the
  cluster speaks, plus the blocking :class:`LineChannel` transport
* :mod:`~repro.runtime.cluster` — scale-out: the coordinator embedded in
  the service (leases, fencing tokens, live delta merges) and the
  ``repro worker`` remote execution node
* :mod:`~repro.runtime.client` — retrying HTTP client that honors the
  service's Retry-After back-pressure with jittered backoff
* :mod:`~repro.runtime.faults` — deterministic fault injection (tests the
  modules above, and nothing in production imports it)
* :mod:`~repro.runtime.telemetry` — span tracing + metrics behind the
  ``obs`` facade (disabled by default, no-op-cheap)
"""

# telemetry first: it has no intra-package imports, and every sibling
# (and the backends/coverage layers) may import it during module init.
from .telemetry import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StepMeter,
    Telemetry,
    Tracer,
    metrics_catalog_markdown,
    obs,
)
from .breaker import BreakerBoard, CircuitBreaker
from .checkpoint import SHARD_VERSION, Checkpointer, Shard, ShardError
from .client import ServiceClient, ServiceError, jittered_backoff
from .cluster import (
    ClusterCoordinator,
    ClusterWorker,
    Lease,
    LeaseError,
    LeaseTable,
    LiveCoverage,
    RemoteWorker,
    WorkerConfig,
)
from .differential import (
    CoverDisagreement,
    DifferentialResult,
    DifferentialRunner,
    DisagreementReport,
    quorum_merge,
)
from .executor import (
    CampaignResult,
    Executor,
    RunJob,
    RunOutcome,
    poked_blocks,
)
from .faults import (
    DiskFaultPlan,
    FaultPlan,
    FaultyBackend,
    FaultyChannel,
    FaultyOS,
    FaultySimulation,
    NetFaultPlan,
    PowerLoss,
    ScanNoiseHost,
)
from .journal import Journal, JournalError, ReplayResult, replay
from .procworker import (
    ProcessAttemptResult,
    ResourceLimits,
    SupervisionPolicy,
    current_attempt,
    process_isolation_available,
    rlimit_as_enforceable,
    run_process_attempt,
)
from .protocol import (
    PROTOCOL_VERSION,
    LineChannel,
    ProtocolError,
    decode_message,
    encode_message,
)
from .service import (
    Campaign,
    CampaignSpec,
    CoverageService,
    ServiceConfig,
    SpecError,
    execute_spec,
)
from .validate import (
    QuarantineReport,
    QuarantinedShard,
    ShardIssue,
    merge_shards,
    validate_shard_counts,
)

__all__ = [
    "BreakerBoard",
    "Campaign",
    "CampaignResult",
    "CampaignSpec",
    "Checkpointer",
    "CircuitBreaker",
    "ClusterCoordinator",
    "ClusterWorker",
    "Counter",
    "CoverDisagreement",
    "CoverageService",
    "DifferentialResult",
    "DifferentialRunner",
    "DiskFaultPlan",
    "DisagreementReport",
    "Executor",
    "FaultPlan",
    "FaultyBackend",
    "FaultyChannel",
    "FaultyOS",
    "FaultySimulation",
    "Gauge",
    "Histogram",
    "Journal",
    "JournalError",
    "Lease",
    "LeaseError",
    "LeaseTable",
    "LineChannel",
    "LiveCoverage",
    "METRICS",
    "MetricsRegistry",
    "NetFaultPlan",
    "PROTOCOL_VERSION",
    "PowerLoss",
    "ProcessAttemptResult",
    "ProtocolError",
    "QuarantineReport",
    "QuarantinedShard",
    "RemoteWorker",
    "ReplayResult",
    "ResourceLimits",
    "RunJob",
    "RunOutcome",
    "SHARD_VERSION",
    "ScanNoiseHost",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "Shard",
    "ShardError",
    "ShardIssue",
    "SpecError",
    "StepMeter",
    "SupervisionPolicy",
    "Telemetry",
    "Tracer",
    "WorkerConfig",
    "current_attempt",
    "decode_message",
    "encode_message",
    "execute_spec",
    "jittered_backoff",
    "merge_shards",
    "metrics_catalog_markdown",
    "obs",
    "process_isolation_available",
    "quorum_merge",
    "replay",
    "rlimit_as_enforceable",
    "poked_blocks",
    "run_process_attempt",
    "validate_shard_counts",
]
