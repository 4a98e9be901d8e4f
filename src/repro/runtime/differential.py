"""Cross-backend differential execution with quorum merging.

The paper's headline property — every backend keys its counts by the same
canonical hierarchical cover name (§3), so results "merge trivially" — is
also a free robustness oracle: the *same* job (same circuit, same
stimulus, same cycle count) run on two independent backends must produce
*identical* per-cover counts.  Namespace validation
(:mod:`~repro.runtime.validate`) catches detectably-corrupt shards; it is
blind to a Byzantine backend returning *plausible-but-wrong* counts —
right keys, non-negative in-range values, wrong numbers.  Disagreement
between independent backends pinpoints exactly that.

:class:`DifferentialRunner` executes one job on ≥2 backends through a
fault-tolerant :class:`~repro.runtime.executor.Executor`, compares the
per-cover counts of every leg that *completed*, and quorum-merges: for
each cover, the value a strict majority of legs agrees on wins.  Outvoted
backends land in a structured :class:`DisagreementReport` (per-cover,
per-backend deltas) and their contributions are quarantined.  With only
two legs a disagreement has no majority — it is still *detected* and
reported (``no_quorum``), but localising the liar takes a third leg.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..backends.api import BlockSource, CoverCounts
from .executor import Executor, RunJob, RunOutcome
from .telemetry import obs
from .validate import QuarantineReport, QuarantinedShard, ShardIssue, validate_shard_counts

#: value recorded for a backend that did not report a cover at all
MISSING = None


@dataclass
class CoverDisagreement:
    """One cover point the legs did not agree on."""

    cover: str
    values: dict[str, Optional[int]]  # backend -> reported count (None: missing)
    quorum_value: Optional[int] = None  # None: no strict majority

    @property
    def outvoted(self) -> list[str]:
        """Backends whose value lost the vote (empty without a quorum)."""
        if self.quorum_value is None:
            return []
        return sorted(b for b, v in self.values.items() if v != self.quorum_value)

    def format(self) -> str:
        votes = ", ".join(
            f"{backend}={'∅' if value is MISSING else value}"
            for backend, value in sorted(self.values.items())
        )
        verdict = (
            f"quorum={self.quorum_value}"
            if self.quorum_value is not None
            else "no quorum"
        )
        return f"{self.cover}: {votes} [{verdict}]"


@dataclass
class DisagreementReport:
    """Structured verdict of a differential run."""

    job_id: str
    backends: list[str] = field(default_factory=list)
    voters: list[str] = field(default_factory=list)  # legs that entered the vote
    excluded: dict[str, str] = field(default_factory=dict)  # backend -> reason
    disagreements: list[CoverDisagreement] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.disagreements and not self.excluded

    @property
    def outvoted(self) -> dict[str, list[str]]:
        """Backend -> covers on which it was outvoted by the quorum."""
        losers: dict[str, list[str]] = {}
        for disagreement in self.disagreements:
            for backend in disagreement.outvoted:
                losers.setdefault(backend, []).append(disagreement.cover)
        return losers

    @property
    def no_quorum(self) -> list[str]:
        """Covers where no strict majority emerged (tie or 2-leg split)."""
        return [d.cover for d in self.disagreements if d.quorum_value is None]

    def deltas(self, backend: str) -> dict[str, int]:
        """Per-cover (reported − quorum) deltas for one outvoted backend."""
        out: dict[str, int] = {}
        for disagreement in self.disagreements:
            if disagreement.quorum_value is None:
                continue
            value = disagreement.values.get(backend, MISSING)
            if value is not MISSING and value != disagreement.quorum_value:
                out[disagreement.cover] = value - disagreement.quorum_value
        return out

    def format(self) -> str:
        lines = [
            f"differential {self.job_id}: "
            f"{len(self.voters)}/{len(self.backends)} legs voted"
        ]
        for backend, reason in sorted(self.excluded.items()):
            lines.append(f"  excluded {backend}: {reason}")
        if not self.disagreements:
            lines.append("  all voting legs agree on every cover")
            return "\n".join(lines)
        lines.append(f"  {len(self.disagreements)} disagreeing cover(s):")
        lines += [f"    {d.format()}" for d in self.disagreements]
        for backend, covers in sorted(self.outvoted.items()):
            lines.append(
                f"  outvoted: {backend} on {len(covers)} cover(s): "
                + ", ".join(covers)
            )
        if self.no_quorum:
            lines.append(
                f"  no quorum on {len(self.no_quorum)} cover(s) "
                "(add a third backend to localise the fault)"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "job_id": self.job_id,
                "backends": self.backends,
                "voters": self.voters,
                "excluded": self.excluded,
                "disagreements": [
                    {
                        "cover": d.cover,
                        "values": d.values,
                        "quorum_value": d.quorum_value,
                        "outvoted": d.outvoted,
                    }
                    for d in self.disagreements
                ],
                "outvoted": self.outvoted,
                "no_quorum": self.no_quorum,
            },
            indent=2,
            sort_keys=True,
        )


def quorum_merge(
    job_id: str,
    per_backend: dict[str, CoverCounts],
    backends: Optional[Iterable[str]] = None,
) -> tuple[CoverCounts, DisagreementReport]:
    """Majority-vote per cover across the backends' count maps.

    Returns the quorum-agreed counts plus the report.  A cover enters the
    merged map only with a strict majority; covers with no quorum are
    withheld (merging either candidate would launder the disagreement).
    """
    voters = sorted(per_backend)
    report = DisagreementReport(
        job_id=job_id,
        backends=sorted(backends) if backends is not None else list(voters),
        voters=list(voters),
    )
    merged: CoverCounts = {}
    covers = sorted({c for counts in per_backend.values() for c in counts})
    majority = len(voters) // 2 + 1
    for cover in covers:
        values = {b: per_backend[b].get(cover, MISSING) for b in voters}
        tally = Counter(values.values())
        winner, votes = tally.most_common(1)[0] if tally else (MISSING, 0)
        if votes >= majority and winner is not MISSING:
            merged[cover] = winner
            if votes < len(voters):
                disagreement = CoverDisagreement(
                    cover, values, quorum_value=winner
                )
                report.disagreements.append(disagreement)
                if obs.enabled:
                    obs.inc("repro_quorum_covers_total", verdict="outvoted")
                    for backend in disagreement.outvoted:
                        obs.inc("repro_outvoted_covers_total", backend=backend)
            elif obs.enabled:
                obs.inc("repro_quorum_covers_total", verdict="unanimous")
        else:
            report.disagreements.append(
                CoverDisagreement(cover, values, quorum_value=None)
            )
            if obs.enabled:
                obs.inc("repro_quorum_covers_total", verdict="no-quorum")
    return merged, report


@dataclass
class DifferentialResult:
    """Outcome of one differential run: legs, quorum counts, verdicts."""

    job_id: str
    outcomes: dict[str, RunOutcome]
    merged: CoverCounts
    report: DisagreementReport
    quarantine: QuarantineReport

    @property
    def agreed(self) -> bool:
        return self.report.clean

    def format(self) -> str:
        lines = []
        for backend, outcome in sorted(self.outcomes.items()):
            lines.append(
                f"{outcome.job_id}: {outcome.status} after "
                f"{outcome.attempts} attempt(s), {outcome.cycles_run} cycles"
            )
        lines.append(self.report.format())
        if not self.quarantine.clean:
            lines.append(self.quarantine.format())
        covered = sum(1 for c in self.merged.values() if c)
        lines.append(f"quorum coverage: {covered}/{len(self.merged)} points hit")
        return "\n".join(lines)


class DifferentialRunner:
    """Runs one job on several backends and quorum-merges the counts."""

    def __init__(self, executor: Optional[Executor] = None) -> None:
        self.executor = executor or Executor()

    def run(
        self,
        job_id: str,
        make_sims: dict[str, Callable[[], object]],
        cycles: int,
        stimulus: Optional[BlockSource] = None,
        reset_cycles: int = 1,
        known_names: Optional[Iterable[str]] = None,
        counter_width: Optional[int] = None,
    ) -> DifferentialResult:
        """Execute ``job_id`` once per backend in ``make_sims`` and vote.

        Every leg drives the same ``stimulus`` block source (re-seeded at
        cycle 0 of every attempt) — identical inputs, or honest backends
        will disagree with each other.
        Legs that fail validation against ``known_names``/``counter_width``
        are quarantined and excluded from the vote, as are legs that did
        not run to completion (a partial leg's lower counts are legitimate,
        not Byzantine).  Outvoted backends are quarantined with per-cover
        evidence.
        """
        if len(make_sims) < 2:
            raise ValueError(
                f"differential execution needs >= 2 backends, got {len(make_sims)}"
            )
        quarantine = QuarantineReport()
        outcomes: dict[str, RunOutcome] = {}
        votable: dict[str, CoverCounts] = {}
        excluded: dict[str, str] = {}
        names = set(known_names) if known_names is not None else None
        for backend, make_sim in sorted(make_sims.items()):
            job = RunJob(
                job_id=f"{job_id}@{backend}",
                backend_name=backend,
                make_sim=make_sim,
                cycles=cycles,
                stimulus=stimulus,
                reset_cycles=reset_cycles,
            )
            outcome = self.executor.run_job(job)
            outcomes[backend] = outcome
            if outcome.status != "ok":
                excluded[backend] = (
                    f"leg did not complete (status: {outcome.status})"
                )
                continue
            issues = validate_shard_counts(outcome.counts, names, counter_width)
            if issues:
                excluded[backend] = "failed shard validation"
                quarantine.quarantined.append(
                    QuarantinedShard(job.job_id, backend, issues)
                )
                continue
            votable[backend] = outcome.counts
        merged, report = quorum_merge(job_id, votable, backends=make_sims)
        report.excluded.update(excluded)
        for backend, covers in report.outvoted.items():
            quarantine.quarantined.append(
                QuarantinedShard(
                    job_id=f"{job_id}@{backend}",
                    backend=backend,
                    issues=[
                        ShardIssue(
                            "outvoted",
                            cover,
                            f"reported {self._reported(report, backend, cover)} "
                            f"but the quorum agreed on "
                            f"{self._quorum_value(report, cover)}",
                        )
                        for cover in covers
                    ],
                )
            )
        for backend in votable:
            if backend not in report.outvoted:
                quarantine.merged_job_ids.append(f"{job_id}@{backend}")
        return DifferentialResult(job_id, outcomes, merged, report, quarantine)

    @staticmethod
    def _reported(report: DisagreementReport, backend: str, cover: str):
        for d in report.disagreements:
            if d.cover == cover:
                value = d.values.get(backend, MISSING)
                return "nothing" if value is MISSING else value
        return "?"

    @staticmethod
    def _quorum_value(report: DisagreementReport, cover: str):
        for d in report.disagreements:
            if d.cover == cover:
                return d.quorum_value
        return None
