"""AFL-style coverage-directed mutational fuzzing engine (§5.4).

Reproduces the paper's setup: the AFL algorithm (queue of interesting
inputs, deterministic + havoc mutation stages, bucketized coverage bitmap)
driven by cover counts from any instrumented metric.  "The coverage counts
serve as direct feedback to AFL instead of going to a report generator."

Counts are bucketized into AFL's 8 hit-count classes before novelty
detection, so seeing a branch 5 times vs 6 times is not "new", but 1 vs 8
is — the classic AFL heuristic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..backends.api import CoverCounts
from . import mutations

#: AFL hit-count buckets: 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+
_BUCKET_LIMITS = (1, 2, 3, 7, 15, 31, 127)


def bucket(count: int) -> int:
    """Classify a hit count into an AFL bucket (0 = not hit)."""
    if count <= 0:
        return 0
    for index, limit in enumerate(_BUCKET_LIMITS, start=1):
        if count <= limit:
            return index
    return 8


def bitmap_of(counts: CoverCounts) -> frozenset:
    """The (cover, bucket) pairs an execution touched."""
    return frozenset((name, bucket(c)) for name, c in counts.items() if c > 0)


@dataclass
class QueueEntry:
    data: bytes
    coverage: frozenset
    execution: int


@dataclass
class FuzzStats:
    """Progress log: one record per execution."""

    executions: int = 0
    queue_size: int = 0
    #: (execution index, cumulative covered point count) whenever it grew
    coverage_curve: list[tuple[int, int]] = field(default_factory=list)
    covered: set = field(default_factory=set)

    def record(self, execution: int, counts: CoverCounts) -> bool:
        grew = False
        for name, count in counts.items():
            if count > 0 and name not in self.covered:
                self.covered.add(name)
                grew = True
        if grew:
            self.coverage_curve.append((execution, len(self.covered)))
        return grew

    def coverage_at(self, execution: int) -> int:
        """Cumulative covered points after ``execution`` runs."""
        result = 0
        for exec_index, covered in self.coverage_curve:
            if exec_index > execution:
                break
            result = covered
        return result


class AflFuzzer:
    """The fuzzing loop.

    Args:
        execute: byte string -> cover counts for that run.
        feedback: filters counts down to the metric driving the search
            (identity = use everything).  ``None`` disables feedback
            entirely — the random-fuzzing baseline.
        track: filters counts down to the metric used for *evaluation*
            (Figure 11 tracks line coverage regardless of feedback).
        execute_batch: list of byte strings -> index-aligned list of
            cover counts (e.g. ``FuzzHarness.execute_batch`` over swarm
            lanes).  Without one, ``run`` maps ``execute`` over each
            batch.
    """

    def __init__(
        self,
        execute: Callable[[bytes], CoverCounts],
        feedback: Optional[Callable[[CoverCounts], CoverCounts]] = None,
        track: Optional[Callable[[CoverCounts], CoverCounts]] = None,
        seeds: Iterable[bytes] = (b"\x00" * 16,),
        seed: int = 0,
        execute_batch: Optional[
            Callable[[list[bytes]], list[CoverCounts]]
        ] = None,
    ) -> None:
        self.execute = execute
        self.execute_batch = execute_batch
        self.feedback = feedback
        self.track = track if track is not None else (lambda c: c)
        self.rng = random.Random(seed)
        self.queue: list[QueueEntry] = []
        self.seen_bitmap: set = set()
        self.stats = FuzzStats()
        self._seeds = list(seeds)

    def _ingest(self, data: bytes, counts: CoverCounts) -> None:
        """Account one executed input; queue it if it found new coverage."""
        self.stats.executions += 1
        execution = self.stats.executions
        self.stats.record(execution, self.track(counts))
        if self.feedback is None:
            return
        coverage = bitmap_of(self.feedback(counts))
        new_pairs = coverage - self.seen_bitmap
        if new_pairs:
            self.seen_bitmap.update(new_pairs)
            self.queue.append(QueueEntry(data, coverage, execution))
            self.stats.queue_size = len(self.queue)

    def _run_batch(self, batch: list[bytes]) -> None:
        """Execute a batch (one ``execute_batch`` call), ingest in queue order."""
        if self.execute_batch is not None:
            results = self.execute_batch(batch)
        else:
            results = map(self.execute, batch)
        for data, counts in zip(batch, results):
            self._ingest(data, counts)

    def run(self, max_executions: int, batch: int = 1) -> FuzzStats:
        """Fuzz until the execution budget is exhausted.

        Inputs run ``batch`` at a time: through one ``execute_batch`` call
        when one was given (swarm lanes make a batch one packed
        simulation), else through ``execute`` per input; ``batch=1`` is
        plain scalar fuzzing.  Mutations for a batch are derived from the
        queue as it stood when the batch was assembled, so the schedule
        can diverge from ``batch=1`` even though per-input counts are
        bit-identical; coverage feedback still lands before the next
        batch is drawn.  Raises ``ValueError`` for ``batch < 1``.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        pending: list[bytes] = []

        def budget() -> int:
            return max_executions - self.stats.executions - len(pending)

        def flush(limit: int = 1) -> None:
            while len(pending) >= limit and pending:
                self._run_batch(pending[:batch])
                del pending[:batch]

        for seed_data in self._seeds:
            if budget() <= 0:
                break
            pending.append(seed_data)
            flush(batch)
        flush()
        if self.feedback is None:
            # no feedback: pure random mutation of the seeds
            while budget() > 0:
                base = self.rng.choice(self._seeds)
                pending.append(mutations.havoc(base, self.rng))
                flush(batch)
            flush()
            return self.stats
        if not self.queue:
            self.queue.append(QueueEntry(self._seeds[0], frozenset(), 0))
        cursor = 0
        while budget() > 0:
            entry = self.queue[cursor % len(self.queue)]
            cursor += 1
            # a light deterministic stage on fresh queue entries
            for mutated in mutations.bitflips(entry.data):
                if budget() <= 0:
                    break
                pending.append(mutated)
                break  # only a taste — havoc drives most progress
            for _ in range(16):
                if budget() <= 0:
                    break
                pending.append(mutations.havoc(entry.data, self.rng))
            flush(batch)
        flush()
        return self.stats
