"""Shared plumbing: CLI calls, failure accounting, statistics, tracing, provenance."""

from __future__ import annotations

import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

clock = time.perf_counter

#: the tiny scale ``perfbench/smoke.py`` runs every workload at
SMOKE = "smoke"


class Ledger:
    """Operations attempted and failed in one run, with the reasons.

    An operation is one user-visible call (a CLI invocation, a fuzz
    campaign, a service campaign, an HTTP exchange) or one bit-identity
    check; a failed check counts as a failed operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            log(f"FAILED: {what}")
        return ok

    def check(self, ok: bool, what: str) -> bool:
        """A bit-identity or sanity check (same accounting as an operation)."""
        return self.record(ok, f"check: {what}")


@dataclass
class Context:
    """What every workload function receives."""

    root: Path  # the checkout root
    work: Path  # this run's working directory (inside the checkout)
    seed: int
    seconds: float
    trace: bool
    scale: str = "full"
    ledger: Ledger = field(default_factory=Ledger)
    #: facts about the generated inputs, printed with the provenance stamp
    inputs: dict = field(default_factory=dict)

    @property
    def smoke(self) -> bool:
        return self.scale == SMOKE


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# -- calling the program -------------------------------------------------------


@dataclass
class CliResult:
    code: int
    seconds: float
    stderr: str
    warnings: list[str]


def cli(argv: list[str]) -> CliResult:
    """Run ``repro.cli.main(argv)`` in this process, timed and captured.

    The CLI prints its summary to stdout; capturing (and dropping) it keeps
    the benchmark's own last output line the result object.  Warnings are recorded so a
    silent backend fallback (a ``RuntimeWarning``) can be detected.
    """
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            start = clock()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a bench crash
                traceback.print_exc()
                code = 1
            seconds = clock() - start
    return CliResult(
        code=code or 0,
        seconds=seconds,
        stderr=err.getvalue(),
        warnings=[f"{w.category.__name__}: {w.message}" for w in caught],
    )


def fallback_warnings(result: CliResult) -> list[str]:
    """The C backend's degrade-to-JIT warnings in a CLI call, if any."""
    return [w for w in result.warnings if "falling back" in w]


# -- host speed ------------------------------------------------------------------
#
# A shared 2-vCPU host runs the same code up to half again slower for
# minutes at a time when its neighbours are busy, and a whole run can fall
# into such a phase.  Every timed in-process operation of simulate and fuzz
# is therefore bracketed by a probe, a fixed pure-Python loop that runs
# none of the program's code, and its wall time is scaled by
# REFERENCE_PROBE_S / (mean of the two probes): those end-to-end figures
# are seconds on a host whose probe takes REFERENCE_PROBE_S.  Probes run
# only while nothing else of the benchmark runs, so the program's own load
# never slows them.  serve-mix reports wall time: its daemon is another
# process that also waits on fsync, the probe does not track its speed,
# and scaling did not narrow its spread.

#: ``host_probe`` on an unloaded 2-vCPU x86-64 host (the one the sizes were tuned on)
REFERENCE_PROBE_S = 0.0065


def host_probe() -> float:
    """Seconds of a fixed pure-Python loop: the median of five tries."""
    tries = []
    for _ in range(5):
        start = clock()
        total = 0
        for i in range(100_000):
            total += i * i
        tries.append(clock() - start)
    return statistics.median(tries)


def on_reference_host(fn):
    """Run ``fn()`` between two probes: (its result, the time scale factor).

    Multiplying a wall time measured inside ``fn`` by the factor gives
    reference-host seconds; dividing a rate by it gives a reference-host rate.
    """
    before = host_probe()
    result = fn()
    return result, REFERENCE_PROBE_S * 2 / (before + host_probe())


# -- statistics ----------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """The 90th percentile (linear interpolation; needs two samples)."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# -- tracing -------------------------------------------------------------------


class TraceLog:
    """Spans recorded from the benchmark's side plus the program's own.

    Bench spans (``cat: "bench"``) wrap the calls into each module; they
    go into the program's tracer so both share one timeline.  ``drain``
    moves everything recorded so far into the kept trace and returns it
    for analysis, so per-phase span sums never double count.
    """

    def __init__(self) -> None:
        self.kept: list[dict] = []

    @contextmanager
    def span(self, name: str, **args):
        from repro.runtime.telemetry import obs

        start = clock()
        try:
            yield
        finally:
            obs.tracer.record(name, "bench", start, clock(), **args)

    def drain(self) -> list[dict]:
        from repro.runtime.telemetry import obs

        events = obs.tracer.drain()
        self.kept.extend(events)
        return events

    def write(self, path: Path, provenance: dict) -> None:
        self.drain()
        payload = {
            "traceEvents": self.kept,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "perfbench", "provenance": provenance},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


@contextmanager
def telemetry_on():
    """Enable the program's span/metric collection for one block."""
    from repro.runtime.telemetry import obs

    obs.enable()
    try:
        yield obs
    finally:
        obs.disable()


def span_seconds(events: list[dict], name: str) -> list[float]:
    """Durations (s) of the complete events called ``name``."""
    return [
        event["dur"] / 1e6
        for event in events
        if event.get("ph") == "X" and event.get("name") == name
    ]


def prom_sum(parsed: dict, name: str, series: str = "value") -> float:
    """Sum of one metric's samples over all labels (``parse_prometheus`` shape)."""
    entry = parsed["metrics"].get(name)
    if entry is None:
        return 0.0
    return sum(s["value"] for s in entry["samples"] if s["series"] == series)


# -- provenance ----------------------------------------------------------------


def _first_line(argv: list[str], cwd: Path) -> str:
    try:
        proc = subprocess.run(
            argv, cwd=cwd, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    if proc.returncode != 0:
        return "unavailable"
    lines = proc.stdout.strip().splitlines()
    return lines[0] if lines else "unavailable"


def provenance(ctx: Context, workload: str) -> dict:
    """The host and input stamp printed with every result."""
    commit = _first_line(["git", "rev-parse", "HEAD"], ctx.root)
    if commit == "unavailable":
        commit = "unknown (not a git checkout)"
    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "scale": ctx.scale,
        "python": platform.python_version(),
        "cc": _first_line(["cc", "--version"], ctx.root),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "inputs": ctx.inputs,
    }
