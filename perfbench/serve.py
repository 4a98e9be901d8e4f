"""Workload ``serve-mix``: ``repro serve`` with two closed-loop clients.

The daemon runs as a subprocess (``repro serve --model-cache-dir ...
--max-workers 2``, journal fsync on, the default).  Two clients, one per
tenant, each keep one campaign in flight through ``ServiceClient``:
submit, poll ``/status``, then ``GET /report``.  The traffic mix cycles
through eight spec shapes: ``SerialGcd`` and ``TlRam`` IR, metrics
``[line, toggle]``, short campaigns, backends alternating treadle and c,
and every other pair of specs with ``min_instrument``.  One campaign of
each shape runs before timing starts and counts toward the set-up.

The simulation is a small share of each campaign, so HTTP, admission,
WAL fsync, scheduling, the executor, checkpoints, validate/merge,
per-spec instrumentation, model-cache loads and count reconstruction
dominate: a cost added per campaign shows here while ``simulate`` stays
flat.
"""

from __future__ import annotations

import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .common import Context, clock, cli, log, median, metric, p90, prom_sum

DESIGNS = ["SerialGcd", "TlRam"]
METRICS = ["line", "toggle"]
SHAPES = 8
TENANTS = {"tenant-a": 0, "tenant-b": SHAPES // 2}  # tenant -> first shape
SEEDS_PER_RUN = 3
POLL_S = 0.005
CAMPAIGN_TIMEOUT_S = 60.0


class Sizes:
    def __init__(self, ctx: Context) -> None:
        smoke = ctx.smoke
        self.cycles = 20 if smoke else 200
        # a set-up is short (daemon start plus eight campaigns) and spreads
        # more than the traffic, so its median takes five
        self.setup_reps = 1 if smoke else 5


def shape(index: int) -> tuple[str, str, bool]:
    """(design, backend, min_instrument) of spec shape ``index``."""
    index %= SHAPES
    backend = ("treadle", "c")[index % 2]
    minimize = bool((index // 2) % 2)
    design = DESIGNS[(index // 4) % 2]
    return design, backend, minimize


def _seeds(seed: int) -> list[int]:
    rng = random.Random(f"serve:{seed}")
    return [rng.getrandbits(31) for _ in range(SEEDS_PER_RUN)]


def _design_ir() -> dict[str, str]:
    from repro import designs
    from repro.hcl import elaborate
    from repro.ir import print_circuit

    return {name: print_circuit(elaborate(getattr(designs, name)())) for name in DESIGNS}


@dataclass
class Result:
    design: str
    backend: str
    minimize: bool
    seed: int
    latency_s: float = 0.0
    submit_s: float = 0.0
    report_s: float = 0.0
    polls: int = 0
    status: str = ""
    counts: Optional[dict] = None
    error: str = ""
    finished_at: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.error and self.status == "done" and self.counts is not None


class Daemon:
    """A ``repro serve`` subprocess on a free port, stopped with SIGTERM."""

    def __init__(self, ctx: Context, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ctx.root / "src")
        self.log_path = directory / "serve.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--state-dir", str(directory / "state"),
                "--model-cache-dir", str(directory / "model-cache"),
                "--max-workers", "2", "--port", "0",
            ],
            cwd=directory, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.url = self._wait_for_url(60.0)

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_for_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                break
            if line is None:
                break
            if "listening on " in line:
                return line.rsplit("listening on ", 1)[1].strip()
        self.stop()
        raise RuntimeError(f"repro serve did not start; see {self.log_path}")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Client:
    """One tenant's closed loop over ``ServiceClient``."""

    def __init__(self, url: str, tenant: str, seed: int) -> None:
        from repro.runtime.client import ServiceClient

        self.tenant = tenant
        self.service = ServiceClient(url, seed=seed)
        self.absorbed = 0  # 429/503 answers ServiceClient retried past
        self.http_errors = 0
        request = self.service.request

        def counting(method, path, body=None):
            code, headers, payload = request(method, path, body)
            if code in (429, 503):
                self.absorbed += 1
            elif code >= 400:
                self.http_errors += 1
            return code, headers, payload

        self.service.request = counting

    def campaign(self, ir: dict, index: int, seed: int, cycles: int) -> Result:
        from repro.runtime.client import ServiceError

        design, backend, minimize = shape(index)
        result = Result(design, backend, minimize, seed)
        spec = {
            "tenant": self.tenant, "circuit": ir[design], "backend": backend,
            "cycles": cycles, "metrics": METRICS, "seed": seed,
            "min_instrument": minimize,
        }
        start = clock()
        try:
            campaign_id = self.service.submit(spec)
            result.submit_s = clock() - start
            deadline = start + CAMPAIGN_TIMEOUT_S
            while True:
                status = self.service.status(campaign_id)
                result.polls += 1
                if status.get("status") in ("done", "failed", "cancelled"):
                    result.status = status["status"]
                    break
                if clock() > deadline:
                    result.error = f"still {status.get('status')} after {CAMPAIGN_TIMEOUT_S}s"
                    return result
                time.sleep(POLL_S)
            report_start = clock()
            code, payload = self.service.report(campaign_id)
            result.report_s = clock() - report_start
            if code == 200 and isinstance(payload, dict) and not payload.get("partial"):
                result.counts = payload.get("counts")
            else:
                result.error = f"report answered {code}"
        except (ServiceError, OSError) as exc:
            result.error = repr(exc)
        result.finished_at = clock()
        result.latency_s = result.finished_at - start
        if result.status != "done" and not result.error:
            result.error = f"campaign ended {result.status}"
        return result


@dataclass
class Traffic:
    results: list = field(default_factory=list)
    started: float = 0.0
    clients: list = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Seconds from the start to the last completed campaign (0 if none)."""
        ends = [r.finished_at for r in self.results if r.ok]
        return max(ends) - self.started if ends else 0.0

    @property
    def campaigns_per_s(self) -> float:
        return sum(1 for r in self.results if r.ok) / self.elapsed


def closed_loop(url: str, ir: dict, seeds: list[int], cycles: int, seconds: float,
                run_seed: int) -> Traffic:
    """Both tenants keep one campaign in flight until ``seconds`` pass."""
    traffic = Traffic()
    lock = threading.Lock()
    clients = [Client(url, t, run_seed + i) for i, t in enumerate(TENANTS)]
    traffic.clients = clients
    traffic.started = clock()
    deadline = traffic.started + seconds

    def loop(client: Client) -> None:
        offset = TENANTS[client.tenant]
        j = 0
        while clock() < deadline:
            result = client.campaign(
                ir, offset + j, seeds[(j // SHAPES) % len(seeds)], cycles
            )
            with lock:
                traffic.results.append(result)
            j += 1

    threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return traffic


def warm_up(url: str, ir: dict, seed: int, cycles: int) -> tuple[list[Result], Client]:
    """One campaign of each spec shape, one after another."""
    client = Client(url, "warm-up", seed)
    return [client.campaign(ir, index, seed, cycles) for index in range(SHAPES)], client


def _setup(ctx: Context, sizes: Sizes, ir: dict, seeds: list[int], directory: Path):
    start = clock()
    daemon = Daemon(ctx, directory)
    results, client = warm_up(daemon.url, ir, seeds[0], sizes.cycles)
    return daemon, results, client, clock() - start


def _stop(ctx: Context, daemon: Daemon) -> None:
    code = daemon.stop()
    ctx.ledger.record(code == 0, f"repro serve drained and exited ({code})")


def _account(ctx: Context, results: list[Result], clients: list[Client]) -> None:
    for r in results:
        ctx.ledger.record(
            r.ok, f"serve campaign {r.design}/{r.backend}/min={r.minimize}: "
                  f"{r.error or r.status}",
        )
    for client in clients:
        for _ in range(client.absorbed):
            ctx.ledger.record(False, f"{client.tenant}: 429/503 retried by ServiceClient")
        for _ in range(client.http_errors):
            ctx.ledger.record(False, f"{client.tenant}: HTTP error status")


def _check_fallback(ctx: Context, url: str) -> dict:
    from repro.runtime.client import ServiceClient
    from repro.runtime.telemetry import parse_prometheus

    parsed = parse_prometheus(ServiceClient(url).metrics_text())
    fallbacks = prom_sum(parsed, "repro_backend_fallback_total")
    ctx.ledger.check(
        fallbacks == 0, "no campaign's c backend fell back to the treadle JIT"
    )
    return parsed


def _check_reports(ctx: Context, ir: dict, results: list[Result], cycles: int) -> None:
    """Every report equals ``repro simulate --random-inputs`` (computed once)."""
    from repro.coverage import counts_from_json

    work = ctx.work / "serve-refs"
    work.mkdir(parents=True, exist_ok=True)
    instrumented = {}
    for design in DESIGNS:
        raw = work / f"{design}.fir"
        raw.write_text(ir[design])
        inst = work / f"{design}.inst.fir"
        argv = ["instrument", str(raw), "-o", str(inst)]
        for name in METRICS:
            argv += ["-m", name]
        done = cli(argv)
        ctx.ledger.record(done.code == 0, f"repro instrument {design}")
        instrumented[design] = inst
    references: dict[tuple, Optional[dict]] = {}
    for r in results:
        if not r.ok:
            continue
        key = (r.design, r.seed, r.minimize)
        if key not in references:
            counts = work / f"ref-{r.design}-{r.seed}-{int(r.minimize)}.json"
            argv = [
                "simulate", str(instrumented[r.design]), "--random-inputs",
                "--seed", str(r.seed), "--cycles", str(cycles),
                "--counts", str(counts), "--model-cache-dir", str(work / "cache"),
            ]
            if r.minimize:
                argv.append("--min-instrument")
            done = cli(argv)
            ctx.ledger.record(done.code == 0, f"reference repro simulate {key}")
            references[key] = (
                counts_from_json(counts.read_text()) if done.code == 0 else None
            )
        expected = references[key]
        if expected is not None:
            ctx.ledger.check(
                r.counts == expected,
                f"/report of {r.design}/{r.backend}/min={r.minimize}/seed={r.seed} "
                "equals repro simulate --random-inputs",
            )


def _by_shape(results: list[Result]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in results:
        if r.ok:
            out.setdefault(f"{r.design}/{r.backend}/min={int(r.minimize)}", []).append(r.latency_s)
    return out


def run(ctx: Context) -> dict:
    """Untraced run: the end-to-end metrics."""
    sizes = Sizes(ctx)
    ir = _design_ir()
    seeds = _seeds(ctx.seed)
    # wall times, not scaled to a reference host (see common.py)
    setups, checked = [], []
    daemon = None
    try:
        for rep in range(sizes.setup_reps):
            if daemon is not None:
                _stop(ctx, daemon)
            daemon, results, client, seconds = _setup(
                ctx, sizes, ir, seeds, ctx.work / f"serve-setup{rep}"
            )
            setups.append(seconds)
            _account(ctx, results, [client])
            checked.extend(results)
            log(f"serve set-up {rep}: {seconds:.2f}s")
        traffic = closed_loop(daemon.url, ir, seeds, sizes.cycles, ctx.seconds, ctx.seed)
        _account(ctx, traffic.results, traffic.clients)
        checked.extend(traffic.results)
        _check_fallback(ctx, daemon.url)
    finally:
        if daemon is not None:
            _stop(ctx, daemon)
    _check_reports(ctx, ir, checked, sizes.cycles)
    latencies = [r.latency_s for r in traffic.results if r.ok]
    log(f"serve: {len(latencies)} campaigns; latencies by shape "
        + json.dumps(_by_shape(traffic.results)))
    ctx.inputs["serve_seeds"] = seeds
    ctx.inputs["serve_campaigns"] = len(latencies)
    if not latencies:
        return {}
    return {
        "setup_s": metric(median(setups), "s"),
        "throughput_per_s": metric(traffic.campaigns_per_s, "1/s"),
        # the mean, not the median: the spec shapes' latencies form two
        # clusters and the median jumps between them from run to run
        "latency_s": metric(sum(latencies) / len(latencies), "s"),
    }


# -- traced run: per-layer metrics ---------------------------------------------


def layers(ctx: Context, tracelog) -> dict:
    """Traced run: per-phase client timings and the daemon's own /metrics.

    ``repro serve`` has no tracing to switch on (its telemetry is always
    on and ``/metrics`` reads it), so one window gives every row and the
    workload has no ``bench.trace_overhead`` row.
    """
    from repro.runtime.client import ServiceClient
    from repro.runtime.telemetry import parse_prometheus

    sizes = Sizes(ctx)
    ir = _design_ir()
    seeds = _seeds(ctx.seed)
    daemon = None
    try:
        with tracelog.span("bench:serve-setup"):
            daemon, warm, client, _ = _setup(
                ctx, sizes, ir, seeds, ctx.work / "serve-layers"
            )
        _account(ctx, warm, [client])
        before = parse_prometheus(ServiceClient(daemon.url).metrics_text())
        with tracelog.span("bench:serve-window"):
            traffic = closed_loop(daemon.url, ir, seeds, sizes.cycles, ctx.seconds,
                                  ctx.seed)
        _account(ctx, traffic.results, traffic.clients)
        after = _check_fallback(ctx, daemon.url)
    finally:
        if daemon is not None:
            _stop(ctx, daemon)
    done = [r for r in traffic.results if r.ok]
    n = len(done)

    def delta(name: str, series: str = "value") -> float:
        return prom_sum(after, name, series) - prom_sum(before, name, series)

    attempts = delta("repro_attempt_duration_seconds", "count")
    attempt_mean = delta("repro_attempt_duration_seconds", "sum") / attempts if attempts else 0.0
    latencies = [r.latency_s for r in done]
    mean_latency = sum(latencies) / n
    hits = delta("repro_model_cache_hits_total")
    misses = delta("repro_model_cache_misses_total")
    return {
        "serve_latency_p50_s": metric(median(latencies), "s"),
        "serve_latency_p90_s": metric(p90(latencies), "s"),
        "serve_campaigns_per_s": metric(traffic.campaigns_per_s, "1/s"),
        "runtime.service.submit_s": metric(median(r.submit_s for r in done), "s"),
        "runtime.service.report_s": metric(median(r.report_s for r in done), "s"),
        "runtime.executor.attempt_mean_s": metric(attempt_mean, "s"),
        "runtime.service.outside_attempt_share": metric(
            1.0 - attempt_mean / mean_latency, "ratio"
        ),
        "runtime.service.passes_per_campaign_s": metric(
            delta("repro_pass_duration_seconds", "sum") / n, "s"
        ),
        "runtime.journal.appends_per_campaign": metric(
            delta("repro_serve_journal_appends_total") / n, "count"
        ),
        "runtime.checkpoint.writes_per_campaign": metric(
            delta("repro_checkpoint_writes_total") / n, "count"
        ),
        "runtime.service.polls_per_campaign": metric(
            sum(r.polls for r in done) / n, "count"
        ),
        "backends.modelcache.hit_ratio": metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio"
        ),
    }
