"""Workload ``fuzz-i2c``: the ``repro fuzz`` path on the I2C peripheral.

The same calls ``repro fuzz I2cPeripheral.fir -m line -m mux_toggle
--feedback line --max-cycles 96`` makes (parse, ``instrument``,
``FuzzHarness``, ``metric_filter``, ``AflFuzzer.run``), driven with a
fixed execution budget per campaign, as a scalar leg (the default
verilator backend) and a ``--lanes 64`` swarm leg.  Inputs are short
(about 35 cycles), so per-execution fork, reset, decode, cover readout,
feedback and lane packing carry a large share of the time: a change to
the settle loop moves this workload less than ``simulate``; a change to
fork, cover readout or lane packing moves it more.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass

from .common import Context, clock, geomean, log, median, metric, on_reference_host

METRICS = ["line", "mux_toggle"]
FEEDBACK = "line"
MAX_CYCLES = 96
LEGS = {"scalar": 1, "lanes64": 64}


class Sizes:
    def __init__(self, ctx: Context) -> None:
        smoke = ctx.smoke
        # A campaign's cost depends on where its mutation seed steers the
        # queue, so a run averages many short campaigns, one per derived
        # fuzz seed, each repeated so a host slow phase can be outvoted.
        self.budget = {"scalar": 32, "lanes64": 64} if smoke else {
            "scalar": 128, "lanes64": 256,
        }
        self.fuzz_seeds = 2 if smoke else 16
        self.setup_reps = 1 if smoke else 3
        self.min_rounds = 2 if smoke else 3


def _fuzz_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(f"fuzz:{seed}")
    return [rng.getrandbits(31) for _ in range(count)]


@dataclass
class Campaign:
    seconds: float
    executions: int
    covered: int
    queue_size: int
    cycles: int

    @property
    def signature(self) -> tuple:
        return (self.executions, self.covered, self.queue_size, self.cycles)


class Setup:
    """What ``repro fuzz`` builds before its loop: one harness per leg."""

    def __init__(self, ctx: Context, directory) -> None:
        from repro.coverage import instrument
        from repro.designs import I2cPeripheral
        from repro.fuzz import FuzzHarness, metric_filter
        from repro.hcl import elaborate
        from repro.ir import parse_circuit, print_circuit

        start = clock()
        path = directory / "i2c.fir"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(print_circuit(elaborate(I2cPeripheral())))
        circuit = parse_circuit(path.read_text())
        self.state, db = instrument(circuit, metrics=METRICS)
        self.harness = {
            leg: FuzzHarness(self.state, max_cycles=MAX_CYCLES, lanes=lanes)
            for leg, lanes in LEGS.items()
        }
        self.feedback = metric_filter(db, self.state, FEEDBACK)
        self.seconds = clock() - start

    def campaign(self, leg: str, budget: int, seed: int,
                 execute=None, execute_batch=None, feedback=None) -> Campaign:
        """One ``AflFuzzer.run`` over this leg's harness, timed."""
        from repro.fuzz import AflFuzzer

        harness = self.harness[leg]
        fuzzer = AflFuzzer(
            execute or harness.execute,
            feedback=feedback or self.feedback,
            seed=seed,
            execute_batch=execute_batch or harness.execute_batch,
        )
        cycles_before = harness.cycles_executed
        start = clock()
        stats = fuzzer.run(budget, batch=harness.lanes)
        seconds = clock() - start
        return Campaign(
            seconds=seconds,
            executions=stats.executions,
            covered=len(stats.covered),
            queue_size=stats.queue_size,
            cycles=harness.cycles_executed - cycles_before,
        )


def _setups(ctx: Context, sizes: Sizes) -> tuple[Setup, list[float]]:
    from repro.backends import set_default_cache

    # every harness compiles into its own fresh in-memory model cache
    set_default_cache(None)
    setups = []
    for rep in range(sizes.setup_reps):
        setup, scale = on_reference_host(lambda: Setup(ctx, ctx.work / f"fuzz-setup{rep}"))
        setups.append(setup.seconds * scale)
        log(f"fuzz set-up {rep}: {setup.seconds:.2f}s wall, host scale {scale:.3f}")
    return setup, setups


def run(ctx: Context) -> dict:
    """Untraced run: the end-to-end metrics."""
    sizes = Sizes(ctx)
    seeds = _fuzz_seeds(ctx.seed, sizes.fuzz_seeds)
    setup, setups = _setups(ctx, sizes)
    # campaigns[leg][fuzz seed] = that campaign's repetitions
    campaigns = {leg: {seed: [] for seed in seeds} for leg in LEGS}
    deadline = clock() + ctx.seconds
    rounds = 0
    while rounds < sizes.min_rounds or clock() < deadline:
        for seed in seeds:
            for leg in LEGS:
                try:
                    campaign, scale = on_reference_host(
                        lambda: setup.campaign(leg, sizes.budget[leg], seed)
                    )
                except Exception as exc:  # a crashing campaign is a failed operation
                    ctx.ledger.record(False, f"fuzz campaign {leg}: {exc!r}")
                    continue
                campaign.seconds *= scale  # reference-host seconds
                ok = campaign.executions == sizes.budget[leg]
                ctx.ledger.record(ok, f"fuzz campaign {leg} ran its execution budget")
                if ok:
                    campaigns[leg][seed].append(campaign)
        rounds += 1
    log(f"fuzz: {rounds} rounds of {len(seeds)} fuzz seeds")
    _check_repeats(ctx, campaigns)
    _record_inputs(ctx, seeds, campaigns)
    legs = [leg for leg in LEGS if all(campaigns[leg].values())]
    if not legs:
        return {}
    return {
        "setup_s": metric(median(setups), "s"),
        "throughput_per_s": metric(
            geomean(_execs_per_s(campaigns[leg]) for leg in legs), "1/s"
        ),
        "latency_s": metric(
            geomean(median(_typical(runs) for runs in campaigns[leg].values())
                    for leg in legs),
            "s",
        ),
    }


def _typical(runs: list[Campaign]) -> float:
    """A campaign's time: the median of its repetitions."""
    return median(c.seconds for c in runs)


def _execs_per_s(by_seed: dict) -> float:
    """Executions over the summed typical time of every fuzz seed's campaign."""
    executions = sum(runs[0].executions for runs in by_seed.values())
    return executions / sum(_typical(runs) for runs in by_seed.values())


def _check_repeats(ctx: Context, campaigns: dict) -> None:
    for leg, by_seed in campaigns.items():
        ctx.ledger.check(
            all(len({c.signature for c in runs}) <= 1 for runs in by_seed.values()),
            f"fuzz {leg}: covered, queue_size and cycles_per_exec repeat "
            "exactly per fuzz seed",
        )


def _record_inputs(ctx: Context, seeds: list[int], campaigns: dict) -> None:
    ctx.inputs["fuzz_seeds"] = seeds
    for leg, by_seed in campaigns.items():
        firsts = [runs[0] for runs in by_seed.values() if runs]
        if firsts:
            ctx.inputs[f"{leg}.covered"] = [c.covered for c in firsts]
            ctx.inputs[f"{leg}.queue_size"] = [c.queue_size for c in firsts]
            ctx.inputs[f"{leg}.cycles_per_exec"] = (
                sum(c.cycles for c in firsts) / sum(c.executions for c in firsts)
            )


# -- traced run: per-layer metrics ---------------------------------------------


class Stopwatch:
    """Total time and call count of the calls it wraps."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.cycles = 0

    def wrap(self, fn, count_cycles: bool = False):
        def timed(*args, **kwargs):
            if count_cycles:
                self.cycles += args[1] if len(args) > 1 else kwargs.get("cycles", 1)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - start
                self.calls += 1

        return timed


@contextmanager
def _patched(cls, name: str, watch: Stopwatch, count_cycles: bool = False):
    """Wrap the method ``cls.name`` with ``watch`` for one block."""
    original = cls.__dict__[name]
    setattr(cls, name, watch.wrap(original, count_cycles))
    try:
        yield
    finally:
        setattr(cls, name, original)


def layers(ctx: Context, tracelog) -> dict:
    """Traced run: execute/feedback/loop shares, fork/readout, lane occupancy."""
    from repro.backends import SwarmSimulation, VerilatorSimulation, set_default_cache

    from .common import telemetry_on

    sizes = Sizes(ctx)
    seeds = _fuzz_seeds(ctx.seed, sizes.fuzz_seeds)
    set_default_cache(None)
    with tracelog.span("bench:fuzz-setup"):
        setup = Setup(ctx, ctx.work / "fuzz-layers")
    out: dict[str, dict] = {}
    untraced_total = traced_total = 0.0
    for leg, lanes in LEGS.items():
        budget = sizes.budget[leg]
        harness = setup.harness[leg]
        plain = [setup.campaign(leg, budget, seed) for seed in seeds]
        execute, feedback = Stopwatch(), Stopwatch()
        fork, readout, steps = Stopwatch(), Stopwatch(), Stopwatch()
        with telemetry_on(), \
                _patched(VerilatorSimulation, "fork", fork), \
                _patched(VerilatorSimulation, "cover_counts", readout), \
                _patched(SwarmSimulation, "fork", fork), \
                _patched(SwarmSimulation, "step", steps, count_cycles=True), \
                tracelog.span("bench:fuzz-campaigns", leg=leg):
            traced = [
                setup.campaign(
                    leg, budget, seed,
                    execute=execute.wrap(harness.execute),
                    execute_batch=execute.wrap(harness.execute_batch),
                    feedback=feedback.wrap(setup.feedback),
                )
                for seed in seeds
            ]
        tracelog.drain()
        ctx.ledger.check(
            [c.signature for c in plain] == [c.signature for c in traced],
            f"fuzz {leg}: traced and untraced campaigns agree exactly",
        )
        plain_s = sum(c.seconds for c in plain)
        wall = sum(c.seconds for c in traced)
        untraced_total += plain_s
        traced_total += wall
        executions = sum(c.executions for c in plain)
        out[f"fuzz_execs_per_s.{leg}"] = metric(executions / plain_s, "1/s")
        out[f"fuzz.execute_share.{leg}"] = metric(execute.seconds / wall, "ratio")
        out[f"fuzz.feedback_share.{leg}"] = metric(feedback.seconds / wall, "ratio")
        out[f"fuzz.loop_share.{leg}"] = metric(
            1.0 - (execute.seconds + feedback.seconds) / wall, "ratio"
        )
        # exact counts, summed over the run's fuzz seeds
        out[f"fuzz.cycles_per_exec.{leg}"] = metric(
            sum(c.cycles for c in plain) / executions, "count"
        )
        out[f"fuzz.covered.{leg}"] = metric(sum(c.covered for c in plain), "count")
        out[f"fuzz.queue_size.{leg}"] = metric(sum(c.queue_size for c in plain), "count")
        if lanes == 1:
            out["backends.verilator.fork_s"] = metric(fork.seconds / max(fork.calls, 1), "s")
            out["backends.verilator.cover_counts_s"] = metric(
                readout.seconds / max(readout.calls, 1), "s"
            )
        else:
            live = sum(c.cycles for c in traced)
            packed = steps.cycles - harness.reset_cycles * fork.calls
            out[f"fuzz.{leg}.lane_occupancy"] = metric(
                live / (lanes * packed) if packed else 0.0, "ratio"
            )
    out["bench.trace_overhead.fuzz-i2c"] = metric(traced_total / untraced_total - 1.0, "ratio")
    return out
