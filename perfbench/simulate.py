"""Workload ``simulate-riscv-mini``: ``repro simulate`` on every backend.

riscv-mini, the largest Table-2 design, is elaborated, written as IR and
instrumented with all five metrics through ``repro instrument``.  Then
``repro simulate --random-inputs`` runs once per backend per round, with
the model cache warm; the cold path (elaborate, instrument, compile on an
empty model cache) is the set-up.

Every call pays about 0.3 s that does not grow with cycles (parsing the
instrumented IR, the model-cache key and load, the executor, writing the
counts), so each backend simulates enough cycles for its call to last
about a second and the per-cycle loop (stimulus, settle, cover counters)
to be most of it; the traced run reports the rest as
``cli.non_sim_share.<backend>``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from .common import (
    Context,
    clock,
    cli,
    fallback_warnings,
    geomean,
    log,
    median,
    metric,
    on_reference_host,
    span_seconds,
    telemetry_on,
)

METRICS = ["line", "toggle", "fsm", "ready_valid", "mux_toggle"]
SCALAR = ["verilator", "treadle", "essent", "c"]
BACKENDS = SCALAR + ["swarm"]
LANES = 64
#: instrument passes reported per layer (span ``pass:<name>[Pass]``)
PASSES = [
    "CheckForms", "LineCoverage", "ReadyValidCoverage", "ExpandWhens",
    "ConstProp", "DeadCodeElimination", "FsmCoverage", "MuxToggleCoverage",
    "ToggleCoverage", "MinimizeCovers",
]
#: cycles per timed call: about one second of simulation on a 2-vCPU
#: x86-64 host (c runs near 100k cycles/s, the Python backends near 6k,
#: swarm near 300 steps/s of 64 lanes), three times the per-call overhead
CYCLES = {"verilator": 6000, "treadle": 5000, "essent": 6000, "c": 80000, "swarm": 300}
SMOKE_CYCLES = {"verilator": 200, "treadle": 200, "essent": 200, "c": 2000, "swarm": 10}
#: cycles of the recorded §5.1 input trace replayed per layer measurement
REPLAY_CYCLES = 2500


class Sizes:
    def __init__(self, ctx: Context) -> None:
        smoke = ctx.smoke
        self.cycles = SMOKE_CYCLES if smoke else CYCLES
        #: the common length of the cross-backend bit-identity check
        self.check_cycles = 200 if smoke else 1000
        self.lanes = 8 if smoke else LANES
        self.setup_reps = 1 if smoke else 3
        self.min_rounds = 1 if smoke else 3
        self.replay_cycles = 200 if smoke else REPLAY_CYCLES
        self.swarm_replay_cycles = 20 if smoke else 200
        self.layer_reps = 1 if smoke else 3
        self.replay_min_s = 0.0 if smoke else 0.3


def _cli_seed(seed: int) -> int:
    return random.Random(f"simulate:{seed}").getrandbits(31)


def _write_design(directory: Path) -> Path:
    """Elaborate riscv-mini and write it as IR."""
    from repro.designs import RiscvMini
    from repro.hcl import elaborate
    from repro.ir import print_circuit

    path = directory / "riscv_mini.fir"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(print_circuit(elaborate(RiscvMini())))
    return path


def _instrument_argv(source: Path, out: Path, minimize: bool = False) -> list[str]:
    argv = ["instrument", str(source), "-o", str(out)]
    for name in METRICS:
        argv += ["-m", name]
    if minimize:
        argv.append("--min-instrument")
    return argv


def _simulate_argv(inst: Path, backend: str, cycles: int, seed: int,
                   cache: Path, counts: Path, lanes: int) -> list[str]:
    argv = [
        "simulate", str(inst), "--backend", backend, "--cycles", str(cycles),
        "--random-inputs", "--seed", str(seed),
        "--model-cache-dir", str(cache), "--counts", str(counts),
    ]
    if backend == "swarm":
        argv += ["--lanes", str(lanes)]
    return argv


def _call(ctx: Context, argv: list[str], what: str):
    result = cli(argv)
    ok = result.code == 0
    if ok and "--backend" in argv and argv[argv.index("--backend") + 1] == "c":
        # no silent fallback: a C leg that degraded to the JIT measures
        # the JIT, so it is a failed operation
        fallback = fallback_warnings(result)
        if fallback:
            ok = False
            what = f"{what}: {fallback[0]}"
    ctx.ledger.record(ok, f"{what} (exit {result.code}) {result.stderr.strip()[-300:]}")
    return result, ok


def cold_setup(ctx: Context, sizes: Sizes, directory: Path) -> tuple[Path, Path, float]:
    """Elaborate, write IR, instrument and compile all five backends cold."""
    cache = directory / "model-cache"
    start = clock()
    source = _write_design(directory)
    inst = directory / "riscv_mini.inst.fir"
    _call(ctx, _instrument_argv(source, inst), "repro instrument riscv-mini")
    for backend in BACKENDS:
        _call(
            ctx,
            _simulate_argv(inst, backend, 1, 0, cache,
                           directory / f"warm-{backend}.json", sizes.lanes),
            f"cold repro simulate --backend {backend}",
        )
    return inst, cache, clock() - start


def _check_swarm(ctx: Context, sizes: Sizes, inst: Path, cache: Path,
                 seed: int, swarm_counts: str) -> None:
    """Swarm merged counts == merge_counts over the lanes' scalar c runs."""
    from repro.coverage import counts_from_json, merge_counts

    merged = None
    for lane in range(sizes.lanes):
        counts = ctx.work / "swarm-ref.json"
        _, ok = _call(
            ctx,
            _simulate_argv(inst, "c", sizes.cycles["swarm"], seed + lane, cache,
                           counts, 1),
            f"reference repro simulate --backend c --seed {seed + lane}",
        )
        if not ok:
            return
        lane_counts = counts_from_json(counts.read_text(), source=f"lane {lane}")
        merged = lane_counts if merged is None else merge_counts(merged, lane_counts)
    ctx.ledger.check(
        merged == counts_from_json(swarm_counts, source="swarm"),
        f"swarm --lanes {sizes.lanes} counts equal merge_counts over "
        f"{sizes.lanes} scalar c runs",
    )


def run(ctx: Context) -> dict:
    """Untraced run: the end-to-end metrics."""
    sizes = Sizes(ctx)
    seed = _cli_seed(ctx.seed)
    # times in reference-host seconds (see common.on_reference_host)
    setups = []
    for rep in range(sizes.setup_reps):
        (inst, cache, seconds), scale = on_reference_host(
            lambda: cold_setup(ctx, sizes, ctx.work / f"setup{rep}")
        )
        setups.append(seconds * scale)
        log(f"simulate set-up {rep}: {seconds:.2f}s wall, host scale {scale:.3f}")
    times: dict[str, list[float]] = {b: [] for b in BACKENDS}
    walls: dict[str, list[float]] = {b: [] for b in BACKENDS}
    outputs: dict[str, set[str]] = {b: set() for b in BACKENDS}
    deadline = clock() + ctx.seconds
    rounds = 0
    while rounds < sizes.min_rounds or clock() < deadline:
        for backend in BACKENDS:
            counts = ctx.work / f"counts-{backend}-{rounds}.json"
            (result, ok), scale = on_reference_host(lambda: _call(
                ctx,
                _simulate_argv(inst, backend, sizes.cycles[backend], seed, cache,
                               counts, sizes.lanes),
                f"repro simulate --backend {backend}",
            ))
            if ok:
                times[backend].append(result.seconds * scale)
                walls[backend].append(result.seconds)
                outputs[backend].add(counts.read_text())
        rounds += 1
    log(f"simulate: {rounds} rounds; wall seconds per call {json.dumps(walls)}")
    for backend in BACKENDS:
        ctx.ledger.check(
            len(outputs[backend]) == 1,
            f"{backend}: every repetition writes the same counts file",
        )
    # the timed calls differ in length per backend, so the cross-backend
    # check runs every scalar backend once more on one common length
    scalar = set()
    for backend in SCALAR:
        counts = ctx.work / f"check-{backend}.json"
        _, ok = _call(
            ctx,
            _simulate_argv(inst, backend, sizes.check_cycles, seed, cache, counts, 1),
            f"check repro simulate --backend {backend}",
        )
        if ok:
            scalar.add(counts.read_text())
    ctx.ledger.check(
        len(scalar) == 1,
        "counts files of verilator, treadle, essent and c are byte-identical",
    )
    if outputs["swarm"]:
        _check_swarm(ctx, sizes, inst, cache, seed, next(iter(outputs["swarm"])))
    ctx.inputs.update(
        cli_seed=seed,
        counts_sha256=(
            hashlib.sha256(next(iter(scalar)).encode()).hexdigest() if scalar else ""
        ),
    )
    return _end_to_end(setups, times, sizes)


def _work(backend: str, sizes: Sizes) -> int:
    """Cycles (lane-cycles for swarm) one timed call simulates."""
    lanes = sizes.lanes if backend == "swarm" else 1
    return sizes.cycles[backend] * lanes


def _end_to_end(setups: list[float], times: dict, sizes: Sizes) -> dict:
    legs = [b for b in BACKENDS if times[b]]
    if not legs:
        return {}
    return {
        "setup_s": metric(median(setups), "s"),
        "throughput_per_s": metric(
            geomean(_work(b, sizes) / median(times[b]) for b in legs), "1/s"
        ),
        "latency_s": metric(geomean(median(times[b]) for b in legs), "s"),
    }


# -- traced run: per-layer metrics ---------------------------------------------


def _drive_program(seed: int):
    """The §5.1 testbench: reset, load a seeded loop program, let it run."""
    from repro.designs.riscv_mini import assemble

    rng = random.Random(f"program:{seed}")
    program = assemble(
        f"""
        addi x1, x0, {rng.randrange(0, 50)}
        addi x2, x0, {rng.randrange(1, 50)}
        addi x3, x0, {rng.randrange(20, 60)}
    loop:
        add  x4, x1, x2
        mv   x1, x2
        mv   x2, x4
        sw   x4, 0x80(x0)
        lw   x5, 0x80(x0)
        addi x3, x3, -1
        bne  x3, x0, loop
        ebreak
        """
    )

    def drive(sim, cycle: int) -> None:
        if cycle < 2:
            sim.poke("reset", 1)
            return
        sim.poke("reset", 0)
        index = cycle - 2
        if index < len(program):
            sim.poke("init_en", 1)
            sim.poke("init_addr", index)
            sim.poke("init_data", program[index])
        else:
            sim.poke("init_en", 0)

    return drive


def _record_replay(ctx: Context, circuit, cycles: int):
    from repro.backends import VerilatorBackend
    from repro.vcd import InputReplay
    from repro.vcd.replay import record_inputs

    widths = {"reset": 1, "init_en": 1, "init_addr": 10, "init_data": 32}
    sim = VerilatorBackend().compile(circuit)
    text = record_inputs(sim, widths, _drive_program(ctx.seed), cycles)
    return InputReplay(text)


def _backend(name: str, lanes: int):
    from repro.backends import BACKENDS as REGISTRY

    return REGISTRY[name](lanes=lanes) if name == "swarm" else REGISTRY[name]()


def _with_cache(directory: Path, fn):
    """Run ``fn`` with a fresh ModelCache over ``directory`` as the default."""
    from repro.backends import ModelCache, set_default_cache

    previous = set_default_cache(ModelCache(directory))
    try:
        return fn()
    finally:
        set_default_cache(previous)


def _time_replay(sizes: Sizes, compile_sim, replay, cycles: int) -> float:
    """Median seconds of replaying ``cycles`` recorded cycles on fresh sims."""
    samples: list[float] = []
    while len(samples) < sizes.layer_reps or (
        sum(samples) < sizes.replay_min_s and len(samples) < 50
    ):
        sim = compile_sim()
        start = clock()
        replay.run(sim, cycles)
        samples.append(clock() - start)
    return median(samples)


def layers(ctx: Context, tracelog) -> dict:
    """Traced run: elaborate/IR/pass/instrument/compile/replay/CLI layers."""
    sizes = Sizes(ctx)
    work = ctx.work / "layers-simulate"
    work.mkdir(parents=True, exist_ok=True)
    out: dict[str, dict] = {}
    circuit, source, inst, inst_circuit = _frontend_layers(ctx, sizes, tracelog, work, out)
    _compile_layers(ctx, sizes, tracelog, work, inst_circuit, out)
    steps_per_s = _replay_layers(ctx, sizes, tracelog, work, circuit, source,
                                 inst_circuit, out)
    _cli_layers(ctx, sizes, tracelog, work, inst, steps_per_s, out)
    return out


def _frontend_layers(ctx, sizes, tracelog, work, out):
    """hcl, ir, passes and coverage: elaborate, print/parse, instrument."""
    from repro.designs import RiscvMini
    from repro.hcl import elaborate
    from repro.ir import parse_circuit, print_circuit
    from repro.runtime.telemetry import obs

    elaborations = []
    for _ in range(sizes.layer_reps):
        with tracelog.span("bench:elaborate", design="RiscvMini"):
            start = clock()
            circuit = elaborate(RiscvMini())
            elaborations.append(clock() - start)
    source = work / "riscv_mini.fir"
    source.write_text(print_circuit(circuit))

    # the minimizing pipeline runs every pass the plain one does, plus
    # MinimizeCovers; its counters give the elided share
    pass_s: dict[str, list[float]] = {p: [] for p in PASSES}
    instrument_s = []
    for _ in range(sizes.layer_reps):
        tracelog.drain()
        obs.metrics.clear()
        with telemetry_on(), tracelog.span("bench:repro-instrument", minimize=True):
            result = cli(_instrument_argv(source, work / "min.fir", minimize=True))
        ctx.ledger.record(result.code == 0, "traced repro instrument --min-instrument")
        events = tracelog.drain()
        for name in PASSES:
            pass_s[name].append(sum(span_seconds(events, f"pass:{name}"))
                                + sum(span_seconds(events, f"pass:{name}Pass")))
        instrument_s.append(sum(span_seconds(events, "instrument")))
    snapshot = obs.metrics.snapshot()["metrics"]
    covers = _snapshot_total(snapshot, "repro_instrument_covers_total")
    elided = _snapshot_total(snapshot, "repro_instrument_covers_elided_total")

    inst = work / "riscv_mini.inst.fir"
    result = cli(_instrument_argv(source, inst))
    ctx.ledger.record(result.code == 0, "repro instrument riscv-mini")
    inst_text = inst.read_text()
    prints, parses = [], []
    for _ in range(sizes.layer_reps):
        start = clock()
        print_circuit(circuit)
        prints.append(clock() - start)
        start = clock()
        inst_circuit = parse_circuit(inst_text)
        parses.append(clock() - start)
    out["hcl.elaborate_s"] = metric(median(elaborations), "s")
    out["ir.print_s"] = metric(median(prints), "s")
    out["ir.parse_s"] = metric(median(parses), "s")
    for name in PASSES:
        out[f"passes.{name}_s"] = metric(median(pass_s[name]), "s")
    out["coverage.instrument_s"] = metric(median(instrument_s), "s")
    out["coverage.covers"] = metric(covers, "count")
    out["coverage.covers_elided_ratio"] = metric(elided / covers if covers else 0.0, "ratio")
    return circuit, source, inst, inst_circuit


def _compile_layers(ctx, sizes, tracelog, work, inst_circuit, out) -> None:
    """backends: cold compiles on an empty model cache, then warm hits."""
    cache = work / "cache-inst"
    tracelog.drain()
    for backend in BACKENDS:
        with telemetry_on(), tracelog.span("bench:compile-cold", backend=backend):
            start = clock()
            _checked_compile(ctx, backend, sizes, cache, inst_circuit)
            out[f"backends.{backend}.compile_cold_s"] = metric(clock() - start, "s")
        if backend == "c":
            out["backends.c.cc_build_s"] = metric(
                sum(span_seconds(tracelog.drain(), "cc-build")), "s"
            )
    for backend in BACKENDS:
        warm = []
        for _ in range(sizes.layer_reps):
            with tracelog.span("bench:compile-warm", backend=backend):
                start = clock()
                _checked_compile(ctx, backend, sizes, cache, inst_circuit)
                warm.append(clock() - start)
        out[f"backends.{backend}.compile_warm_s"] = metric(median(warm), "s")


def _replay_layers(ctx, sizes, tracelog, work, circuit, source, inst_circuit, out) -> dict:
    """The hot loop alone: replay the recorded inputs, instrumented and plain."""
    from repro.ir import parse_circuit

    plain_circuit = parse_circuit(source.read_text())
    replay = _record_replay(ctx, circuit, sizes.replay_cycles)
    steps_per_s: dict[str, float] = {}
    for backend in BACKENDS:
        swarm = backend == "swarm"
        cycles = sizes.swarm_replay_cycles if swarm else sizes.replay_cycles
        timed = {}
        for variant, cache, design in (("inst", work / "cache-inst", inst_circuit),
                                       ("plain", work / "cache-plain", plain_circuit)):
            with tracelog.span("bench:replay", backend=backend, variant=variant):
                timed[variant] = _time_replay(
                    sizes,
                    lambda: _checked_compile(ctx, backend, sizes, cache, design),
                    replay, cycles,
                )
        steps_per_s[backend] = cycles / timed["inst"]
        lanes = sizes.lanes if swarm else 1
        out[f"backends.{backend}.replay_cycles_per_s"] = metric(
            steps_per_s[backend] * lanes, "1/s"
        )
        out[f"backends.{backend}.cover_overhead"] = metric(
            timed["inst"] / timed["plain"], "ratio"
        )
    return steps_per_s


def _cli_layers(ctx, sizes, tracelog, work, inst, steps_per_s, out) -> None:
    """cli and runtime: untraced vs traced ``repro simulate`` per backend."""
    from repro.runtime.telemetry import obs

    seed = _cli_seed(ctx.seed)
    cache = work / "cache-cli"
    for backend in BACKENDS:
        _call(ctx, _simulate_argv(inst, backend, 1, 0, cache, work / "w.json", sizes.lanes),
              f"cold repro simulate --backend {backend}")
    untraced: dict[str, list[float]] = {b: [] for b in BACKENDS}
    traced: dict[str, list[float]] = {b: [] for b in BACKENDS}
    executor: dict[str, list[float]] = {"campaign": [], "merge": [], "validate": []}
    for rep in range(sizes.layer_reps):
        for backend in BACKENDS:
            argv = _simulate_argv(inst, backend, sizes.cycles[backend], seed, cache,
                                  work / f"counts-{backend}.json", sizes.lanes)
            result, ok = _call(ctx, argv, f"repro simulate --backend {backend}")
            if ok:
                untraced[backend].append(result.seconds)
            trace_file = work / f"trace-{backend}-{rep}.json"
            tracelog.drain()
            obs.metrics.clear()
            with tracelog.span("bench:repro-simulate", backend=backend):
                result, ok = _call(
                    ctx,
                    argv + ["--trace-out", str(trace_file),
                            "--metrics-out", str(work / f"metrics-{backend}.json")],
                    f"traced repro simulate --backend {backend}",
                )
            events = tracelog.drain()
            if not ok:
                continue
            traced[backend].append(result.seconds)
            try:
                loadable = isinstance(json.loads(trace_file.read_text())["traceEvents"], list)
            except (OSError, ValueError, KeyError):
                loadable = False
            ctx.ledger.check(loadable, f"--trace-out of {backend} is a loadable Chrome trace")
            if backend == "verilator":
                for name in executor:
                    executor[name].append(sum(span_seconds(events, name)))
    for backend in BACKENDS:
        if not untraced[backend]:
            continue
        call_s = median(untraced[backend])
        name = "simulate_lane_cycles_per_s" if backend == "swarm" else "simulate_cycles_per_s"
        out[f"{name}.{backend}"] = metric(_work(backend, sizes) / call_s, "1/s")
        out[f"cli.non_sim_share.{backend}"] = metric(
            1.0 - sizes.cycles[backend] / steps_per_s[backend] / call_s, "ratio"
        )
    out["runtime.executor.campaign_s"] = metric(median(executor["campaign"]), "s")
    out["runtime.merge_s"] = metric(median(executor["merge"]), "s")
    out["runtime.validate_s"] = metric(median(executor["validate"]), "s")
    legs = [b for b in BACKENDS if untraced[b] and traced[b]]
    out["bench.trace_overhead.simulate-riscv-mini"] = metric(
        sum(median(traced[b]) for b in legs) / sum(median(untraced[b]) for b in legs) - 1.0,
        "ratio",
    )


def _snapshot_total(snapshot: dict, name: str) -> float:
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    return sum(sample["value"] for sample in entry["samples"])


def _checked_compile(ctx, backend: str, sizes: Sizes, cache_dir: Path, circuit):
    """Compile through the public backend API; a C fallback is a failure."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sim = _with_cache(cache_dir, lambda: _backend(backend, sizes.lanes).compile(circuit))
    fallback = [w for w in caught if "falling back" in str(w.message)]
    if backend == "c" and fallback:
        ctx.ledger.record(False, f"c backend fell back: {fallback[0].message}")
    return sim
