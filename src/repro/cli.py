"""Command-line interface: instrument, simulate, report, emit, check.

Works on circuits in the textual IR form (see :mod:`repro.ir.printer`)::

    python -m repro check design.fir
    python -m repro verilog design.fir -o design.v
    python -m repro instrument design.fir -m line -m fsm -o instrumented.fir
    python -m repro simulate instrumented.fir --cycles 1000 --random-inputs \
        --counts counts.json
    python -m repro report instrumented.fir --counts counts.json --html out.html
    python -m repro bmc instrumented.fir --bound 20
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coverage import (
    CoverageDB,
    InstanceTree,
    apply_exclusions,
    counts_from_json,
    counts_to_json,
    fsm_report,
    instrument,
    line_report,
    merge_counts,
    ready_valid_report,
    toggle_report,
)
from .coverage.htmlreport import html_report
from .ir import parse_circuit, print_circuit
from .passes import CheckForms, CompileState, lower
from .verilog import emit_verilog

DB_SUFFIX = ".covdb.json"


def _load(path: str):
    return parse_circuit(Path(path).read_text())


def _bundled_designs() -> dict:
    """name -> elaborated circuit for every bundled example design."""
    from . import designs
    from .hcl import Module, elaborate

    out = {}
    for name in sorted(designs.__all__):
        obj = getattr(designs, name)
        if isinstance(obj, type) and issubclass(obj, Module) and obj is not Module:
            out[name] = elaborate(obj())
    return out


def _resolve_circuit(spec: str):
    """``spec`` is a ``.fir`` path or the name of a bundled design class."""
    path = Path(spec)
    if path.exists():
        return parse_circuit(path.read_text())
    from . import designs
    from .hcl import Module, elaborate

    obj = getattr(designs, spec, None)
    if isinstance(obj, type) and issubclass(obj, Module):
        return elaborate(obj())
    raise SystemExit(f"{spec}: not a circuit file and not a bundled design")


def _add_format_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json is machine-readable; lint emits SARIF)",
    )


def _emit_result(args: argparse.Namespace, text: str, json_obj) -> None:
    """The one ``--format {text,json}`` implementation lint/bmc/reachability share."""
    if args.format == "json":
        payload = json_obj() if callable(json_obj) else json_obj
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n",
               getattr(args, "output", None))
    else:
        _write(text + "\n", getattr(args, "output", None))


def _write(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_check(args: argparse.Namespace) -> int:
    circuit = _load(args.circuit)
    CheckForms().run(CompileState(circuit))
    modules = len(circuit.modules)
    print(f"OK: {circuit.main} ({modules} modules)")
    return 0


def cmd_print(args: argparse.Namespace) -> int:
    state = lower(_load(args.circuit), optimize=args.optimize,
                  flatten=args.flatten, check_passes=args.check_passes)
    _write(print_circuit(state.circuit), args.output)
    return 0


def cmd_verilog(args: argparse.Namespace) -> int:
    state = lower(_load(args.circuit), flatten=args.flatten,
                  check_passes=args.check_passes)
    _write(emit_verilog(state.circuit), args.output)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        RULES,
        Diagnostics,
        Severity,
        SuppressionIndex,
        lint_circuit,
    )

    if args.explain:
        spec = RULES.get(args.explain)
        if spec is None:
            print(f"unknown rule id {args.explain!r}; known rules:",
                  file=sys.stderr)
            for rule_id in sorted(RULES):
                print(f"  {rule_id}", file=sys.stderr)
            return 2
        print(spec.explain())
        return 0
    if not args.all_designs and not args.circuit:
        print("lint: give a circuit file/design name or --all-designs",
              file=sys.stderr)
        return 2
    if args.all_designs:
        circuits = _bundled_designs()
    else:
        circuits = {args.circuit: _resolve_circuit(args.circuit)}
    search = [Path(__file__).parent / "designs"]
    if not args.all_designs and Path(args.circuit).exists():
        search.append(Path(args.circuit).parent)
    suppressions = SuppressionIndex(search)
    combined = Diagnostics(suppressions)
    for _name, circuit in sorted(circuits.items()):
        if args.metric:
            # lint the instrumented circuit: this is how the
            # cover-redundant family surfaces the implication graph for
            # coverage covers (SARIF artifact in the minimize-smoke job)
            inst_state, _db = instrument(circuit, metrics=args.metric)
            circuit = inst_state.circuit
        combined.extend(
            lint_circuit(
                circuit,
                suppressions=suppressions,
                semantic_tier=not args.no_semantic,
            )
        )
    _emit_result(args, combined.format_text(), combined.to_sarif)
    return 1 if combined.at_least(Severity.WARNING) else 0


def cmd_reachability(args: argparse.Namespace) -> int:
    from .analysis import apply_verdicts, tiered_reachability

    circuit = _resolve_circuit(args.circuit)
    if args.metric:
        inst_state, _db = instrument(circuit, metrics=args.metric)
        circuit = inst_state.circuit
    state = lower(circuit, flatten=True)
    result = tiered_reachability(
        state, bound=args.bound, use_bmc=not args.no_bmc
    )
    _emit_result(args, result.format(), result.to_json_obj)
    if args.update_db:
        db = CoverageDB.from_json(
            Path(args.update_db).read_text(), source=args.update_db
        )
        added = apply_verdicts(db, result)
        Path(args.update_db).write_text(db.to_json())
        print(
            f"recorded {added} exclusion(s) in {args.update_db}",
            file=sys.stderr,
        )
    return 0


def cmd_instrument(args: argparse.Namespace) -> int:
    circuit = _load(args.circuit)
    state, db = instrument(circuit, metrics=args.metric or ["line"],
                           minimize=args.min_instrument)
    output = args.output or "instrumented.fir"
    Path(output).write_text(print_circuit(state.circuit))
    Path(output + DB_SUFFIX).write_text(db.to_json())
    n = sum(db.count(m) for m in db.metrics())
    summary = state.metadata.get("minimize")
    if summary is not None:
        print(
            f"wrote {output} (+{DB_SUFFIX}): {n} cover statements, "
            f"{summary.elided} elided to recipes "
            f"({summary.reduction_pct:.1f}% fewer counters)"
        )
    else:
        print(f"wrote {output} (+{DB_SUFFIX}): {n} cover statements")
    return 0


def _write_observability(args) -> None:
    """Flush the trace/metrics files a ``simulate`` run asked for."""
    from .runtime import obs

    if args.trace_out:
        obs.tracer.write(args.trace_out)
        print(f"wrote trace: {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        if args.metrics_out.endswith(".json"):
            obs.metrics.write_json(args.metrics_out)
        else:
            obs.metrics.write_prometheus(args.metrics_out)
        print(f"wrote metrics: {args.metrics_out}", file=sys.stderr)


def cmd_simulate(args: argparse.Namespace) -> int:
    from .backends import ModelCache, set_default_cache
    from .runtime import obs

    observing = bool(args.trace_out or args.metrics_out)
    if observing:
        obs.enable()
    previous_cache = None
    caching = bool(args.model_cache_dir)
    if caching:
        previous_cache = set_default_cache(ModelCache(args.model_cache_dir))
    try:
        return _simulate(args)
    finally:
        # Write the observability files on every exit path — a failed
        # campaign is exactly when you want the trace.
        if caching:
            set_default_cache(previous_cache)
        if observing:
            _write_observability(args)
            obs.disable()


def _backend(args: argparse.Namespace, name: str):
    """The backend ``name`` as configured by ``--no-jit`` and ``--lanes``."""
    from .backends import BACKENDS

    if name == "treadle" and args.no_jit:
        return BACKENDS[name](jit=False)
    if name == "swarm":
        return BACKENDS[name](lanes=args.lanes)
    return BACKENDS[name]()


def _simulate(args: argparse.Namespace) -> int:
    """Build the campaign spec and run it the way ``repro serve`` does."""
    from .runtime import BreakerBoard, Checkpointer
    from .runtime.service import CampaignSpec, execute_spec

    spec = CampaignSpec(
        tenant="",
        circuit=Path(args.circuit).read_text(),
        backend=args.backend,
        cycles=args.cycles,
        seed=args.seed,
        random_inputs=args.random_inputs,
        reset_cycles=args.reset_cycles,
        counter_width=args.counter_width,
        checkpoint_every=args.checkpoint_every,
        min_instrument=args.min_instrument,
    )
    checkpointer = None
    if args.checkpoint_every or args.resume or args.shard_dir:
        shard_dir = args.shard_dir or (args.circuit + ".shards")
        checkpointer = Checkpointer(Path(shard_dir), every=args.checkpoint_every)
    executor_options = dict(
        timeout=args.timeout,
        retries=args.retries,
        isolation=args.isolation,
        seed=args.seed,
        mem_limit_mb=args.mem_limit,
        cpu_limit_s=args.cpu_limit,
        breaker=(BreakerBoard(failure_threshold=args.breaker_threshold)
                 if args.breaker_threshold else None),
    )
    min_tag = "-min" if args.min_instrument else ""
    if args.differential:
        return _simulate_differential(
            args, spec, checkpointer, executor_options,
            f"{Path(args.circuit).stem}-s{args.seed}{min_tag}",
        )
    try:
        backend = _backend(args, args.backend)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # the lane count is part of the job id: a swarm shard of another
    # --lanes must never be resumed into this one
    tag = f"swarm{args.lanes}" if args.backend == "swarm" else args.backend
    outcome = execute_spec(
        spec,
        f"{Path(args.circuit).stem}-{tag}-s{args.seed}{min_tag}",
        checkpointer,
        backend=backend,
        resume=args.resume,
        **executor_options,
    )
    result = outcome.result
    for failure in result.failures:
        print(failure.format(), file=sys.stderr)
    if not result.quarantine.clean:
        print(result.quarantine.format(), file=sys.stderr)
    if outcome.counts is None:
        print(f"no counts recovered after {outcome.attempts} attempt(s); "
              "refusing to write counts", file=sys.stderr)
        return 1
    job = result.outcomes[0]
    lanes = f" x {args.lanes} lanes" if args.backend == "swarm" else ""
    return _write_counts(
        args, outcome.counts,
        f"simulated {job.cycles_run} cycles{lanes} ({job.status})",
    )


def _simulate_differential(args, spec, checkpointer, executor_options,
                           job_id: str) -> int:
    """``--differential``: the same prepared campaign on every listed backend."""
    from .backends import BACKENDS
    from .runtime import DifferentialRunner, Executor
    from .runtime.service import PreparedCampaign

    backends = [b.strip() for b in args.differential.split(",") if b.strip()]
    unknown = sorted(set(backends) - set(BACKENDS))
    if len(backends) < 2 or unknown:
        print(
            f"--differential needs >= 2 known backends "
            f"(unknown: {', '.join(unknown) or 'none'})",
            file=sys.stderr,
        )
        return 2
    plan = PreparedCampaign(spec)
    try:
        legs = {b: plan.make_sim(_backend(args, b)) for b in backends}
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    plan.warm(legs.values(), args.isolation)
    runner = DifferentialRunner(
        Executor(checkpointer=checkpointer, **executor_options)
    )
    diff = runner.run(
        job_id=job_id,
        make_sims=legs,
        cycles=spec.cycles,
        stimulus=plan.stimulus(),
        reset_cycles=spec.reset_cycles,
        known_names=plan.names,
        counter_width=spec.counter_width,
    )
    if not diff.agreed:
        print(diff.report.format(), file=sys.stderr)
    if not diff.quarantine.clean:
        print(diff.quarantine.format(), file=sys.stderr)
    if not diff.merged:
        print("no quorum on any cover; refusing to write counts",
              file=sys.stderr)
        return 1
    return _write_counts(
        args, plan.reconstruct(diff.merged),
        f"differential over {', '.join(backends)} "
        f"({len(diff.report.voters)} voting)",
    )


def _write_counts(args, counts, summary: str) -> int:
    """Merge with ``--merge-with``, write ``--counts``, print the summary."""
    if args.merge_with:
        counts = merge_counts(
            counts,
            counts_from_json(Path(args.merge_with).read_text(),
                             source=args.merge_with),
        )
    _write(counts_to_json(counts) + "\n", args.counts)
    covered = sum(1 for c in counts.values() if c)
    print(f"{summary}: {covered}/{len(counts)} points covered")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the coverage-as-a-service daemon (see DESIGN.md §12)."""
    import asyncio

    from .runtime.service import CoverageService, ServiceConfig

    config = ServiceConfig(
        state_dir=Path(args.state_dir),
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        max_queue=args.max_queue,
        tenant_quota=args.tenant_quota,
        journal_fsync=not args.no_journal_fsync,
        compact_every=args.compact_every,
        isolation=args.isolation,
        default_timeout=args.timeout,
        retries=args.retries,
        checkpoint_every=args.checkpoint_every,
        breaker_threshold=args.breaker_threshold,
        drain_grace=args.drain_grace,
        model_cache_dir=args.model_cache_dir,
        cluster_port=args.cluster_port,
        lease_s=args.lease_s,
        cluster_heartbeat_s=args.cluster_heartbeat_s,
        retry_after_s=args.retry_after,
        compact_max_bytes=args.compact_max_bytes,
        min_instrument=args.min_instrument,
    )
    asyncio.run(CoverageService(config).run())
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Attach a remote execution worker to a running coverage service."""
    from .runtime.cluster import ClusterWorker, WorkerConfig

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"--connect expects HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    config = WorkerConfig(
        host=host,
        port=int(port),
        slots=args.slots,
        state_dir=Path(args.state_dir) if args.state_dir else None,
        isolation=args.isolation,
        reconnect=args.reconnect,
        seed=args.seed,
        worker_id=args.worker_id,
        min_instrument=args.min_instrument,
    )
    worker = ClusterWorker(config)
    print(f"repro worker: {worker.id} connecting to {host}:{port}",
          flush=True)

    import signal as _signal

    def _stop(signum, frame):
        worker.stop()

    for sig in (_signal.SIGTERM, _signal.SIGINT):
        try:
            _signal.signal(sig, _stop)
        except (ValueError, OSError):  # non-main thread / platform quirks
            pass
    return worker.run()


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Coverage-directed fuzzing: instrument, then drive the AFL loop."""
    from .backends import BACKENDS
    from .fuzz import AflFuzzer, FuzzHarness, metric_filter

    circuit = _load(args.circuit)
    metrics = args.metric or ["line"]
    state, db = instrument(circuit, metrics=metrics)
    backend = None
    if args.backend:
        if args.backend == "swarm":
            backend = BACKENDS["swarm"](
                lanes=args.lanes if args.lanes > 1 else 64
            )
        else:
            backend = BACKENDS[args.backend]()
    try:
        harness = FuzzHarness(
            state,
            backend=backend,
            max_cycles=args.max_cycles,
            reset_cycles=args.reset_cycles,
            lanes=args.lanes,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.feedback == "none":
        feedback = None
    elif args.feedback == "all":
        feedback = lambda counts: counts  # noqa: E731 — identity filter
    else:
        if args.feedback not in metrics:
            print(
                f"--feedback {args.feedback} requires -m {args.feedback}",
                file=sys.stderr,
            )
            return 2
        feedback = metric_filter(db, state, args.feedback)
    fuzzer = AflFuzzer(
        harness.execute,
        feedback=feedback,
        seed=args.seed,
        execute_batch=harness.execute_batch,
    )
    stats = fuzzer.run(args.executions, batch=harness.lanes)
    if args.stats_out:
        payload = {
            "executions": stats.executions,
            "queue_size": stats.queue_size,
            "covered": sorted(stats.covered),
            "coverage_curve": stats.coverage_curve,
            "cycles_executed": harness.cycles_executed,
            "lanes": harness.lanes,
        }
        Path(args.stats_out).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"{stats.executions} executions "
        f"({harness.cycles_executed} design cycles, {harness.lanes} lane(s)): "
        f"{len(stats.covered)} cover points hit, queue {stats.queue_size}"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Pretty-print a metrics file written by ``simulate --metrics-out``.

    Accepts both formats the CLI writes: Prometheus text exposition
    (``.prom``) and the JSON snapshot (``.json``) — detected by content,
    not extension.
    """
    from .runtime.telemetry import MetricError, format_snapshot, parse_prometheus

    text = Path(args.metrics).read_text()
    if text.lstrip().startswith("{"):
        try:
            snapshot = json.loads(text)
        except json.JSONDecodeError as error:
            print(f"{args.metrics}: invalid JSON snapshot ({error})",
                  file=sys.stderr)
            return 1
    else:
        try:
            snapshot = parse_prometheus(text)
        except MetricError as error:
            print(f"{args.metrics}: {error}", file=sys.stderr)
            return 1
    print(format_snapshot(snapshot), end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    circuit = _load(args.circuit)
    db_path = args.db or args.circuit + DB_SUFFIX
    db = CoverageDB.from_json(Path(db_path).read_text(), source=db_path)
    counts = counts_from_json(Path(args.counts).read_text(), source=args.counts)
    # counts written by a --min-instrument run are already reconstructed;
    # this covers basis-count files produced by other tooling (no-op when
    # the DB has no recipes or the keys are already present)
    counts = db.reconstruct_counts(counts, InstanceTree(circuit))
    if args.html:
        Path(args.html).write_text(html_report(db, counts, circuit))
        print(f"wrote {args.html}")
        return 0
    counts, excluded = apply_exclusions(counts, db)
    sections = []
    if "line" in db.entries:
        sections.append(line_report(db, counts, circuit).format())
    if "toggle" in db.entries:
        sections.append(toggle_report(db, counts, circuit).format())
    if "fsm" in db.entries:
        sections.append(fsm_report(db, counts, circuit).format())
    if "ready_valid" in db.entries:
        sections.append(ready_valid_report(db, counts, circuit).format())
    if excluded:
        lines = [
            f"excluded from denominator ({len(excluded)} points):"
        ]
        for name, reason in sorted(excluded.items()):
            lines.append(f"  - {name}: {reason}")
        sections.append("\n".join(lines))
    print("\n\n".join(sections))
    return 0


def cmd_bmc(args: argparse.Namespace) -> int:
    from .backends.formal import generate_cover_traces

    state = lower(_load(args.circuit), flatten=True)
    result = generate_cover_traces(state, bound=args.bound)

    def json_obj():
        return {
            "bound": result.bound,
            "reachable": {
                n: {"cycle": result.traces[n].cycle} for n in result.reachable
            },
            "unreachable": result.unreachable,
        }

    _emit_result(args, result.format(), json_obj)
    if args.expect_all_reachable and result.unreachable:
        print(
            f"{len(result.unreachable)} cover(s) not reachable within "
            f"{args.bound} cycles:",
            file=sys.stderr,
        )
        for name in result.unreachable:
            print(f"  {name}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="simulator independent coverage toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a circuit file")
    p.add_argument("circuit")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("print", help="lower and pretty-print a circuit")
    p.add_argument("circuit")
    p.add_argument("-o", "--output")
    p.add_argument("--flatten", action="store_true")
    p.add_argument("--no-optimize", dest="optimize", action="store_false")
    p.add_argument("--check-passes", action="store_true",
                   help="re-lint after every pipeline pass; fail at the "
                        "stage that introduces a violation")
    p.set_defaults(fn=cmd_print)

    p = sub.add_parser("verilog", help="emit structural Verilog")
    p.add_argument("circuit")
    p.add_argument("-o", "--output")
    p.add_argument("--flatten", action="store_true")
    p.add_argument("--check-passes", action="store_true",
                   help="re-lint after every pipeline pass; fail at the "
                        "stage that introduces a violation")
    p.set_defaults(fn=cmd_verilog)

    p = sub.add_parser("lint", help="run the static analysis rules")
    p.add_argument("circuit", nargs="?",
                   help="a .fir file or a bundled design name (e.g. Gcd)")
    p.add_argument("--all-designs", action="store_true",
                   help="lint every bundled example design")
    p.add_argument("--no-semantic", action="store_true",
                   help="skip the abstract-interpretation tier")
    p.add_argument("-m", "--metric", action="append",
                   choices=["line", "toggle", "fsm", "ready_valid", "mux_toggle"],
                   help="instrument with these metrics before linting "
                        "(surfaces the cover-redundant implication graph)")
    p.add_argument("--explain", metavar="RULE-ID",
                   help="print a rule's catalog entry (description, "
                        "severity, example) and exit")
    p.add_argument("-o", "--output")
    _add_format_arg(p)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "reachability",
        help="tiered cover reachability: static screen, then BMC residue",
    )
    p.add_argument("circuit",
                   help="a .fir file or a bundled design name (e.g. Gcd)")
    p.add_argument("-m", "--metric", action="append",
                   choices=["line", "toggle", "fsm", "ready_valid", "mux_toggle"],
                   help="instrument with these metrics before screening")
    p.add_argument("--bound", type=int, default=20)
    p.add_argument("--no-bmc", action="store_true",
                   help="static tier only; residue stays 'unknown'")
    p.add_argument("--update-db", metavar="COVDB",
                   help="record statically-unreachable covers as exclusions "
                        "in this coverage DB")
    p.add_argument("-o", "--output")
    _add_format_arg(p)
    p.set_defaults(fn=cmd_reachability)

    p = sub.add_parser("instrument", help="add coverage instrumentation")
    p.add_argument("circuit")
    p.add_argument("-m", "--metric", action="append",
                   choices=["line", "toggle", "fsm", "ready_valid", "mux_toggle"])
    p.add_argument("--min-instrument", action="store_true",
                   help="materialize only a minimal spanning basis of "
                        "counters; elided covers get reconstruction "
                        "recipes in the coverage DB and reports rebuild "
                        "them bit-identically")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_instrument)

    p = sub.add_parser("simulate", help="run a simulation, dump cover counts")
    p.add_argument("circuit")
    p.add_argument("--backend",
                   choices=["treadle", "verilator", "essent", "c", "swarm"],
                   default="verilator")
    p.add_argument("--cycles", type=int, default=1000)
    p.add_argument("--lanes", type=int, default=64,
                   help="swarm pack width: with --backend swarm, run this "
                        "many independently-seeded stimulus lanes in one "
                        "packed simulation and merge their counts")
    p.add_argument("--no-jit", action="store_true",
                   help="run the treadle backend as the pure tree-walking "
                        "interpreter instead of its compiled fast path "
                        "(the semantics reference; ~100x slower)")
    p.add_argument("--min-instrument", action="store_true",
                   help="count only the statically minimal cover basis "
                        "(fewer counters in the backend, shards, and "
                        "checkpoint files) and reconstruct the full "
                        "counts bit-identically before writing")
    p.add_argument("--model-cache-dir", metavar="DIR",
                   help="content-addressed compiled-model cache: compiled "
                        "models are pickled here and reused across shards, "
                        "differential legs, forked workers, and future runs "
                        "of the same circuit")
    p.add_argument("--reset-cycles", type=int, default=1)
    p.add_argument("--random-inputs", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--counter-width", type=int, default=None)
    p.add_argument("--counts", help="write counts JSON here (default stdout)")
    p.add_argument("--merge-with", help="merge with an existing counts JSON")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-attempt wall-clock budget in seconds")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts after a crash/hang (with backoff)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="snapshot live counts to a shard file every K cycles")
    p.add_argument("--resume", action="store_true",
                   help="skip jobs whose shard on disk is already complete")
    p.add_argument("--shard-dir",
                   help="shard directory (default: <circuit>.shards)")
    p.add_argument("--isolation", choices=["thread", "process"],
                   default="thread",
                   help="attempt containment: 'process' runs each attempt "
                        "in a supervised forked worker that is SIGKILLed "
                        "when it hangs (thread-mode hangs leak a daemon "
                        "thread)")
    p.add_argument("--mem-limit", type=int, default=None, metavar="MB",
                   help="RLIMIT_AS cap per worker process (requires "
                        "--isolation process)")
    p.add_argument("--cpu-limit", type=int, default=None, metavar="SECONDS",
                   help="RLIMIT_CPU cap per worker process (requires "
                        "--isolation process)")
    p.add_argument("--breaker-threshold", type=int, default=0,
                   help="open a per-backend circuit breaker after this many "
                        "consecutive job failures (0 disables)")
    p.add_argument("--differential", metavar="BACKEND,BACKEND[,...]",
                   help="run the same job on each listed backend and "
                        "quorum-merge the counts; disagreeing backends are "
                        "reported and quarantined")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write a Chrome trace-event JSON of the run "
                        "(open in chrome://tracing or ui.perfetto.dev)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write campaign metrics: Prometheus text, or a "
                        "JSON snapshot if FILE ends in .json")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "fuzz",
        help="coverage-directed fuzzing: instrument, then run the "
             "AFL-style loop with cover counts as feedback (§5.4)",
    )
    p.add_argument("circuit")
    p.add_argument("-m", "--metric", action="append",
                   choices=["line", "toggle", "fsm", "ready_valid",
                            "mux_toggle"],
                   help="metric(s) to instrument before fuzzing "
                        "(default: line)")
    p.add_argument("--feedback",
                   choices=["all", "none", "line", "toggle", "fsm",
                            "ready_valid", "mux_toggle"],
                   default="all",
                   help="which metric's counts steer the search: a metric "
                        "name (must also be instrumented), 'all' counters, "
                        "or 'none' for the random-fuzzing baseline")
    p.add_argument("--executions", type=int, default=256,
                   help="fuzz-input execution budget")
    p.add_argument("--lanes", type=int, default=1,
                   help="pack this many queue entries per simulation via "
                        "the bit-parallel swarm backend (1 = scalar)")
    p.add_argument("--backend",
                   choices=["treadle", "verilator", "essent", "c", "swarm"],
                   help="execution backend (default: swarm when --lanes > "
                        "1, else verilator)")
    p.add_argument("--seed", type=int, default=0,
                   help="mutation RNG seed")
    p.add_argument("--max-cycles", type=int, default=512,
                   help="cap on decoded cycles per fuzz input")
    p.add_argument("--reset-cycles", type=int, default=1)
    p.add_argument("--stats-out", metavar="FILE",
                   help="write the coverage curve and campaign stats as "
                        "JSON")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the crash-safe coverage service daemon (WAL journal, "
             "bounded admission, per-tenant fair scheduling)",
    )
    p.add_argument("--state-dir", required=True, metavar="DIR",
                   help="journal + checkpoint-shard directory; the daemon "
                        "recovers all accepted campaigns from here on start")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 picks a free port; the bound address "
                        "is printed on stdout)")
    p.add_argument("--max-workers", type=int, default=2,
                   help="campaigns executing concurrently")
    p.add_argument("--max-queue", type=int, default=64,
                   help="bounded admission queue; a full queue rejects "
                        "submits with 429 instead of growing without bound")
    p.add_argument("--tenant-quota", type=int, default=16,
                   help="max queued+running campaigns per tenant (429 past it)")
    p.add_argument("--no-journal-fsync", action="store_true",
                   help="skip fsync on journal appends (faster; a power cut "
                        "may then lose the latest acknowledged records)")
    p.add_argument("--compact-every", type=int, default=256,
                   help="rewrite the journal as a snapshot after this many "
                        "appended records")
    p.add_argument("--isolation", choices=["thread", "process"],
                   default="thread",
                   help="attempt containment for campaign jobs; 'process' "
                        "SIGKILLs a worker that overruns its deadline")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-attempt wall-clock budget in seconds "
                        "for campaigns that set no deadline_s")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts per campaign after a crash/hang")
    p.add_argument("--checkpoint-every", type=int, default=500,
                   help="default shard checkpoint period in cycles for "
                        "campaigns that set no checkpoint_every")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive failures that open a backend's circuit "
                        "breaker; its campaigns are then deferred, not failed")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   help="seconds SIGTERM waits for running campaigns before "
                        "interrupting them at a cycle boundary")
    p.add_argument("--model-cache-dir", metavar="DIR",
                   help="content-addressed compiled-model cache shared by "
                        "all campaigns")
    p.add_argument("--cluster-port", type=int, default=None, metavar="PORT",
                   help="accept remote 'repro worker' connections on this "
                        "TCP port (0 picks a free port; omit to disable "
                        "the cluster and run purely on the local pool)")
    p.add_argument("--lease-s", type=float, default=10.0,
                   help="remote shard lease duration; a worker silent this "
                        "long is presumed dead and its shard re-dispatched "
                        "under a new fencing token")
    p.add_argument("--cluster-heartbeat-s", type=float, default=2.0,
                   help="heartbeat period workers are told to use")
    p.add_argument("--retry-after", type=float, default=1.0, metavar="S",
                   help="Retry-After hint stamped on 429/503 rejections")
    p.add_argument("--compact-max-bytes", type=int, default=4 << 20,
                   help="auto-compact the WAL journal once it grows past "
                        "this many bytes (0 disables size-based compaction)")
    p.add_argument("--min-instrument", action="store_true",
                   help="default submitted campaigns to minimal-basis cover "
                        "counting (specs may still opt out explicitly); "
                        "reported counts are reconstructed bit-identically")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="attach a remote execution worker to a 'repro serve' cluster "
             "coordinator (lease-fenced shards, streamed count deltas)",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the coordinator's cluster address (the serve "
                        "daemon prints it when --cluster-port is set)")
    p.add_argument("--slots", type=int, default=2,
                   help="campaign shards this worker runs concurrently")
    p.add_argument("--state-dir", metavar="DIR",
                   help="scratch directory for shard checkpoints "
                        "(default: a private temp dir)")
    p.add_argument("--isolation", choices=["thread", "process"],
                   default="thread",
                   help="attempt containment for shard jobs")
    p.add_argument("--reconnect", type=int, default=0, metavar="N",
                   help="reconnection attempts after losing the coordinator "
                        "(0 = exit on first loss)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for reconnect backoff jitter")
    p.add_argument("--worker-id", default="",
                   help="stable worker name (default: pid-derived)")
    p.add_argument("--min-instrument", action="store_true",
                   help="run leased shards with minimal-basis cover counting "
                        "even when the spec does not request it; the final "
                        "counts a shard reports are reconstructed and "
                        "bit-identical either way")
    p.set_defaults(fn=cmd_worker)

    p = sub.add_parser(
        "stats", help="pretty-print a metrics file from simulate --metrics-out"
    )
    p.add_argument("metrics", help="metrics file (.prom text or .json snapshot)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("report", help="generate coverage reports from counts")
    p.add_argument("circuit")
    p.add_argument("--counts", required=True)
    p.add_argument("--db", help=f"coverage DB (default: <circuit>{DB_SUFFIX})")
    p.add_argument("--html", help="write an HTML report to this path")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("bmc", help="formal cover trace generation")
    p.add_argument("circuit")
    p.add_argument("--bound", type=int, default=20)
    p.add_argument("--expect-all-reachable", action="store_true",
                   help="exit 1 (naming the covers on stderr) if any "
                        "queried cover has no witness within the bound")
    p.add_argument("-o", "--output")
    _add_format_arg(p)
    p.set_defaults(fn=cmd_bmc)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
