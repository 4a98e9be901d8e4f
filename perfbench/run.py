"""Benchmark entry point for ``repro simulate``, ``repro fuzz`` and ``repro serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload simulate-riscv-mini --seed 1 \\
        --seconds 15 --trace 0

Workloads (one process each, through the entry points users call):

``simulate-riscv-mini``
    ``repro.cli.main(["simulate", ...])`` on instrumented riscv-mini, once
    per backend per round (verilator, treadle, essent, c, swarm --lanes 64).
``serve-mix``
    a ``repro serve`` subprocess driven by two ``ServiceClient`` tenants.
``fuzz-i2c``
    ``FuzzHarness``/``AflFuzzer`` as ``repro fuzz`` wires them, scalar and
    ``--lanes 64``.  It runs and its layers are in every traced run, but
    ``BENCHMARK.json`` does not list it, so that the repeated runs of every
    listed workload, at about a minute each for simulate, fit in an hour.

With ``--trace 0`` the last stdout line reports every end-to-end metric
(each workload fills every one of them from its own legs):

``setup_s``
    cold set-up (elaborate/parse, instrument, compile on an empty model
    cache; for serve-mix daemon start plus one campaign per spec shape),
    median of three set-ups.
``throughput_per_s``
    work per second, geometric mean over the workload's legs: simulated
    cycles per ``repro simulate`` second (lane-cycles for swarm), fuzz
    executions per second, service campaigns completed per second.
``latency_s``
    typical wall time of one user operation: the median ``repro simulate``
    call per backend and the median fuzz campaign (fixed execution budget)
    per leg, geometric mean over legs; for serve-mix the mean time from
    submit to report (medians and 90th percentiles are per-layer rows).

Per-leg figures are medians over repeated operations spread across the
run, so a short host slow phase is outvoted rather than averaged in.
In simulate and fuzz every timed operation is bracketed by a host-speed
probe (a fixed pure-Python loop outside the program), and the end-to-end
times and rates are scaled to a host whose probe takes
``REFERENCE_PROBE_S``; serve-mix reports wall time (``perfbench/common.py``
says why).  stderr logs the wall times and scale factors.

With ``--trace 1`` the run is traced instead: spans from the benchmark
around every layer call plus the spans and metrics the program emits.  A
traced run measures every layer of all three workloads (starting with the
named one), reports every per-layer metric and writes a Chrome trace to
``.perfbench-out/<workload>-seed<N>.trace.json``.

Outputs are checked inside every run, outside the timed region: counts
files are bit-identical across backends and lanes, fuzz statistics
repeat exactly per seed, and every service report equals the CLI's.  A
failed check counts as a failed operation.  The line before the result
is the provenance stamp (Python, cc, nproc, git commit, seed, inputs).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["simulate-riscv-mini", "fuzz-i2c", "serve-mix"]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--scale", choices=["full", "smoke"], default="full",
        help="'smoke' shrinks every size (perfbench/smoke.py uses it)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import fuzz, serve, simulate
    from perfbench.common import Context, TraceLog, log, provenance

    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # the program's temporary files (cc builds, checkpoints) stay in the checkout
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    ctx = Context(
        root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), scale=args.scale,
    )
    modules = {"simulate-riscv-mini": simulate, "fuzz-i2c": fuzz, "serve-mix": serve}
    try:
        if args.trace:
            tracelog = TraceLog()
            order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
            metrics = {}
            for name in order:
                log(f"traced layers of {name}")
                with tracelog.span("bench:layers", workload=name):
                    metrics.update(modules[name].layers(ctx, tracelog))
        else:
            metrics = modules[args.workload].run(ctx)
        stamp = provenance(ctx, args.workload)
        if args.trace:
            out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}.trace.json"
            tracelog.write(out, stamp)
            stamp["trace_file"] = str(out.relative_to(ROOT))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = ctx.ledger
    for problem in ledger.problems:
        log(f"problem: {problem}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": dict(sorted(metrics.items())),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
