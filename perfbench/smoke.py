"""The benchmark's own smoke test, at a tiny size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It runs every workload with ``--scale smoke`` untraced under two seeds
and traced once, and checks that:

* every end-to-end metric in ``BENCHMARK.json`` is emitted with its unit
  by every untraced run, and every per-layer metric by the traced run;
* each run reports ``correct: true`` with zero failed operations, so the
  bit-identity checks inside the runs passed;
* two seeds give different stimulus (the generated inputs and the
  simulated counts differ) while those checks still pass;
* the traced run writes a loadable Chrome trace;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits non-zero without printing a result.

Exits 0 when every check passes; prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]
#: runnable workloads that BENCHMARK.json does not gate (see run.py)
UNGATED = ["fuzz-i2c"]
TIMEOUT_S = 900


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(result object, provenance stamp) from a run's stdout."""
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = {}
    for line in lines:
        if line.startswith("provenance "):
            stamp = json.loads(line[len("provenance "):])
    return result, stamp


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    def expect_metrics(result: dict, wanted: list[dict], what: str) -> None:
        got = result.get("metrics", {})
        for entry in wanted:
            metric = got.get(entry["name"])
            expect(
                metric is not None and metric.get("unit") == entry["unit"]
                and isinstance(metric.get("value"), (int, float)),
                f"{what}: emits {entry['name']} in {entry['unit']}",
            )
        extra = sorted(set(got) - {e["name"] for e in wanted})
        expect(not extra, f"{what}: emits no undeclared metric {extra}")

    def expect_clean(proc, result: dict, what: str) -> None:
        expect(proc.returncode == 0, f"{what}: exit code 0")
        expect(
            result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1,
            f"{what}: correct, {result.get('failed')} failed of "
            f"{result.get('attempted')}",
        )

    for workload in [w["name"] for w in spec["workloads"]] + UNGATED:
        stamps = []
        for seed in (1, 2):
            what = f"{workload} seed {seed}"
            proc = bench(ROOT, workload, seed, 0)
            try:
                result, stamp = parse(proc)
            except (ValueError, IndexError):
                expect(False, f"{what}: prints a result ({proc.stderr[-500:]})")
                continue
            expect_clean(proc, result, what)
            expect_metrics(result, spec["end_to_end"], what)
            for key in ("python", "cc", "nproc", "git_commit", "seed"):
                expect(key in stamp, f"{what}: provenance records {key}")
            stamps.append(stamp.get("inputs"))
        expect(
            len(stamps) == 2 and stamps[0] != stamps[1],
            f"{workload}: two seeds give different stimulus",
        )
        if workload.startswith("simulate") and len(stamps) == 2:
            expect(
                stamps[0]["counts_sha256"] != stamps[1]["counts_sha256"],
                f"{workload}: two seeds simulate to different counts",
            )

    workload = spec["workloads"][0]["name"]
    proc = bench(ROOT, workload, 3, 1)
    try:
        result, stamp = parse(proc)
        expect_clean(proc, result, f"traced {workload}")
        expect_metrics(result, spec["per_layer"], f"traced {workload}")
        trace = json.loads((ROOT / stamp["trace_file"]).read_text())
        events = trace["traceEvents"]
        expect(
            isinstance(events, list)
            and any(e.get("cat") == "bench" for e in events)
            and any(str(e.get("name", "")).startswith("pass:") for e in events),
            "traced run writes a loadable Chrome trace with bench and program spans",
        )
    except (ValueError, IndexError, KeyError, OSError) as exc:
        expect(False, f"traced {workload}: result and trace ({exc!r}; {proc.stderr[-500:]})")

    bare = ROOT / ".perfbench-work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, workload, 1, 0)
    expect(
        proc.returncode != 0 and not proc.stdout.strip(),
        "without the program's sources the benchmark exits non-zero, no result",
    )
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
