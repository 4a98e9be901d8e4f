"""The EXPERIMENTS.md throughput ladder, generated from ``BENCH_runtime.json``.

EXPERIMENTS.md quotes the serv-chisel ladder between ``<!-- ladder:begin -->``
and ``<!-- ladder:end -->``; ``tests/analysis/test_catalog_drift.py``
regenerates the block with :func:`ladder_markdown` and diffs it, so the
document cannot drift from the recorded numbers.  After
``benchmarks/test_bench_runtime.py`` rewrites ``BENCH_runtime.json``,
rewrite the block in place from the root of a checkout with::

    python3 benchmarks/ladder.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BEGIN, END = "<!-- ladder:begin -->", "<!-- ladder:end -->"

#: (rung, how to run it, BENCH_runtime.json backend, speedup field, its base)
RUNGS = [
    ("interpreter", "`treadle --no-jit`", "treadle", None, None),
    ("JIT", "`treadle`", "treadle-jit", "speedup_vs_interpreter", "the interpreter"),
    ("JIT, scalar renderer", "`verilator`", "verilator", None, None),
    ("JIT, under ESSENT's name", "`essent`", "essent", None, None),
    ("native C", "`c`", "c", "speedup_vs_jit", "the JIT"),
    ("swarm", "`swarm --lanes {lanes}`", "swarm", "speedup_vs_jit", "the JIT"),
]


def ladder_markdown(runtime: dict) -> str:
    """The ladder table for the ``serv-chisel`` section of ``runtime``."""
    backends = runtime["sections"]["serv-chisel"]["backends"]
    lines = [
        "| rung | backend | cycles/s | speedup |",
        "|---|---|---:|---|",
    ]
    for rung, how, name, field, base in RUNGS:
        row = backends[name]
        rate = f"{row['cycles_per_second']:,.0f}"
        if "aggregate_lane_cycles_per_second" in row:
            rate = (f"{rate} per lane, "
                    f"{row['aggregate_lane_cycles_per_second']:,.0f} lane-cycles")
        speedup = f"{row[field]:.1f}× {base}" if field else "-"
        lines.append(f"| {rung} | {how.format(**row)} | {rate} | {speedup} |")
    return "\n".join(lines)


def refreshed(text: str, block: str) -> str:
    """``text`` with the ladder block between the markers replaced."""
    head, rest = text.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    return f"{head}{BEGIN}\n{block}\n{END}{tail}"


def main() -> int:
    block = ladder_markdown(json.loads((ROOT / "BENCH_runtime.json").read_text()))
    path = ROOT / "EXPERIMENTS.md"
    path.write_text(refreshed(path.read_text(), block))
    return 0


if __name__ == "__main__":
    sys.exit(main())
