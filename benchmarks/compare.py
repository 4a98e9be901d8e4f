"""Compare paired perfbench runs of a parent commit and a change.

Usage, from the root of a checkout::

    python3 benchmarks/compare.py --parent p1.out p2.out ... \\
        --change c1.out c2.out ...

Each file is the stdout of one ``perfbench/run.py`` run (``--trace 0``).
Its last non-empty line is the result JSON; its ``provenance`` line names
the workload.  The i-th parent run of a workload pairs with its i-th
change run, so list the files in the order the pairs ran.

For each workload and each end-to-end metric of ``BENCHMARK.json`` (read,
never written) it prints each side's median and quartiles, the pairs the
change won and a verdict:

``gain``
    the change won at least nine tenths of the pairs (ties count for
    neither side) and its median is better than the parent's by more than
    the parent's interquartile range;
``regression``
    the change's median is worse than the parent's by more than the
    metric's ``bound`` (a fraction of the parent's median);
``unresolved``
    either side's interquartile range, relative to its median, is wider
    than the bound, unless every change run reads better than every
    parent run;
``within bound``
    none of the above.

A workload whose change runs fail a larger share of their operations
than the parent's is flagged.  Exits 1 when any row is a regression or
unresolved, or any failure share rose; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the share of pairs a gain must win
GAIN_WIN_SHARE = 0.9


@dataclass
class Run:
    """One perfbench run: its workload and its result object."""

    workload: str
    result: dict

    @property
    def failed_share(self) -> float:
        attempted = self.result.get("attempted", 0)
        return self.result.get("failed", 0) / attempted if attempted else 0.0

    def value(self, name: str) -> float:
        return float(self.result["metrics"][name]["value"])


@dataclass
class Row:
    """The comparison of one end-to-end metric on one workload."""

    workload: str
    metric: str
    parent: list[float]
    change: list[float]
    wins: int
    verdict: str


def read_run(path: Path) -> Run:
    """The run a perfbench stdout file holds."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
            return Run(provenance["workload"], json.loads(lines[-1]))
    raise ValueError(f"{path}: no provenance line")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[int, str]:
    """(pairs the change won, verdict) for paired samples of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (cm - pm)  # > 0: the change's median is better
    if wins >= GAIN_WIN_SHARE * len(parent) and gap > p3 - p1:
        return wins, "gain"
    if gap < -bound * abs(pm):
        return wins, "regression"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    separated = (min(change) > max(parent) if sign > 0
                 else max(change) < min(parent))
    if spread > bound and not separated:
        return wins, "unresolved"
    return wins, "within bound"


def compare(parents: list[Run], changes: list[Run], spec: dict) -> tuple[list[Row], list[str]]:
    """Every (workload, end-to-end metric) row, and the flagged workloads."""
    rows: list[Row] = []
    flags: list[str] = []
    workloads = list(dict.fromkeys(run.workload for run in parents + changes))
    for workload in workloads:
        before = [run for run in parents if run.workload == workload]
        after = [run for run in changes if run.workload == workload]
        if len(before) != len(after) or not before:
            flags.append(f"{workload}: {len(before)} parent runs but "
                         f"{len(after)} change runs; pairs need both")
            continue
        failed_before = sum(run.failed_share for run in before) / len(before)
        failed_after = sum(run.failed_share for run in after) / len(after)
        if failed_after > failed_before:
            flags.append(f"{workload}: failed-operation share rose "
                         f"{failed_before:.4f} -> {failed_after:.4f}")
        for entry in spec["end_to_end"]:
            name = entry["name"]
            try:
                parent = [run.value(name) for run in before]
                change = [run.value(name) for run in after]
            except KeyError:
                flags.append(f"{workload}: {name} missing from some run")
                continue
            wins, outcome = verdict(parent, change, entry["better"], entry["bound"])
            rows.append(Row(workload, name, parent, change, wins, outcome))
    return rows, flags


def render(rows: list[Row], flags: list[str]) -> str:
    """The report: one line per row, then the flags."""
    header = ("| workload | metric | parent median [q1, q3] | "
              "change median [q1, q3] | ratio | pairs won | verdict |")
    lines = [header, "|---|---|---|---|---|---|---|"]
    for row in rows:
        p1, pm, p3 = quartiles(row.parent)
        c1, cm, c3 = quartiles(row.change)
        ratio = f"{cm / pm:.3f}x" if pm else "-"
        lines.append(
            f"| {row.workload} | {row.metric} | {pm:.4g} [{p1:.4g}, {p3:.4g}] | "
            f"{cm:.4g} [{c1:.4g}, {c3:.4g}] | {ratio} | "
            f"{row.wins}/{len(row.parent)} | {row.verdict} |"
        )
    lines += [f"flag: {flag}" for flag in flags]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    parents = [read_run(path) for path in args.parent]
    changes = [read_run(path) for path in args.change]
    rows, flags = compare(parents, changes, spec)
    print(render(rows, flags))
    bad = flags or any(row.verdict in ("regression", "unresolved") for row in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
