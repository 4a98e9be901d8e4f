"""``benchmarks/compare.py``: verdicts over paired perfbench runs."""

from __future__ import annotations

import json

import pytest

from benchmarks.compare import Run, compare, main, read_run, render, verdict

SPEC = {
    "end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def runs(workload: str, throughput: list[float], latency: list[float],
         failed: int = 0) -> list[Run]:
    return [
        Run(workload, {
            "correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"throughput_per_s": {"value": t, "unit": "1/s"},
                        "latency_s": {"value": lat, "unit": "s"}},
        })
        for t, lat in zip(throughput, latency)
    ]


def test_clear_gain_on_a_higher_is_better_metric():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    change = [150, 151, 149, 152, 148, 150, 153, 147, 150, 151]
    assert verdict(parent, change, "higher", 0.25) == (10, "gain")


def test_gain_on_a_lower_is_better_metric():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    change = [0.5, 0.52, 0.48, 0.51, 0.49, 0.5, 0.53, 0.47, 0.5, 1.2]
    assert verdict(parent, change, "lower", 0.25) == (9, "gain")


def test_eight_of_ten_pairs_is_no_gain():
    parent = [100.0] * 10
    change = [110.0] * 8 + [90.0] * 2
    wins, outcome = verdict(parent, change, "higher", 0.25)
    assert wins == 8
    assert outcome == "within bound"


def test_worse_by_more_than_the_bound_is_a_regression():
    parent = [1.0] * 10
    change = [1.3] * 10
    assert verdict(parent, change, "lower", 0.25) == (0, "regression")


def test_spread_wider_than_the_bound_is_unresolved():
    # medians equal, but both sides scatter far beyond +-25%
    parent = [0.5, 1.5, 0.6, 1.4, 1.0, 0.55, 1.45, 0.65, 1.35, 1.0]
    change = [1.5, 0.5, 1.4, 0.6, 1.0, 1.45, 0.55, 1.35, 0.65, 1.0]
    wins, outcome = verdict(parent, change, "lower", 0.25)
    assert outcome == "unresolved"
    assert wins < 9


def test_wide_spread_but_fully_separated_is_resolved():
    parent = [1.0, 2.0, 1.1, 1.9, 1.5, 1.2, 1.8, 1.3, 1.7, 1.4]
    change = [0.9, 0.95, 0.92, 0.97, 0.93, 0.94, 0.96, 0.91, 0.98, 0.99]
    # every change run is better than every parent run; the parent's IQR
    # is wide, so the median gap does not clear it: no gain, but resolved
    assert verdict(parent, change, "lower", 0.25) == (10, "within bound")


def test_compare_rows_flags_and_report(tmp_path, capsys):
    parents = runs("w", [100] * 3, [1.0] * 3)
    changes = runs("w", [101] * 3, [0.99] * 3, failed=1)
    rows, flags = compare(parents, changes, SPEC)
    assert [(r.metric, r.verdict) for r in rows] == [
        ("throughput_per_s", "gain"), ("latency_s", "gain")]
    assert flags and "failed-operation share rose" in flags[0]
    assert "| w | throughput_per_s |" in render(rows, flags)


def test_unpaired_workload_is_flagged():
    rows, flags = compare(runs("w", [1, 2], [1, 2]), runs("w", [1], [1]), SPEC)
    assert rows == [] and "pairs need both" in flags[0]


def test_cli_reads_last_line_and_provenance(tmp_path, capsys):
    spec_path = tmp_path / "BENCHMARK.json"
    spec_path.write_text(json.dumps(SPEC))
    files = {"parent": [], "change": []}
    for side, values in (("parent", [1.0, 1.5, 0.5]), ("change", [1.5, 0.5, 1.0])):
        for index, run in enumerate(runs("w", values, values)):
            path = tmp_path / f"{side}{index}.out"
            path.write_text(
                "noise\nprovenance " + json.dumps({"workload": "serve-mix"})
                + "\n" + json.dumps(run.result) + "\n"
            )
            files[side].append(str(path))
    assert read_run(tmp_path / "parent0.out").workload == "serve-mix"
    code = main(["--parent", *files["parent"], "--change", *files["change"],
                 "--benchmark", str(spec_path)])
    out = capsys.readouterr().out
    assert "unresolved" in out and "serve-mix" in out
    assert code == 1


def test_a_file_without_provenance_is_rejected(tmp_path):
    path = tmp_path / "bare.out"
    path.write_text(json.dumps(runs("w", [1.0], [1.0])[0].result) + "\n")
    with pytest.raises(ValueError, match="no provenance line"):
        read_run(path)
