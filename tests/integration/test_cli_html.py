"""CLI round trips and the HTML report generator."""

import json
from pathlib import Path

import pytest

from repro.backends import TreadleBackend
from repro.cli import main
from repro.coverage import instrument
from repro.coverage.htmlreport import html_report
from repro.designs.gcd import Gcd
from repro.hcl import elaborate
from repro.ir import print_circuit


@pytest.fixture
def gcd_file(tmp_path):
    path = tmp_path / "gcd.fir"
    path.write_text(print_circuit(elaborate(Gcd(width=8))))
    return path


class TestCli:
    def test_check(self, gcd_file, capsys):
        assert main(["check", str(gcd_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_print_lowered(self, gcd_file, tmp_path, capsys):
        out = tmp_path / "low.fir"
        assert main(["print", str(gcd_file), "-o", str(out), "--flatten"]) == 0
        assert "when" not in out.read_text().split("circuit")[1]

    def test_verilog(self, gcd_file, tmp_path):
        out = tmp_path / "gcd.v"
        assert main(["verilog", str(gcd_file), "-o", str(out)]) == 0
        assert "module Gcd(" in out.read_text()

    def test_full_flow(self, gcd_file, tmp_path, capsys):
        instrumented = tmp_path / "inst.fir"
        assert main([
            "instrument", str(gcd_file), "-m", "line", "-m", "fsm",
            "-o", str(instrumented),
        ]) == 0
        counts = tmp_path / "counts.json"
        assert main([
            "simulate", str(instrumented), "--cycles", "400",
            "--random-inputs", "--counts", str(counts),
        ]) == 0
        data = json.loads(counts.read_text())
        assert data and any(v > 0 for v in data.values())

        # merge a second run into the first
        merged = tmp_path / "merged.json"
        assert main([
            "simulate", str(instrumented), "--cycles", "400",
            "--random-inputs", "--seed", "7",
            "--merge-with", str(counts), "--counts", str(merged),
        ]) == 0
        merged_data = json.loads(merged.read_text())
        assert all(merged_data[k] >= data[k] for k in data)

        # text report
        capsys.readouterr()
        assert main([
            "report", str(instrumented), "--counts", str(merged),
            "--db", str(instrumented) + ".covdb.json",
        ]) == 0
        text = capsys.readouterr().out
        assert "line coverage:" in text
        assert "FSM" in text

        # html report
        html_out = tmp_path / "report.html"
        assert main([
            "report", str(instrumented), "--counts", str(merged),
            "--db", str(instrumented) + ".covdb.json", "--html", str(html_out),
        ]) == 0
        page = html_out.read_text()
        assert "<title>" in page and "Line coverage" in page

    def test_bmc(self, gcd_file, capsys):
        assert main(["bmc", str(gcd_file), "--bound", "4"]) == 0
        assert "bounded model check" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", [
        ["--backend", "verilator"],
        ["--backend", "swarm", "--lanes", "4"],
    ], ids=["verilator", "swarm"])
    def test_simulate_with_checkpoints_and_resume(self, gcd_file, tmp_path, capsys,
                                                  backend):
        instrumented = tmp_path / "inst.fir"
        assert main(["instrument", str(gcd_file), "-m", "line",
                     "-o", str(instrumented)]) == 0
        counts = tmp_path / "counts.json"
        shards = tmp_path / "shards"
        args = [
            "simulate", str(instrumented), *backend,
            "--cycles", "200", "--random-inputs",
            "--counts", str(counts), "--shard-dir", str(shards),
            "--checkpoint-every", "50", "--timeout", "60", "--retries", "1",
        ]
        assert main(args) == 0
        data = json.loads(counts.read_text())
        assert data and any(v > 0 for v in data.values())
        shard_files = list(shards.glob("*.shard.json"))
        assert len(shard_files) == 1
        shard = json.loads(shard_files[0].read_text())
        assert shard["complete"] and shard["cycle"] == 200

        # resume: the completed shard short-circuits the re-run
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "resumed" in capsys.readouterr().out
        assert json.loads(counts.read_text()) == data

    def test_simulate_quarantined_counts_fail_loudly(
        self, gcd_file, tmp_path, capsys, monkeypatch
    ):
        """A run whose only shard is quarantined must exit non-zero and
        refuse to write a (misleadingly empty) counts file."""
        from repro import backends
        from repro.runtime import FaultPlan, FaultyBackend

        monkeypatch.setitem(
            backends.BACKENDS,
            "treadle",
            lambda: FaultyBackend(
                TreadleBackend(), FaultPlan(corrupt_keys=2, seed=3)
            ),
        )
        instrumented = tmp_path / "inst.fir"
        assert main(["instrument", str(gcd_file), "-m", "line",
                     "-o", str(instrumented)]) == 0
        counts = tmp_path / "counts.json"
        rc = main([
            "simulate", str(instrumented), "--backend", "treadle",
            "--cycles", "50", "--random-inputs", "--counts", str(counts),
        ])
        assert rc == 1
        assert not counts.exists()
        err = capsys.readouterr().err
        assert "quarantined" in err and "refusing to write" in err


class TestHtmlReport:
    def test_sections_present(self):
        state, db = instrument(
            elaborate(Gcd(width=8)),
            metrics=["line", "toggle", "fsm", "ready_valid"],
        )
        sim = TreadleBackend().compile_state(state)
        sim.poke("reset", 1)
        sim.step()
        sim.poke("reset", 0)
        sim.poke("req_valid", 1)
        sim.poke("req_bits", (18 << 8) | 12)
        sim.poke("resp_ready", 1)
        sim.step(80)
        page = html_report(db, sim.cover_counts(), state.circuit, title="GCD")
        for section in ("Line coverage", "Toggle coverage", "FSM coverage",
                        "Ready/valid coverage"):
            assert section in page
        assert "uncovered" in page or "covered" in page

    def test_escapes_html(self):
        from repro.coverage import CoverageDB

        db = CoverageDB()
        db.add("line", "M<script>", "l0", {"kind": "root", "lines": [["<f>", 1]]})
        from repro.ir import Circuit, Module

        page = html_report(db, {}, Circuit("M", [Module("M")]))
        assert "<script>" not in page.replace("&lt;script&gt;", "")

    def test_annotated_source(self):
        state, db = instrument(elaborate(Gcd(width=8)), metrics=["line"])
        sim = TreadleBackend().compile_state(state)
        sim.step(5)
        files = {file for _, _, p in db.covers_of("line") for file, _ in p["lines"]}
        sources = {f: [f"source line {i}" for i in range(1, 200)] for f in files}
        page = html_report(db, sim.cover_counts(), state.circuit, sources=sources)
        assert "source line" in page
