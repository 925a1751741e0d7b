"""Tests for the `python -m repro` command-line interface."""

import pytest

from repro.__main__ import _parse_params, main


class TestParseParams:
    def test_ints(self):
        assert _parse_params(["l=2", "n=3"]) == {"l": 2, "n": 3}

    def test_bools(self):
        assert _parse_params(["symmetric=true"]) == {"symmetric": True}
        assert _parse_params(["symmetric=False"]) == {"symmetric": False}

    def test_strings(self):
        assert _parse_params(["name=abc"]) == {"name": "abc"}

    def test_missing_equals(self):
        with pytest.raises(SystemExit):
            _parse_params(["oops"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hsn" in out and "hypercube" in out

    def test_info_hsn(self, capsys):
        assert main(["info", "hsn", "--param", "l=2", "--param", "n=2"]) == 0
        out = capsys.readouterr().out
        assert "HSN(2,Q2)" in out
        assert "16" in out

    def test_info_without_modules(self, capsys):
        assert main(["info", "ring", "--param", "n=8", "--modules", "none"]) == 0
        out = capsys.readouterr().out
        assert "ring(8)" in out

    def test_info_skips_metrics_when_large(self, capsys):
        assert main(
            ["info", "hypercube", "--param", "n=4", "--max-metric-nodes", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "diameter" not in out

    def test_figure_53(self, capsys):
        assert main(["figure", "53"]) == 0
        out = capsys.readouterr().out
        assert "ring-CN" in out

    def test_figure_2(self, capsys):
        assert main(["figure", "2", "--max-log2", "12"]) == 0
        out = capsys.readouterr().out
        assert "DD-cost" in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "9"])

    def test_unknown_network(self):
        with pytest.raises(KeyError):
            main(["info", "not-a-net"])


class TestFaultsCommand:
    """`python -m repro faults` — Monte-Carlo resilience sweeps."""

    def test_single_network_sweep(self, capsys):
        args = ["faults", "--network", "hypercube", "--param", "n=3",
                "--faults", "0,1", "--trials", "2", "--cycles", "15",
                "--rate", "0.2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "delivery_ratio" in out
        assert "Q3" in out

    def test_node_faults(self, capsys):
        args = ["faults", "--network", "ring", "--param", "n=8",
                "--faults", "1", "--kind", "node", "--trials", "2",
                "--cycles", "10", "--rate", "0.2"]
        assert main(args) == 0
        assert "node" in capsys.readouterr().out

    def test_bad_fault_counts_rejected(self):
        with pytest.raises(SystemExit, match="comma-separated ints"):
            main(["faults", "--network", "ring", "--param", "n=8",
                  "--faults", "two"])

    def test_faults_profile_prints_fault_counters(self, capsys):
        args = ["faults", "--network", "ring", "--param", "n=16",
                "--faults", "2", "--trials", "2", "--cycles", "20",
                "--rate", "0.2", "--profile"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "-- timers --" in out
        assert "sim.faults.drops" in out or "sim.faults.reroutes" in out


class TestProfileFlags:
    """--profile / --trace on info, figure and summary (see repro.obs)."""

    def test_info_profile_prints_timing_table(self, capsys):
        assert main(["info", "hsn", "--profile", "--param", "l=2", "--param", "n=2"]) == 0
        out = capsys.readouterr().out
        assert "HSN(2,Q2)" in out  # the command's own output is intact
        assert "-- timers --" in out
        assert "closure.build.fast" in out
        assert "closure.fast.nodes" in out

    def test_info_trace_writes_valid_jsonl(self, capsys, tmp_path):
        import json

        trace = tmp_path / "out.jsonl"
        assert (
            main(
                ["info", "hsn", "--trace", str(trace),
                 "--param", "l=2", "--param", "n=2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert str(trace) in out
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events, "trace file must not be empty"
        assert all(e["type"] in ("span", "instant") for e in events)
        assert any(e["name"] == "closure.build.fast" for e in events)
        spans = [e for e in events if e["type"] == "span"]
        assert all({"t0", "t1", "dur", "depth", "parent", "attrs"} <= e.keys()
                   for e in spans)

    def test_profile_and_trace_together(self, capsys, tmp_path):
        trace = tmp_path / "both.jsonl"
        args = ["info", "hsn", "--profile", "--trace", str(trace),
                "--param", "l=2", "--param", "n=2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "-- timers --" in out
        assert trace.exists()

    def test_profile_off_by_default(self, capsys):
        from repro import obs

        obs.reset()
        assert main(["info", "star", "--param", "n=4"]) == 0
        out = capsys.readouterr().out
        assert "-- timers --" not in out
        assert not obs.enabled()
        assert obs.report()["counters"] == {}

    def test_summary_profile(self, capsys):
        assert main(["summary", "--size", "16", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "-- timers --" in out

    def test_figure_profile(self, capsys):
        assert main(["figure", "53", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "-- timers --" in out


class TestClosedPipe:
    """A reader that closes stdout early (``... | head``) ends the CLI
    quietly: exit status 1 and nothing on stderr, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["repro", "info", "hypercube", "--param", "n=4", "--profile"],
            ["repro.check", "lint", "src/repro/cache/memory.py", "--profile"],
        ],
        ids=["repro", "repro.check"],
    )
    def test_exits_quietly(self, argv):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", *argv],
            cwd=src.parent,
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # before the child has printed anything
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert err == ""
