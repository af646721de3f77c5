"""Integration: every example script runs end to end (at reduced scale)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestExamples:
    def test_quickstart(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "feasibility report" in result.stdout
        assert "best strategy" in result.stdout

    def test_minife_feasibility(self):
        result = _run(
            "minife_feasibility.py",
            "--trials", "1", "--processes", "1", "--iterations", "40",
        )
        assert result.returncode == 0, result.stderr
        assert "Figure 4 analogue" in result.stdout
        assert "Figure 5 analogue" in result.stdout
        assert "recommendation" in result.stdout

    def test_minimd_two_phase(self):
        result = _run(
            "minimd_two_phase.py",
            "--trials", "1", "--processes", "1", "--iterations", "60",
        )
        assert result.returncode == 0, result.stderr
        assert "two-phase IQR comparison" in result.stdout
        assert "OS-noise ablation" in result.stdout

    def test_miniqmc_overlap(self):
        result = _run(
            "miniqmc_overlap.py",
            "--trials", "1", "--processes", "1", "--iterations", "40",
        )
        assert result.returncode == 0, result.stderr
        assert "Figure 9 analogue" in result.stdout
        assert "hidden fraction" in result.stdout

    def test_partitioned_communication_demo(self):
        result = _run("partitioned_communication_demo.py")
        assert result.returncode == 0, result.stderr
        assert "all partitions arrived" in result.stdout
        assert "bulk (BSP) message fully delivered" in result.stdout
        # the figures of this seed
        assert "[t=  49.252 ms] first partition arrived" in result.stdout
        assert "[t=  72.617 ms] all partitions arrived" in result.stdout
        assert "| 73.87" in result.stdout
        assert "completes 1258.3 µs earlier" in result.stdout

    def test_paper_reproduction_smoke(self, tmp_path):
        result = _run(
            "paper_reproduction.py",
            "--scale", "smoke", "--apps", "minife",
            "--iterations", "10", "--threads", "16",
            "--output", str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "report.txt").exists()
