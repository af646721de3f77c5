"""Self-check of the pipeline benchmark (not collected by the tier-1 suite).

    python3 benchmarks/pipeline/bench_selfcheck.py

1. Runs ``bench_pipeline.py`` on every workload with a run length of one
   (``--repeat 1 --jobs 3``), untraced and traced, and checks that every
   metric ``BENCHMARK.json`` names is printed for every workload with its
   unit, and that the last line is the JSON result.
2. Corrupts the output of the second of two CLI repetitions and the digest
   of one service job, and checks that each is counted as failed.

Takes about a minute; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_pipeline as bench  # noqa: E402


def check_printed(trace: bool) -> None:
    spec = bench.load_spec()
    command = [sys.executable, str(HERE / "bench_pipeline.py"), "--repeat", "1", "--jobs", "3"]
    command += ["--trace", "1"] if trace else []
    run = subprocess.run(command, capture_output=True, text=True, timeout=900)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, lines[-1]
    printed = {tuple(line.split()[:2]): line.split() for line in lines[1:-1]}
    for workload in spec["workloads"]:
        for metric in spec["per_layer" if trace else "end_to_end"]:
            row = printed.get((workload["name"], metric["name"]))
            assert row is not None, f"{workload['name']} does not print {metric['name']}"
            assert row[3] == metric["unit"], f"{metric['name']} printed in {row[3]}"
            key = f"{workload['name']}/{metric['name']}"
            assert result["metrics"][key]["unit"] == metric["unit"], key
    print(f"ok: every {'per-layer' if trace else 'end-to-end'} metric printed with its unit")


def check_corrupt_cli_output(work: Path) -> None:
    original = bench.run_cli_rep
    calls = []

    def corrupting(workload, seed, rep_dir, trace_id):
        rep = original(workload, seed, rep_dir, trace_id)
        calls.append(rep_dir)
        if len(calls) == 2:  # the first repetition is the reference
            with open(rep["output"] / "report.txt", "a") as report:
                report.write("\n")
        return rep

    bench.run_cli_rep = corrupting
    try:
        outcome = bench.cli_workload("cli-paper", 7, bench.Budget(0, repeat=2), False, work)
    finally:
        bench.run_cli_rep = original
    assert outcome.failed == 1 and outcome.attempted == 3, (outcome.attempted, outcome.problems)
    assert "differs from the first repetition" in outcome.problems[0], outcome.problems
    print("ok: a corrupted CLI output is counted as failed")


def check_corrupt_service_digest(work: Path) -> None:
    original = bench._run_job
    calls = []

    def corrupting(base, seed, status):
        job = original(base, seed, status)
        calls.append(seed)
        if len(calls) == 4:  # a measured job
            job.digest = "0" * 64
        return job

    bench._run_job = corrupting
    try:
        outcome = bench.service_workload("svc-distinct", 7, bench.Budget(0, repeat=1, jobs=3), False, work)
    finally:
        bench._run_job = original
    assert outcome.failed >= 1, outcome.problems
    print("ok: a corrupted service digest is counted as failed")


def main() -> int:
    check_printed(trace=False)
    check_printed(trace=True)
    bench.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.WORK) as tmp:
        check_corrupt_cli_output(Path(tmp) / "cli")
        (Path(tmp) / "svc").mkdir()
        check_corrupt_service_digest(Path(tmp) / "svc")
    return 0


if __name__ == "__main__":
    sys.exit(main())
