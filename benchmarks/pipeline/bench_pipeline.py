"""End-to-end benchmark of the reproduction: the CLI pipeline and the service.

    python3 benchmarks/pipeline/bench_pipeline.py [--workload NAME]... [--seed S]
        [--seconds N] [--trace [0|1]] [--repeat N] [--jobs N]

Runs each workload (default: all three of ``BENCHMARK.json``) for about
``--seconds`` seconds (default: ``run_seconds``), checks every output, prints
a table of every metric (name, median, unit, sample count) and, as the last
line of standard output, one JSON object::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

``metrics`` holds the end-to-end metrics of ``BENCHMARK.json`` or, with
``--trace`` (``--trace 1``), its per-layer metrics.  With several workloads
the metric names are prefixed ``<workload>/``.  ``--seconds`` and the
``--trace 0|1`` form are how the ``BENCHMARK.json`` command is invoked.
``--repeat``/``--jobs`` replace the time budget by a fixed number of CLI
repetitions and service jobs (the campaign scale never changes).

The benchmark reaches the program only through its public entry points: the
CLI as ``repro.experiments.runner.main(argv)`` in a fresh child process per
repetition (``_cli_child.py``), the service as ``python -m repro serve``
over HTTP.  The traced pass wraps each layer's public functions from the
outside (``spans.py``, ``layers.py``; the traced server is started by
``_serve_child.py``).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 20230421

CLI_ARGS = {
    "cli-paper": ["--scale", "paper", "--backend", "campaign"],
    "cli-ooc": [
        "--scale", "paper", "--backend", "campaign",
        "--out-of-core", "--spill-mb", "8", "--max-workers", "2",
    ],
}
APPS = ("minife", "minimd", "miniqmc")
_TABLES = ["table1.csv", "section4_metrics.csv", "minimd_phases.csv", "report.txt"]
_FIGURES = [f"figures/figure3_{app}.csv" for app in APPS] + [
    f"figures/percentiles_{app}.csv" for app in APPS
] + ["figures/figure9_miniqmc.csv"]
CLI_FILES = {
    "cli-paper": _TABLES + ["section41_normality.csv"] + _FIGURES,
    "cli-ooc": _TABLES + _FIGURES,
}

WARMUP_JOBS = 20
#: the service keeps every finished job, so its resident set grows with the
#: job count; read it after a fixed number of jobs so that a faster server
#: (more jobs per run) does not read as using more memory.  VmHWM, read at
#: the end, grows with the job count too, so it is printed but not used.
RSS_AT_JOBS = 100
#: The untraced service run alternates this much load on the serving server
#: with one timed cold start of another server.  The host's speed changes in
#: phases of tens of seconds, so both setup_s and the latencies sample the
#: whole run instead of one half each.  A cold start and its stop take about
#: 1 s: about a third of the run.
LOAD_SLICE_S = 2.0
MIN_COLD_STARTS = 5
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
HTTP_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed output)."""


def _env() -> Dict[str, str]:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _unit(name: str) -> str:
    """Unit of a metric that BENCHMARK.json does not list."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "B"
    return "ratio" if name.endswith(("_frac", "_fraction", "_ratio", "share")) else "count"


def _stop(proc: subprocess.Popen, sig: int = signal.SIGINT, timeout: float = 30) -> None:
    """Signal a child, wait for it, and kill its whole group if it hangs."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
    except ProcessLookupError:
        pass
    proc.wait()


@dataclass
class Outcome:
    """What one workload measured."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: metric -> (value, sample count)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    absent: List[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------
def _result_files(output: Path) -> List[Path]:
    """Every file a repetition wrote, except its cache tier."""
    return [
        path
        for path in sorted(output.rglob("*"))
        if path.is_file() and path.relative_to(output).parts[0] != "cache"
    ]


def _digests(output: Path) -> Dict[str, str]:
    return {
        str(path.relative_to(output)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in _result_files(output)
    }


def check_cli_output(workload: str, output: Path) -> List[str]:
    """Problems with one repetition's output directory (empty when fine)."""
    problems = [f"missing {name}" for name in CLI_FILES[workload] if not (output / name).is_file()]
    if problems:
        return problems
    column = "laggard_fraction (measured)"
    try:
        with open(output / "section4_metrics.csv", newline="") as handle:
            fractions = {row["application"]: float(row[column]) for row in csv.DictReader(handle)}
        minimd = fractions["MiniMD"]
        others = (fractions["MiniFE"], fractions["MiniQMC"])
    except (KeyError, ValueError) as error:
        return [f"section4_metrics.csv unreadable: {error!r}"]
    # the paper's ordering: MiniMD has the fewest laggard iterations
    if not all(minimd < other for other in others):
        problems.append(f"laggard_fraction ordering broken: {fractions}")
    return problems


def _disk_counts(output: Path) -> Dict[str, float]:
    groups = list(output.glob("cache/*.store/group-*.bin"))
    return {
        "store.groups": float(len(groups)),
        "store.bytes": float(sum(p.stat().st_size for p in groups)),
        "output.bytes": float(sum(p.stat().st_size for p in _result_files(output))),
    }


def _cli_layers(result: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    root = result["pid"]
    span_list = result["spans"]
    metrics = layers.layer_seconds(
        spans.self_times(span_list, root_pid=root, waiting=("executor",))
    )
    counts = spans.count_totals(span_list)
    worker = spans.count_totals(s for s in span_list if s["pid"] != root)
    metrics.update(
        {
            "setup.import_s": result["import_s"],
            "sample.samples": counts.get("samples", 0.0),
            "executor.chunks": worker.get("chunks", 0.0),
            "cache.hits": counts.get("hits", 0.0),
            "cache.misses": counts.get("misses", 0.0),
            "service.queue_wait_s": 0.0,
            "service.execute_s": 0.0,
            "service.http_s": 0.0,
            "service.rejected": 0.0,
            "service.coalesce_hits": 0.0,
            **_disk_counts(result["output"]),
        }
    )
    metrics.update(layers.derived(metrics, result["pipeline_s"]))
    metrics["trace.overhead_frac"] = spans.overhead_frac(span_list)
    return metrics


def run_cli_rep(workload: str, seed: int, rep_dir: Path, trace_id: Optional[int]) -> dict:
    """One child process running ``runner.main``; returns its result."""
    rep_dir.mkdir(parents=True)
    output = rep_dir / "out"
    result_path = rep_dir / "result.json"
    command = [sys.executable, str(HERE / "_cli_child.py"), str(result_path)]
    if trace_id is not None:
        spool = rep_dir / "spool"
        spool.mkdir()
        command += ["--trace", str(trace_id), str(spool)]
    command += ["--", *CLI_ARGS[workload], "--seed", str(seed), "--output", str(output)]
    with open(rep_dir / "stderr.txt", "wb") as stderr:
        spawned = time.perf_counter_ns()
        proc = subprocess.Popen(
            command, cwd=rep_dir, env=_env(), stdout=subprocess.DEVNULL,
            stderr=stderr, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _stop(proc, signal.SIGKILL)
        exited = time.perf_counter_ns()
    result = {"ok": False, "wall_s": (exited - spawned) / 1e9, "output": output}
    if code != 0 or not result_path.exists():
        tail = (rep_dir / "stderr.txt").read_text(errors="replace")[-400:]
        result["problem"] = f"child exited {code}: {tail}"
        return result
    result.update(json.loads(result_path.read_text()))
    result["setup_s"] = (result["ready_ns"] - spawned) / 1e9
    if result["exit_code"] != 0:
        result["problem"] = f"runner.main returned {result['exit_code']}"
        return result
    result["ok"] = True
    return result


def warm_up() -> None:
    """Import the program once, unmeasured, so that every measured child
    finds its ``.pyc`` files compiled and its libraries in the page cache."""
    try:
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.runner"], env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.CalledProcessError as error:
        tail = error.stderr.decode(errors="replace")[-400:]
        raise BenchError(f"the program does not import: {tail}") from error


def cli_workload(workload: str, seed: int, budget: "Budget", trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    reference: Optional[Dict[str, str]] = None
    runs: List[dict] = []
    started = time.perf_counter()
    warm_up()
    first_rep = time.perf_counter()
    index = 0
    while not budget.cli_done(len(runs), index, started, first_rep):
        rep = run_cli_rep(workload, seed, work / f"rep{index}", index if trace else None)
        index += 1
        outcome.attempted += 1
        problems = [rep["problem"]] if not rep["ok"] else check_cli_output(workload, rep["output"])
        if not problems:
            digests = _digests(rep["output"])
            if reference is None:
                reference = digests
            elif digests != reference:
                changed = sorted(k for k in set(digests) | set(reference) if digests.get(k) != reference.get(k))
                problems.append(f"output differs from the first repetition: {changed[:5]}")
        if problems:
            outcome.fail(f"rep {index - 1}: {'; '.join(problems)}")
            shutil.rmtree(work / f"rep{index - 1}", ignore_errors=True)
            continue
        if trace:
            rep["layers"] = _cli_layers(rep)
            outcome.absent = rep["absent"]
        runs.append(rep)
        shutil.rmtree(work / f"rep{index - 1}", ignore_errors=True)
    if not runs:
        raise BenchError(f"{workload}: no repetition succeeded: {outcome.problems}")
    n = len(runs)
    if not trace:
        outcome.metrics = {
            "setup_s": (statistics.median([r["setup_s"] for r in runs]), n),
            "latency_p50_s": (statistics.median([r["pipeline_s"] for r in runs]), n),
            "rss_mb": (statistics.median([r["peak_rss_mb"] for r in runs]), n),
        }
    else:
        for name in runs[0]["layers"]:
            outcome.metrics[name] = (statistics.median([r["layers"][name] for r in runs]), n)
        # printed for comparison with an untraced run
        outcome.metrics["latency_p50_s"] = (statistics.median([r["pipeline_s"] for r in runs]), n)
    outcome.metrics["failed_fraction"] = (outcome.failed / outcome.attempted, outcome.attempted)
    return outcome


# ----------------------------------------------------------------------
# service workloads
# ----------------------------------------------------------------------
def _http(url: str, body: Optional[dict] = None) -> dict:
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data, method="POST" if data is not None else "GET",
        headers={"Content-Type": "application/json"} if data is not None else {},
    )
    with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
        return json.loads(response.read())


class Server:
    """One server process on an ephemeral port with a fresh cache."""

    def __init__(self, work: Path, traced: bool) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="server-", dir=work))
        port_file = self.dir / "port"
        serve = [
            "--port", "0", "--port-file", str(port_file), "--workers", "2",
            "--executor-mode", "thread", "--cache-dir", str(self.dir / "cache"),
        ]
        self.result_path = self.dir / "spans.json"
        if traced:
            spool = self.dir / "spool"
            spool.mkdir()
            command = [sys.executable, str(HERE / "_serve_child.py"), str(self.result_path), str(spool), "--", *serve]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve]
        self._stderr = open(self.dir / "stderr.txt", "wb")
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=self.dir, env=_env(), stdout=subprocess.DEVNULL,
            stderr=self._stderr, start_new_session=True,
        )
        try:
            deadline = spawned + CHILD_TIMEOUT_S
            while not (port_file.exists() and port_file.read_text().strip()):
                self._alive(deadline)
                time.sleep(0.002)
            self.base = f"http://127.0.0.1:{int(port_file.read_text())}"
            while True:
                try:
                    _http(self.base + "/healthz")
                    break
                except (urllib.error.URLError, ConnectionError):
                    self._alive(deadline)
                    time.sleep(0.002)
            self.setup_s = time.perf_counter() - spawned
        except BaseException:
            self.stop()
            raise

    def _alive(self, deadline: float) -> None:
        if self.proc.poll() is not None or time.perf_counter() > deadline:
            tail = (self.dir / "stderr.txt").read_text(errors="replace")[-400:]
            raise BenchError(f"server did not come up: {tail}")

    def memory_mb(self, field: str) -> float:
        """``VmRSS`` or ``VmHWM`` of the server process (Linux)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
        raise BenchError(f"no {field} in /proc/<pid>/status")

    def stop(self) -> Optional[dict]:
        """Shut down (SIGINT); the traced launcher's result, if any."""
        _stop(self.proc)
        self._stderr.close()
        if self.result_path.exists():
            return json.loads(self.result_path.read_text())
        return None


@dataclass
class Job:
    seed: int
    latency_s: float = 0.0
    digest: Optional[str] = None
    problem: Optional[str] = None
    status: Optional[dict] = None


def check_payload(payload: dict) -> Optional[str]:
    """Problem with one ``GET /jobs/<id>/analyses`` body (None when fine)."""
    analyses = payload.get("analyses")
    if not isinstance(analyses, dict) or set(analyses) != set(layers.PASSES):
        return f"analyses payload holds {sorted(analyses or {})}"
    if not isinstance(payload.get("digest"), str):
        return "analyses payload has no digest"
    return None


def _run_job(base: str, seed: int, status: bool) -> Job:
    job = Job(seed)
    started = time.perf_counter()
    try:
        submitted = _http(
            base + "/jobs",
            {
                "scenario": "manzano-default",
                "scale": "benchmark",
                "overrides": {"seed": seed, "backend": "campaign"},
            },
        )
        payload = _http(f"{base}/jobs/{submitted['job_id']}/analyses")
        job.latency_s = time.perf_counter() - started
        job.problem = check_payload(payload)
        job.digest = payload.get("digest")
        if status:
            job.status = _http(f"{base}/jobs/{submitted['job_id']}")
    except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
        job.problem = f"seed {seed}: {error!r}"
    return job


def drive(
    server: Server,
    seed_of: Callable[[int], int],
    first: int,
    jobs: List[Job],
    *,
    count: Optional[int] = None,
    until: Optional[float] = None,
    status: bool = False,
) -> None:
    """One closed-loop client: it sends the next job when the last has ended.

    One client, because on two cores a second one makes each job wait for
    the other's CPU time and, when two POSTs meet, run as one grouped pass,
    so latency follows the scheduler more than the program: over four
    alternating 30 s ``svc-distinct`` runs on a 2-core VM, p50 latency
    ranged over 13 % of its median with two clients and 4 % with one,
    throughput over 30 % and 7 %.  Appends jobs to ``jobs`` until it holds
    ``count`` or the ``perf_counter`` time ``until`` has passed; job ``i``
    of ``jobs`` uses seed ``seed_of(first + i)``.
    """
    while not (
        (count is not None and len(jobs) >= count)
        or (until is not None and time.perf_counter() >= until)
    ):
        jobs.append(_run_job(server.base, seed_of(first + len(jobs)), status))


def _reference_digest(seed: int) -> str:
    """The digest the service must serve, computed in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.experiments.session import CampaignSession
    from repro.scenarios import get_scenario
    from repro.service.jobs import dataset_digest

    config = get_scenario("manzano-default").campaign_config(
        "benchmark", seed=seed, backend="campaign"
    )
    return dataset_digest(CampaignSession(config).run().dataset)


def _check_jobs(outcome: Outcome, jobs: List[Job], reference: Dict[int, str]) -> None:
    by_seed: Dict[int, set] = {}
    for job in jobs:
        outcome.attempted += 1
        if job.problem is None:
            by_seed.setdefault(job.seed, set()).add(job.digest)
            expected = reference.get(job.seed)
            if expected is not None and job.digest != expected:
                job.problem = f"seed {job.seed}: digest {job.digest} != {expected}"
        if job.problem is not None:
            outcome.fail(job.problem)
    for seed, digests in by_seed.items():
        if len(digests) > 1:
            outcome.fail(f"seed {seed}: {len(digests)} different digests")


def _service_layers(result: dict, jobs: List[Job], start_ns: int, stats: tuple) -> Dict[str, float]:
    """Per-job per-layer metrics of the traced server's measured window."""
    n = len(jobs)
    window = [s for s in result["spans"] if s["start"] >= start_ns]
    metrics = {name: value / n for name, value in layers.layer_seconds(spans.self_times(window)).items()}
    counts = spans.count_totals(window)
    latency = statistics.fmean(job.latency_s for job in jobs)
    queue = statistics.fmean(job.status["queue_latency_s"] for job in jobs)
    elapsed = statistics.fmean(job.status["elapsed_s"] for job in jobs)
    before, after = stats
    metrics.update(
        {
            "setup.import_s": result["import_s"],
            "sample.samples": counts.get("samples", 0.0) / n,
            "executor.chunks": 0.0,  # jobs fold in the server's threads
            "store.groups": 0.0,
            "store.bytes": 0.0,
            "output.bytes": 0.0,
            "cache.hits": counts.get("hits", 0.0) / n,
            "cache.misses": counts.get("misses", 0.0) / n,
            "service.queue_wait_s": queue,
            "service.execute_s": elapsed - queue,
            "service.http_s": latency - elapsed - metrics["service.analyses_s"],
            "service.rejected": (after["rejected"] - before["rejected"]) / n,
            "service.coalesce_hits": (after["coalesce_hits"] - before["coalesce_hits"]) / n,
        }
    )
    metrics.update(layers.derived(metrics, latency))
    metrics["trace.overhead_frac"] = spans.overhead_frac(window)
    return metrics


def service_workload(workload: str, seed: int, budget: "Budget", trace: bool, work: Path) -> Outcome:
    outcome = Outcome()

    def seed_of(index: int) -> int:
        return seed + index

    warmup = min(WARMUP_JOBS, budget.jobs) if budget.jobs is not None else WARMUP_JOBS
    warm: List[Job] = []
    measured: List[Job] = []
    started = time.perf_counter()
    deadline = started + budget.seconds
    server = Server(work, traced=trace)
    try:
        drive(server, seed_of, 0, warm, count=warmup)
        if not trace:
            setups = [server.setup_s]
            load_s = 0.0
            rss = None
            while not (budget.load_done(len(measured), deadline) and budget.cold_starts_done(len(setups), deadline)):
                if not budget.load_done(len(measured), deadline):
                    count = budget.jobs
                    if rss is None:  # pause at RSS_AT_JOBS jobs to read the resident set
                        count = RSS_AT_JOBS - warmup if count is None else min(count, RSS_AT_JOBS - warmup)
                    sliced = time.perf_counter()
                    until = min(sliced + LOAD_SLICE_S, deadline) if budget.jobs is None else None
                    drive(server, seed_of, warmup, measured, count=count, until=until)
                    load_s += time.perf_counter() - sliced
                    if rss is None and warmup + len(measured) >= RSS_AT_JOBS:
                        rss = server.memory_mb("VmRSS")
                if not budget.cold_starts_done(len(setups), deadline):
                    cold = Server(work, traced=False)
                    setups.append(cold.setup_s)
                    cold.stop()
            if rss is None:
                rss = server.memory_mb("VmRSS")
            hwm = server.memory_mb("VmHWM")
        else:
            before = _http(server.base + "/stats")
            start_ns = time.perf_counter_ns()
            until = deadline if budget.jobs is None else None
            drive(server, seed_of, warmup, measured, count=budget.jobs, until=until, status=True)
            after = _http(server.base + "/stats")
    finally:
        result = server.stop()
    ok = [job for job in measured if job.problem is None]
    if not ok:
        raise BenchError(f"{workload}: no job succeeded: {[j.problem for j in measured[:3]]}")
    latencies = [job.latency_s for job in ok]
    if not trace:
        outcome.metrics = {
            "setup_s": (statistics.median(setups), len(setups)),
            "latency_p50_s": (statistics.median(latencies), len(latencies)),
            # 165-260 measured jobs: p90 is the highest percentile with ten beyond it
            "latency_p90_s": (
                statistics.quantiles(latencies, n=10, method="inclusive")[8]
                if len(latencies) > 1
                else latencies[0],
                len(latencies),
            ),
            "throughput_per_s": (len(measured) / load_s, len(measured)),
            "rss_mb": (rss, 1),
            "server_hwm_mb": (hwm, 1),
        }
    else:
        if result is None:
            raise BenchError(f"{workload}: the traced server wrote no spans")
        outcome.absent = result["absent"]
        metrics = _service_layers(result, ok, start_ns, (before, after))
        metrics["latency_p50_s"] = statistics.median(latencies)
        outcome.metrics = {name: (value, len(ok)) for name, value in metrics.items()}

    # the first two measured seeds
    reference = {s: _reference_digest(s) for s in (seed_of(warmup), seed_of(warmup + 1))}
    _check_jobs(outcome, warm + measured, reference)
    outcome.metrics["failed_fraction"] = (outcome.failed / outcome.attempted, outcome.attempted)
    return outcome


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
@dataclass
class Budget:
    """How much each workload runs: a time budget or fixed counts."""

    seconds: float
    repeat: Optional[int] = None
    jobs: Optional[int] = None

    def cli_done(self, done: int, attempts: int, started: float, first_rep: float) -> bool:
        """Whether to stop after ``attempts`` repetitions, ``done`` of them good.

        The budget counts from ``started``, the warm-up included; the
        repetitions began at ``first_rep``.  The next repetition is only
        run if it is expected to end within the budget.
        """
        if self.repeat is not None:
            return done >= self.repeat or attempts >= 3 * self.repeat
        if attempts == 0:
            return False
        now = time.perf_counter()
        expected = (now - first_rep) / attempts
        elapsed = now - started
        return (done >= MIN_REPS and elapsed + expected > self.seconds) or elapsed >= 2 * self.seconds

    def load_done(self, jobs: int, deadline: float) -> bool:
        """Whether the service has run enough measured jobs."""
        if self.jobs is not None:
            return jobs >= self.jobs
        return time.perf_counter() >= deadline

    def cold_starts_done(self, starts: int, deadline: float) -> bool:
        """Whether enough server starts were timed (the serving one included)."""
        if self.repeat is None and self.jobs is None and time.perf_counter() < deadline:
            return False
        return starts >= (self.repeat or MIN_COLD_STARTS)


WORKLOADS = {
    "cli-paper": cli_workload,
    "cli-ooc": cli_workload,
    "svc-distinct": service_workload,
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, help="default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="time per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="the traced pass: per-layer metrics (bare --trace means 1)",
    )
    parser.add_argument("--repeat", type=int, default=None, help="CLI repetitions and server starts")
    parser.add_argument("--jobs", type=int, default=None, help="measured service jobs")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench_pipeline: no program to measure ({SRC}/repro is missing)", file=sys.stderr)
        return 2
    if (args.repeat is not None and args.repeat < 1) or (args.jobs is not None and args.jobs < 1):
        parser.error("--repeat and --jobs must be >= 1")
    # The server shuts down on SIGINT.  A shell starts background jobs with
    # SIGINT ignored, which children inherit, while a handler is reset to
    # the default in a child: handle it here.  SIGTERM unwinds the same way,
    # so that every child and server is stopped on the way out.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    budget = Budget(args.seconds, args.repeat, args.jobs)
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    workloads = args.workload or names

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    results: Dict[str, Outcome] = {}
    try:
        for workload in workloads:
            wdir = work / workload
            wdir.mkdir()
            results[workload] = WORKLOADS[workload](workload, args.seed, budget, trace, wdir)
    except BenchError as error:
        print(f"bench_pipeline: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{'workload':13s} {'metric':34s} {'median':>14s} {'unit':6s} {'n':>5s}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload, outcome in results.items():
        for name, (value, n) in outcome.metrics.items():
            print(f"{workload:13s} {name:34s} {value:14.6g} {units.get(name) or _unit(name):6s} {n:5d}")
        for path in outcome.absent:
            print(f"{workload:13s} absent target {path}")
        for problem in outcome.problems:
            print(f"{workload:13s} FAILED {problem}")
    metrics = {}
    for workload, outcome in results.items():
        prefix = "" if len(results) == 1 else f"{workload}/"
        for metric in wanted:
            value, _ = outcome.metrics[metric["name"]]
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    attempted = sum(o.attempted for o in results.values())
    failed = sum(o.failed for o in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
