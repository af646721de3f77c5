"""Out-of-core shard store: peak RSS and throughput vs campaign scale.

Each measurement runs in a subprocess (``_out_of_core_child.py``) so its
``ru_maxrss`` is exactly one campaign's high-water mark, then reports:

* ``peak_rss_mb`` — the head-line number: spilled campaigns hold ~one
  shard-store group in memory regardless of campaign size, while the
  in-memory path grows linearly with the sample count;
* ``samples_per_second`` and the streamed sha256 ``digest`` — equal digests
  between modes prove the spill path is bit-identical to in-memory.

Scales are multiples of a ~50 k-sample base campaign on the trials axis
(1x / 10x / 100x — the 100x campaign is ~5 M samples, the same growth
factor the paper's campaign would need for 100x more trials).

CI guards ride along (run without ``--benchmark-only`` in the guard
step): the 100x spilled campaign must stay inside ``MEMORY_BUDGET_MB``,
both alone and with every analysis pass folded over its store, the
analysed peak may grow at most ``ANALYSES_BYTES_PER_SAMPLE`` per added
sample from 10x to 100x, and at 1x the spill path must stay within 2x of
in-memory throughput while matching its digest bit-for-bit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

#: base campaign (trials=BASE_TRIALS): 4 x 2 x 130 x 48 = 49 920 samples
BASE_TRIALS = 4
SCALE_FACTORS = (1, 10, 100)
#: hard ceiling for the 100x spilled campaign's peak RSS; the interpreter
#: plus numpy alone cost ~80 MB, the measured spill path ~90 MB, while the
#: in-memory 100x campaign needs ~650 MB
MEMORY_BUDGET_MB = 256
#: the spill path may cost at most this slowdown factor at 1x
THROUGHPUT_FACTOR = 2.0
#: bytes the analysed peak may grow per added sample from the 10x to the
#: 100x spilled campaign: what the analyses keep per process-iteration
#: group (measured ~1.1 B per sample on a 2-core host); the samples
#: themselves stay on disk
ANALYSES_BYTES_PER_SAMPLE = 2.0
#: spill threshold of the growth measurement: the 10x campaign (~4 MB)
#: then spills one group as large as each of the 100x campaign's, so the
#: per-group working set of the fold cancels out of the difference
GROWTH_SPILL_MB = 4

_CHILD = Path(__file__).with_name("_out_of_core_child.py")


@lru_cache(maxsize=None)
def _measure(
    mode: str,
    factor: int,
    workers: int = 1,
    analyses: bool = False,
    spill_mb: int = 8,
) -> dict:
    """Run one child measurement (cached per process: guards reuse bench runs)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    output = subprocess.run(
        [
            sys.executable,
            str(_CHILD),
            "--mode",
            mode,
            "--trials",
            str(BASE_TRIALS * factor),
            "--max-workers",
            str(workers),
            "--spill-mb",
            str(spill_mb),
        ]
        + (["--analyses"] if analyses else []),
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return json.loads(output)


def _record(benchmark, mode: str, factor: int) -> dict:
    result = benchmark.pedantic(
        _measure, args=(mode, factor), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {
            "mode": mode,
            "scale_factor": factor,
            "samples": result["samples"],
            "samples_per_second": result["samples_per_second"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    )
    return result


@pytest.mark.benchmark(group="out-of-core")
@pytest.mark.parametrize("factor", SCALE_FACTORS)
def test_out_of_core_scaling(benchmark, factor):
    """Spilled campaigns at growing scale: peak RSS must stay ~flat."""
    result = _record(benchmark, "ooc", factor)
    assert result["samples"] == BASE_TRIALS * factor * 2 * 130 * 48
    assert result["peak_rss_mb"] < MEMORY_BUDGET_MB


@pytest.mark.benchmark(group="out-of-core")
@pytest.mark.parametrize("factor", (1, 100))
def test_in_memory_baseline(benchmark, factor):
    """The in-memory path at 1x (throughput baseline) and 100x (RSS contrast)."""
    result = _record(benchmark, "memory", factor)
    assert result["digest"] == _measure("ooc", factor)["digest"]


# ----------------------------------------------------------------------
# CI guards (also run standalone, without --benchmark-only)
# ----------------------------------------------------------------------
def test_out_of_core_memory_guard():
    """100x campaign through the shard store stays inside the RAM budget."""
    result = _measure("ooc", 100)
    assert result["peak_rss_mb"] < MEMORY_BUDGET_MB, (
        f"100x spilled campaign peaked at {result['peak_rss_mb']:.0f} MB "
        f"(budget {MEMORY_BUDGET_MB} MB)"
    )


def test_out_of_core_analyses_memory_guard():
    """Every analysis pass folded over the spilled store stays inside the
    budget, and grows by at most ``ANALYSES_BYTES_PER_SAMPLE`` per added
    sample from the 10x to the 100x campaign.

    The analyses read the spilled campaign group by group and keep handles
    on the stored samples and a few numbers per process-iteration group,
    never the samples: the application-level normality row is selected in
    bounded memory, and a finalize holds one batch of pooled iteration rows
    (38 400 samples each at 100x).
    """
    result = _measure("ooc", 100, analyses=True)
    assert len(result["analyses"]) == 6
    assert result["peak_rss_mb"] < MEMORY_BUDGET_MB, (
        f"analyses over the 100x store peaked at {result['peak_rss_mb']:.0f} MB "
        f"(budget {MEMORY_BUDGET_MB} MB)"
    )
    small = _measure("ooc", 10, analyses=True, spill_mb=GROWTH_SPILL_MB)
    large = _measure("ooc", 100, analyses=True, spill_mb=GROWTH_SPILL_MB)
    grown = (large["peak_rss_mb"] - small["peak_rss_mb"]) * 2**20
    per_sample = grown / (large["samples"] - small["samples"])
    assert per_sample <= ANALYSES_BYTES_PER_SAMPLE, (
        f"analysed peak grew {per_sample:.2f} B per sample from 10x "
        f"({small['peak_rss_mb']:.1f} MB) to 100x ({large['peak_rss_mb']:.1f} MB); "
        f"bound {ANALYSES_BYTES_PER_SAMPLE} B"
    )


def test_out_of_core_parallel_memory_guard():
    """Chunk-parallel spilling stays inside the RAM budget at 4 workers.

    With ``max_workers=4`` the campaign backend's process workers write
    their chunks straight into the shard store's on-disk group format, so
    per-process residency is one chunk tensor regardless of campaign size
    (10x scale here keeps the CI wall-clock bounded — worker residency does
    not grow with the trials axis).  The digest must equal the serial
    spilled run's: direct worker spilling is bit-identical.
    """
    parallel = _measure("ooc", 10, workers=4)
    assert parallel["peak_rss_mb"] < MEMORY_BUDGET_MB, (
        f"4-worker spilled campaign peaked at {parallel['peak_rss_mb']:.0f} MB "
        f"(budget {MEMORY_BUDGET_MB} MB)"
    )
    assert parallel["digest"] == _measure("ooc", 10)["digest"], (
        "4-worker spilled campaign is not bit-identical to the serial spill"
    )


def test_out_of_core_throughput_guard():
    """At 1x the spill path is bit-identical and within 2x of in-memory."""
    spilled = _measure("ooc", 1)
    in_memory = _measure("memory", 1)
    assert spilled["digest"] == in_memory["digest"], (
        "spilled campaign is not bit-identical to the in-memory run"
    )
    floor = in_memory["samples_per_second"] / THROUGHPUT_FACTOR
    assert spilled["samples_per_second"] >= floor, (
        f"spill path too slow: {spilled['samples_per_second']:,.0f} samples/s "
        f"vs in-memory {in_memory['samples_per_second']:,.0f} "
        f"(floor {floor:,.0f})"
    )
