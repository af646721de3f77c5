"""Child process of ``bench_pipeline.py``: one CLI repetition (not a benchmark).

    python _cli_child.py RESULT.json [--trace TRACE_ID SPOOL_DIR] -- RUNNER_ARGS...

Imports ``repro.experiments.runner``, calls ``runner.main(RUNNER_ARGS)`` and
writes one JSON object to ``RESULT.json``: when the import finished
(``ready_ns``, on the ``perf_counter_ns`` clock the parent shares), how long
it took, the wall time of ``runner.main``, its exit code and the peak RSS of
this process and of its (reaped) pool workers.  With ``--trace`` the
pipeline runs inside a root span ``pipeline`` with the layer wrappers of
``layers.TARGETS`` installed, and the spans (pool workers' included) are
written too.  A fresh process per repetition is the point: imports, pool
start-up and peak RSS are measured afresh every time.
"""

import time

START_NS = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    own = sys.argv[1 : sys.argv.index("--")]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    result_path = Path(own[0])

    import repro.experiments.runner as runner

    ready_ns = time.perf_counter_ns()
    recorder = installation = handle = None
    if own[1:2] == ["--trace"]:
        import layers
        import spans

        recorder = spans.Recorder(spool_dir=Path(own[3]))
        installation = spans.install(recorder, layers.TARGETS)
        handle = recorder.open("pipeline", trace=int(own[2]))
    started = time.perf_counter_ns()
    code = runner.main(argv)
    pipeline_s = (time.perf_counter_ns() - started) / 1e9
    result = {
        "ready_ns": ready_ns,
        "import_s": (ready_ns - START_NS) / 1e9,
        "pipeline_s": pipeline_s,
        "exit_code": code,
        "pid": os.getpid(),
        # Linux reports ru_maxrss in KiB; chunk workers are reaped by now
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024,
    }
    if recorder is not None:
        recorder.close(handle)
        installation.uninstall()
        result["spans"] = recorder.collect()
        result["absent"] = installation.absent
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
