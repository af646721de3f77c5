"""Traced-server launcher of ``bench_pipeline.py`` (not a benchmark itself).

    python _serve_child.py RESULT.json SPOOL_DIR -- SERVE_ARGS...

Imports the service, installs the layer wrappers of ``layers.TARGETS`` and
calls ``repro.service.cli.serve_main(SERVE_ARGS)``, which serves until
SIGINT.  Then it writes the import time, the absent targets and every span
the server recorded to ``RESULT.json``.  The untraced runs start the server
as ``python -m repro serve`` instead.
"""

import time

START_NS = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    own = sys.argv[1 : sys.argv.index("--")]
    argv = sys.argv[sys.argv.index("--") + 1 :]

    # serve_main imports the service modules lazily; import them here so
    # the import time covers everything the server loads before listening
    import repro.service.api  # noqa: F401
    import repro.service.http  # noqa: F401
    from repro.service.cli import serve_main

    import_s = (time.perf_counter_ns() - START_NS) / 1e9
    import layers
    import spans

    recorder = spans.Recorder(spool_dir=Path(own[1]))
    installation = spans.install(recorder, layers.TARGETS)
    try:
        code = serve_main(argv)
    finally:
        installation.uninstall()
        Path(own[0]).write_text(
            json.dumps(
                {
                    "import_s": import_s,
                    "pid": os.getpid(),
                    "absent": installation.absent,
                    "spans": recorder.collect(),
                }
            )
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
