"""The runtime needs numpy only: SciPy is a test oracle, never imported by
the program.

Each check runs in a fresh interpreter, so modules the test session itself
has loaded (SciPy among them) cannot mask an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ENV = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}

#: runs the CLI with every ``import scipy`` failing (a ``None`` entry in
#: ``sys.modules`` makes the import raise ``ImportError``)
_CLI_WITHOUT_SCIPY = (
    "import sys; sys.modules['scipy'] = None; "
    "from repro.experiments.runner import main; sys.exit(main(sys.argv[1:]))"
)


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=ENV, timeout=300
    )


@pytest.mark.parametrize("module", ["repro.experiments.runner", "repro.service.cli"])
def test_import_does_not_load_scipy(module):
    code = (
        f"import sys, {module}; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "print(loaded); sys.exit(1 if loaded else 0)"
    )
    run = _python("-c", code)
    assert run.returncode == 0, run.stdout.decode() + run.stderr.decode()[-2000:]


@pytest.mark.parametrize(
    "extra",
    [[], ["--analyses", "all"], ["--analyses", "all", "--out-of-core"]],
    ids=["tables", "analyses-in-memory", "analyses-out-of-core"],
)
def test_smoke_cli_runs_without_scipy(tmp_path, extra):
    output = tmp_path / "out"
    run = _python(
        "-c", _CLI_WITHOUT_SCIPY, "--scale", "smoke", "--output", str(output), *extra
    )
    assert run.returncode == 0, run.stderr.decode()[-2000:]
    assert (output / "report.txt").is_file()
    if "--analyses" in extra:
        for app in ("minife", "minimd", "miniqmc"):
            payload = json.loads((output / f"analyses_{app}.json").read_text())
            assert "pass_rate_dagostino" in json.dumps(payload)
    else:
        assert (output / "table1.csv").is_file()
