"""``python -m repro`` — the ``repro-campaign`` command line.

Keeps the campaign runner and the service and cache subcommands reachable
without installing console scripts (``PYTHONPATH=src python -m repro
--list-scenarios``), which is how the CI scenario-matrix job drives it.
"""

import sys

from repro.commands import main

if __name__ == "__main__":
    sys.exit(main())
