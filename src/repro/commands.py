"""The command line's front door: ``repro-campaign`` and ``python -m repro``.

A first argument named in :data:`SUBCOMMANDS` runs that subcommand (the
campaign service's ``serve`` and ``submit``, the cache tier's ``cache``);
anything else is the campaign CLI (:mod:`repro.experiments.runner`).  The
table is consulted before the runner is imported, so a serving process
never loads the campaign CLI's modules (the runner, figures, tables and
the ASCII/CSV output).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional, Sequence

#: subcommand -> ``module:function`` of its entry point
SUBCOMMANDS = {
    "serve": "repro.service.cli:serve_main",
    "submit": "repro.service.cli:submit_main",
    "cache": "repro.io.cache_tier:main",
}


def positive_int(value: str) -> int:
    """argparse type: an integer >= 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def run_subcommand(arguments: Sequence[str]) -> Optional[int]:
    """Run ``arguments`` as a subcommand and return its exit code, or
    ``None`` when the first argument names none."""
    target = SUBCOMMANDS.get(arguments[0]) if arguments else None
    if target is None:
        return None
    module, name = target.split(":")
    return getattr(importlib.import_module(module), name)(list(arguments[1:]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-campaign`` console script."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    code = run_subcommand(arguments)
    if code is not None:
        return code
    from repro.experiments.runner import main as campaign_main

    return campaign_main(arguments)
