"""Proxy applications (MiniFE, MiniMD, MiniQMC).

The paper measures only when each thread of a timed compute region finishes,
so each application provides the two things that shape those arrival times:

1. **A work model** — how the timed loop's iterations map to threads and how
   much compute each costs at the paper's problem sizes (200³ MiniFE mesh,
   128³ MiniMD box, one mover per thread for MiniQMC), folded through the
   configured OpenMP loop schedule.
2. **A calibrated cost/noise model** — per-unit costs and application-level
   variability tuned so the simulated campaign reproduces the paper's
   measured distribution *shapes* (medians, IQRs, laggard rates, normality
   classes); each application module's "Calibration" notes give its
   targets.

Use :func:`get_application` to construct one by name.
"""

from typing import Type

from repro._registry import Registry
from repro.apps.base import ApplicationConfig, ProxyApplication
from repro.apps.minife.app import MiniFEApp
from repro.apps.minimd.app import MiniMDApp
from repro.apps.miniqmc.app import MiniQMCApp

#: the application catalog: :class:`ProxyApplication` subclasses by
#: canonical name (``APPLICATIONS.register`` / ``.unregister`` / ``.names``)
APPLICATIONS: Registry[Type[ProxyApplication]] = Registry(
    "application",
    "applications",
    accepts=lambda cls: isinstance(cls, type) and issubclass(cls, ProxyApplication),
    expects="a ProxyApplication subclass",
    write_back=True,
)
for _app in (MiniFEApp, MiniMDApp, MiniQMCApp):
    APPLICATIONS.register(_app)


def get_application(name: str, **kwargs) -> ProxyApplication:
    """Construct a proxy application by name (``'minife'``, ``'minimd'``, ``'miniqmc'``)."""
    return APPLICATIONS.lookup(name)(**kwargs)


__all__ = [
    "ProxyApplication",
    "ApplicationConfig",
    "MiniFEApp",
    "MiniMDApp",
    "MiniQMCApp",
    "APPLICATIONS",
    "get_application",
]
