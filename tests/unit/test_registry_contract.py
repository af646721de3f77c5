"""The one registry contract, checked on every catalog.

Applications, backends, analysis passes, noise sources, noise profiles,
machines and scenarios share one name → entry policy (:mod:`repro._registry`); each case
below drives a catalog through its public functions only.
"""

import dataclasses
from typing import Any, Callable

import pytest

from repro.analysis import available_analyses, get_analysis, register_analysis, unregister_analysis
from repro.analysis.passes import PercentilesPass
from repro.apps import APPLICATIONS, MiniQMCApp, get_application
from repro.cluster.config import MachineConfig
from repro.cluster.noise import NoiseSpec
from repro.experiments.backends import (
    CampaignTensorBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.scenarios import (
    Scenario,
    available_machines,
    available_noise_profiles,
    available_noise_sources,
    available_scenarios,
    get_machine,
    get_noise_source,
    get_scenario,
    noise_profile,
    register_machine,
    register_noise_profile,
    register_noise_source,
    register_scenario,
    unregister_machine,
    unregister_noise_profile,
    unregister_noise_source,
    unregister_scenario,
)
from repro.scenarios.sources import SilentSource

NAMES = ("contract-bare", "contract-named")


@dataclasses.dataclass(frozen=True)
class Catalog:
    """One registry's public functions, and how to make and recognise its
    entries: ``make(own_name, variant)`` builds a fresh entry that names
    itself ``own_name`` (variants 0 and 1 differ), ``equal(entry)`` an
    equal one, and ``resolves(got, entry)`` tells whether ``get`` returned
    what ``entry`` registered."""

    register: Callable
    get: Callable
    available: Callable
    unregister: Callable
    make: Callable[[str, int], Any]
    equal: Callable[[Any], Any] = lambda entry: entry
    resolves: Callable[[Any, Any], bool] = lambda got, entry: type(got) is entry


def _subclass(base, attr):
    return lambda own, variant: type(f"Contract{variant}", (base,), {attr: own})


def _profile(own, variant):
    def factory():
        return NoiseSpec(enabled=bool(variant))

    factory.__name__ = own
    return factory


def _machine(own, variant):
    def factory(**overrides):
        return MachineConfig(name=f"contract-{variant}", **overrides)

    factory.__name__ = own
    return factory


CATALOGS = {
    "applications": Catalog(
        APPLICATIONS.register,
        get_application,
        APPLICATIONS.names,
        APPLICATIONS.unregister,
        _subclass(MiniQMCApp, "name"),
    ),
    "backends": Catalog(
        register_backend,
        get_backend,
        available_backends,
        unregister_backend,
        _subclass(CampaignTensorBackend, "name"),
    ),
    "analyses": Catalog(
        register_analysis,
        get_analysis,
        available_analyses,
        unregister_analysis,
        _subclass(PercentilesPass, "name"),
    ),
    "noise-sources": Catalog(
        register_noise_source,
        get_noise_source,
        available_noise_sources,
        unregister_noise_source,
        _subclass(SilentSource, "kind"),
        resolves=lambda got, entry: got is entry,
    ),
    "noise-profiles": Catalog(
        register_noise_profile,
        noise_profile,
        available_noise_profiles,
        unregister_noise_profile,
        _profile,
        equal=lambda entry: _profile("copy", entry().enabled),
        resolves=lambda got, entry: got == entry(),
    ),
    "machines": Catalog(
        register_machine,
        get_machine,
        available_machines,
        unregister_machine,
        _machine,
        resolves=lambda got, entry: got.name == entry().name,
    ),
    "scenarios": Catalog(
        register_scenario,
        get_scenario,
        available_scenarios,
        unregister_scenario,
        lambda own, variant: Scenario(name=own, machine=("laptop", "manzano")[variant]),
        equal=dataclasses.replace,
        resolves=lambda got, entry: got == entry,
    ),
}


@pytest.fixture(params=sorted(CATALOGS))
def catalog(request):
    catalog = CATALOGS[request.param]
    yield catalog
    for name in NAMES:
        catalog.unregister(name)


def test_bare_registration_uses_the_entrys_own_name(catalog):
    entry = catalog.make("Contract-Bare", 0)
    assert catalog.register(entry) is entry
    assert "contract-bare" in catalog.available()
    assert catalog.resolves(catalog.get("  CONTRACT-bare "), entry)


def test_named_registration_folds_case_and_whitespace(catalog):
    entry = catalog.make("contract-own", 0)
    assert catalog.register(" Contract-Named ")(entry) is entry
    assert "contract-named" in catalog.available()
    assert catalog.resolves(catalog.get("CONTRACT-NAMED\t"), entry)


def test_registering_the_same_or_an_equal_entry_again_does_nothing(catalog):
    entry = catalog.make("contract-named", 0)
    catalog.register("contract-named")(entry)
    assert catalog.register("Contract-Named")(entry) is entry
    catalog.register("contract-named")(catalog.equal(entry))
    assert catalog.available().count("contract-named") == 1
    assert catalog.resolves(catalog.get("contract-named"), entry)


def test_a_different_entry_under_a_taken_name_needs_replace(catalog):
    first, second = catalog.make("contract-named", 0), catalog.make("contract-named", 1)
    catalog.register("contract-named")(first)
    with pytest.raises(ValueError, match="already registered"):
        catalog.register(" CONTRACT-named")(second)
    assert catalog.resolves(catalog.get("contract-named"), first)
    catalog.register("contract-named", replace=True)(second)
    assert catalog.resolves(catalog.get("contract-named"), second)


def test_an_unknown_name_lists_the_registered_ones(catalog):
    catalog.register("contract-named")(catalog.make("contract-named", 0))
    with pytest.raises(ValueError, match="unknown") as excinfo:
        catalog.get("contract-missing")
    message = str(excinfo.value)
    assert "contract-missing" in message
    for name in catalog.available():
        assert name in message


@pytest.mark.parametrize("name", ["", "  ", "abstract", " Abstract "])
def test_an_empty_or_abstract_name_is_rejected(catalog, name):
    with pytest.raises(ValueError, match="registration name"):
        catalog.register(name)(catalog.make("contract-named", 0))
    assert "abstract" not in catalog.available()


def test_unregister_removes_a_name(catalog):
    catalog.register("contract-named")(catalog.make("contract-named", 0))
    catalog.unregister(" CONTRACT-NAMED ")
    assert "contract-named" not in catalog.available()
    with pytest.raises(ValueError, match="unknown"):
        catalog.get("contract-named")
    catalog.unregister("contract-named")  # unknown names are a no-op
