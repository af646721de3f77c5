"""One name → entry registry, shared by every ``repro`` catalog.

The campaign backends, analysis passes, noise sources, noise profiles,
machines and scenarios are each one :class:`Registry`, and the public
``register_*`` / ``available_*`` / ``get_*`` / ``unregister_*`` functions of
their modules are bound to it.  The lookup policy lives here only:

* a name is matched after ``str(name).strip().lower()``;
* :meth:`Registry.register` works bare (``@register_x`` or
  ``register_x(entry)``: the entry names itself) or named
  (``@register_x("name", replace=...)``, ``register_x("name", entry)``);
* an empty or ``"abstract"`` name is rejected;
* registering the same (or an equal) entry under a taken name does
  nothing; a different entry raises :class:`ValueError` unless
  ``replace=True``;
* an unknown name raises :class:`ValueError` listing the registered names.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, Tuple, TypeVar

E = TypeVar("E")


def _same(existing: Any, entry: Any) -> bool:
    return existing is entry or existing == entry


class Registry(Generic[E]):
    """The entries of one catalog, by folded name.

    ``noun`` and ``plural`` word the errors (``"unknown <noun> 'x';
    registered <plural>: ..."``).  ``accepts`` checks an entry; any other is
    a :class:`TypeError` naming ``expects``.  A bare registration takes its
    name from the entry's ``name_attr`` attribute, and with ``write_back``
    every registration stores the folded key there (a class's ``name`` or
    ``kind``).  ``same(existing, entry)`` decides when registering a taken
    name again is a no-op.
    """

    def __init__(
        self,
        noun: str,
        plural: str,
        *,
        accepts: Callable[[Any], bool],
        expects: str,
        name_attr: str = "name",
        write_back: bool = False,
        same: Callable[[E, E], bool] = _same,
    ) -> None:
        self.noun = noun
        self.plural = plural
        self.accepts = accepts
        self.expects = expects
        self.name_attr = name_attr
        self.write_back = write_back
        self.same = same
        self._entries: Dict[str, E] = {}

    def register(self, name: Any = None, entry: Any = None, *, replace: bool = False):
        """Register ``entry`` (or, without one, return a decorator that
        does), under ``name`` or, when ``name`` is not a string, under the
        entry's own name; returns the entry."""

        def decorator(entry: E) -> E:
            if not self.accepts(entry):
                raise TypeError(f"the {self.noun} registry expects {self.expects}")
            own = name if isinstance(name, str) else getattr(entry, self.name_attr)
            key = str(own).strip().lower()
            if not key or key == "abstract":
                raise ValueError(f"{self.noun} needs a concrete registration name")
            existing = self._entries.get(key)
            if existing is not None and not replace:
                if self.same(existing, entry):
                    return entry
                raise ValueError(
                    f"{self.noun} {key!r} is already registered; "
                    "pass replace=True to override"
                )
            if self.write_back:
                setattr(entry, self.name_attr, key)
            self._entries[key] = entry
            return entry

        if entry is not None:
            return decorator(entry)
        if name is None or isinstance(name, str):
            return decorator
        return decorator(name)

    def names(self) -> Tuple[str, ...]:
        """The registered names, sorted."""
        return tuple(sorted(self._entries))

    def lookup(self, name: str) -> E:
        """The entry registered under ``name``."""
        try:
            return self._entries[str(name).strip().lower()]
        except KeyError:
            raise ValueError(
                f"unknown {self.noun} {name!r}; registered {self.plural}: "
                f"{', '.join(self.names()) or '(none)'}"
            ) from None

    def unregister(self, name: str) -> None:
        """Remove ``name`` from the registry (a no-op if it is unknown)."""
        self._entries.pop(str(name).strip().lower(), None)
