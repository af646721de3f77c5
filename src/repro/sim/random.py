"""Hierarchical, reproducible random-number streams.

Every stochastic component of the simulation (per-core noise, per-thread cost
jitter, per-walker acceptance in MiniQMC, ...) draws from its own named
stream.  Streams are derived from a root seed with
:class:`numpy.random.SeedSequence` spawning, so

* adding a new component never perturbs the draws of existing components, and
* two campaigns with the same root seed are bit-identical.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from typing import Dict, Iterable, List, Tuple

import numpy as np


def _key_to_int(key: Tuple) -> int:
    """Hash an arbitrary key tuple to a stable 32-bit integer."""
    text = "\x1f".join(str(part) for part in key)
    return zlib.crc32(text.encode("utf-8"))


class RandomStreams:
    """Factory of named, independent ``numpy`` generators.

    Parameters
    ----------
    seed:
        Root seed of the whole campaign.

    Examples
    --------
    >>> streams = RandomStreams(1234)
    >>> g1 = streams.get("minife", "noise", 0)
    >>> g2 = streams.get("minife", "noise", 1)
    >>> g1 is streams.get("minife", "noise", 0)
    True
    """

    def __init__(self, seed: int = 0, *, _path: Tuple[int, ...] = ()) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed)
        self._path: Tuple[int, ...] = tuple(int(part) for part in _path)
        self._root = np.random.SeedSequence(self.seed, spawn_key=self._path)
        self._cache: Dict[Tuple, np.random.Generator] = {}

    @property
    def path(self) -> Tuple[int, ...]:
        """Derivation path of this namespace (empty for a root instance)."""
        return self._path

    def _sequence(self, key: Tuple) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.seed, spawn_key=self._path + (_key_to_int(key),)
        )

    def get(self, *key) -> np.random.Generator:
        """Return (and cache) the generator for ``key``."""
        key = tuple(key)
        if key not in self._cache:
            self._cache[key] = np.random.default_rng(self._sequence(key))
        return self._cache[key]

    def fresh(self, *key) -> np.random.Generator:
        """Return a *new* generator for ``key`` (not cached, same seed path).

        Useful when a component needs to replay an identical draw sequence.
        """
        return np.random.default_rng(self._sequence(tuple(key)))

    def derive(self, *key) -> "RandomStreams":
        """Derive a *named* child namespace along the SeedSequence spawn path.

        Unlike :meth:`spawn` (which folds the key into a new root seed by
        XOR), derivation extends the ``spawn_key`` path, so

        * the child's streams are statistically independent of every stream of
          the parent (and of children derived under other names),
        * ``streams.derive("a").derive("b")`` and ``streams.derive("b")`` can
          never collide, and
        * re-deriving the same name anywhere (e.g. inside a worker process)
          reproduces the exact same streams — the property the parallel shard
          executor relies on for bit-identical campaign results.
        """
        key = tuple(key)
        if not key:
            raise ValueError("derive() requires at least one name component")
        return RandomStreams(self.seed, _path=self._path + (_key_to_int(key),))

    def spawn(self, *key) -> "RandomStreams":
        """Derive a child :class:`RandomStreams` namespace for a sub-component.

        Legacy seed-folding derivation; prefer :meth:`derive`, whose children
        are collision-free by construction.
        """
        return RandomStreams(self.seed ^ _key_to_int(tuple(key)) ^ 0x9E3779B9)

    def keys(self) -> Iterable[Tuple]:
        """Keys of all streams created so far."""
        return list(self._cache.keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={len(self._cache)})"


#: ``numpy.random.Generator`` drawing methods a :class:`PurposeSplitRNG`
#: proxies.  Each (scope, method, occurrence) triple seeds its own fresh
#: generator, so the set only needs to cover what the simulation draws.
_PROXIED_METHODS = frozenset(
    {
        "random",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "standard_exponential",
        "poisson",
        "pareto",
        "lognormal",
        "gamma",
        "integers",
        "choice",
        "permutation",
    }
)


class PurposeSplitRNG:
    """A drop-in ``Generator`` facade that keys draws by absolute purpose.

    The whole-campaign tensor backend samples every (trial, process) shard
    from one pass over (n_shards, n_iterations, n_threads) arrays — possibly
    in several shard chunks to bound peak memory, possibly with the chunks
    folded by different worker processes.  For every chunking *and* any
    worker assignment to be **bit-identical**, a draw's value must depend on
    nothing but its identity: draw sites are keyed by ``(scope path, method
    name, occurrence)`` and served a **fresh** generator from the underlying
    :class:`RandomStreams` seed path on every occurrence — no generator
    state survives between draw sites, so a chunk's draws depend only on
    which shards it contains, never on what ran before it (or in a sibling
    worker).

    * :meth:`scope` pushes a name onto the scope stack (the backend scopes
      stages like ``"costs"``/``"noise"``, the apps scope each shard, the
      noise model scopes each source index);
    * every proxied method call is numbered *within* its scope entry by
      method name, and the numbering resets each time the scope is
      re-entered — so the second ``poisson`` of a source maps to the same
      stream on every chunking.

    Because keys are stateless, any two scope entries with the same path
    would *replay* identical values — so every shard-varying draw must sit
    inside an absolute ``("shard", trial, process)`` scope, which makes the
    path unique per shard.  :meth:`generator` enforces this: a proxied draw
    outside a shard scope raises ``RuntimeError``, catching campaign draw
    sites that would silently correlate shards (the whole-tensor draws the
    pre-parallel backend used).  Data-dependent draw *sizes* are fine, as is
    skipping draws entirely — per-shard keys never shift a neighbour's
    stream.
    """

    def __init__(self, streams: RandomStreams, *scope) -> None:
        #: the *underived* streams this facade was built from.  Draw sites
        #: that must realize the exact same values as the per-shard backends
        #: (e.g. per-process application state, whose realization feeds every
        #: downstream cost draw) reach through this to the shared per-shard
        #: streams instead of the purpose-split namespace.
        self.root_streams = streams
        self._streams = streams.derive(*scope) if scope else streams
        self._scope: List[Tuple] = []
        self._counts: List[Dict[str, int]] = [{}]

    @contextmanager
    def scope(self, *name):
        """Enter a named draw scope (resets its occurrence numbering)."""
        if not name:
            raise ValueError("scope() requires at least one name component")
        self._scope.append(tuple(name))
        self._counts.append({})
        try:
            yield self
        finally:
            self._scope.pop()
            self._counts.pop()

    @contextmanager
    def rooted(self, *name):
        """Enter a scope at the root, as if no other scope were open.

        Replays the draws of another stage's scope path from inside the
        current one: the campaign hooks re-begin a shard's per-process state
        under its original ``("state", "shard", trial, process)`` path from
        within the cost and delay stages.
        """
        if not name:
            raise ValueError("rooted() requires at least one name component")
        saved = self._scope, self._counts
        self._scope, self._counts = [tuple(name)], [{}, {}]
        try:
            yield self
        finally:
            self._scope, self._counts = saved

    def generator(self, method: str) -> np.random.Generator:
        """A fresh generator keyed by ``method``'s occurrence in this scope."""
        if not any(part and part[0] == "shard" for part in self._scope):
            raise RuntimeError(
                "PurposeSplitRNG draw outside a ('shard', trial, process) "
                "scope: stateless shard-keyed streams would replay the same "
                "values for every shard.  Wrap the draw site in "
                "maybe_scope(rng, 'shard', trial, process)."
            )
        counts = self._counts[-1]
        occurrence = counts.get(method, 0)
        counts[method] = occurrence + 1
        key: Tuple = ()
        for part in self._scope:
            key += part
        return self._streams.fresh(*key, method, occurrence)

    def __getattr__(self, name: str):
        if name in _PROXIED_METHODS:

            def draw(*args, _name=name, **kwargs):
                return getattr(self.generator(_name), _name)(*args, **kwargs)

            return draw
        raise AttributeError(
            f"{type(self).__name__} proxies only {sorted(_PROXIED_METHODS)}; "
            f"{name!r} is not a supported drawing method"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PurposeSplitRNG(seed={self._streams.seed}, "
            f"scope={[p for p in self._scope]})"
        )


@contextmanager
def maybe_scope(rng, *name):
    """``rng.scope(*name)`` when supported, else a no-op.

    Lets shared draw sites (the noise model's per-source loop, the apps'
    batch kernels) scope their draws under a :class:`PurposeSplitRNG`
    without changing the byte-for-byte draw sequence of plain
    ``numpy.random.Generator`` callers — existing backends keep their
    pinned digests.
    """
    scope = getattr(rng, "scope", None)
    if scope is None:
        yield rng
    else:
        with scope(*name):
            yield rng
