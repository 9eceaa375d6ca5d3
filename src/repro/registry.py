"""String-keyed component registries (the plug-in seam of the spec API).

Prognosis's value is running *many* learning experiments -- different SUL
targets, learners, equivalence-testing strategies and oracle middleware.
Instead of if/else chains in :mod:`repro.framework` and :mod:`repro.cli`,
each component kind has a :class:`Registry` that maps a short string key to
a factory.  A :class:`repro.spec.ExperimentSpec` names components by key,
which is what makes specs serializable and campaigns enumerable.

Five registries are provided:

* :data:`SUL_REGISTRY` -- factories building a fresh
  :class:`~repro.adapter.sul.SUL` from keyword params (``seed`` etc.);
* :data:`LEARNER_REGISTRY` -- ``factory(oracle, equivalence_oracle, ...)``;
* :data:`EQ_ORACLE_REGISTRY` -- ``factory(oracle, ...)``;
* :data:`MIDDLEWARE_REGISTRY` -- ``factory(inner_oracle, ...)`` membership
  -oracle layers (cache, majority vote, ...);
* :data:`PROPERTY_REGISTRY` -- ``factory()`` property suites (sequences
  of :class:`~repro.analysis.property_api.Property`), keyed by target
  name or family stem and registered with :func:`register_properties`.

Built-in components register themselves on import of their home module;
:func:`load_builtins` triggers those imports and is called by every spec
entry point, so user code never has to.  Third-party protocols plug in with
the same decorator::

    from repro.registry import SUL_REGISTRY

    @SUL_REGISTRY.register("http3")
    def build_http3_sul(seed: int = 0) -> SUL: ...
"""

from __future__ import annotations

import inspect
from typing import Callable, Generic, Iterator, Mapping, Sequence, TypeVar

T = TypeVar("T")


class RegistryError(KeyError):
    """An unknown component key (the message lists what *is* registered)."""


class Registry(Generic[T]):
    """An ordered name -> factory mapping with a registration decorator."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[..., T]] = {}

    # -- registration ------------------------------------------------------
    def register(
        self, name: str, factory: Callable[..., T] | None = None
    ) -> Callable:
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering a name replaces the previous factory (tests and
        plug-ins may override built-ins deliberately).
        """

        def _record(fn: Callable[..., T]) -> Callable[..., T]:
            self._factories[name] = fn
            return fn

        if factory is not None:
            return _record(factory)
        return _record

    def unregister(self, name: str) -> None:
        self._factories.pop(name, None)

    # -- lookup ------------------------------------------------------------
    def get(self, name: str) -> Callable[..., T]:
        try:
            return self._factories[name]
        except KeyError:
            known = ", ".join(sorted(self._factories)) or "<none>"
            raise RegistryError(
                f"unknown {self.kind} {name!r}; registered: {known}"
            ) from None

    def create(self, name: str, *args, **params) -> T:
        """Instantiate the component registered under ``name``."""
        return self.get(name)(*args, **params)

    def names(self) -> tuple[str, ...]:
        """Registered keys, in registration order."""
        return tuple(self._factories)

    def families(self) -> dict[str, tuple[str, ...]]:
        """Registered keys grouped by their ``-``-separated stem.

        ``quic-google`` / ``quic-mvfst`` / ``quic-quiche`` form the
        ``quic`` family; a bare key (``http2``) belongs to its own stem's
        family alongside its variants (``http2-buggy``).  Keys within a
        family are sorted, the bare key first -- the discovery the
        ``repro difftest <family>`` CLI uses.
        """
        grouped: dict[str, list[str]] = {}
        for name in self._factories:
            grouped.setdefault(name.split("-", 1)[0], []).append(name)
        return {
            stem: tuple(sorted(members)) for stem, members in grouped.items()
        }

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {sorted(self._factories)})"


#: System-under-learning targets (``tcp``, ``quic-google``, ..., plug-ins).
SUL_REGISTRY: Registry = Registry("SUL target")
#: Active-learning algorithms (``ttt``, ``lstar``).
LEARNER_REGISTRY: Registry = Registry("learner")
#: Equivalence-testing strategies (``wmethod``, ``random``).
EQ_ORACLE_REGISTRY: Registry = Registry("equivalence oracle")
#: Membership-oracle middleware layers (``cache``, ``majority-vote``).
MIDDLEWARE_REGISTRY: Registry = Registry("oracle middleware")
#: Property suites (``tcp``, ``quic``, ``http2``, ``toy``, plug-ins),
#: keyed by SUL target name or family stem.
PROPERTY_REGISTRY: Registry = Registry("property suite")


class RegistryFactory:
    """A picklable SUL factory: a registry key plus construction params.

    ``lambda: factory(**params)`` closures cannot cross a process
    boundary under the ``spawn`` start method, and several built-in
    targets (the QUIC family) are themselves registered as closures.
    This factory ships only ``(target, params)`` and resolves the
    registry *inside* the worker process, so any registered target works
    with the ``process`` executor backend.
    """

    def __init__(self, target: str, params: Mapping | None = None) -> None:
        self.target = target
        self.params = dict(params or {})

    def __call__(self):
        load_builtins()
        factory = SUL_REGISTRY.get(self.target)
        return factory(**self.params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegistryFactory({self.target!r}, {self.params!r})"


def register_properties(name: str) -> Callable:
    """Register a property-suite factory under ``name`` (decorator form).

    The factory takes no arguments and returns a sequence of
    :class:`~repro.analysis.property_api.Property`.  Keys follow SUL
    target naming: an exact target key (``http2-buggy``) wins over the
    family stem (``http2``), so a whole family usually shares one suite
    registered under the stem::

        @register_properties("quic")
        def quic_properties() -> tuple[Property, ...]: ...
    """
    return PROPERTY_REGISTRY.register(name)


def resolve_property_suite(target: str):
    """The property suite for a SUL target, or ``None`` when unregistered.

    Resolution tries the exact target key first, then the
    ``-``-separated family stem -- the same stem grouping
    :meth:`Registry.families` uses, so ``quic-google`` finds the suite
    registered as ``quic``.
    """
    load_builtins()
    if target in PROPERTY_REGISTRY:
        return tuple(PROPERTY_REGISTRY.create(target))
    stem = target.split("-", 1)[0]
    if stem in PROPERTY_REGISTRY:
        return tuple(PROPERTY_REGISTRY.create(stem))
    return None


def attacks_for(target: str) -> tuple[str, ...]:
    """Attacker-automaton keys applicable to a SUL target, in key order.

    Applicability matches the exact target key or its ``-``-separated
    family stem (the :meth:`Registry.families` grouping), so ``tcp`` and
    ``tcp-no-challenge-ack`` both find the TCP adversaries.  Returns an
    empty tuple -- not an error -- for targets no adversary speaks.
    """
    load_builtins()
    from .attack.automata import ATTACK_REGISTRY

    return tuple(
        name
        for name in ATTACK_REGISTRY.names()
        if ATTACK_REGISTRY.create(name).applicable_to(target)
    )


def resolve_targets(
    names: Sequence[str],
    exact: bool = False,
    allow_unknown: bool = False,
) -> tuple[str, ...]:
    """Expand target/family names into concrete SUL target keys.

    The resolution rule every multi-target verb and campaign shares
    through :func:`repro.campaign.member_specs`:

    * an exact registered key (``http2-buggy``) resolves to itself;
    * a family stem with any member besides itself (``quic``) expands to
      all of them -- unless the stem is *also* a registered target (``http2``,
      ``tcp``) and appears alongside other names, in which case the
      bare target wins (as the sole argument it still expands, which is
      what ``repro difftest http2`` relies on);
    * ``exact=True`` suppresses expansion entirely;
    * duplicates arising from overlap (``quic quic-google``) collapse,
      preserving first-mention order.

    Unknown names raise :class:`RegistryError` listing every registered
    target and family, or pass through verbatim with
    ``allow_unknown=True`` (:func:`repro.campaign.member_specs` uses
    that to fall back to spec-file paths).
    """
    load_builtins()
    families = SUL_REGISTRY.families()
    expanded: list[str] = []
    for name in names:
        is_family = families.get(name, (name,)) != (name,)
        expand = (
            not exact
            and is_family
            and (name not in SUL_REGISTRY or len(names) == 1)
        )
        if expand:
            expanded.extend(families[name])
        else:
            expanded.append(name)
    resolved = tuple(dict.fromkeys(expanded))
    if not allow_unknown:
        for name in resolved:
            if name not in SUL_REGISTRY:
                raise RegistryError(
                    f"unknown SUL target {name!r} (not a registered "
                    f"target or family); known: {known_targets()}"
                )
    return resolved


def known_targets() -> str:
    """Every registered SUL target and family, sorted, for error messages."""
    load_builtins()
    return ", ".join(sorted(set(SUL_REGISTRY.families()) | set(SUL_REGISTRY.names())))


def supported_kwargs(
    factory: Callable, params: Mapping[str, object]
) -> dict[str, object]:
    """The subset of ``params`` that ``factory``'s signature accepts.

    Used to inject spec-level defaults (``batch_size``, ``seed``) into
    component factories without requiring every factory to declare them;
    a factory taking ``**kwargs`` receives everything.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins without introspectable sigs
        return dict(params)
    accepts_kwargs = any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    )
    if accepts_kwargs:
        return dict(params)
    names = {
        name
        for name, p in signature.parameters.items()
        if p.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    return {key: value for key, value in params.items() if key in names}


_BUILTINS_LOADED = False


def load_builtins() -> None:
    """Import every module that registers built-in components.

    Idempotent and cheap after the first call; spec/campaign/CLI entry
    points call it so registry lookups always see the built-ins.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Flag only flips once every import succeeded; a failed import leaves
    # it unset so the next call retries (and re-raises the real error)
    # instead of silently no-op'ing over half-populated registries.
    from .adapter import (  # noqa: F401
        h3_adapter,
        http2_adapter,
        mealy_sul,
        quic_adapter,
        remote,
        tcp_adapter,
    )
    from .analysis import (  # noqa: F401
        h3_properties,
        http2_properties,
        quic_properties,
        tcp_properties,
        toy_properties,
    )
    from .attack import automata as attack_automata  # noqa: F401
    from .learn import cache, equivalence, lstar, nondeterminism, ttt  # noqa: F401

    _BUILTINS_LOADED = True
