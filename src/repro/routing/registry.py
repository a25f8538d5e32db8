"""Declarative routing-policy registry and spec-string factory.

Policies register a factory under one or more names at import time;
:func:`make_policy` resolves a *spec string* — a registered name plus
optional ``key=val`` arguments, ``"drb:seed=3,max_paths=2"`` — into a
policy instance.  Spec strings are plain text, so they travel anywhere a
policy choice must be serialized: :class:`repro.parallel.tasks.SimTask`
params, perf-harness CLI flags, experiment configs.

Argument values coerce like topology-spec arguments do: ``"4"`` -> int,
``"0.5"`` -> float, ``"true"``/``"false"`` -> bool, anything else stays
a string.  Keyword arguments passed to :func:`make_policy` directly win
over spec-string arguments, so harness overrides stay possible.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable

from repro.routing.base import RoutingPolicy

__all__ = [
    "config_factory",
    "make_policy",
    "parse_policy_spec",
    "register",
    "registered_policies",
]

#: name -> factory; populated at import time (repro.routing registers the
#: built-in family, repro.routing.notified registers itself), read-only
#: afterwards.
_REGISTRY: dict[str, Callable[..., RoutingPolicy]] = {}

#: registered factories that take no ``rng``; :func:`make_policy` drops
#: an ``rng`` argument for these and passes it to every other factory.
_NO_RNG: set[Callable[..., RoutingPolicy]] = set()


def register(
    name: str,
    factory: Callable[..., RoutingPolicy],
    *,
    aliases: tuple[str, ...] = (),
) -> None:
    """Register ``factory`` under ``name`` (and ``aliases``).

    Names are case-insensitive.  Re-registering a taken name raises —
    two policies silently shadowing each other would make spec strings
    ambiguous across import orders.  ``factory`` takes an ``rng`` if
    its signature has an ``rng`` parameter or ``**kwargs``.
    """
    for key in (name, *aliases):
        key = key.strip().lower()
        if not key:
            raise ValueError("policy name must be non-empty")
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not factory:
            raise ValueError(f"routing policy {key!r} is already registered")
        _REGISTRY[key] = factory
    params = inspect.signature(factory).parameters.values()
    if not any(p.name == "rng" or p.kind is p.VAR_KEYWORD for p in params):
        _NO_RNG.add(factory)


def registered_policies() -> tuple[str, ...]:
    """All registered names (aliases included), sorted."""
    return tuple(sorted(_REGISTRY))


def config_factory(
    policy_cls: Callable[..., RoutingPolicy],
    config_cls: type,
    **fixed,
) -> Callable[..., RoutingPolicy]:
    """Factory adapter for policies taking a config dataclass.

    Spec strings carry flat ``key=val`` pairs, but the DRB-family and
    notified policies take their tunables bundled in a config dataclass.
    The returned factory routes any kwarg naming a ``config_cls`` field
    into a fresh config object, passes the rest (``rng``, ...) through,
    and pins ``fixed`` kwargs (e.g. FR-DRB's ``predictive`` flag).
    """
    names = {f.name for f in dataclasses.fields(config_cls)}

    def factory(**kwargs) -> RoutingPolicy:
        config = kwargs.pop("config", None)
        overrides = {k: kwargs.pop(k) for k in list(kwargs) if k in names}
        if overrides:
            if config is not None:
                raise ValueError(
                    f"{getattr(policy_cls, '__name__', policy_cls)}: pass "
                    "either config= or individual config fields, not both"
                )
            config = config_cls(**overrides)
        return policy_cls(config=config, **fixed, **kwargs)

    return factory


def _coerce_value(text: str):
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_policy_spec(spec: str) -> tuple[str, dict]:
    """Split ``"name:key=val,..."`` into ``(name, kwargs)``."""
    name, _, arg_text = spec.partition(":")
    kwargs: dict = {}
    for part in arg_text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or not key.strip():
            raise ValueError(
                f"bad policy spec argument {part!r} in {spec!r}; "
                "expected key=value"
            )
        kwargs[key.strip()] = _coerce_value(value.strip())
    return name.strip().lower(), kwargs


def make_policy(name: str, **kwargs) -> RoutingPolicy:
    """Build a policy from a registered name or a ``name:key=val,...`` spec.

    Recognized names: ``deterministic``, ``random``, ``cyclic``,
    ``adaptive``, ``adaptive-hop``, ``drb``, ``pr-drb``, ``fr-drb``,
    ``pr-fr-drb``, ``notified-adaptive``, ``ugal`` (plus aliases; see
    :func:`registered_policies`).  An ``rng`` keyword reaches only
    factories that take one, so seeded callers can always pass their
    routing stream; any other error from the factory propagates.
    """
    spec_name, spec_kwargs = parse_policy_spec(name)
    factory = _REGISTRY.get(spec_name)
    if factory is None:
        raise ValueError(
            f"unknown routing policy {spec_name!r}; registered policies: "
            f"{', '.join(registered_policies())}"
        )
    merged = {**spec_kwargs, **kwargs}
    if factory in _NO_RNG:
        merged.pop("rng", None)
    return factory(**merged)
