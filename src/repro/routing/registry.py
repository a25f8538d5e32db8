"""Declarative routing-policy registry and spec-string factory.

Policies register a factory under one or more names at import time;
:func:`make_policy` resolves a *spec string* — a registered name plus
optional ``key=val`` arguments, ``"drb:seed=3,max_paths=2"`` — into a
policy instance.  Spec strings are plain text, so they travel anywhere a
policy choice must be serialized: :class:`repro.parallel.tasks.SimTask`
params, perf-harness CLI flags, experiment configs.

Argument values coerce like topology-spec arguments do: ``"4"`` -> int,
``"0.5"`` -> float, ``"true"``/``"false"`` -> bool, anything else stays
a string.  Each key must be a parameter the factory takes, and its value
of that parameter's annotated type (:func:`check_policy_spec`); ``rng``
and ``config`` are never spec-string keys.  Keyword arguments passed to
:func:`make_policy` directly win over spec-string arguments, so harness
overrides stay possible.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import Any, Callable, Optional

from repro.routing.base import RoutingPolicy

__all__ = [
    "check_policy_spec",
    "config_factory",
    "make_policy",
    "parse_policy_spec",
    "policy_aliases",
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


def policy_aliases() -> dict[str, tuple[str, ...]]:
    """One entry per registered factory, in registration order: the
    name it was registered under, mapped to its aliases."""
    names: dict[Callable[..., RoutingPolicy], list[str]] = {}
    for key, factory in _REGISTRY.items():
        names.setdefault(factory, []).append(key)
    return {keys[0]: tuple(keys[1:]) for keys in names.values()}


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
    config_fields = dataclasses.fields(config_cls)
    names = {f.name for f in config_fields}

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

    # What the factory takes, for spec-string checks: the config fields
    # plus the policy's own parameters that ``fixed`` does not pin.
    keyword = inspect.Parameter.KEYWORD_ONLY
    own = [
        p.replace(kind=keyword)
        for p in inspect.signature(policy_cls).parameters.values()
        if p.name not in fixed and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]
    factory.__signature__ = inspect.Signature(own + [  # type: ignore[attr-defined]
        inspect.Parameter(f.name, keyword, default=None, annotation=f.type)
        for f in config_fields
    ])
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


#: spec-string value checks by the parameter's annotation (its text up
#: to ``|``); a parameter with any other annotation takes any value.
_SPEC_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


@functools.lru_cache(maxsize=None)
def spec_params(factory: Callable[..., Any]) -> Optional[dict]:
    """The spec-string keys ``factory`` takes, each mapped to its value
    check (``None``: any value); ``None`` if it takes ``**kwargs``."""
    params = inspect.signature(factory).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    takes = {}
    for p in params:
        if p.name in ("rng", "config") or p.kind is p.VAR_POSITIONAL:
            continue
        text = p.annotation
        if not isinstance(text, str):
            text = getattr(text, "__name__", "")
        takes[p.name] = _SPEC_TYPES.get(text.partition("|")[0].strip())
    return takes


def check_policy_spec(spec: str) -> tuple[Callable[..., RoutingPolicy], dict]:
    """Parse ``spec`` and check it against its factory, building nothing.

    Returns ``(factory, kwargs)``.  ``ValueError`` for an unknown name,
    a key the factory does not take (``rng`` and ``config`` included)
    and a value not of its parameter's annotated type.  A factory taking
    ``**kwargs`` accepts any key.
    """
    if not isinstance(spec, str):
        raise ValueError(f"a policy spec must be a string, got {spec!r}")
    name, kwargs = parse_policy_spec(spec)
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown routing policy {name!r}; registered policies: "
            f"{', '.join(registered_policies())}"
        )
    takes = spec_params(factory)
    if takes is None:
        return factory, kwargs
    for key, value in kwargs.items():
        if key not in takes:
            raise ValueError(f"policy {name!r} takes no argument {key!r}; it takes {sorted(takes)}")
        check = takes[key]
        if check is not None and not check[0](value):
            raise ValueError(f"policy {name!r}: {key!r} must be {check[1]}, got {value!r}")
    return factory, kwargs


def make_policy(name: str, **kwargs) -> RoutingPolicy:
    """Build a policy from a registered name or a ``name:key=val,...`` spec.

    Recognized names: ``deterministic``, ``random``, ``cyclic``,
    ``adaptive``, ``adaptive-hop``, ``drb``, ``pr-drb``, ``fr-drb``,
    ``pr-fr-drb``, ``notified-adaptive``, ``ugal`` (plus aliases; see
    :func:`registered_policies`).  The spec string is checked first
    (:func:`check_policy_spec`).  An ``rng`` keyword reaches only
    factories that take one, so seeded callers can always pass their
    routing stream; any other error from the factory propagates.
    """
    factory, spec_kwargs = check_policy_spec(name)
    merged = {**spec_kwargs, **kwargs}
    if factory in _NO_RNG:
        merged.pop("rng", None)
    return factory(**merged)
