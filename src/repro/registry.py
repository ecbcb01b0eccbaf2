"""Shared component-registry resolution and introspection.

Every pluggable seam of the library — RMA execution backends, checkpoint
stores, recovery protocols, study workloads — follows the same convention: a
module-level ``dict`` mapping short names to classes, and a keyword argument
that accepts either such a name or a ready instance.  This module implements
the two shared halves of that convention:

* :func:`resolve_component` — the lookup, done once so every seam produces
  the same error shape: an unknown name raises the *caller's* error class
  naming the bad value **and listing every registered choice** (never a bare
  ``KeyError``), and a value of the wrong type says what was expected;
* :func:`available` — read-only introspection: the registered names of a
  seam, by kind (``"backend"``, ``"store"``, ``"recovery"``,
  ``"workload"``).  Error messages and user-facing listings both come from
  here, so they can never drift apart.

Seam modules declare themselves with :func:`register_kind` at import time;
:func:`available` and an unknown-name lookup import the built-in modules of the
*one kind* asked about, so they work without the caller having touched them.
"""

from __future__ import annotations

from importlib import import_module
from typing import TypeVar

T = TypeVar("T")

__all__ = [
    "all_kinds",
    "available",
    "is_registered",
    "plural",
    "register_kind",
    "render_available",
    "resolve_component",
]

#: kind -> (name -> component), populated by :func:`register_kind`.
_KINDS: dict[str, dict[str, object]] = {}

#: kind -> the built-in modules that register (or extend) it, imported on
#: demand so a lookup loads only the seam it asks about: ``"proc"`` lives in a
#: module nothing else imports, ``"kv_service"`` registers from repro.serve
#: into the study workload catalog.
_BUILTIN_KIND_MODULES = {
    "backend": ("repro.backends.proc",),
    "store": ("repro.ft.stores",),
    "recovery": ("repro.ft.recovery",),
    "workload": ("repro.study.workloads", "repro.serve.service"),
    "scenario": ("repro.chaos.scenarios",),
}


def _import_builtins(*kinds: str) -> None:
    """Import the built-in modules of ``kinds`` (of every kind when none given)."""
    for kind in kinds or _BUILTIN_KIND_MODULES:
        for module in _BUILTIN_KIND_MODULES.get(kind, ()):
            import_module(module)


def register_kind(kind: str, registry: dict[str, object]) -> None:
    """Declare ``registry`` as the name → class table of seam ``kind`` (a
    name → name table for a seam that only renames another's components).

    Called once at import time by each seam module.  The *same dict object*
    the seam resolves against is registered, so :func:`available` can never
    disagree with :func:`resolve_component`.
    """
    _KINDS[kind] = registry


def available(kind: str) -> tuple[str, ...]:
    """Sorted names registered for seam ``kind`` (read-only introspection).

    ``kind`` is one of ``"backend"``, ``"store"``, ``"recovery"``,
    ``"workload"`` (plus any kind registered by third-party extensions).
    Raises :class:`KeyError` naming the known kinds for an unknown one.

    Always loads the kind's built-in modules first: some of them *extend* a
    registry another module created (``repro.serve.service`` adds its
    workload to the study catalog), so the kind being present is not proof
    the listing is complete.
    """
    _import_builtins(kind)
    registry = _KINDS.get(kind)
    if registry is None:
        _import_builtins()
        known = ", ".join(repr(name) for name in sorted(_KINDS))
        raise KeyError(f"unknown component kind {kind!r}; registered kinds are: {known}")
    return tuple(sorted(registry))


def is_registered(kind: str, name: str) -> bool:
    """Whether ``name`` is a registered ``kind``; loads the kind's built-in
    modules only for a name not known yet (validating ``"sim"`` stays free)."""
    return name in _KINDS.get(kind, ()) or name in available(kind)


def _known_names(kind: str, registry: dict[str, type[T]]) -> tuple[str, ...]:
    """The listing used in error messages: :func:`available` when the seam is
    registered under ``kind``, the raw registry otherwise (custom seams)."""
    if _KINDS.get(kind) is registry:
        return available(kind)
    return tuple(sorted(registry))


def all_kinds() -> tuple[str, ...]:
    """Sorted names of every registered seam kind (imports the built-ins)."""
    _import_builtins()
    return tuple(sorted(_KINDS))


def render_available() -> str:
    """Multi-line listing of every kind and its registered names.

    Shared by the ``--list`` flag of both engine CLIs (``python -m
    repro.{study,chaos}``), so both print the same catalog.
    """
    lines = []
    for kind in all_kinds():
        lines.append(f"{plural(kind)}: {', '.join(available(kind))}")
    return "\n".join(lines)


def plural(kind: str) -> str:
    """Plural form of a kind name for error messages ("recovery" → "recoveries")."""
    return kind[:-1] + "ies" if kind.endswith("y") else kind + "s"


def resolve_component(
    kind: str,
    spec: object,
    registry: dict[str, type[T]],
    base: type[T],
    error: type[Exception],
    *,
    default: str | None = None,
    dry_run: bool = False,
    **kwargs: object,
) -> T:
    """Resolve ``spec`` into a fresh (or given) instance of ``base``.

    Parameters
    ----------
    kind:
        Name of the seam ("backend", "store", ...) used in error messages and
        matched against :func:`register_kind` declarations.
    spec:
        ``None`` (use ``default``), a registered name, or an instance of
        ``base`` passed through unchanged (so tests and instrumented runs can
        inject custom implementations).
    registry:
        The seam's name → class registry.
    base:
        The protocol class instances must satisfy.
    error:
        Exception class raised on an unknown name or a wrong-typed value.
    default:
        Registry name substituted for ``spec=None``.
    dry_run:
        Validate only: an unknown name or wrong-typed value still raises,
        but nothing is constructed and ``None`` is returned for names.  Used
        by declarative policies to fail at declaration time without
        instantiating anything.
    kwargs:
        Constructor arguments forwarded when a *name* is instantiated;
        ignored for pass-through instances (their own configuration wins).
    """
    if spec is None:
        if default is None:
            raise error(f"a {kind} is required (none given and no default)")
        spec = default
    if isinstance(spec, base):
        return spec
    if isinstance(spec, str):
        cls = registry.get(spec)
        if cls is None and _KINDS.get(kind) is registry:
            # A built-in module of this kind may extend the registry without
            # having been imported yet: load them and look again before
            # declaring the name unknown.
            _import_builtins(kind)
            cls = registry.get(spec)
        if cls is None:
            known = ", ".join(repr(name) for name in _known_names(kind, registry))
            raise error(
                f"unknown {kind} {spec!r}; registered {plural(kind)} are: {known} "
                f"(or pass a {base.__name__} instance)"
            )
        if dry_run:
            return None  # type: ignore[return-value]
        return cls(**kwargs)  # type: ignore[call-arg]
    raise error(
        f"{kind} must be a registered name or a {base.__name__} instance, "
        f"got {spec!r}"
    )
