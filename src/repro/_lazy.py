"""The one lazy-facade mechanism (PEP 562) behind every package ``__init__``.

Nothing is imported until a name is touched and nothing is cached into the
facade: every access reads the *defining* module, so a rebinding there
(``monkeypatch.setattr``, the e2e layer wrappers) is what the facade returns.
"""

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, str], subpackages: tuple[str, ...] = ()):
    """``(__all__, __getattr__, __dir__)`` for ``package``: ``exports`` maps each name
    to its defining module; those modules' top packages below ``package`` (plus
    ``subpackages``) stay reachable as attributes, as after an eager import."""
    below = len(package) + 1
    children = {*subpackages, *(m[below:].partition(".")[0] for m in exports.values())}

    def __getattr__(name: str):
        if name in exports:
            return getattr(import_module(exports[name]), name)
        if name in children:
            return import_module(f"{package}.{name}")
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports, *children})

    return list(exports), __getattr__, __dir__
