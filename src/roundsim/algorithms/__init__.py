"""Bundled protocol families. Importing this package registers nothing:
`get_algorithm` imports a bundled id's family module on the first lookup
of the id (see `base.BUNDLED`), and each family module is also an
attribute of this package, imported on first access."""

from importlib import import_module

from .base import BUNDLED, Algorithm, get_algorithm, register

_FAMILIES = tuple(sorted(set(BUNDLED.values())))

__all__ = ["Algorithm", "get_algorithm", "register", *_FAMILIES]


def __getattr__(name):
    if name in _FAMILIES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
