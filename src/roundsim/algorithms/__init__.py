"""Bundled protocol families. Importing this package registers every
algorithm id with the registry."""

from .base import Algorithm, get_algorithm, register
from . import blockchain, consensus, datalink, dht  # noqa: F401  (registration)

__all__ = ["Algorithm", "get_algorithm", "register",
           "blockchain", "consensus", "datalink", "dht"]
