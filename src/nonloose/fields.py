"""Strict readers for the fields of JSON documents.

``json`` loads ``true`` as a ``bool``, which Python counts as an ``int``, and
``-16.7`` as a float that ``int()`` would truncate.  These readers accept only
the JSON type a field documents and raise the caller's domain error for any
other value, so nothing is coerced silently.
"""

from __future__ import annotations

from typing import Any

from .errors import DomainError


def read_int(value: Any, what: str, error: type[DomainError]) -> int:
    """``value`` if it is an integer and not a boolean; else raise ``error``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{what} must be an integer, got {value!r}")


def read_str(value: Any, what: str, error: type[DomainError]) -> str:
    """``value`` if it is a string; else raise ``error``."""
    if isinstance(value, str):
        return value
    raise error(f"{what} must be a string, got {value!r}")


def read_bool(value: Any, what: str, error: type[DomainError]) -> bool:
    """``value`` if it is ``true`` or ``false``; else raise ``error``."""
    if isinstance(value, bool):
        return value
    raise error(f"{what} must be true or false, got {value!r}")
