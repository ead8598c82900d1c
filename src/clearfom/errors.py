"""Exception types shared across the toolkit, and the base of records that check their fields."""

from __future__ import annotations

__all__ = ["ClearError", "DomainError", "InsufficientDataError", "ConfigurationError",
           "InfeasibleLinkError"]


class ClearError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ClearError, ValueError):
    """An input value lies outside the domain of an operation."""


class InsufficientDataError(DomainError):
    """A fit was requested on fewer distinct samples than it needs."""


class ConfigurationError(ClearError):
    """A configuration is internally inconsistent (bad floors, missing table entries)."""


class InfeasibleLinkError(ClearError):
    """A link cannot close its power budget; carries the failing span diagnosis."""

    def __init__(self, message: str, failing_span=None):
        super().__init__(message)
        self.failing_span = failing_span


class Checked:
    """Base of ``class Name(Checked, _NameFields)``: the NamedTuple of fields, checked.

    ``_check`` raises on a bad field; it returns coerced values by field name, or ``None``
    when no field needs one, so the record is built once. ``_make``, ``_replace`` and
    ``copy.replace`` go through the constructor, so they are checked too.
    """

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        coerced = record._check()
        return tuple.__new__(cls, map(coerced.pop, cls._fields, record)) if coerced else record

    def _replace(self, /, **changes):
        return type(self)(**{**self._asdict(), **changes})

    __replace__ = _replace  # copy.replace, from Python 3.13
    _make = classmethod(lambda cls, iterable: cls(*iterable))
