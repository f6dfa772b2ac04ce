"""Exception types, and the value-record base, shared across the package.

The CLI maps these onto its exit-code contract: validation failures exit 2,
work-cap rejections exit 3, exhausted search budgets exit 4.
"""

from __future__ import annotations

import functools

DEFAULT_WORK_CAP = 1 << 28  # work units an exact oracle may spend by default


class NobfError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(NobfError, ValueError):
    """Invalid parameters, malformed descriptors, or broken invariants."""


def parse_errors(what: str):
    """Decorator for readers of descriptors and configs: a KeyError,
    TypeError, ValueError or AttributeError (a descriptor that is not a
    JSON object) raised while reading becomes a ValidationError naming
    `what`, so malformed input never escapes as a bare Python error."""
    def decorate(fn):
        @functools.wraps(fn)
        def reader(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except NobfError:
                raise
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ValidationError(f"malformed {what}: {detail}") from exc
        return reader
    return decorate


class DimensionError(ValidationError):
    """Operand widths do not match; never silently truncated."""


class WorkCapExceeded(NobfError, RuntimeError):
    """An exact enumeration would exceed the configured work cap.

    Carries ``required`` and ``cap`` (work units) so callers can report
    how far over budget the request was.
    """

    def __init__(self, what: str, required: int | float, cap: int | float):
        super().__init__(f"{what} (required {required:g} > cap {cap:g})")
        self.required = required
        self.cap = cap


class Record:
    """A value over the fields its `__slots__` name, in order: equality by
    type and fields, a field repr, and a `to_json` of the fields, a nested
    record as its own.  Mutable records are unhashable; `Frozen` ones hash
    their fields and refuse assignment.  Written out, not generated, so that
    defining a record costs an import nothing."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):  # copy and pickle rebuild through __init__ and its checks
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def to_json(self) -> dict:
        return {name: value.to_json() if isinstance(value, Record) else value
                for name, value in zip(self.__slots__, self._values())}


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SearchBudgetExceeded(NobfError, RuntimeError):
    """A seeded search ran out of attempts; carries the best result found."""

    def __init__(self, message: str, best=None, best_distance: int | None = None):
        super().__init__(message)
        self.best = best
        self.best_distance = best_distance
