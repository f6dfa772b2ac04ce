"""Exception types shared across the package.

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


class SearchBudgetExceeded(NobfError, RuntimeError):
    """A seeded search ran out of attempts; carries the best result found."""

    def __init__(self, message: str, best=None, best_distance: int | None = None):
        super().__init__(message)
        self.best = best
        self.best_distance = best_distance
