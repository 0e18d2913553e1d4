"""Exception types raised across the package.

Every error is a subclass of :class:`RansacRegError`, so callers can catch
one base class at an API boundary (the CLI maps them to exit code 2).
"""

from __future__ import annotations

import numbers


class RansacRegError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(RansacRegError, ValueError):
    """An operation received malformed input: points that are not numeric,
    not shaped (N, 3) or (3,), or outside +-COORD_LIMIT; a transform that
    is not an in-domain proper rigid motion; other values outside their
    domain (a negative error, a non-numeric or non-finite score, a
    non-finite threshold, an accuracy outside [0, 1]); or degenerate
    benchmark input (e.g. no hypotheses). Also a ValueError, as in numpy."""


# --- geometry ---------------------------------------------------------------

class InsufficientPairs(RansacRegError):
    """A rigid-transform estimate was requested with fewer than 3 pairs."""


class DegenerateSample(RansacRegError):
    """The source points of a sample are collinear or coincident."""


class TooFewPoints(RansacRegError):
    """An operation needs more points than the cloud contains."""


# --- spatial index ----------------------------------------------------------

class EmptyCloud(RansacRegError):
    """An operation that needs a non-empty point cloud received none."""


class KTooLarge(RansacRegError):
    """A k-nearest-neighbor query asked for more neighbors than points."""


# --- metrics ----------------------------------------------------------------

class InvalidSpec(InvalidInput):
    """A metric was used through the wrong evaluation entry point, or was
    constructed with an unknown kind or out-of-range parameters."""


# --- RANSAC -----------------------------------------------------------------

class TooFewCorrespondences(RansacRegError):
    """RANSAC needs at least 3 correspondences."""


class PersistentDegeneracy(RansacRegError):
    """Every resampling attempt produced a degenerate minimal sample."""


class MissingClouds(InvalidInput):
    """A whole-cloud metric was configured but no clouds were provided."""


# --- synthesis --------------------------------------------------------------

class BadConfig(RansacRegError):
    """A generator configuration violates its documented constraints."""


def _check_integers(config, **minimums: int) -> None:
    """BadConfig unless each named seed or count is integral, >= its minimum."""
    for name, low in minimums.items():
        value = getattr(config, name)
        if not (isinstance(value, numbers.Integral) and value >= low):
            rule = "non-negative" if low == 0 else f">= {low}"
            raise BadConfig(f"{name} must be {rule} and integral, got {value!r}")


def _require_type(value, cls: type, user: str, error: type = InvalidInput
                  ) -> None:
    """Raise `error` unless `value` is a `cls`; `user` names what needs it."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise error(f"{user} needs {article} {cls.__name__}, "
                    f"got {type(value).__name__}")


def _check_reals(**values) -> None:
    """BadConfig unless each named value is a real number (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise BadConfig(f"{name} must be a real number, got {value!r}")


# --- evaluation -------------------------------------------------------------

class EmptyGroundTruth(RansacRegError):
    """RMSE was requested against an empty ground-truth pair set."""


# --- file IO ----------------------------------------------------------------

class ParseError(RansacRegError):
    """A point-cloud or transform file could not be parsed."""

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(where + message)


class UnsupportedFormat(RansacRegError):
    """The file is recognizably in a format this reader does not handle."""
