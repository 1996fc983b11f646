"""The exception type raised across the pipeline.

Every failure the package raises is an AutopatchError, and its message tells
the failures apart; a stage contains one record's failure by catching it,
without swallowing genuine bugs. Missing input files raise the builtin
FileNotFoundError.
"""

from __future__ import annotations


class AutopatchError(Exception):
    """Base class for all errors raised by this package."""


class BothEmpty(AutopatchError):
    """Both texts are empty after normalization, so edit-distance similarity
    is undefined."""
