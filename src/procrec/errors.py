"""Exception types shared across the pipeline."""

from __future__ import annotations


class ProcrecError(Exception):
    """Base class for all pipeline errors."""


class SeriesTooShort(ProcrecError):
    """A price or return series has too few points for the requested operation."""


class SequenceTooShort(ProcrecError):
    """A symbol sequence is shorter than the requested block order allows."""


class SplitTooSmall(ProcrecError):
    """The test half of a split contains no positions to predict."""


class DegenerateStd(ProcrecError):
    """Standard deviation is zero, so threshold bands cannot be formed."""


class IngestError(ProcrecError):
    """A CSV row failed validation. Carries the 1-based physical line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedRow(IngestError):
    """Row is missing fields or has an unparseable timestamp or price."""


class NonPositivePrice(IngestError):
    """Row has a price that is not a positive finite number: zero, negative, infinite or NaN."""


class DuplicateTimestamp(IngestError):
    """Row repeats a timestamp already present in the series."""
