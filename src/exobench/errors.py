"""Exception types shared across the package."""

import contextlib


class ExobenchError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ExobenchError):
    """A required table, parameter, or config entry is missing or malformed."""


class SchemaError(ConfigurationError):
    """A definition/config file fails structural validation."""


class AirborneError(ExobenchError):
    """Both sole loads are zero; the sample carries no stance information."""


class SingularityError(ExobenchError):
    """Normal equations are rank deficient; retry with a positive ridge term."""


class IncompleteTrainingError(ExobenchError):
    """A prescribed training stage is missing from the recording."""

    def __init__(self, stage: str):
        super().__init__(f"training stage missing: {stage}")
        self.stage = stage


class InsufficientDataError(ExobenchError):
    """Too few samples/intervals for the requested feature."""


class DataQualityError(ExobenchError):
    """Input samples violate basic physical plausibility (e.g. negative conductance)."""


class IncompleteResponseError(ExobenchError):
    """Questionnaire items are unanswered."""

    def __init__(self, item_ids):
        ids = list(item_ids)
        super().__init__(f"missing responses for items: {', '.join(ids)}")
        self.item_ids = ids


class IncompleteComparisonError(ExobenchError):
    """Pairwise sub-factor comparisons are incomplete for a factor."""


class OutOfOrderFrameError(ExobenchError):
    """Sensor frame timestamp went backwards; the frame is dropped."""


class ReplayMismatchError(ExobenchError):
    """Batch replay and streaming replay disagree on the same frames."""


@contextlib.contextmanager
def naming(path, kinds=(ExobenchError, ValueError)):
    """Start the message of an error of ``kinds`` (by default any
    ``ExobenchError`` or ``ValueError``) raised inside with ``path``; the
    error keeps its type, and so its exit code."""
    try:
        yield
    except kinds as exc:
        exc.args = (f"{path}: {exc}",)
        raise
