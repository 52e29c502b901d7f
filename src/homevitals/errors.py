"""Exception types shared across the package.

Every error raised by homevitals derives from HomevitalsError so callers can
catch the whole family at service boundaries.
"""


class HomevitalsError(Exception):
    """Base class for all homevitals errors."""


class InputError(HomevitalsError):
    """Inputs are structurally invalid (length mismatch, bad field, ...)."""


class DegenerateInput(InputError):
    """Input is too short or too flat for the operation to be defined."""


class ConfigError(HomevitalsError):
    """A configuration value is out of its valid range."""


class FormatError(HomevitalsError):
    """A serialized document (CSV row, message string, store line) is malformed."""


class ChannelMissing(InputError):
    """A required signal channel has no samples in the requested span."""


class LabelMissing(InputError):
    """An operation requiring labels received an unlabeled matrix."""


class BaselineMissing(InputError):
    """Cortisol labeling requires a T1 baseline sample that is absent."""


class SplitImpossible(HomevitalsError):
    """Subject-wise splitting needs at least two distinct subjects."""


class DegenerateTraining(HomevitalsError):
    """Training data cannot support the requested model (e.g. single class)."""


class TrainingBusy(HomevitalsError):
    """Another training job is already running."""


class TrainingDiverged(HomevitalsError):
    """Iterative training blew up instead of converging."""


class UndefinedMetric(HomevitalsError):
    """The metric is undefined for this input (e.g. ROC-AUC with one class)."""


class RegistrationError(HomevitalsError):
    """Duplicate tag index or identity in the location lookup table."""


class RejectedEvent(HomevitalsError):
    """A tag event referenced an index that was never registered."""


class NotFound(HomevitalsError):
    """Lookup by identity or key found nothing."""


class NotReady(HomevitalsError):
    """The service has no trained model artifact for this query yet."""


class NoWindow(HomevitalsError):
    """Not enough recent signal to form one complete analysis window."""
