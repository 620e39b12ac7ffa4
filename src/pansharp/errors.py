"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes; library code raises them
directly so callers can tell configuration mistakes from broken input
data and from numerical failures.
"""


class PansharpError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PansharpError):
    """Invalid configuration: unknown keys, bad values, missing sections."""


class DataError(PansharpError):
    """Missing, malformed, or inconsistent input data."""


class NumericError(PansharpError):
    """A computation produced non-finite or otherwise unusable numbers."""


class TrainingDiverged(NumericError):
    """Training hit a non-finite loss; the message names the epoch, and the
    batch and its sample ids unless it was the validation loss."""
