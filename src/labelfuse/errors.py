"""Exception types shared across the package.

Every failure the library raises deliberately derives from LabelFuseError,
so callers (the CLI in particular) can map them to a diagnostic and a
nonzero exit code without enumerating modules.
"""


class LabelFuseError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(LabelFuseError, ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class DegenerateRowError(LabelFuseError, ValueError):
    """A row with (near-)zero norm where a direction is required."""


class NonFiniteError(LabelFuseError, ArithmeticError):
    """A matrix would contain NaN or infinity."""


class ContractError(LabelFuseError, ValueError):
    """A caller violated an interface contract (e.g. non-scalar objective)."""


class CorpusSpecError(LabelFuseError, ValueError):
    """A corpus specification violates one of its invariants."""


class CorpusParseError(LabelFuseError, ValueError):
    """A corpus file line could not be parsed."""


class CorpusValidationError(LabelFuseError, ValueError):
    """A parsed corpus record violates vocabulary or label bounds."""


class StratificationError(LabelFuseError, ValueError):
    """A class is too small to be split across both sides."""


class ExtractionError(LabelFuseError, ValueError):
    """Keyword extraction received an empty or unusable class."""


class LabelBuildError(LabelFuseError, ValueError):
    """Label embedding construction is missing a required ingredient."""


class ConfigError(LabelFuseError, ValueError):
    """A configuration value or key is invalid."""


class DivergenceError(LabelFuseError, RuntimeError):
    """Training produced a non-finite value or a zero-norm row it must normalise."""


class CheckpointIntegrityError(LabelFuseError, ValueError):
    """A checkpoint file is truncated or corrupted."""


class UnsupportedVersionError(LabelFuseError, ValueError):
    """A checkpoint was written by an unknown format version."""


class EvaluationError(LabelFuseError, ValueError):
    """Evaluation was asked to run on unusable input."""
