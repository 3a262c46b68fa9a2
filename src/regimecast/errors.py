"""Exception types shared across the package.

Everything user-facing derives from DomainError so the CLI can map bad
inputs and infeasible requests to a dedicated exit code.
"""


class DomainError(Exception):
    """Invalid input or a request the given problem instance cannot satisfy."""


class InvalidSpec(DomainError):
    """Malformed model structure, regime, or dataset description."""


class DegenerateVariable(DomainError):
    """A variable whose observed range is zero, not finite, or too narrow
    for the bins cannot be binned."""


class NonFinite(DomainError):
    """An objective or gradient evaluated to NaN or infinity."""


class GridTooLarge(DomainError):
    """A table to enumerate (the full grid, or an elimination clique) would
    exceed the cell cap."""


class MissingOutcome(DomainError):
    """An operation needed outcome values but the data has none."""


class InsufficientData(DomainError):
    """Too few rows for the requested operation."""


class UnknownStructure(DomainError):
    """Requested built-in structure name does not exist."""


class ModelFormatError(DomainError):
    """Persisted model file is malformed or from an incompatible version."""


def require_keys(obj, keys, what: str) -> None:
    """Raise ModelFormatError unless obj is a dict holding every key."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ModelFormatError(f"{what} is missing {', '.join(map(repr, missing))}")
