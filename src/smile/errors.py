"""Shared exception types, each carrying the CLI exit code it maps to."""


class ContractError(ValueError):
    """A call violated an operation precondition."""

    exit_code = 1


class DimensionError(ContractError):
    """Operand shapes are incompatible with the requested operation."""


class IndexRangeError(ContractError):
    """A row index falls outside the addressed table."""


class FormatError(ValueError):
    """A serialized file is malformed; the message names the byte offset."""

    exit_code = 1


class NumericalAbort(RuntimeError):
    """Training produced a non-finite quantity and cannot continue."""

    exit_code = 2


class WorkerLost(RuntimeError):
    """A worker process exited before it sent its results."""

    exit_code = 2
