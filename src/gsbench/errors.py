"""Exception types shared across the workbench."""


class GsbenchError(Exception):
    """Base class for workbench errors."""


class PreconditionError(GsbenchError):
    """A stated precondition failed, with a witness in the message."""


class TruncationError(GsbenchError):
    """A truncated scan hit its cap; rerun with a larger cap."""
