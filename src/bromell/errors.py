"""Exception types raised across the package.

A dedicated hierarchy (instead of bare ValueError/RuntimeError) lets callers
distinguish numerical failures from usage errors and map them to exit codes.
"""


class BromellError(Exception):
    """Base class for all package-specific errors."""


class SingularSystemError(BromellError):
    """The shifted system (zI - A) is numerically singular."""


class EigenSolverError(BromellError):
    """The dense eigenvalue solver failed to converge."""


class GeometryError(BromellError):
    """A contour or ellipse has invalid geometry (e.g. non-real foci)."""


class ArccosDomainError(GeometryError):
    """The truncation formula produced an arccos argument outside [-1, 1]."""

    def __init__(self, value, message=None):
        self.value = value
        super().__init__(message or f"arccos argument {value!r} outside [-1, 1]")


class ConvergenceError(BromellError):
    """An iterative procedure exhausted its iteration budget."""


class FormatError(BromellError):
    """A file could not be parsed; the message carries the line number."""


class DimensionLimitError(BromellError):
    """An operator exceeds the dense-storage size limit."""


class StageError(BromellError):
    """Wraps an error raised inside a named pipeline stage."""

    def __init__(self, stage, original):
        self.stage = stage
        self.original = original
        super().__init__(f"stage '{stage}': {original}")
