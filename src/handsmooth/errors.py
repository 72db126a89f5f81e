"""Exception types shared across the package.

The CLI maps these onto exit codes: schema / spec / argument problems exit
with 1, numerical failures (degenerate observations, diverged optimization)
exit with 2.
"""

from __future__ import annotations


class SchemaError(ValueError):
    """A file or dict does not match the documented schema."""


class ModelFileError(SchemaError):
    """A hand model file is malformed or violates skeleton invariants."""


class SpecError(ValueError):
    """A synthesis spec (motion or noise) produces an invalid scene."""


class BehindCameraError(ValueError):
    """A point at or behind the camera plane cannot be projected."""


class DegenerateObservationError(ValueError):
    """No landmark is both visible and in front of any camera."""


class DivergedError(RuntimeError):
    """Optimization produced a non-finite loss or gradient.

    Carries the loss report accumulated so far in ``report`` (may be None
    when raised outside a smoothing run).
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)
