"""Exception hierarchy for the population-matrix toolkit.

Two families matter to callers: ModelError covers invalid input data and
requests the model cannot satisfy (the CLI maps these to exit code 2),
while NumericalError covers internal numerical failures (exit code 3).
"""


class Error(Exception):
    """Base class for all errors raised by this package."""


class ModelError(Error):
    """Invalid model data, or a request the given model cannot satisfy."""


class MortalityError(ModelError):
    """The transition matrix retains individuals forever (spectral radius >= 1)."""


class StructureError(ModelError):
    """The operation needs an irreducible (or primitive) matrix and got neither."""


class ScalingError(ModelError):
    """No fertility scaling can reach the requested growth rate."""


class NumericalError(Error):
    """Internal numerical failure."""


class ConvergenceError(NumericalError):
    """Iteration stopped before reaching tolerance.

    ``bracket``, when present, is the last (lo, hi) pair of componentwise
    ratios known to enclose the spectral radius being computed, and
    ``iterations`` the number of iterations whose brackets were examined.
    """

    def __init__(
        self,
        message: str,
        bracket: tuple[float, float] | None = None,
        iterations: int | None = None,
    ):
        super().__init__(message)
        self.bracket = bracket
        self.iterations = iterations


class ConsistencyError(NumericalError):
    """A cross-checked mathematical invariant failed, signalling corruption."""
