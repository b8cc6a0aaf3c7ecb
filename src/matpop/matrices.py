"""Input validation for the dense nonnegative matrices and vectors the models use, and their tolerances."""

from __future__ import annotations

import numpy as np

from .errors import ModelError


def as_matrix(values, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a read-only square float64 array with finite entries >= 0, -0.0 stored as 0.0.

    Raises ModelError when the input is ragged, non-square, empty, or has
    negative or non-finite entries.
    """
    try:
        m = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{name} is not a rectangular array of numbers: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ModelError(f"{name} must be square and nonempty, got shape {m.shape}")
    return _nonnegative(m, name)


def as_population_vector(values, n: int, *, name: str = "population vector") -> np.ndarray:
    """Coerce to a read-only length-n float64 vector that is >= 0 and not all zero, -0.0 stored as 0.0."""
    try:
        v = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{name} is not a vector of numbers: {exc}") from None
    if v.ndim != 1 or v.shape[0] != n:
        raise ModelError(f"{name} must have length {n}, got shape {v.shape}")
    v = _nonnegative(v, name)
    if not (v > 0).any():
        raise ModelError(f"{name} is zero")
    return v


def check_tolerance(tol, name: str = "tol") -> None:
    """Raise ModelError, naming the tolerance, unless tol is a number strictly between 0 and 1."""
    if not 0.0 < tol < 1.0:
        raise ModelError(f"{name} must be finite with 0 < tol < 1, got {tol!r}")


def _nonnegative(a: np.ndarray, name: str) -> np.ndarray:
    """a, read-only, once its entries are checked finite and >= 0, with -0.0 stored as 0.0."""
    if not np.isfinite(a).all():
        raise ModelError(f"{name} has non-finite entries")
    if (a < 0).any():
        raise ModelError(f"{name} has negative entries")
    a += 0.0  # -0.0 + 0.0 is 0.0, so no entry prints as -0
    a.setflags(write=False)
    return a
