"""Age-structured (Leslie) specialization of the population model.

A Leslie model keeps survival fractions on the first subdiagonal of T and
fertilities in the first row of F, so T is nilpotent and everything about
the generic model collapses to closed forms in the parameters: the
fertility divisor for a target growth rate s is the polynomial in 1/s

    q(s) = f_1/s + f_2 t_1 / s^2 + ... + f_n (t_{n-1} ... t_1) / s^n,

the net reproductive rate is q(1), and the growth rate is the unique
positive root of q(r) = 1, which exists because q decreases strictly from
infinity to zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ModelError
from .model import PopulationModel, validate_model

# The |q(r) - 1| the bisected root must meet.
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class LeslieModel:
    """Survival fractions t_1..t_{n-1} in (0, 1] and fertilities f_1..f_n >= 0, not all zero.

    Either field takes any iterable of numbers except str, bytes and
    bytearray, whose characters or byte values would pass for numbers.
    """

    survival: tuple[float, ...]
    fertility: tuple[float, ...]

    def __post_init__(self):
        if any(isinstance(v, (str, bytes, bytearray)) for v in (self.survival, self.fertility)):
            raise ModelError("survival and fertility must be sequences of numbers, not text or bytes")
        try:
            survival = tuple(float(t) for t in self.survival)
            fertility = tuple(float(f) for f in self.fertility)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"survival and fertility must be sequences of numbers: {exc}") from None
        object.__setattr__(self, "survival", survival)
        object.__setattr__(self, "fertility", fertility)
        n = len(fertility)
        if n < 1:
            raise ModelError("fertility vector is empty")
        if len(survival) != n - 1:
            raise ModelError(
                f"survival vector must have length {n - 1} for {n} classes, got {len(survival)}"
            )
        if not all(math.isfinite(t) and 0.0 < t <= 1.0 for t in survival):
            raise ModelError("survival fractions must lie in (0, 1]")
        if not all(math.isfinite(f) and f >= 0.0 for f in fertility):
            raise ModelError("fertilities must be finite and nonnegative")
        if not any(f > 0.0 for f in fertility):
            raise ModelError("fertility matrix is zero")

    @property
    def n(self) -> int:
        return len(self.fertility)


def _matrices(model: LeslieModel) -> tuple[np.ndarray, np.ndarray]:
    """(T, F) with survival on the subdiagonal of T and fertility in row 1 of F."""
    n = model.n
    t = np.zeros((n, n))
    for i, rate in enumerate(model.survival):
        t[i + 1, i] = rate
    f = np.zeros((n, n))
    f[0, :] = model.fertility
    return t, f


def assemble(model: LeslieModel) -> PopulationModel:
    """Generic population model with survival on the subdiagonal and fertility in row 1."""
    return validate_model(*_matrices(model))


def q_poly_eval(model: LeslieModel, s: float) -> float:
    """Fertility divisor q(s) = u (f_1 + t_1 u (f_2 + t_2 u (...))), u = 1/s, by Horner's rule over the ages.

    Each survival fraction enters at its own age, so near the root every
    factor t_k / s is O(1) and nothing underflows.  Matches the generic
    divisor rho(F (I - T/s)^-1) / s of the assembled model.  Float
    arithmetic overflows to inf for very small s.
    """
    s = float(s)
    if not s > 0.0:
        raise ModelError(f"growth rate argument must be positive, got {s:.6g}")
    u = 1.0 / s
    acc = 0.0
    for f, t in zip(reversed(model.fertility), (0.0, *reversed(model.survival))):
        acc = u * (f + t * acc)
    return acc


def leslie_r0(model: LeslieModel) -> float:
    """Net reproductive rate f_1 + f_2 t_1 + ... + f_n t_{n-1} ... t_1, which is q(1)."""
    return q_poly_eval(model, 1.0)


def leslie_growth_rate(model: LeslieModel) -> float:
    """Unique positive root of q(r) = 1, by bisection.

    Each positive weight c_k = f_k t_1 ... t_{k-1} of q gives
    q(c_k^(1/k)) >= 1, and with m positive weights
    q(max_k (m c_k)^(1/k)) <= 1, as each term is then at most 1/m; q is
    strictly decreasing, so the root lies between.  Both ends come from
    log c_k, a running sum, so weights below the float range place them.
    Bisection from half the lower end to twice the upper one, capped at
    the largest float, closes the bracket to adjacent floats, and the root
    must meet |q(r) - 1| <= ROOT_TOL.  Midpoints are lo + (hi - lo) / 2,
    which stay finite next to the largest float.
    """
    logs, log_survivorship = [], 0.0
    for k, (f, t) in enumerate(zip(model.fertility, (*model.survival, 1.0)), 1):
        if f > 0.0:
            logs.append((k, math.log(f) + log_survivorship))
        log_survivorship += math.log(t)
    lo = 0.5 * max(math.exp(w / k) for k, w in logs)
    hi = min(2.0 * max(len(logs) ** (1.0 / k) * math.exp(w / k) for k, w in logs), sys.float_info.max)
    for _ in range(200):
        mid = lo + 0.5 * (hi - lo)
        if mid <= lo or mid >= hi:
            break
        if q_poly_eval(model, mid) >= 1.0:
            lo = mid
        else:
            hi = mid

    root = lo + 0.5 * (hi - lo)
    if abs(q_poly_eval(model, root) - 1.0) > ROOT_TOL:
        raise ConvergenceError(f"growth-rate root refinement stalled at q({root!r}) != 1")
    return root
