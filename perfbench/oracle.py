"""Independent answers for the benchmark's correctness checks.

Everything here uses numpy's LAPACK eigensolvers, dense solves, boolean
pattern powers and the Leslie closed forms; nothing calls into matpop, so a
defect in the library's kernel, structure analysis or scaling cannot hide
behind an oracle that shares its code.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9          # r, R0, achieved growth and q(s) against the oracle
LIMIT_TOL = 1e-6        # long-run limit vectors (the library's agreement tolerance)


def rho(a: np.ndarray) -> float:
    """Spectral radius as the largest eigenvalue modulus from LAPACK."""
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def next_generation(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    n = t.shape[0]
    return f @ np.linalg.solve(np.eye(n) - t, np.eye(n))


def left_perron(p: np.ndarray, r: float) -> np.ndarray:
    """Sum-1 left Perron vector of an irreducible matrix with Perron root r.

    Inverse iteration on P^T shifted just past r: each solve multiplies the
    Perron component by about 1e9 relative to the others.
    """
    shifted = p.T - r * (1.0 + 1e-9) * np.eye(p.shape[0])
    v = np.ones(p.shape[0])
    for _ in range(3):
        v = np.linalg.solve(shifted, v)
        v = v / v.sum()
    return v


def pattern_facts(p: np.ndarray) -> tuple[bool, int | None]:
    """(irreducible, imprimitivity index) of a pattern by boolean matrix powers.

    The index is the gcd of the lengths k <= n of closed walks, read off the
    diagonal of the pattern powers A^k; every simple cycle is among them.
    """
    a = (p > 0).astype(float)
    n = a.shape[0]
    reach = np.eye(n) + a
    for _ in range(max(1, math.ceil(math.log2(max(n, 2))))):
        reach = np.minimum(reach @ reach, 1.0)
    if not (reach > 0).all() or (n == 1 and a[0, 0] == 0):
        return False, None
    period = 0
    power = np.eye(n)
    for k in range(1, n + 1):
        power = np.minimum(power @ a, 1.0)
        if np.trace(power) > 0:
            period = math.gcd(period, k)
    return True, period


def leslie_q(survival, fertility, s: float) -> float:
    """q(s) = sum_i f_i l_i s^-i with survivorship l_1 = 1, l_i = s_1 ... s_{i-1}."""
    total, survivorship = 0.0, 1.0
    for i, f in enumerate(fertility):
        total += f * survivorship / s ** (i + 1)
        if i < len(survival):
            survivorship *= survival[i]
    return total


def leslie_r(survival, fertility) -> float:
    """Growth rate as the root of q(s) = 1, by bisection on the decreasing q."""
    lo, hi = 1.0, 1.0
    while leslie_q(survival, fertility, hi) > 1.0:
        hi *= 2.0
    while leslie_q(survival, fertility, lo) < 1.0:
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if leslie_q(survival, fertility, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def leslie_period(fertility) -> int:
    period = 0
    for age, f in enumerate(fertility, start=1):
        if f > 0:
            period = math.gcd(period, age)
    return period


def close(value: float, expected: float, rel: float = REL_TOL) -> bool:
    return abs(value - expected) <= rel * max(abs(value), abs(expected))


def nine_digits(value: float) -> float:
    """The value as the CLI prints it: 9 significant digits."""
    return float(f"{value:.9g}")


class Oracle:
    """Lazily computed reference values for one input model."""

    def __init__(self, t: np.ndarray, f: np.ndarray):
        self.t, self.f = t, f
        self.p = t + f
        self._cache = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def r(self) -> float:
        return self._get("r", lambda: float(np.max(np.linalg.eigvals(self.p).real)))

    @property
    def left(self) -> np.ndarray:
        return self._get("left", lambda: left_perron(self.p, self.r))

    @property
    def r0(self) -> float:
        return self._get("r0", lambda: rho(next_generation(self.t, self.f)))

    def growth_after(self, divisor: float) -> float:
        return self._get(("growth", divisor), lambda: rho(self.t + self.f / divisor))

    @property
    def pattern(self):
        return self._get("pattern", lambda: pattern_facts(self.p))

    def trichotomy(self) -> str:
        r, r0 = self.r, self.r0
        if abs(r - 1.0) <= 1e-9 and abs(r0 - 1.0) <= 1e-9:
            return "Stationary"
        return "Growing" if r > 1.0 else "Declining"

    def check_limit(self, x0: np.ndarray, limit: np.ndarray) -> str | None:
        """x_k / r^k -> w must be a Perron vector carrying x0's left-Perron mass."""
        r, v = self.r, self.left
        scale = max(1.0, float(np.max(np.abs(limit))))
        if np.max(np.abs(self.p @ limit / r - limit)) > LIMIT_TOL * scale:
            return "limit is not fixed by P / r"
        if not close(float(v @ limit), float(v @ x0), LIMIT_TOL):
            return "limit does not conserve the left Perron functional"
        return None

    def check_periodic(self, x0: np.ndarray, limits: list[np.ndarray], period: int) -> str | None:
        """The d limits must cycle under P / r and each conserve x0's left-Perron mass."""
        if len(limits) != period:
            return f"{len(limits)} subsequence limits for period {period}"
        r, v = self.r, self.left
        for i, w in enumerate(limits):
            nxt = limits[(i + 1) % period]
            scale = max(1.0, float(np.max(np.abs(nxt))))
            if np.max(np.abs(self.p @ w / r - nxt)) > LIMIT_TOL * scale:
                return f"limit {i} is not mapped to limit {i + 1} by P / r"
            if not close(float(v @ w), float(v @ x0), LIMIT_TOL):
                return f"limit {i} does not conserve the left Perron functional"
        return None
