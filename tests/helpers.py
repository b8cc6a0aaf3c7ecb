"""Independent oracles and random model generators shared by the test suite."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

from matpop import LeslieModel, PopulationModel, spectral, validate_model
from matpop.spectral import spectral_radius


# ---------------------------------------------------------------------------
# Oracles (kept independent of the library's computational paths)
# ---------------------------------------------------------------------------

def char_poly_spectral_radius(matrix) -> float:
    """Spectral radius as the max root modulus of the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier trace recursion, roots from
    the polynomial companion solve; neither shares code with the library's
    power iteration.  Intended for n <= 4.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    mk = a.copy()
    for k in range(1, n + 1):
        ck = -np.trace(mk) / k
        coeffs.append(ck)
        mk = a @ (mk + ck * np.eye(n))
    return float(max(abs(root) for root in np.roots(coeffs)))


def digraph_of(matrix) -> nx.DiGraph:
    """Positivity digraph with the library's orientation: edge j -> i iff entry (i, j) > 0."""
    a = np.asarray(matrix)
    g = nx.DiGraph()
    g.add_nodes_from(range(a.shape[0]))
    rows, cols = np.nonzero(a > 0)
    g.add_edges_from(zip(cols.tolist(), rows.tolist()))
    return g


def simple_cycle_lengths(matrix) -> list[int]:
    return [len(cycle) for cycle in nx.simple_cycles(digraph_of(matrix))]


def pattern_power_positive(matrix, exponent: int) -> bool:
    """Whether every entry of matrix**exponent is positive, by boolean pattern powers."""
    base = np.asarray(matrix) > 0
    n = base.shape[0]
    result = np.eye(n, dtype=bool)
    power = base
    k = exponent
    while k:
        if k & 1:
            result = (result.astype(np.int64) @ power.astype(np.int64)) > 0
        power = (power.astype(np.int64) @ power.astype(np.int64)) > 0
        k >>= 1
    return bool(result.all())


def neumann_partial_sum(transition, terms: int) -> np.ndarray:
    """I + T + T^2 + ... + T^terms, by direct accumulation."""
    t = np.asarray(transition, dtype=float)
    n = t.shape[0]
    total = np.eye(n)
    power = np.eye(n)
    for _ in range(terms):
        power = power @ t
        total = total + power
    return total


def iterated_periodic_limits(projection, x0, period: int, max_steps: int = 1_000_000) -> list:
    """The d subsequence limits of x_k / r^k, each by iterating (P / r)^d until quiet.

    r is the largest eigenvalue modulus from LAPACK, and limit i is the
    settled iteration of (P / r)^d from (P / r)^i x0: three consecutive
    steps that change no entry by more than 1e-13 of the largest.  Nothing
    is shared with the library's Perron kernel or its closed forms.
    """
    p = np.asarray(projection, dtype=float)
    step = p / float(np.max(np.abs(np.linalg.eigvals(p))))
    power = np.linalg.matrix_power(step, period)
    start = np.asarray(x0, dtype=float)
    limits = []
    for _ in range(period):
        y, quiet = start, 0
        for _ in range(max_steps):
            y_next = power @ y
            step_change = np.max(np.abs(y_next - y))
            quiet = quiet + 1 if step_change <= 1e-13 * np.max(np.abs(y_next)) else 0
            y = y_next
            if quiet == 3:
                break
        else:
            raise AssertionError(f"(P / r)^{period} iteration did not settle in {max_steps} steps")
        limits.append(y)
        start = step @ start
    return limits


# ---------------------------------------------------------------------------
# The five-class plant lifecycle fixture (seed and vegetative reproduction)
# ---------------------------------------------------------------------------

PLANT_T = np.array(
    [
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 0, 1, 0],
    ],
    dtype=float,
) / 2.0

PLANT_F = np.array(
    [
        [0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ],
    dtype=float,
) / 2.0

PLANT_Q = np.array(
    [
        [1, 1, 1, 2, 4],
        [0, 0, 0, 0, 0],
        [2, 2, 2, 4, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ],
    dtype=float,
) / 8.0

PLANT_R = math.sqrt(2.0) / 2.0
PLANT_R0 = 3.0 / 8.0
PLANT_STABLE = np.array([math.sqrt(2.0), 1.0, 3.0, 2.0 * math.sqrt(2.0), 2.0])
PLANT_NEWBORN = np.array([1.0, 0.0, 2.0, 0.0, 0.0])


def plant_q_of_s(s: float) -> float:
    return (1.0 + 2.0 * s * s) / (8.0 * s**4)


def plant_r0_of_s(s: float) -> float:
    return 3.0 * s**4 / (1.0 + 2.0 * s * s)


def plant_stable_of_s(s: float) -> np.ndarray:
    return np.array(
        [4 * s**3, 2 * s**2, 2 * s**2 + 8 * s**4, 2 * s + 4 * s**3, 1 + 2 * s**2]
    )


def plant_model() -> PopulationModel:
    return validate_model(PLANT_T, PLANT_F)


# ---------------------------------------------------------------------------
# Random model generators
# ---------------------------------------------------------------------------

def random_irreducible_model(rng, n_max: int = 10, rho_cap: float = 0.9) -> PopulationModel:
    """Random model whose projection matrix is irreducible, with rho(T) <= rho_cap.

    A full directed cycle guarantees irreducibility; each cycle edge lands
    in T or occasionally F so the fertility pattern varies.  Fertility is
    rescaled by a wide random factor to spread models across the growth
    classes.
    """
    n = int(rng.integers(2, n_max + 1))
    t = np.zeros((n, n))
    f = np.zeros((n, n))
    for j in range(n):
        i = (j + 1) % n
        weight = rng.uniform(0.2, 1.0)
        if rng.random() < 0.25:
            f[i, j] += weight
        else:
            t[i, j] += weight
    t += (rng.random((n, n)) < 0.3) * rng.uniform(0.0, 1.0, (n, n))
    f += (rng.random((n, n)) < 0.25) * rng.uniform(0.0, 2.0, (n, n))

    rho_t = spectral_radius(t)
    if rho_t > 0.0:
        t *= rng.uniform(0.2, rho_cap) / rho_t
    if f.max() == 0.0:
        f[int(rng.integers(n)), int(rng.integers(n))] = rng.uniform(0.5, 1.5)
    f *= math.exp(rng.uniform(math.log(0.02), math.log(3.0)))
    return validate_model(t, f)


def random_primitive_model(rng, n_max: int = 10, rho_cap: float = 0.9) -> PopulationModel:
    """Random irreducible model with a survival self-loop, forcing primitivity."""
    model = random_irreducible_model(rng, n_max=n_max, rho_cap=rho_cap)
    t = np.array(model.transition)
    t[0, 0] = max(t[0, 0], rng.uniform(0.05, 0.2))
    rho_t = spectral_radius(t)
    if rho_t > rho_cap:
        t *= rho_cap / rho_t
        t[0, 0] = max(t[0, 0], 1e-3)
    return validate_model(t, model.fertility)


def random_general_model(rng, n_max: int = 8, rho_cap: float = 0.9) -> PopulationModel:
    """Random, frequently reducible model: sparse masks, no connectivity guarantee."""
    n = int(rng.integers(1, n_max + 1))
    t = (rng.random((n, n)) < 0.35) * rng.uniform(0.0, 1.0, (n, n))
    f = (rng.random((n, n)) < 0.35) * rng.uniform(0.0, 2.0, (n, n))
    rho_t = spectral_radius(t)
    if rho_t > 0.0:
        t *= rng.uniform(0.1, rho_cap) / rho_t
    if f.max() == 0.0:
        f[int(rng.integers(n)), int(rng.integers(n))] = rng.uniform(0.5, 1.5)
    f *= math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
    return validate_model(t, f)


def random_leslie_model(rng, n_max: int = 12) -> LeslieModel:
    n = int(rng.integers(1, n_max + 1))
    survival = rng.uniform(0.05, 1.0, n - 1)
    survival[rng.random(n - 1) < 0.15] = 1.0
    fertility = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.6)
    if fertility.sum() == 0.0:
        fertility[int(rng.integers(n))] = rng.uniform(0.5, 2.0)
    fertility *= math.exp(rng.uniform(math.log(0.1), math.log(3.0)))
    return LeslieModel(tuple(survival), tuple(fertility))


# ---------------------------------------------------------------------------
# Reference power pass: the step-by-step loop that spectral._power_pass
# computes in chunks, kept to check that every pass keeps its bits
# ---------------------------------------------------------------------------

def reference_power_pass(block, tol, max_iterations, start=None, state=None):
    """spectral._power_pass one iteration at a time, with the bracket read at every step.

    state is ignored: a pass resumed at a tighter tol answers as this fresh one.
    """
    n = block.shape[0]
    shifted = block + np.eye(n)
    x = np.full(n, 1.0 / n) if start is None else start
    lo = hi = 0.0
    window = spectral._probe_length(n)
    narrowest = math.inf
    narrowest_at = 0
    for iteration in range(1, max_iterations + 1):
        y = shifted @ x
        ratios = y / x
        lo = float(ratios.min())
        hi = float(ratios.max())
        width = hi - lo
        if width <= tol * max(1.0, hi):
            root = float(x @ y) / float(x @ x) - 1.0
            x = y / y.sum()
            return max(root, 0.0), x, lo - 1.0, hi - 1.0, iteration
        x = y / y.sum()
        if width < narrowest:
            narrowest = width
            narrowest_at = iteration
        elif iteration - narrowest_at >= window:
            break
    return None, x, lo - 1.0, hi - 1.0, iteration
