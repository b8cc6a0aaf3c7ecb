"""Perron root machinery for dense nonnegative matrices.

The spectral radius of a nonnegative matrix is the maximum of its strong
components' Perron roots, so the computation condenses the positivity
pattern first and runs power iteration on each nontrivial diagonal block.
Iterating on A + I rather than A makes the block matrix primitive whenever
A is irreducible, which guarantees geometric convergence from a positive
start vector.

Convergence is certified, not guessed: for a positive iterate x the
componentwise ratios of (A + I) x against x bracket the Perron root of
A + I at every step (Collatz-Wielandt), and the iteration stops only once
the bracket width falls below tolerance.  The Rayleigh quotient reported
as the root is a convex combination of those ratios, so it always lies
inside the final bracket.

Each block first gets short cold probes from the uniform vector, of
max(500, 20 n) iterations for order n, which certify well-conditioned
blocks.  On a period-d block the shifted iteration contracts only at
about cos(pi / d), so a block still uncertified after its probes gets one
pass started from a proposed Perron pair instead, and the same ratio
bracket certifies.  The proposal comes from the block's cyclic classes:
only the restriction of A^d to one class, of order n / d when the d
classes are equal, goes to numpy's eig, and the rest of the vector is
carried along the cycle by products of nonnegative numbers.  The
iteration budget covers all passes of a block together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, MortalityError, NumericalError, StructureError
from .matrices import as_matrix
from .structure import _cyclic_classes, analyze_structure

# Stop once the ratio bracket is this tight, relative to max(1, root).
SPECTRAL_TOL = 1e-12
MAX_ITERATIONS = 200_000
# Length of a cold probe pass: max(PROBE_MIN_ITERATIONS,
# PROBE_ITERATIONS_PER_ORDER * n) for a block of order n, about the cost of
# one dense eigendecomposition of that block.
PROBE_MIN_ITERATIONS = 500
PROBE_ITERATIONS_PER_ORDER = 20
# From this order on, inverting a lower-triangular I - T by forward
# substitution (one vector-matrix product per row) costs less than an LU
# factorization.
SUBSTITUTION_MIN_ORDER = 100
# Entries of a computed resolvent inverse may round slightly negative; any
# dip beyond this is an error, anything shallower is clamped to zero.
CLAMP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralPair:
    """Perron root with right and left Perron vectors.

    The right vector is normalized to entry-sum 1 and the left vector is
    scaled so that left @ right == 1.  For an irreducible matrix the root
    is positive and both vectors are strictly positive.
    """

    rho: float
    right: np.ndarray
    left: np.ndarray


def _power_pass(block: np.ndarray, tol: float, max_iterations: int, start: np.ndarray | None = None):
    """One certified power iteration on block + I from a positive start.

    The start defaults to the uniform vector.  Returns (root, vector, lo,
    hi, iterations) where [lo, hi] is the final certified bracket around
    the root, the vector sums to 1 and iterations is the number used.
    """
    n = block.shape[0]
    shifted = block + np.eye(n)
    x = np.full(n, 1.0 / n) if start is None else start
    lo = hi = 0.0
    for iteration in range(1, max_iterations + 1):
        y = shifted @ x
        ratios = y / x
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= tol * max(1.0, hi):
            root = float(x @ y) / float(x @ x) - 1.0
            x = y / y.sum()
            return max(root, 0.0), x, lo - 1.0, hi - 1.0, iteration
        x = y / y.sum()
    raise ConvergenceError(
        f"power iteration did not converge within {max_iterations} iterations; "
        f"spectral radius is in [{lo - 1.0:.17g}, {hi - 1.0:.17g}]",
        bracket=(lo - 1.0, hi - 1.0),
    )


def _dominant_pair(block: np.ndarray):
    """LAPACK's dominant eigenpair as (lam, x) with a positive sum-1 x, or None.

    For a nonnegative matrix the Perron root has the largest real part
    among the eigenvalues.
    """
    try:
        values, vectors = np.linalg.eig(block)
    except np.linalg.LinAlgError:
        return None
    k = int(np.argmax(values.real))
    lam = float(values[k].real)
    x0 = np.abs(vectors[:, k].real)
    total = float(x0.sum())
    if not (lam > 0.0 and 0.0 < total < math.inf):
        return None
    x0 = x0 / total
    return (lam, x0) if (x0 > 0.0).all() else None


def _balanced_pair(block: np.ndarray):
    """LAPACK's dominant eigenpair, refined entry by entry; (lam, x) or None.

    eig resolves a vector only relative to its largest entry, so where the
    Perron vector spans many orders of magnitude its small entries come
    out with few correct digits.  So the block is rebalanced by
    D = diag(x) and eig asked once more: D^-1 A D has a near-uniform
    Perron vector, resolved entry by entry, and D times it is the answer.
    """
    pair = _dominant_pair(block)
    if pair is None:
        return None
    lam, x = pair
    balanced = _dominant_pair(block * x / x[:, None])
    if balanced is None:
        return pair
    lam, y = balanced
    x = x * y
    total = float(x.sum())
    if not 0.0 < total < math.inf:
        return pair
    x = x / total
    return (lam, x) if (x > 0.0).all() else pair


def _eig_seed(block: np.ndarray):
    """A proposed Perron pair (lam, x0) of an irreducible block, or None.

    The block of imprimitivity index d maps each cyclic class C_k into the
    next: A_k = A[C_k+1, C_k].  Its Perron root is the d-th root of that
    of M = A_d-1 ... A_1 A_0, the primitive restriction of A^d to C_0, and
    its Perron vector is M's on C_0, carried on by x_k+1 = A_k x_k / lam.
    Only M, of order |C_0|, goes to eig, so a long-period block costs a
    chain of small products, and the carried entries are products of
    nonnegative numbers, accurate however widely they range.  For d = 1,
    M is the block itself.  The pair is only a proposal: the pass it seeds
    still has to certify the root with a ratio bracket.
    """
    period, classes = _cyclic_classes(block > 0)
    members = [np.flatnonzero(classes == k) for k in range(period)]
    maps = [block[np.ix_(members[(k + 1) % period], members[k])] for k in range(period)]
    # M is formed with each partial product scaled to unit maximum, so a
    # long cycle neither overflows nor underflows.
    product = None
    log_scale = 0.0
    for a in maps:
        product = a if product is None else a @ product
        peak = float(product.max())
        product = product / peak
        log_scale += math.log(peak)
    pair = _balanced_pair(product)
    if pair is None:
        return None
    mu, x = pair
    lam = math.exp((log_scale + math.log(mu)) / period)
    x0 = np.empty(block.shape[0])
    x0[members[0]] = x
    for k in range(period - 1):
        x = maps[k] @ x / lam
        x0[members[k + 1]] = x
    total = float(x0.sum())
    if not 0.0 < total < math.inf:
        return None
    x0 = x0 / total
    return (lam, x0) if (x0 > 0.0).all() else None


def _power_root(block: np.ndarray, tol: float, max_iterations: int):
    """Perron root and sum-1 Perron vector of an irreducible block.

    The + I shift makes a single pass both slow and only absolutely
    accurate when the root is small (the iteration contracts at rate
    about 1 - 2 rho).  Since rho(A) = c * rho(A / c) for any c > 0, a
    small converged root, or even the midpoint of an unconverged bracket
    that proves the root small, is used to rescale the block so the next
    probe resolves a root near 1, where the bracket test is relative and
    the shift provides an O(1) gap.

    Probes are cold and short, sized by the block order.  A block still
    uncertified after them gets one pass on block / lam started from the
    proposed Perron pair (lam, x0) of _eig_seed, which also resolves the
    root relative to lam.  max_iterations bounds all passes of the block
    together.
    """
    n = block.shape[0]
    probe_budget = max(PROBE_MIN_ITERATIONS, PROBE_ITERATIONS_PER_ORDER * n)
    remaining = max_iterations
    scale = 1.0
    bracket = (0.0, math.inf)
    for _ in range(3):
        if remaining <= 0:
            break
        budget = min(remaining, probe_budget)
        try:
            root, vector, lo, hi, used = _power_pass(block, tol, budget)
        except ConvergenceError as err:
            remaining -= budget
            lo, hi = err.bracket
            bracket = (scale * lo, scale * hi)
            if 0.0 < lo and hi < 0.5:
                midpoint = 0.5 * (lo + hi)
                scale *= midpoint
                block = block / midpoint
                continue
            break  # not a small root, just slow: finish from the seed below
        remaining -= used
        bracket = (scale * lo, scale * hi)
        if 0.0 < root < 0.5:
            scale *= root
            block = block / root
            continue
        return scale * root, vector, scale * lo, scale * hi
    if remaining > 0:
        seed = _eig_seed(block)
        start = None
        if seed is not None:
            lam, start = seed
            scale *= lam
            block = block / lam
        try:
            root, vector, lo, hi, _ = _power_pass(block, tol, remaining, start)
        except ConvergenceError as err:
            lo, hi = err.bracket
            bracket = (scale * lo, scale * hi)
        else:
            return scale * root, vector, scale * lo, scale * hi
    raise ConvergenceError(
        f"power iteration did not converge within {max_iterations} iterations; "
        f"spectral radius is in [{bracket[0]:.17g}, {bracket[1]:.17g}]",
        bracket=bracket,
    )


def spectral_radius(m, *, tol: float = SPECTRAL_TOL, max_iterations: int = MAX_ITERATIONS) -> float:
    """Spectral radius of a square nonnegative matrix.

    Works for reducible matrices: the pattern is condensed into strongly
    connected components and the largest per-component Perron root wins.
    Trivial 1x1 components contribute their own diagonal entry.
    """
    m = as_matrix(m)
    rho = 0.0
    for component in analyze_structure(m).components:
        if len(component) == 1:
            i = component[0]
            rho = max(rho, float(m[i, i]))
        else:
            block = m[np.ix_(component, component)]
            root, _, _, _ = _power_root(block, tol, max_iterations)
            rho = max(rho, root)
    return rho


def perron_pair(m, *, tol: float = SPECTRAL_TOL, max_iterations: int = MAX_ITERATIONS) -> SpectralPair:
    """Perron root and positive left/right Perron vectors of an irreducible matrix.

    Raises StructureError for a reducible matrix: its Perron vectors need
    not be unique or positive, so callers should analyze each strong
    component separately.
    """
    m = as_matrix(m)
    if not analyze_structure(m).irreducible:
        raise StructureError("matrix is reducible; analyze each strongly connected component separately")
    n = m.shape[0]
    if n == 1:
        one = np.ones(1)
        one.setflags(write=False)
        return SpectralPair(rho=float(m[0, 0]), right=one, left=one)

    # Iterate both sides a notch tighter than requested so the combined
    # residuals of the pair stay within tol.
    inner_tol = tol / 4.0
    rho, right, _, _ = _power_root(m, inner_tol, max_iterations)
    _, left, _, _ = _power_root(m.T, inner_tol, max_iterations)
    left = left / float(left @ right)
    right.setflags(write=False)
    left.setflags(write=False)
    return SpectralPair(rho=rho, right=right, left=left)


def resolvent_inverse(transition, *, tol: float = SPECTRAL_TOL) -> np.ndarray:
    """(I - T)^-1 for a transition matrix with spectral radius below 1.

    A lower-triangular T of order SUBSTITUTION_MIN_ORDER or more
    (individuals only stay or move on, as in a long Leslie or
    stage-classified model) is inverted by forward substitution: every
    entry is a sum of products of nonnegative numbers, accurate entry by
    entry.  Any other T is solved directly by LU factorization with
    partial pivoting of I - T.  The true inverse
    equals the series I + T + T^2 + ... and is therefore nonnegative; tiny
    negative round-off is clamped to zero and anything below -CLAMP_TOL
    raises NumericalError.
    """
    t = as_matrix(transition, name="transition matrix")
    rho = spectral_radius(t, tol=tol)
    if rho >= 1.0 - tol:
        raise MortalityError(
            f"rho(T) >= 1: transition matrix spectral radius is {rho:.12g}, the population never dies out"
        )
    n = t.shape[0]
    if n >= SUBSTITUTION_MIN_ORDER and not np.triu(t, 1).any():
        # Row i of (I - T) N = I reads (1 - t_ii) N_i = e_i + sum_{k<i} t_ik N_k.
        inverse = np.zeros((n, n))
        pivots = 1.0 - np.diagonal(t)
        for i in range(n):
            row = t[i, :i] @ inverse[:i]
            row[i] += 1.0
            inverse[i] = row / pivots[i]
        inverse.setflags(write=False)
        return inverse
    try:
        inverse = np.linalg.solve(np.eye(n) - t, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"elimination on I - T failed: {exc}") from None
    low = float(inverse.min())
    if low < -CLAMP_TOL:
        raise NumericalError(f"resolvent inverse has entry {low:.6g} below the clamping tolerance")
    if low < 0.0:
        inverse = np.maximum(inverse, 0.0)
    inverse.setflags(write=False)
    return inverse
