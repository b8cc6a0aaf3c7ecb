"""Perron root machinery for dense nonnegative matrices.

The spectral radius of a nonnegative matrix is the maximum of its strong
components' Perron roots, so the computation condenses the positivity
pattern first and runs power iteration on each nontrivial diagonal block.
Iterating on A + I rather than A makes the block matrix primitive whenever
A is irreducible, which guarantees geometric convergence from a positive
start vector.

Convergence is certified, not guessed: for a positive iterate x the
componentwise ratios of (A + I) x against x bracket the Perron root of
A + I at every step (Collatz-Wielandt), and the iteration stops at the
first step whose bracket width falls below tolerance.  Steps run in
chunks sized by the brackets' rate to end just past that step; read per
chunk, or resumed at a tighter tolerance as a Perron vector resumes its
root's pass, they give the bits of a step-by-step loop.  The Rayleigh
quotient reported as the root is a convex combination of those ratios,
so it always lies inside the final bracket.

Each block first gets short cold probes from the uniform vector, of
L = max(500, 20 n) iterations for order n, which certify well-conditioned
blocks.  A block still uncertified after its probes gets one pass started
from a proposed Perron pair instead, and the same ratio bracket
certifies.  A block of imprimitivity index d >= 3 skips the probes: the
+ I shift leaves its d eigenvalues on the spectral circle at least
cos(pi / d) >= 1/2 of the root's modulus, so a cold pass needs at least
log(tol) / log(cos(pi / d)) iterations.  At d = 2 the shift maps -rho
to 1 - rho, which bounds nothing, and the probes stay.  The proposal
comes from the block's cyclic classes: only the restriction of A^d to
one class, of order n / d when the d classes are equal, goes to numpy's
eig, and the rest of the vector is carried along the cycle by products
of nonnegative numbers.  The index and the classes come from the
caller's structure report; only the seeded pass of a reducible matrix's
block analyzes that block's pattern.  The iteration budget covers all
passes of a block together, and a pass whose bracket has stopped
narrowing for a whole probe length gives up early, so an unreachable
tolerance fails fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, MortalityError, NumericalError, StructureError
from .matrices import as_matrix
from .structure import StructureReport, _analyze_pattern

# Stop once the ratio bracket is this tight, relative to max(1, root).
SPECTRAL_TOL = 1e-12
MAX_ITERATIONS = 200_000
# Length of a cold probe pass: max(PROBE_MIN_ITERATIONS,
# PROBE_ITERATIONS_PER_ORDER * n) for a block of order n, about the cost of
# one dense eigendecomposition of that block.
PROBE_MIN_ITERATIONS = 500
PROBE_ITERATIONS_PER_ORDER = 20
# Most iterations a power pass computes before it reads their brackets.
_CHUNK_ITERATIONS = 32
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


def _probe_length(n: int) -> int:
    """Iterations of one cold probe pass on a block of order n."""
    return max(PROBE_MIN_ITERATIONS, PROBE_ITERATIONS_PER_ORDER * n)


def _power_pass(block: np.ndarray, tol: float, budget: int, start: np.ndarray | None = None, state=None):
    """One certified power iteration on block + I from a positive start, the uniform vector by default.

    Returns (root, vector, lo, hi, iteration): the bracket [lo, hi] around
    the root and the sum-1 iterate at the certifying iteration, or at the
    last one examined, with root None when the bracket did not certify
    within the budget.  The bracket only shrinks in exact arithmetic, so
    once its width has set no new minimum for a whole probe length it has
    reached rounding level, and the pass gives up before its budget is
    spent.  A list given as state gets the last chunk, row and stall
    window; handed back with the same block, a tighter tol and a budget no
    smaller, it resumes the pass from that row with the bits of a fresh
    one, as neither the iterates nor the stall window depend on tol.

    Chunks compute only y = (block + I) x and x = y / sum(y), and their
    brackets are read afterwards, all at once.  The first chunk, all that a
    well-seeded pass needs, is one step on the start itself; a later one
    ends just past where the widths, at their geometric rate over the
    second half of a chunk of 4 or more rows, reach tol, or else doubles,
    up to _CHUNK_ITERATIONS and the budget.  Every number is the one a
    step-by-step loop gives, bit for bit, and the count ends at the
    certifying iteration, not at the last one computed.
    """
    n = block.shape[0]
    shifted = block.copy()
    shifted.reshape(-1)[:: n + 1] += 1.0
    window = _probe_length(n)
    state = [] if state is None else state
    if not state:
        x = np.full(n, 1.0 / n) if start is None else start
        y = np.dot(shifted, x)
        state[:] = x[None], y[None], y / np.add.reduce(y), 0, 0, math.inf, 0
    # Row k of xs and ys: x_k and y_k = (block + I) x_k of the chunk after iteration done; x: the next one.
    xs, ys, x, done, first, narrowest, narrowest_at = state
    while True:
        ratios = ys / xs
        lows, highs = np.minimum.reduce(ratios, 1).tolist(), np.maximum.reduce(ratios, 1).tolist()
        root = None
        for row, (lo, hi) in enumerate(zip(lows[first:], highs[first:]), first):
            iteration = done + row + 1
            width = hi - lo
            if width <= tol * max(1.0, hi):
                root = max(float(xs[row].dot(ys[row])) / float(xs[row].dot(xs[row])) - 1.0, 0.0)
                break
            if width < narrowest:
                narrowest = width
                narrowest_at = iteration
            elif iteration - narrowest_at >= window:
                break
        if root is not None or iteration - narrowest_at >= window or iteration == budget:
            state[:] = xs, ys, x, done, row, narrowest, narrowest_at
            return root, (x if row + 1 == len(xs) else xs[row + 1]).copy(), lo - 1.0, hi - 1.0, iteration
        done, first, half, length = iteration, 0, len(xs) // 2, 2 * len(xs)
        # Logarithms of positive, finite numbers only; wide / width >= 1 + 2^-52.
        wide, target = highs[half] - lows[half], tol * max(1.0, hi)
        if len(xs) >= 4 and 0.0 < target < width < wide < math.inf:
            rate = math.log(wide / width) / (len(xs) - 1 - half)
            length = 1 + int((math.log(width) - math.log(target)) / rate)
        length = min(length, _CHUNK_ITERATIONS, budget - done)
        xs, ys = np.empty((length + 1, n)), np.empty((length, n))
        xs[0] = x
        x = xs[0]
        for k in range(length):
            y = ys[k]
            np.dot(shifted, x, out=y)
            x = xs[k + 1]
            np.divide(y, np.add.reduce(y), out=x)
        xs = xs[:length]


def _unit(x: np.ndarray):
    """x scaled to sum 1, or None unless every entry of the result is positive and finite."""
    total = float(x.sum())
    if not 0.0 < total < math.inf:
        return None
    x = x / total
    return x if (x > 0.0).all() else None


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
    x0 = _unit(np.abs(vectors[:, k].real))
    return (lam, x0) if lam > 0.0 and x0 is not None else None


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
    x = _unit(x * y)
    return pair if x is None else (lam, x)


def _cycle_maps(block: np.ndarray, classes: tuple[int, ...]):
    """The cyclic classes C_k of a block, as index arrays, and its maps A_k = block[C_k+1, C_k].

    Each A_k is gathered alone, as a contiguous copy (BLAS can round a product
    with a strided view differently); 1 x 1 maps as the n entries of the cycle.
    """
    order = np.argsort(classes, kind="stable")
    ends = np.cumsum(np.bincount(classes)).tolist()
    members = [order[start:end] for start, end in zip([0, *ends], ends)]
    if len(members) == len(order):
        return members, list(block[np.roll(order, -1), order].reshape(-1, 1, 1))
    return members, [block[members[(k + 1) % len(members)][:, None], c] for k, c in enumerate(members)]


def _eig_seed(block: np.ndarray, classes: tuple[int, ...]):
    """A proposed Perron pair (lam, x0) of an irreducible block, or None.

    The block of imprimitivity index d maps each cyclic class C_k (from
    classes) into the next: A_k = A[C_k+1, C_k].  Its Perron root is the
    d-th root of that of M = A_d-1 ... A_1 A_0, the primitive restriction
    of A^d to C_0, and its Perron vector is M's on C_0, carried on by
    x_k+1 = A_k x_k / lam.
    Only M, of order |C_0|, goes to eig, so a long-period block costs a
    chain of small products, and the carried entries are products of
    nonnegative numbers, accurate however widely they range.  For d = 1,
    M is the block itself.  The pair is only a proposal: the pass it seeds
    still has to certify the root with a ratio bracket.
    """
    members, maps = _cycle_maps(block, classes)
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
    lam = math.exp((log_scale + math.log(mu)) / len(maps))
    x0 = np.empty(block.shape[0])
    x0[members[0]] = x
    for k in range(len(maps) - 1):
        x = maps[k] @ x / lam
        x0[members[k + 1]] = x
    x0 = _unit(x0)
    return None if x0 is None else (lam, x0)


def _primitive_pair(m: np.ndarray, tol: float):
    """Certified right and left Perron vectors (u, v) of a primitive matrix, with v @ u = 1.

    Each side is one pass on m / lam started from LAPACK's proposal
    (lam, x0), or on m from the uniform vector when there is none.
    """
    sides = []
    for side in (m, m.T):
        lam, start = _dominant_pair(side) or (1.0, None)
        root, vector, lo, hi, used = _power_pass(side / lam, tol, MAX_ITERATIONS, start)
        if root is None:
            raise ConvergenceError(
                f"power iteration did not converge in {used} iterations; "
                f"spectral radius is in [{lo:.17g}, {hi:.17g}]",
                bracket=(lo, hi),
                iterations=used,
            )
        sides.append(vector)
    right, left = sides
    return right, left / float(left @ right)


def _power_root(block: np.ndarray, tol: float, classes: tuple[int, ...] | None = None, kept=None):
    """Perron root and sum-1 Perron vector (root, vector) of a block of the given cyclic classes.

    classes is None for a block of a reducible matrix, routed as index 1.

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
    root relative to lam.  A block of index 3 or more, whose cold passes
    contract by at best cos(pi / d) >= 1/2 per step, starts from the seed
    instead; one without a seed is probed as any other.
    MAX_ITERATIONS bounds all passes of the block together.  An empty kept
    gets the first pass, [seed or None, state]; handed back for a tighter
    tol, it resumes that pass where it stopped, and later ones run fresh.
    """
    probe_budget = _probe_length(block.shape[0])
    remaining = MAX_ITERATIONS
    scale = 1.0
    bracket = (0.0, math.inf)
    kept = [] if kept is None else kept
    kept[:] = kept or [None if classes is None or max(classes) < 2 else _eig_seed(block, classes), []]
    seed, state = kept
    for _ in range(3 if seed is None else 0):
        if remaining <= 0:
            break
        root, vector, lo, hi, used = _power_pass(block, tol, min(remaining, probe_budget), None, state)
        remaining -= used
        bracket = (scale * lo, scale * hi)
        if root is None:
            if not (0.0 < lo and hi < 0.5):
                break  # not a small root, just slow: finish from the seed below
            root = 0.5 * (lo + hi)
        elif not 0.0 < root < 0.5:
            return scale * root, vector
        scale *= root
        block = block / root
        state = None
    if remaining > 0:
        if seed is None:
            seed, state = _eig_seed(block, classes or _analyze_pattern(block > 0).cyclic_classes), None
        start = None
        if seed is not None:
            lam, start = seed
            scale *= lam
            block = block / lam
        root, vector, lo, hi, used = _power_pass(block, tol, remaining, start, state)
        if root is not None:
            return scale * root, vector
        remaining -= used
        bracket = (scale * lo, scale * hi)
    used = MAX_ITERATIONS - remaining
    raise ConvergenceError(
        f"power iteration did not converge in {used} of {MAX_ITERATIONS} iterations; "
        f"spectral radius is in [{bracket[0]:.17g}, {bracket[1]:.17g}]",
        bracket=bracket,
        iterations=used,
    )


def spectral_radius(m, *, tol: float = SPECTRAL_TOL) -> float:
    """Spectral radius of a square nonnegative matrix.

    Works for reducible matrices: the pattern is condensed into strongly
    connected components and the largest per-component Perron root wins.
    Trivial 1x1 components contribute their own diagonal entry.
    """
    m = as_matrix(m)
    return _radius(m, _analyze_pattern(m > 0), tol)


def _radius(m: np.ndarray, report: StructureReport, tol: float, kept=None) -> float:
    """Largest Perron root over the strong components, listed in report, of a validated matrix.

    An irreducible matrix is iterated with its cyclic classes, keeping
    its first pass in kept; the blocks of a reducible one, as index 1.
    """
    rho = 0.0
    for component in report.components:
        if len(component) == 1:
            i = component[0]
            rho = max(rho, float(m[i, i]))
        else:
            block = m if report.irreducible else m[np.ix_(component, component)]
            root, _ = _power_root(block, tol, report.cyclic_classes, kept if report.irreducible else None)
            rho = max(rho, root)
    return rho


def perron_pair(m, *, tol: float = SPECTRAL_TOL) -> SpectralPair:
    """Perron root and positive left/right Perron vectors of an irreducible matrix.

    Raises StructureError for a reducible matrix: its Perron vectors need
    not be unique or positive, so callers should analyze each strong
    component separately.
    """
    m = as_matrix(m)
    return _pair(m, _analyze_pattern(m > 0), tol)


def _pair(m: np.ndarray, report: StructureReport, tol: float, kept=None) -> SpectralPair:
    """perron_pair of a validated matrix whose structure report is given; the right side resumes kept."""
    if not report.irreducible:
        raise StructureError("matrix is reducible; analyze each strongly connected component separately")
    n = m.shape[0]
    if n == 1:
        one = np.ones(1)
        one.setflags(write=False)
        return SpectralPair(rho=float(m[0, 0]), right=one, left=one)

    # Iterate both sides a notch tighter than requested so the combined
    # residuals of the pair stay within tol.
    inner_tol = tol / 4.0
    classes, period = report.cyclic_classes, report.imprimitivity_index
    rho, right = _power_root(m, inner_tol, classes, kept)
    # The transpose reverses every edge, so its classes run the other way.
    _, left = _power_root(m.T, inner_tol, tuple(-k % period for k in classes))
    left = left / float(left @ right)
    right.setflags(write=False)
    left.setflags(write=False)
    return SpectralPair(rho=rho, right=right, left=left)


def resolvent_inverse(transition) -> np.ndarray:
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
    rho = _radius(t, _analyze_pattern(t > 0), SPECTRAL_TOL)
    if rho >= 1.0 - SPECTRAL_TOL:
        raise MortalityError(
            f"rho(T) >= 1: transition matrix spectral radius is {rho:.12g}, the population never dies out"
        )
    return _resolvent(t)


def _resolvent(t: np.ndarray) -> np.ndarray:
    """(I - T)^-1 for a validated T already known to have rho(T) < 1."""
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
