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

Where only a bound is wanted, as for the mortality assumption rho(T) < 1,
a pass stops at a ceiling instead: the upper end of any bracket bounds
the root, so the first one below the ceiling proves it, and
_radius_below takes the largest such end over a matrix's strong
components, their 1 x 1 ones read off the diagonal.  _Transition, the one
record of T shared by a model and its rescalings, keeps the best such
bound and decides mortality and a target's gate from it.

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

A side of a Perron pair with no kept pass to resume starts at LAPACK's
proposal for that side, where the block has index 1 or 2 and order at
most _PROPOSAL_MAX_ORDER: up to that gate one dense eig and a few seeded
steps cost less than the cold probes, and above it more.  A proposal
whose pass does not certify gives way to the cold route.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, MortalityError, NumericalError, StructureError
from .matrices import as_matrix, check_tolerance
from .structure import StructureReport, _analyze_pattern

# Stop once the ratio bracket is this tight, relative to max(1, root).
SPECTRAL_TOL = 1e-12
MAX_ITERATIONS = 200_000
# Length of a cold probe pass: max(PROBE_MIN_ITERATIONS,
# PROBE_ITERATIONS_PER_ORDER * n) for a block of order n, about the cost of
# one dense eigendecomposition of that block.
PROBE_MIN_ITERATIONS = 500
PROBE_ITERATIONS_PER_ORDER = 20
# Largest block order whose fresh Perron-pair side starts at LAPACK's proposal: one dense eig and
# a few seeded steps broke even with the cold probes near order 20 on random stage-structured
# blocks and near 32 on Leslie blocks (2-core x86-64 host), and above that the eig costs more.
_PROPOSAL_MAX_ORDER = 20
# Most iterations a power pass computes before it reads their brackets.
_CHUNK_ITERATIONS = 32
# A block solve of the resolvent may round slightly negative; any dip
# beyond this is an error, anything shallower is clamped to zero.
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


@np.errstate(all="ignore")
def _power_pass(
    block: np.ndarray, tol: float, budget: int, start: np.ndarray | None = None, state=None, ceiling: float = -math.inf
):
    """One certified power iteration on block + I from a positive start, the uniform vector by default.

    Returns (root, vector, lo, hi, iteration): the bracket [lo, hi] around
    the root and the sum-1 iterate at the certifying iteration, or at the
    last one examined, with root None when the bracket did not certify
    within the budget.  The bracket only shrinks in exact arithmetic, so
    once its width has set no new minimum for a whole probe length it has
    reached rounding level, and the pass gives up before its budget is
    spent.  An iterate entry that underflows to 0 leaves its bracket
    undefined, a nan or inf ratio (numpy's warnings are off in the pass),
    and the pass stops at the bracket before it, uncertified.  A list given
    as state gets the last chunk, row, stall window and bracket; handed
    back with the same block, a tighter tol and a budget no smaller, it
    resumes the pass from that row with the bits of a fresh one, as
    neither the iterates nor the stall window depend on tol.  A pass given
    a ceiling also stops at the first uncertified bracket whose upper end
    on the root is below it, as that end bounds the root (Collatz-Wielandt).

    Chunks compute only y = (block + I) x and x = y / sum(y), three bare
    calls a step that write into the chunk's rows and a 0-d sum, and their
    brackets are read afterwards, all at once.  The first chunk, all that a
    well-seeded pass needs, is one step on the start itself; a later one
    ends just past where the widths, at their geometric rate over the
    second half of a chunk of 4 or more rows, reach tol, or the distance
    from the lower end to the ceiling, whichever is wider, or else doubles,
    up to _CHUNK_ITERATIONS and the budget.  Every number is the one a
    step-by-step loop gives, bit for bit, and the count ends at the
    certifying iteration, not at the last one computed.
    """
    n = block.shape[0]
    shifted = block.copy()
    shifted.reshape(-1)[:: n + 1] += 1.0
    window = _probe_length(n)
    total = np.empty(())
    state = [] if state is None else state
    if not state:
        x = np.full(n, 1.0 / n) if start is None else start
        y = shifted.dot(x)
        x_next = np.divide(y, np.add.reduce(y, 0, None, total))
        state[:] = x[None], y[None], x_next, 0, 0, math.inf, 0, (1.0, math.inf)
    # Row k of xs and ys: x_k and y_k = (block + I) x_k of the chunk after iteration done; x: the next one.
    # bracket: the last one read before the chunk, of block + I.
    xs, ys, x, done, first, narrowest, narrowest_at, bracket = state
    while True:
        ratios = ys / xs
        lows, highs = np.minimum.reduce(ratios, 1).tolist(), np.maximum.reduce(ratios, 1).tolist()
        root = None
        iteration = done + first
        # A nan or inf ratio leaves its bracket undefined: it certifies nothing and ends the pass.
        for lo, hi in zip(lows[first:], highs[first:]):
            iteration += 1
            width = hi - lo
            if width <= tol * (hi if hi > 1.0 else 1.0):
                row = iteration - done - 1
                root = max(float(xs[row].dot(ys[row])) / float(xs[row].dot(xs[row])) - 1.0, 0.0)
                break
            if hi - 1.0 < ceiling:
                break
            if width < narrowest:
                narrowest = width
                narrowest_at = iteration
            elif iteration - narrowest_at >= window or not width < math.inf:
                break
        row = iteration - done - 1
        if not width < math.inf:
            # The row's x has an entry that underflowed to 0: stop at the bracket before it.  A resumed
            # pass re-reads the row, and the bracket before it comes from the state if the row is first.
            bracket = (lows[row - 1], highs[row - 1]) if row > first else bracket
            state[:] = xs, ys, x, done, row, narrowest, narrowest_at, bracket
            return None, xs[row].copy(), bracket[0] - 1.0, bracket[1] - 1.0, iteration - 1
        if root is not None or hi - 1.0 < ceiling or iteration - narrowest_at >= window or iteration == budget:
            state[:] = xs, ys, x, done, row, narrowest, narrowest_at, bracket
            return root, (x if row + 1 == len(xs) else xs[row + 1]).copy(), lo - 1.0, hi - 1.0, iteration
        bracket = lo, hi
        done, first, half, length = iteration, 0, len(xs) // 2, 2 * len(xs)
        # Logarithms of positive, finite numbers only; wide / width >= 1 + 2^-52.  Below the ceiling
        # the upper end needs a width no smaller than its distance from the lower one.
        wide, target = highs[half] - lows[half], max(tol * max(1.0, hi), ceiling + 1.0 - lo)
        if len(xs) >= 4 and 0.0 < target < width < wide < math.inf:
            rate = math.log(wide / width) / (len(xs) - 1 - half)
            length = 1 + int((math.log(width) - math.log(target)) / rate)
        length = min(length, _CHUNK_ITERATIONS, budget - done)
        xs, ys = np.empty((length + 1, n)), np.empty((length, n))
        xs[0] = x
        x = xs[0]
        for y, x_next in zip(ys, xs[1:]):
            shifted.dot(x, y)
            np.add.reduce(y, 0, None, total)
            np.divide(y, total, x_next)
            x = x_next
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
    among the eigenvalues.  A 1 x 1 block is its own pair, read, not computed.
    """
    if block.shape[0] == 1:
        return (float(block[0, 0]), np.ones(1)) if block[0, 0] > 0.0 else None
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


@np.errstate(all="ignore")
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
    still has to certify the root with a ratio bracket.  A product or a
    root beyond the float range gives None, as does a carried vector that
    leaves it, which _unit rejects.
    """
    members, maps = _cycle_maps(block, classes)
    # M is formed with each partial product scaled to unit maximum, so a
    # long cycle neither overflows nor underflows.
    product = None
    log_scale = 0.0
    for a in maps:
        product = a if product is None else a @ product
        peak = float(product.max())
        if not 0.0 < peak < math.inf:
            return None
        product = product / peak
        log_scale += math.log(peak)
    pair = _balanced_pair(product)
    if pair is None:
        return None
    mu, x = pair
    log_lam = (log_scale + math.log(mu)) / len(maps)
    if not log_lam < math.log(np.finfo(float).max):
        return None
    lam = math.exp(log_lam)
    x0 = np.empty(block.shape[0])
    x0[members[0]] = x
    for k in range(len(maps) - 1):
        x = maps[k] @ x / lam
        x0[members[k + 1]] = x
    x0 = _unit(x0)
    return None if x0 is None else (lam, x0)


class _Pass:
    """A block's first Perron pass, kept by _power_root as it runs, for a tighter tol to resume.

    seed is the pair (lam, x0) the pass on block / lam starts from, or None
    for a probe, which gives way to the pass going on once that certifies.
    state is _power_pass's, empty until the pass runs and again once it
    resumes.  left runs the pass on the transpose.
    """

    def __init__(self, seed=None, left=False):
        self.seed, self.state, self.left = seed, [], left


def _power_root(block: np.ndarray, tol: float, classes: tuple[int, ...] | None = None, kept: _Pass | None = None):
    """Perron root and sum-1 Perron vector (root, vector) of a block of the given cyclic classes.

    classes is None for a block of a reducible matrix, routed as index 1.

    The + I shift makes a single pass both slow and only absolutely
    accurate when the root is small (the iteration contracts at rate
    about 1 - 2 rho).  Since rho(A) = c * rho(A / c) for any c > 0, a
    small converged root, or even the midpoint of an unconverged bracket
    that proves the root small, is used to rescale the block so the next
    probe resolves a root near 1, where the bracket test is relative and
    the shift provides an O(1) gap.  A root that certifies as exactly 0,
    below the rounding of the shift, rescales by the block's largest entry.

    Probes are cold and short, sized by the block order.  A block still
    uncertified after them gets one pass on block / lam started from the
    proposed Perron pair (lam, x0) of _eig_seed, which also resolves the
    root relative to lam.  A block of index 3 or more, whose cold passes
    contract by at best cos(pi / d) >= 1/2 per step, starts from the seed
    instead; one without a seed is probed as any other.  Where a block
    that stopped its probes uncertified gets no seed, its last probe goes
    on where it stopped.  MAX_ITERATIONS bounds all passes of the block
    together.  kept, a _Pass, holds the first pass.  A 1 x 1 block is read, with the vector [1].
    A rescale that would overflow ends the block with ConvergenceError and the bracket so far.
    """
    if block.shape[0] == 1:
        return float(block[0, 0]), np.ones(1)
    kept = _Pass() if kept is None else kept
    if kept.left:
        # The transpose reverses every edge, so its classes run the other way.
        d = max(classes) + 1
        block, classes = block.T, tuple(-k % d for k in classes)
    probe_budget = _probe_length(block.shape[0])
    remaining = MAX_ITERATIONS
    scale = 1.0
    bracket = (0.0, math.inf)
    seed, state = kept.seed, kept.state
    if state:
        kept.seed, kept.state = None, []  # resumed here, and released
    elif seed is None and classes is not None and max(classes) >= 2:
        seed = kept.seed = _eig_seed(block, classes)
    probed = 0  # iterations of the probe that stopped uncertified on the block, in state
    for _ in range(3 if seed is None else 0):
        if remaining <= 0:
            break
        root, vector, lo, hi, used = _power_pass(block, tol, min(remaining, probe_budget), None, state)
        remaining -= used
        bracket = (scale * lo, scale * hi)
        if root is None:
            if not (0.0 < lo and hi < 0.5):
                probed = used
                break  # not a small root, just slow: finish from the seed below
            root = 0.5 * (lo + hi)
        elif not root < 0.5:
            return scale * root, vector
        # A root below the rounding of the + I shift certifies as 0: the largest entry rescales instead.
        root = root or float(block.max())
        block = _rescaled_block(block, root, bracket, MAX_ITERATIONS - remaining)
        scale *= root
        state = []
    if remaining > 0:
        held = kept.state is state  # does kept hold this very pass?
        if seed is None:
            seed = _eig_seed(block, classes or _analyze_pattern(block > 0).cyclic_classes)
            if seed is None:
                seed = (1.0, None)  # no proposal: the probe goes on where it stopped
            else:
                state, probed = [], 0
        lam, start = seed
        block = _rescaled_block(block, lam, bracket, MAX_ITERATIONS - remaining)
        scale *= lam
        root, vector, lo, hi, used = _power_pass(block, tol, remaining + probed, start, state)
        if root is not None:
            if held:
                kept.seed, kept.state = seed, state  # for a tighter tol to resume, in place of a probe
            return scale * root, vector
        remaining -= used - probed
        bracket = (scale * lo, scale * hi)
    used = MAX_ITERATIONS - remaining
    raise _bracket_error(f"power iteration did not converge in {used} of {MAX_ITERATIONS} iterations", bracket, used)


def _bracket_error(reason: str, bracket: tuple[float, float], used: int) -> ConvergenceError:
    """The ConvergenceError of a block that stopped for reason, with its bracket and iterations spent."""
    message = f"{reason}; spectral radius is in [{bracket[0]:.17g}, {bracket[1]:.17g}]"
    return ConvergenceError(message, bracket=bracket, iterations=used)


def _bracket_error_over(exc: ConvergenceError, by: float) -> ConvergenceError:
    """exc, a _bracket_error of a matrix times by, as the matrix's own: its bracket over by, same reason and count."""
    reason = str(exc).rpartition("; spectral radius is in")[0]
    return _bracket_error(reason, (exc.bracket[0] / by, exc.bracket[1] / by), exc.iterations)


def _rescaled_block(block: np.ndarray, by: float, bracket: tuple[float, float], used: int) -> np.ndarray:
    """block / by, unless its largest quotient, block.max() / by, overflows (a by below 1 only): ConvergenceError."""
    if by < 1.0 and not float(block.max()) / by < math.inf:
        raise _bracket_error(f"rescaling a block by {by:.17g} overflows the float range", bracket, used)
    return block / by


def spectral_radius(m, *, tol: float = SPECTRAL_TOL) -> float:
    """Spectral radius of a square nonnegative matrix.

    Works for reducible matrices: the pattern is condensed into strongly
    connected components and the largest per-component Perron root wins.
    Trivial 1x1 components contribute their own diagonal entry.
    """
    check_tolerance(tol)
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


def _radius_below(m: np.ndarray, report: StructureReport, tol: float, ceiling: float) -> float:
    """An upper bound below ceiling on the Perron roots of the strong components in report, or inf.

    A 1 x 1 component gives its diagonal entry; a block, the upper end of
    the bracket at which one cold pass, of a probe's length at most,
    stopped below ceiling.  The bound holds up to the rounding of that
    bracket's ratios, which the caller's margin covers.
    """
    bound = 0.0
    for component in report.components:
        if len(component) == 1:
            i = component[0]
            bound = max(bound, float(m[i, i]))
        else:
            block = m if report.irreducible else m[np.ix_(component, component)]
            bound = max(bound, _power_pass(block, tol, _probe_length(len(component)), None, None, ceiling)[3])
        if not bound < ceiling:
            return math.inf
    return bound


def _mortality_margin(tol: float, n: int) -> float:
    """How far a bound B on rho(T), of order n, must clear the exact rule's edge for the rule to agree.

    The exact rule reads rho_hat, the computed rho(T) at tolerance tol:
    MortalityError at rho_hat >= 1 - tol, and ScalingError at
    s <= rho_hat + tol.  B is the upper end hi - 1 of a Collatz-Wielandt
    bracket of T + I with hi <= 2; the ratios come from sums of n
    nonnegative products and one quotient, so the true root exceeds B by
    at most 2 (n + 2) eps.  rho_hat is scale * (root - 1) for a bracket of
    T / scale + I of width at most tol * hi, the Rayleigh quotient inside
    it up to the same rounding twice, where scale is 1, a probe's root
    below 1/2 or LAPACK's proposal of the root,
    hi * scale <= scale + rho_hat + tol < 3 for a root below 1.  So
    rho_hat <= B + 3 tol + 6 (n + 2) eps, and a B below 1 - tol - margin,
    or below s - tol - margin, proves what the rule decides.
    """
    return 3.0 * tol + 8 * (n + 2) * math.ulp(1.0)


class _Transition:
    """T, its strong components (report) and tolerance, one record for a model and every rescaling of its F.

    bound is the best upper bound on rho(T) proven, up to _mortality_margin
    (inf until one is), and rho is rho(T), computed only when read.
    """

    def __init__(self, t: np.ndarray, tol: float):
        self.t, self.tol, self.bound = t, tol, math.inf
        self.report = _analyze_pattern(t > 0)

    @cached_property
    def rho(self) -> float:
        return _radius(self.t, self.report, self.tol)

    def exceeds(self, s: float) -> bool:
        """Whether a bound proves the finite s above rho(T) + tol; False leaves it to rho(T), as a known rho(T) does.

        The ceiling is at most 1 - tol - margin: that proves every s >= 1 and keeps a pass's upper end below
        2, where the margin holds.
        """
        if "rho" in vars(self):
            return False
        ceiling = min(s, 1.0) - self.tol - _mortality_margin(self.tol, len(self.t))
        if not self.bound < ceiling:
            self.bound = min(self.bound, _radius_below(self.t, self.report, self.tol, ceiling))
        return self.bound < ceiling

    def require_mortal(self) -> None:
        """MortalityError unless rho(T) < 1 - tol: the gate at s = 1, which keeps the bound it proves, else rho(T).

        A rho(T) that does not converge is still decided by a diagonal entry of 1 - tol or more, a lower bound.
        """
        if self.exceeds(1.0):
            return
        try:
            value, what = self.rho, "spectral radius is"
        except ConvergenceError:
            value, what = float(self.t.diagonal().max()), "has diagonal entry"
            if value < 1.0 - self.tol:
                raise
        if value >= 1.0 - self.tol:
            raise MortalityError(f"rho(T) >= 1: transition matrix {what} {value:.12g}, the population never dies out")


def perron_pair(m, *, tol: float = SPECTRAL_TOL) -> SpectralPair:
    """Perron root and positive left/right Perron vectors of an irreducible matrix.

    Raises StructureError for a reducible matrix: its Perron vectors need
    not be unique or positive, so callers should analyze each strong
    component separately.
    """
    check_tolerance(tol)
    m = as_matrix(m)
    return _pair(m, _analyze_pattern(m > 0), tol)


def _pair(m: np.ndarray, report: StructureReport, tol: float, kept: _Pass | None = None) -> SpectralPair:
    """perron_pair of a validated matrix whose structure report is given.

    kept, a pass of _power_root on m or on its transpose, is resumed by its own side.  A side with
    no pass to resume starts at LAPACK's proposal for that side where the block has index 1 or 2 and
    order at most _PROPOSAL_MAX_ORDER, above which one dense eig costs more than the cold probes it
    spares.  Without a proposal, where its pass does not certify, and on every other block, the side
    takes the cold route: probes, then _eig_seed, or the cyclic seed at index 3 or more.
    """
    if not report.irreducible:
        raise StructureError("matrix is reducible; analyze each strongly connected component separately")
    # Iterate both sides a notch tighter than requested so the combined
    # residuals of the pair stay within tol.
    inner_tol = tol / 4.0
    (rho, right), (_, left) = (
        _power_root(m, inner_tol, report.cyclic_classes, kept) if kept is not None and kept.left == side
        else _fresh_side(m, inner_tol, report.cyclic_classes, side)
        for side in (False, True)
    )
    left = left / float(left @ right)
    right.setflags(write=False)
    left.setflags(write=False)
    return SpectralPair(rho=rho, right=right, left=left)


def _fresh_side(m: np.ndarray, tol: float, classes: tuple[int, ...], left: bool):
    """(root, vector) of a side of m's Perron pair (left: on m^T) that has no pass to resume, as _pair routes it."""
    if len(m) <= _PROPOSAL_MAX_ORDER and max(classes) < 2:
        proposal = _dominant_pair(m.T if left else m)
        if proposal is not None:
            with suppress(ConvergenceError):
                return _power_root(m, tol, classes, _Pass(proposal, left))
    return _power_root(m, tol, classes, _Pass(left=left))


def resolvent_inverse(transition) -> np.ndarray:
    """(I - T)^-1 = I + T + T^2 + ... for rho(T) < 1, exactly 0 where no walk of T joins two classes.

    rho(T) >= 1 - SPECTRAL_TOL raises MortalityError, decided as validate_model decides it: from a
    bound, and from rho(T) only near the edge.  An entry below -CLAMP_TOL in the inverse of a block
    of I - T, or beyond the float range, raises NumericalError.
    """
    record = _Transition(as_matrix(transition, name="transition matrix"), SPECTRAL_TOL)
    record.require_mortal()
    inverse = _resolvent_rows(record.t, record.report, np.eye(len(record.t)))
    if not np.isfinite(inverse).all():
        raise NumericalError("the resolvent inverse overflows the float range")
    inverse.setflags(write=False)
    return inverse


@np.errstate(over="ignore", invalid="ignore")
def _resolvent_rows(t: np.ndarray, report: StructureReport, rows: np.ndarray) -> np.ndarray:
    """rows @ (I - T)^-1 for a validated T with rho(T) < 1, over the strong components in report.

    Row i of y = (rows @ (I - T)^-1)^T is rows_i + sum_j T[j, i] y_j over j
    in i's component or a later one, so components are solved last to
    first: a 1 x 1 one by a division, a block (all of an irreducible T) by
    its own inverse, clamped at 0.  Unsolved rows of y are exactly 0 and the
    coupling sums nonnegative products, so an entry no walk feeds stays 0.  An entry that overflows
    is left as inf or nan, without a warning, for the caller to refuse.
    """
    tt = np.ascontiguousarray(t.T)
    r = rows.T
    y = np.zeros(r.shape)
    for component in reversed(report.components):
        if len(component) == 1:
            i = component[0]
            y[i] = (r[i] + tt[i] @ y) / (1.0 - tt[i, i])
            continue
        c = list(component)
        block, coupled = (t, r) if report.irreducible else (t[np.ix_(c, c)], r[c] + tt[c] @ y)
        try:
            inverse = np.linalg.solve(np.eye(len(c)) - block, np.eye(len(c)))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"elimination on I - T failed: {exc}") from None
        low = float(inverse.min())
        if low < -CLAMP_TOL:
            raise NumericalError(f"resolvent inverse has entry {low:.6g} below the clamping tolerance")
        y[c] = (coupled.T @ np.maximum(inverse, 0.0)).T
    return y.T
