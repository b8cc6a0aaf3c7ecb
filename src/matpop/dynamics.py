"""Population trajectories and the long-run behavior of population models.

For a primitive projection matrix the normalized trajectory x_k / r^k
converges to (v @ x0) u, where u and v are the right and left Perron
vectors with v @ u = 1; the total population therefore dies out, settles,
or explodes according to r < 1, r = 1, or r > 1.  An irreducible but
imprimitive matrix with index d instead drives x_k / r^k into a permanent
oscillation through d limit vectors, one per step residue modulo d.
Long-run limits of reducible models are out of scope and refused.

Every function reads the values cached on the model (growth rate,
structure, Perron pair) and uses its spectral and classification tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConsistencyError, ModelError, NumericalError, StructureError
from .matrices import as_population_vector
from .model import PopulationModel
from .spectral import _cycle_maps, _dominant_pair, _Pass, _power_root

# Eigenvector residual, relative to the factor times the population's
# largest entry, below which classify_population accepts a population as
# stable or stationary.
LIMIT_TOL = 1e-9
# Unnormalized iteration refuses to run past this magnitude, checked once
# per block of about OVERFLOW_BLOCK_VALUES trajectory entries.
OVERFLOW_LIMIT = 1e300
OVERFLOW_BLOCK_VALUES = 4096


class Fate(Enum):
    """Long-run behavior of the total population."""

    EXTINCT = "Extinct"
    FINITE = "Finite"
    UNBOUNDED = "Unbounded"


class PopulationKind(Enum):
    STABLE = "Stable"
    STATIONARY = "Stationary"
    NEITHER = "Neither"


@dataclass(frozen=True, eq=False)
class LimitResult:
    """Limit of x_k / r^k for a primitive model, with the fate of the raw totals."""

    limit: np.ndarray
    fate: Fate


@dataclass(frozen=True, eq=False)
class PeriodicLimits:
    """The d subsequence limits w_i = lim_k x_{kd+i} / r^{kd+i} of an imprimitive model."""

    period: int
    limits: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PopulationClass:
    """Eigenvector test of a single population vector.

    ``eigenvalue`` estimates lambda in P x = lambda x by the median ratio
    (P x)_i / x_i over the support of x (the growth rate only when x is
    stable), and ``residual`` is ||P x - lambda x||_inf / ||x||_inf.
    """

    kind: PopulationKind
    eigenvalue: float
    residual: float


def iterate(model: PopulationModel, x0, steps: int, *, normalize: bool = False) -> np.ndarray:
    """Run the model forward: row k of the returned array is x_k = P^k x0.

    The array is read-only, float64 and of shape (steps + 1, n).
    Normalized mode divides step k by r^k (iterating with P / r), which is
    the supported way to follow long horizons without overflow; it is
    refused when the growth rate is zero or so small that P / r
    overflows.  Unnormalized mode raises
    NumericalError naming the first step with an entry beyond
    OVERFLOW_LIMIT, and a step count whose array cannot be allocated
    raises ModelError.
    """
    x = as_population_vector(x0, model.n)
    steps = int(steps)
    if steps < 0:
        raise ModelError(f"step count must be >= 0, got {steps}")
    matrix = model.projection
    if normalize:
        rate = model.growth_rate
        if rate == 0.0:
            raise ModelError("growth rate is zero; the normalized trajectory is undefined")
        with np.errstate(over="ignore"):
            matrix = matrix / rate
        if not np.isfinite(matrix).all():
            raise ModelError(f"growth rate {rate!r} is too small to normalize by: P / r overflows")

    try:
        trajectory = np.empty((steps + 1, model.n))
    except (MemoryError, ValueError):
        raise ModelError(f"{steps} steps of {model.n} classes do not fit in memory") from None
    trajectory[0] = previous = x
    block_rows = max(1, OVERFLOW_BLOCK_VALUES // model.n)
    # Past an overflow the block runs on through inf and nan, hence errstate;
    # a nan row fails the check too.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, steps + 1, block_rows):
            block = trajectory[start:start + block_rows]
            for row in block:
                matrix.dot(previous, row)
                previous = row
            if normalize:
                continue
            over = np.flatnonzero(~(block.max(axis=1) <= OVERFLOW_LIMIT))
            if over.size:
                raise NumericalError(
                    f"population overflow at step {start + over[0]}; "
                    "rerun with normalization for long horizons"
                )
    trajectory.setflags(write=False)
    return trajectory


def eventual_limit(model: PopulationModel, x0) -> LimitResult:
    """Limit (v @ x0) u of x_k / r^k for a primitive model, from its certified Perron pair.

    Imprimitive models are rejected with a pointer to periodic_limits, and
    a limit beyond the float range raises NumericalError.
    """
    if not model.structure.primitive:
        raise StructureError(
            "projection matrix is not primitive; use periodic_limits for the oscillating case"
        )
    x = as_population_vector(x0, model.n)
    pair = model.perron
    with np.errstate(over="ignore"):
        limit = float(pair.left @ x) * pair.right
    if not np.isfinite(limit).all():
        raise NumericalError("the long-run limit (v @ x0) u overflows the float range")
    limit.setflags(write=False)

    if pair.rho < 1.0 - model.tol_class:
        fate = Fate.EXTINCT
    elif pair.rho > 1.0 + model.tol_class:
        fate = Fate.UNBOUNDED
    else:
        fate = Fate.FINITE
    return LimitResult(limit=limit, fate=fate)


def periodic_limits(model: PopulationModel, x0) -> PeriodicLimits:
    """Subsequence limits of x_k / r^k along step residues modulo the imprimitivity index d.

    Requires an irreducible projection matrix; with d = 1 this is the
    single limit of eventual_limit.  P / r maps cyclic class C_k into the
    next by A_k; the Perron vectors (u_0, v_0) of M = A_d-1 ... A_0, each certified by the
    kernel from LAPACK's proposed pair, are carried on by u_k+1 = A_k u_k and v_k = v_k+1 A_k,
    w_0 = u_c (v_c @ x0_c) on each class c, and w_i = (P / r)^i w_0.  A P / r or limits beyond the
    float range raise NumericalError, and limits that break (P / r) w_d-1 = w_0 ConsistencyError.
    Closure is the one check, as it implies v @ w_i = v @ x0 within its bound: v_c @ u_c is 1 on
    C_0 and M's root, which closure holds to 1, on every other class, and v is positive, a certified
    iterate carried through maps in which every column has a positive entry.
    """
    structure = model.structure
    if not structure.irreducible:
        raise StructureError("projection matrix is reducible; long-run limits are not supported")
    if structure.imprimitivity_index == 1:
        return PeriodicLimits(period=1, limits=(eventual_limit(model, x0).limit,))

    x = as_population_vector(x0, model.n)
    with np.errstate(over="ignore"):
        step = model.projection / model.growth_rate
    if not np.isfinite(step).all():
        raise NumericalError(f"growth rate {model.growth_rate!r} is too small to divide by: P / r overflows")
    period = structure.imprimitivity_index
    members, maps = _cycle_maps(step, structure.cyclic_classes)
    cycle = maps[0]
    for a in maps[1:]:
        cycle = a @ cycle
    u, v = np.empty((2, model.n))
    u0, v0 = (_power_root(m, model.tol_spec, None, _Pass(_dominant_pair(m)))[1] for m in (cycle, cycle.T))
    u[members[0]], v[members[0]] = u0, v0 / float(v0 @ u0)
    for k in range(1, period):
        u[members[k]] = maps[k - 1] @ u[members[k - 1]]
        v[members[-k]] = v[members[1 - k]] @ maps[-k]

    limits = np.empty((period, model.n))
    # Past an overflow, inf * 0 gives nan, hence invalid too; both fail the finite check.
    with np.errstate(over="ignore", invalid="ignore"):
        limits[0] = u * np.bincount(structure.cyclic_classes, weights=v * x).take(structure.cyclic_classes)
        for i in range(1, period):
            limits[i] = step @ limits[i - 1]
    if not np.isfinite(limits).all():
        raise NumericalError("the subsequence limits overflow the float range")
    # r's bracket puts M's root within 2 d tol_spec of 1, doubled for M's pair; nan fails.
    bound = 4 * period * max(model.tol_spec, model.n * np.finfo(float).eps)
    if not np.max(np.abs(step @ limits[-1] - limits[0])) <= bound * np.max(limits[0]):
        raise ConsistencyError("subsequence limits do not close the cycle: (P / r) w_d-1 != w_0")
    limits.setflags(write=False)
    return PeriodicLimits(period=period, limits=tuple(limits))


def classify_population(model: PopulationModel, x) -> PopulationClass:
    """Test whether x is stable (P x = lambda x, lambda > 0) or stationary (lambda = 1).

    The factor estimate is the median of the ratios (P x)_i / x_i over
    the support of x, whatever the structure of P, so no Perron pair is
    computed.  Any positive factor qualifies, so the residual is judged
    relative to it.
    """
    x = as_population_vector(x, model.n)
    image = model.projection @ x
    support = x > 0
    factor = float(np.median(image[support] / x[support]))
    residual = float(np.max(np.abs(image - factor * x)) / np.max(np.abs(x)))

    if factor > 0.0 and residual <= LIMIT_TOL * factor:
        if abs(factor - 1.0) <= model.tol_class:
            kind = PopulationKind.STATIONARY
        else:
            kind = PopulationKind.STABLE
    else:
        kind = PopulationKind.NEITHER
    return PopulationClass(kind=kind, eigenvalue=factor, residual=residual)
