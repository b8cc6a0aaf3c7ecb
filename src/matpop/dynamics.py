"""Population trajectories and the long-run behavior of population models.

For a primitive projection matrix the normalized trajectory x_k / r^k
converges to (v @ x0) u, where u and v are the right and left Perron
vectors with v @ u = 1; the total population therefore dies out, settles,
or explodes according to r < 1, r = 1, or r > 1.  An irreducible but
imprimitive matrix with index d instead drives x_k / r^k into a permanent
oscillation through d limit vectors, one per step residue modulo d.
Long-run limits of reducible models are out of scope and refused.

Every function reads the growth rate and the structure cached on the
model, and uses the model's spectral and classification tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConsistencyError, ConvergenceError, ModelError, NumericalError, StructureError
from .matrices import as_population_vector
from .model import PopulationModel
from .spectral import perron_pair

# Per-step change below which a normalized trajectory counts as settled,
# the number of consecutive settled steps required, and the iteration cap.
LIMIT_TOL = 1e-9
CONVERGENCE_WINDOW = 3
MAX_STEPS = 1_000_000
# Direct (Perron projection) and iterated limits must agree this tightly.
AGREEMENT_TOL = 1e-6
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

    ``eigenvalue`` is the best single-factor estimate lambda for
    P x = lambda x and ``residual`` is ||P x - lambda x||_inf / ||x||_inf.
    """

    kind: PopulationKind
    eigenvalue: float
    residual: float


def iterate(model: PopulationModel, x0, steps: int, *, normalize: bool = False) -> np.ndarray:
    """Run the model forward: row k of the returned array is x_k = P^k x0.

    The array is read-only, float64 and of shape (steps + 1, n).
    Normalized mode divides step k by r^k (iterating with P / r), which is
    the supported way to follow long horizons without overflow; it is
    refused when the growth rate is zero.  Unnormalized mode raises
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
        if rate <= model.tol_class:
            raise ModelError("growth rate is zero; the normalized trajectory is undefined")
        matrix = matrix / rate

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
                np.dot(matrix, previous, out=row)
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


def _settle(matrix: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Iterate y <- matrix @ y until CONVERGENCE_WINDOW consecutive steps below LIMIT_TOL."""
    y = start
    quiet = 0
    for _ in range(MAX_STEPS):
        y_next = matrix @ y
        if np.max(np.abs(y_next - y)) < LIMIT_TOL:
            quiet += 1
            if quiet >= CONVERGENCE_WINDOW:
                return y_next
        else:
            quiet = 0
        y = y_next
    raise ConvergenceError(f"normalized trajectory did not settle within {MAX_STEPS} steps")


def eventual_limit(model: PopulationModel, x0) -> LimitResult:
    """Limit of x_k / r^k for a primitive model, computed two independent ways.

    The Perron projection (left @ x0) * right must agree with the settled
    iteration of x_k / r^k within AGREEMENT_TOL, otherwise
    ConsistencyError is raised.  Imprimitive irreducible models are
    rejected with a pointer to periodic_limits.
    """
    if not model.structure.primitive:
        raise StructureError(
            "projection matrix is not primitive; use periodic_limits for the oscillating case"
        )
    x = as_population_vector(x0, model.n)
    pair = perron_pair(model.projection, tol=model.tol_spec)
    direct = float(pair.left @ x) * pair.right
    direct.setflags(write=False)

    iterated = _settle(model.projection / pair.rho, x)
    if np.max(np.abs(iterated - direct)) > AGREEMENT_TOL * max(1.0, float(np.max(direct))):
        raise ConsistencyError(
            "iterated normalized trajectory disagrees with the Perron projection of x0"
        )

    if pair.rho < 1.0 - model.tol_class:
        fate = Fate.EXTINCT
    elif pair.rho > 1.0 + model.tol_class:
        fate = Fate.UNBOUNDED
    else:
        fate = Fate.FINITE
    return LimitResult(limit=direct, fate=fate)


def periodic_limits(model: PopulationModel, x0) -> PeriodicLimits:
    """Subsequence limits of x_k / r^k along step residues modulo the imprimitivity index.

    Requires an irreducible projection matrix; with index 1 this reduces
    to the single limit of eventual_limit.  At least one limit is always
    nonzero (in fact all are, since the left Perron functional of the
    normalized trajectory is conserved).
    """
    structure = model.structure
    if not structure.irreducible:
        raise StructureError("projection matrix is reducible; long-run limits are not supported")
    if structure.imprimitivity_index == 1:
        return PeriodicLimits(period=1, limits=(eventual_limit(model, x0).limit,))

    x = as_population_vector(x0, model.n)
    period = structure.imprimitivity_index
    normalized = model.projection / model.growth_rate
    step_matrix = np.linalg.matrix_power(normalized, period)

    limits = []
    seed = x
    for _ in range(period):
        settled = _settle(step_matrix, seed)
        settled.setflags(write=False)
        limits.append(settled)
        seed = normalized @ seed
    if max(float(np.max(np.abs(w))) for w in limits) <= LIMIT_TOL:
        raise ConsistencyError("all subsequence limits vanished for an irreducible model")
    return PeriodicLimits(period=period, limits=tuple(limits))


def classify_population(model: PopulationModel, x) -> PopulationClass:
    """Test whether x is stable (P x = lambda x, lambda > 0) or stationary (lambda = 1).

    The factor estimate uses the left Perron vector when the projection
    matrix is irreducible and falls back to the median componentwise
    ratio on the support of x otherwise.
    """
    x = as_population_vector(x, model.n)
    image = model.projection @ x
    if model.structure.irreducible:
        left = perron_pair(model.projection, tol=model.tol_spec).left
        factor = float(left @ image) / float(left @ x)
    else:
        support = x > 0
        factor = float(np.median(image[support] / x[support]))
    residual = float(np.max(np.abs(image - factor * x)) / np.max(np.abs(x)))

    if residual <= LIMIT_TOL and factor > model.tol_class:
        if abs(factor - 1.0) <= model.tol_class:
            kind = PopulationKind.STATIONARY
        else:
            kind = PopulationKind.STABLE
    else:
        kind = PopulationKind.NEITHER
    return PopulationClass(kind=kind, eigenvalue=factor, residual=residual)
