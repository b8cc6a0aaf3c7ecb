"""Population-model layer for the discrete dynamics x_k = (T + F) x_{k-1}.

A model is a validated pair of a transition matrix T (per-step survival
fractions, spectral radius below 1) and a fertility matrix F (newborns per
individual per step, nonzero).  From these the toolkit derives the
projection matrix P = T + F, the next generation matrix Q = F (I - T)^-1,
the growth rate r = rho(P), the net reproductive rate R0 = rho(Q), and a
growth classification:

  Stationary   r = R0 = 1
  Growing      1 < r <= R0    (strictly, 1 < r < R0, when P is irreducible)
  Declining    R0 <= r < 1    (strictly, 0 < R0 < r < 1, when P is irreducible)

Scaling only the fertility matrix moves the growth rate without touching
survival: dividing F by R0 makes the model stationary, and dividing by
q(s) = rho(F (I - T/s)^-1) / s makes the growth rate exactly s for any
target s above rho(T).

The model carries its spectral and classification tolerances, set once
by validate_model, and computes each derived quantity (the structure of
P, rho(T), r, P's Perron pair, Q, R0 and the model with F / R0) at most
once, on first use; the functions here and in the other modules read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, ModelError, MortalityError, ScalingError, StructureError
from .matrices import as_matrix
from .spectral import SPECTRAL_TOL, SpectralPair, _pair, _radius, _resolvent
from .structure import QPatternReport, StructureReport, _analyze_pattern, _next_gen_pattern

# Classification band around 1 for the growth trichotomy, and the residual
# allowed, relative to max(1, s), when verifying that a scaled model hits
# its prescribed growth rate s.  Both sit well above the spectral
# iteration tolerance to absorb accumulated error.  Signs and patterns
# are read at exactly zero, never against either band.
CLASSIFY_TOL = 1e-9
STABILITY_TOL = 1e-8


class Trichotomy(Enum):
    """Growth classification of a model from its (r, R0) pair."""

    STATIONARY = "Stationary"
    GROWING = "Growing"
    DECLINING = "Declining"


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """Validated (transition, fertility) pair with its tolerances and cached derived values.

    ``tol_spec`` is the tolerance of every Perron computation on the
    model and ``tol_class`` the band around 1 of the growth
    classification, of stationary populations and of the Finite fate.
    Every derived value, ``perron`` included, is computed once, on first use.
    """

    transition: np.ndarray
    fertility: np.ndarray
    warnings: tuple[str, ...] = ()
    tol_spec: float = SPECTRAL_TOL
    tol_class: float = CLASSIFY_TOL
    _kept: list = field(default_factory=list, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def projection(self) -> np.ndarray:
        """One-step update matrix P = T + F."""
        p = self.transition + self.fertility
        p.setflags(write=False)
        return p

    @cached_property
    def structure(self) -> StructureReport:
        """Strong components, irreducibility and imprimitivity index of P."""
        return _analyze_pattern(_finite(self.projection) > 0)

    @cached_property
    def rho_transition(self) -> float:
        """rho(T), below 1 for every validated model."""
        return _radius(self.transition, _analyze_pattern(self.transition > 0), self.tol_spec)

    @cached_property
    def growth_rate(self) -> float:
        """r = rho(P); an irreducible P's first Perron pass is kept for perron."""
        return _radius(self.projection, self.structure, self.tol_spec, self._kept)

    @cached_property
    def perron(self) -> SpectralPair:
        """Certified Perron pair of an irreducible P, resuming growth_rate's pass; else StructureError."""
        if self.structure.irreducible:
            self.growth_rate  # fills _kept, which _pair's right side resumes
        return _pair(self.projection, self.structure, self.tol_spec, self._kept)

    @cached_property
    def next_generation(self) -> np.ndarray:
        """Next generation matrix Q = F (I - T)^-1.

        Entry (i, j) counts the class-i newborns descending from one
        class-j individual over its whole remaining lifetime.
        """
        q = self.fertility @ _resolvent(self.transition)
        q.setflags(write=False)
        return q

    @cached_property
    def r0(self) -> float:
        """Net reproductive rate R0 = rho(Q), exactly 0 when no cycle of P takes an edge of F.

        Q has a cycle exactly when P has one through an edge of F.  A Q
        without one is not iterated, since the pivoted solve for
        (I - T)^-1 can leave rounding-level entries at its structural zeros.
        """
        if not _fertile_cycle(self.structure, self.fertility):
            return 0.0
        q = _finite(self.next_generation)
        return _radius(q, _analyze_pattern(q > 0), self.tol_spec)

    @cached_property
    def stationary(self) -> PopulationModel:
        """The model with fertility F / R0, checked to have growth rate 1; needs R0 > 0."""
        return _rescaled(self, self.r0, 1.0)


@dataclass(frozen=True)
class AnalysisReport:
    """Growth rate, net reproductive rate, classification, and pattern structure.

    ``strict`` is set when the projection matrix is irreducible, in which
    case the Growing/Declining inequalities hold strictly, ``q_pattern``
    describes the block form of the next generation matrix, and
    ``stability_residual`` records |rho(T + F/R0) - 1| from the scaling
    cross-check.
    """

    growth_rate: float
    net_reproductive_rate: float
    trichotomy: Trichotomy
    strict: bool
    structure: StructureReport
    q_pattern: QPatternReport | None
    stability_residual: float | None


@dataclass(frozen=True, eq=False)
class TargetScaleResult:
    """Fertility divisor q, the scaled model, and its net reproductive rate R0 / q."""

    q: float
    scaled: PopulationModel
    r0_scaled: float


def validate_model(
    transition,
    fertility,
    *,
    tol_spec: float = SPECTRAL_TOL,
    tol_class: float = CLASSIFY_TOL,
) -> PopulationModel:
    """Validate a (T, F) pair into a PopulationModel carrying both tolerances.

    Rejects dimension mismatches, negative or non-finite entries, a zero
    fertility matrix, and a transition matrix with spectral radius at or
    above 1.  Column sums of T above 1 are biologically suspect but only
    produce warnings, since no conclusion depends on them.
    """
    t = as_matrix(transition, name="transition matrix")
    f = as_matrix(fertility, name="fertility matrix")
    if t.shape != f.shape:
        raise ModelError(
            f"transition and fertility matrices differ in order: {t.shape[0]} vs {f.shape[0]}"
        )
    if f.max() == 0.0:
        raise ModelError("fertility matrix is zero")
    warnings = tuple(
        f"column {j + 1} of the transition matrix sums to {s:.6g} > 1"
        for j, s in enumerate(t.sum(axis=0))
        if s > 1.0
    )
    model = PopulationModel(t, f, warnings, tol_spec, tol_class)
    if model.rho_transition >= 1.0 - tol_spec:
        raise MortalityError(
            f"rho(T) >= 1: transition matrix spectral radius is {model.rho_transition:.12g}, "
            "the population never dies out"
        )
    return model


def _finite(m: np.ndarray) -> np.ndarray:
    """A matrix computed from validated ones, once checked for overflow to inf or nan."""
    if not np.isfinite(m).all():
        raise ModelError("matrix has non-finite entries")
    return m


def _fertile_cycle(structure: StructureReport, fertility: np.ndarray) -> bool:
    """Whether an edge of F lies on a cycle of P, whose strong components are given."""
    if structure.irreducible:
        return True
    component = np.empty(fertility.shape[0], dtype=int)
    for k, members in enumerate(structure.components):
        component[list(members)] = k
    rows, cols = np.nonzero(fertility)
    return bool((component[rows] == component[cols]).any())


def _rescaled(model: PopulationModel, divisor: float, target: float) -> PopulationModel:
    """The model with fertility F / divisor, checked to have growth rate target.

    The one check of the paper's scaling contract: F / q(s) has growth
    rate s, and q(1) = R0.  A miss beyond STABILITY_TOL * max(1, target)
    raises ConsistencyError.  The model shares T, warnings, tolerances and
    rho(T), and while F / divisor keeps F's pattern, P's structure too.
    """
    f = model.fertility / divisor
    if not np.isfinite(f).all():
        raise ModelError("fertility matrix has non-finite entries")
    f.setflags(write=False)
    scaled = PopulationModel(model.transition, f, model.warnings, model.tol_spec, model.tol_class)
    vars(scaled)["rho_transition"] = model.rho_transition
    if np.array_equal(f > 0, model.fertility > 0):
        vars(scaled)["structure"] = model.structure
        _finite(scaled.projection)
    if abs(scaled.growth_rate - target) > STABILITY_TOL * max(1.0, target):
        raise ConsistencyError(
            f"growth rate of the fertility-rescaled model is {scaled.growth_rate!r}, expected {target!r}"
        )
    return scaled


def _classify(r: float, r0: float, tol_class: float) -> Trichotomy:
    if abs(r - 1.0) <= tol_class and abs(r0 - 1.0) <= tol_class:
        return Trichotomy.STATIONARY
    if r > 1.0 and r <= r0 + tol_class:
        return Trichotomy.GROWING
    if r < 1.0 and r0 <= r + tol_class:
        return Trichotomy.DECLINING
    raise ConsistencyError(
        f"growth rate {r!r} and net reproductive rate {r0!r} violate the growth trichotomy"
    )


def analyze(model: PopulationModel) -> AnalysisReport:
    """Full analysis: r, R0, trichotomy class, and pattern structure.

    For an irreducible projection matrix the report additionally carries
    the next-generation block pattern and the residual |rho(T + F/R0) - 1|
    of the stationary model, which _rescaled has checked.
    """
    r = model.growth_rate
    r0 = model.r0
    structure = model.structure
    strict = structure.irreducible

    if strict and r0 <= 0.0:
        raise ConsistencyError(
            "irreducible model computed a zero net reproductive rate, which is impossible"
        )
    trichotomy = _classify(r, r0, model.tol_class)

    stability_residual = None
    q_pattern = None
    if strict:
        stability_residual = abs(model.stationary.growth_rate - 1.0)
        q_pattern = _next_gen_pattern(model.fertility, model.next_generation)

    return AnalysisReport(
        growth_rate=r,
        net_reproductive_rate=r0,
        trichotomy=trichotomy,
        strict=strict,
        structure=structure,
        q_pattern=q_pattern,
        stability_residual=stability_residual,
    )


def stabilizing_scale(model: PopulationModel) -> PopulationModel:
    """The cached stationary model, with fertility F / R0 and growth rate 1.

    Refused only for a net reproductive rate of exactly zero, however
    small a positive R0 is; a growth rate off 1 raises ConsistencyError.
    """
    if model.r0 <= 0.0:
        raise ScalingError(
            "net reproductive rate is zero; no fertility scaling yields a stationary model"
        )
    return model.stationary


def target_growth_scale(model: PopulationModel, s: float) -> TargetScaleResult:
    """Scale fertility so the model's growth rate becomes exactly s.

    Requires an irreducible projection matrix and a target s above
    rho(T).  The divisor is q(s) = rho(F (I - T/s)^-1) / s, a strictly
    decreasing function of s, and the scaled model's net reproductive
    rate is R0 / q(s).
    """
    s = float(s)
    if not model.structure.irreducible:
        raise StructureError(
            "projection matrix is reducible; target-growth scaling needs an irreducible model"
        )
    rho_t = model.rho_transition
    if not np.isfinite(s) or s <= rho_t + model.tol_spec:
        raise ScalingError(f"target growth rate {s:.6g} must exceed rho(T) = {rho_t:.6g}")

    # rho(T / s) = rho(T) / s < 1, so the resolvent needs no second check.
    q = _finite(model.fertility @ _resolvent(model.transition / s))
    q_of_s = _radius(q, _analyze_pattern(q > 0), model.tol_spec) / s
    if q_of_s <= 0.0:
        raise ConsistencyError("fertility divisor came out nonpositive for an irreducible model")

    scaled = _rescaled(model, q_of_s, s)
    r0_scaled = model.r0 / q_of_s
    # The scaled model's (s, R0(s)) pair must itself satisfy the trichotomy.
    _classify(s, r0_scaled, model.tol_class)
    return TargetScaleResult(q=q_of_s, scaled=scaled, r0_scaled=r0_scaled)


def r0_positive(model: PopulationModel) -> bool:
    """Whether the net reproductive rate is positive, certified by the paper's criterion.

    R0 > 0 exactly when rho(T + a F) > rho(T) for some a > 0.  When R0 is
    positive, a = 1 / R0 is a witness, since rho(T + F/R0) = 1 > rho(T);
    when R0 is zero, rho(T + F) = rho(T).  So the cached growth rate of
    the stationary model, or of the model itself when R0 is zero, must
    exceed rho(T) + tol_spec exactly when R0 > 0; disagreement raises
    ConsistencyError.
    """
    positive = model.r0 > 0.0
    witness = model.stationary.growth_rate if positive else model.growth_rate
    if (witness > model.rho_transition + model.tol_spec) != positive:
        raise ConsistencyError(
            "scaling certificate for a positive net reproductive rate disagrees with rho(Q)"
        )
    return positive
