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
target s above rho(T).  The same algebra gives the scaled model's left
Perron vector: with rows = F_f (I - T/s)^-1 on F's nonzero rows f and
v Q11(s) = mu v, z = v rows has z T = s z - s v F_f and z F = mu v F_f,
so z (T + F / q(s)) = s z.  One pass on Q11(s)^T, seeded at LAPACK's
proposal, certifies mu = q(s) s and v together, and the scaled model's
growth-rate check starts at z.  At s = 1, q(1) = R0 and rows are Q's
fertile rows: where Q11 is 1 x 1 it is R0 itself, read, and v = [1], so
the stationary model's check of a block of index 3 or more, which
_eig_seed would start, starts at Q's fertile row.

The model carries its spectral and classification tolerances, set once
by validate_model, and computes each derived quantity (the structure of
P, r, P's Perron pair, Q, the structure of its block Q11, R0 and the
model with F / R0) at most once, on first use; the functions here and in
the other modules read them.  What depends on T alone, its structure, a
bound on rho(T) and rho(T), sits in one record of T that the model and
every rescaling of its fertility share.  The mortality assumption
rho(T) < 1 needs a proof, not the value: the record keeps an upper bound
on rho(T) from Collatz-Wielandt brackets that stop as soon as they clear
the edge, for validate_model and target_growth_scale's gate.  rho(T)
itself is computed only where it is read: by r0_positive, by the
MortalityError and ScalingError messages, and by a bound too close to
the edge to decide.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, ConvergenceError, ModelError, ScalingError, StructureError
from .matrices import as_matrix, check_tolerance
from .spectral import (
    SPECTRAL_TOL, SpectralPair, _bracket_error_over, _dominant_pair, _pair, _Pass, _power_root, _radius,
    _resolvent_rows, _Transition, _unit,
)
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
    # The Perron pass that certified r, on P or on P^T, kept for that side of perron to resume.
    _pass: _Pass = field(default_factory=_Pass, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def projection(self) -> np.ndarray:
        """One-step update matrix P = T + F; an entry that overflows is left for structure to refuse."""
        with np.errstate(over="ignore"):
            p = self.transition + self.fertility
        p.setflags(write=False)
        return p

    @cached_property
    def structure(self) -> StructureReport:
        """Strong components, irreducibility and imprimitivity index of P."""
        return _analyze_pattern(_finite(self.projection) > 0)

    @cached_property
    def _t(self) -> _Transition:
        """The record of T: its components, bound on rho(T) and rho(T), shared by every rescaled model."""
        return _Transition(self.transition, self.tol_spec)

    @property
    def rho_transition(self) -> float:
        """rho(T), below 1 for every validated model; computed when read, as validation needs only a bound."""
        return self._t.rho

    @cached_property
    def growth_rate(self) -> float:
        """r = rho(P); an irreducible P's first Perron pass is kept for perron."""
        return _radius(self.projection, self.structure, self.tol_spec, self._pass)

    @cached_property
    def perron(self) -> SpectralPair:
        """Certified Perron pair of an irreducible P, resuming growth_rate's pass; else StructureError."""
        if self.structure.irreducible:
            self.growth_rate  # runs the pass that _pair resumes
        return _pair(self.projection, self.structure, self.tol_spec, self._pass)

    @cached_property
    def _fertile(self) -> np.ndarray:
        """F's nonzero rows f, on which Q and every Q11(s) are solved."""
        return self.fertility.any(axis=1)

    @cached_property
    def next_generation(self) -> np.ndarray:
        """Next generation matrix Q = F (I - T)^-1, solved on F's nonzero rows; 0 where no walk joins.

        Entry (i, j) counts the class-i newborns descending from one
        class-j individual over its whole remaining lifetime.
        """
        q = np.zeros_like(self.fertility)
        q[self._fertile] = _resolvent_rows(self.transition, self._t.report, self.fertility[self._fertile])
        q.setflags(write=False)
        return q

    @cached_property
    def _q11_structure(self) -> StructureReport:
        """Strong components of Q11's pattern, shared by R0, each Q11(s) of that pattern and analyze's pattern laws."""
        return _analyze_pattern(_finite(self.next_generation)[np.ix_(self._fertile, self._fertile)] > 0)

    def _q11(self, s: float) -> tuple[np.ndarray, np.ndarray, StructureReport]:
        """(rows, Q11(s), report): rows = F_f _lift (I - T/s)^-1, Q's own at s = 1 and lift 1, Q11(s) = rows[:, f].

        T / s walks no edge that T does not, so report is Q11's unless, for a large s, T / s underflowed a
        long walk to an exact zero, or the lift kept an entry that underflowed to 0 in Q11.
        """
        f = self._fertile
        if s == 1.0 and self._lift == 1.0:
            return self.next_generation[f], self.next_generation[np.ix_(f, f)], self._q11_structure
        with np.errstate(over="ignore"):
            rows = _resolvent_rows(self.transition / s, self._t.report, self.fertility[f] * self._lift)
        q11 = _finite(rows)[:, f]
        same = np.array_equal(q11 > 0, self.next_generation[np.ix_(f, f)] > 0)
        return rows, q11, self._q11_structure if same else _analyze_pattern(q11 > 0)

    @cached_property
    def r0(self) -> float:
        """R0 = rho(Q) = rho(Q11), the lifted R0 over _lift: 0 when P has no cycle through F."""
        return self._lifted_r0 / self._lift

    @cached_property
    def stationary(self) -> PopulationModel:
        """The model with fertility F / R0, the lifted F over the lifted R0, with growth rate 1; needs R0 > 0.

        Where P is irreducible of index 3 or more and Q11 is 1 x 1, the check starts at Q's fertile row;
        every other check is P's own pass, whose last bits analyze prints as its residual.
        """
        left = None
        if self.structure.irreducible and max(self.structure.cyclic_classes) >= 2:
            rows, q11, _ = self._q11(1.0)
            if q11.shape == (1, 1):
                left = _unit(rows[0])
        return _rescaled(self, self._lifted_r0, 1.0, left)

    @cached_property
    def _lift(self) -> float:
        """The power of two, exact to multiply by, taking the least positive entry of F or Q11 to the normal range.

        It lifts F's largest entry to at most max(1, F.max()): an F with an entry of 1 or more keeps
        lift 1, and the lifted rows F (I - T/s)^-1 stay within the resolvent's own size.  frexp gives
        the smallest normal float the exponent -1021, and an entry below 2^e one of at most e.
        """
        f, q11 = self.fertility, self.next_generation[self._fertile][:, self._fertile]
        low = min(math.frexp(m.min(initial=math.inf, where=m > 0))[1] for m in (f, q11))
        return 1.0 if low >= -1021 else math.ldexp(1.0, max(0, min(-1021 - low, -math.frexp(f.max())[1])))

    @cached_property
    def _lifted_r0(self) -> float:
        """R0 times _lift: the radius of Q11(1), the lifted F's one R0 pass."""
        return self._lifted_radius(*self._q11(1.0)[1:])

    def _lifted_radius(self, q11: np.ndarray, report: StructureReport) -> float:
        """The radius of a lifted Q11(s), whose failure names the bracket of Q11(s) itself, the lifted one over _lift."""
        try:
            return _radius(q11, report, self.tol_spec)
        except ConvergenceError as exc:
            raise _bracket_error_over(exc, self._lift) from None


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

    Rejects a tolerance that is not a number strictly between 0 and 1,
    dimension mismatches, negative or non-finite entries, a zero fertility
    matrix, and a transition matrix with spectral radius at or above
    1 - tol_spec: a Collatz-Wielandt bound proves the radius below
    that and is kept, and only a T too close for the bound computes
    rho(T), which decides.  Column sums of T above 1 are biologically
    suspect but only produce warnings, since no conclusion depends on them.
    """
    check_tolerance(tol_spec, "tol_spec")
    check_tolerance(tol_class, "tol_class")
    t = as_matrix(transition, name="transition matrix")
    f = as_matrix(fertility, name="fertility matrix")
    if t.shape != f.shape:
        raise ModelError(
            f"transition and fertility matrices differ in order: {t.shape[0]} vs {f.shape[0]}"
        )
    if f.max() == 0.0:
        raise ModelError("fertility matrix is zero")
    with np.errstate(over="ignore"):
        sums = t.sum(axis=0)
    warnings = tuple(
        f"column {j + 1} of the transition matrix sums to {s:.6g} > 1"
        for j, s in enumerate(sums)
        if s > 1.0
    )
    model = PopulationModel(t, f, warnings, tol_spec, tol_class)
    model._t.require_mortal()
    return model


def _finite(m: np.ndarray) -> np.ndarray:
    """A matrix computed from validated ones, once checked for overflow to inf or nan."""
    if not np.isfinite(m).all():
        raise ModelError("matrix has non-finite entries")
    return m


def _rescaled(model: PopulationModel, divisor: float, target: float, left=None) -> PopulationModel:
    """The model with fertility F _lift / divisor, divisor being q(target) _lift, checked to have growth rate target.

    The one rescaling of F and check of the paper's scaling contract:
    F / q(s) has growth rate s, and q(1) = R0.  A miss beyond STABILITY_TOL * max(1, target)
    raises ConsistencyError.  The model shares T, warnings, tolerances and
    the record of T, and while f keeps F's pattern, P's structure too.
    left, if given, is a positive sum-1 left Perron vector of the rescaled
    P at root target, as the identity z (T + F / q(s)) = s z gives; the
    check is then a seeded pass on P^T started at (target, left), whose
    ratio bracket still certifies the root and which perron's left side
    resumes.  A seeded pass that does not certify leaves r to P's own pass.
    """
    with np.errstate(over="ignore"):
        f = model.fertility * model._lift / divisor
    if not np.isfinite(f).all():
        raise ModelError("fertility matrix has non-finite entries")
    f.setflags(write=False)
    scaled = PopulationModel(model.transition, f, model.warnings, model.tol_spec, model.tol_class)
    vars(scaled)["_t"] = model._t
    if np.array_equal(f > 0, model.fertility > 0):
        vars(scaled)["structure"] = model.structure
        _finite(scaled.projection)
        if left is not None:
            kept = _Pass((target, left), left=True)
            with suppress(ConvergenceError):
                root, _ = _power_root(scaled.projection, scaled.tol_spec, model.structure.cyclic_classes, kept)
                vars(scaled).update(growth_rate=root, _pass=kept)
    if abs(scaled.growth_rate - target) > STABILITY_TOL * max(1.0, target):
        raise ConsistencyError(
            f"growth rate of the fertility-rescaled model is {scaled.growth_rate!r}, expected {target!r}"
        )
    return scaled


def _classify(r: float, r0: float, tol_class: float) -> Trichotomy:
    if abs(r - 1.0) <= tol_class and abs(r0 - 1.0) <= tol_class:
        return Trichotomy.STATIONARY
    # Above 1 the slack is relative: R0(s) = R0 / q(s) is certified only relative to s.
    if r > 1.0 and r <= r0 + tol_class * r:
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
        q_pattern = _next_gen_pattern(model.fertility, model.next_generation, model._q11_structure)

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

    Requires an irreducible projection matrix and a finite target s above
    rho(T), decided from a bound on rho(T) wherever one can, with the
    exact rule's outcome.  The divisor is q(s) = rho(F (I - T/s)^-1) / s,
    a strictly decreasing function of s, and the scaled model's net
    reproductive rate is R0 / q(s).  The scaled model's check starts from
    its left Perron vector z = v F_f (I - T/s)^-1, v being Q11(s)'s left
    Perron vector.  For an irreducible Q11(s), q(s) s and v come from one
    pass on Q11(s)^T started at LAPACK's proposal, whose ratio bracket
    certifies the root; a 1 x 1 Q11(s) is read, with v = [1].  Without
    a proposal, or if that pass does not certify, Q11(s)'s own pass gives
    q(s) and v is the proposal, if any; so it is for a reducible Q11(s).
    Q11(s) comes from F times _lift, exactly, so a subnormal F or Q11
    keeps the bits that _rescaled's fertility, lifted F / lifted q(s), and
    R0(s), lifted R0 / lifted q(s), need.
    """
    s = float(s)
    if not model.structure.irreducible:
        raise StructureError(
            "projection matrix is reducible; target-growth scaling needs an irreducible model"
        )
    if not math.isfinite(s):
        raise ScalingError(f"target growth rate must be finite, got {s:.6g}")
    if not model._t.exceeds(s):
        rho_t = model.rho_transition
        if s <= rho_t + model.tol_spec:
            raise ScalingError(f"target growth rate {s:.6g} must exceed rho(T) = {rho_t:.6g}")

    rows, q11, report = model._q11(s)
    mu = None
    proposal = _dominant_pair(q11.T)
    v = proposal and proposal[1]
    if proposal and report.irreducible:
        with suppress(ConvergenceError):
            mu, v = _power_root(q11, model.tol_spec, report.cyclic_classes, _Pass(proposal, left=True))
    lifted_q = (model._lifted_radius(q11, report) if mu is None else mu) / s
    if lifted_q <= 0.0:
        raise ConsistencyError("fertility divisor came out nonpositive for an irreducible model")

    scaled = _rescaled(model, lifted_q, s, None if v is None else _unit(v @ rows))
    r0_scaled = model._lifted_r0 / lifted_q
    # The scaled model's (s, R0(s)) pair must itself satisfy the trichotomy.
    _classify(s, r0_scaled, model.tol_class)
    return TargetScaleResult(q=lifted_q / model._lift, scaled=scaled, r0_scaled=r0_scaled)


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
