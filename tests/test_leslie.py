import math

import mpmath
import numpy as np
import pytest

from matpop import (
    ConvergenceError,
    LeslieModel,
    ModelError,
    analyze,
    analyze_structure,
    assemble,
    leslie_growth_rate,
    leslie_r0,
    q_poly_eval,
    r0_positive,
    resolvent_inverse,
    spectral_radius,
    stabilizing_scale,
    target_growth_scale,
)
from matpop.leslie import ROOT_TOL
from helpers import random_leslie_model


TWO_CLASS = LeslieModel((0.5,), (1.0, 1.0))


class TestLeslieModel:
    def test_rejects_zero_survival(self):
        with pytest.raises(ModelError):
            LeslieModel((0.0,), (1.0, 1.0))

    def test_rejects_survival_above_one(self):
        with pytest.raises(ModelError):
            LeslieModel((1.2,), (1.0, 1.0))

    def test_rejects_zero_fertility(self):
        with pytest.raises(ModelError):
            LeslieModel((0.5,), (0.0, 0.0))

    def test_rejects_wrong_survival_length(self):
        with pytest.raises(ModelError):
            LeslieModel((0.5, 0.5), (1.0, 1.0))

    @pytest.mark.parametrize(
        "survival, fertility",
        [
            # Iterated, each would pass for a valid model: "1" and b"\x01" as
            # survival (1.0,), "11" as fertility (1.0, 1.0), b"12" as (49.0, 50.0).
            ("1", [1.0, 1.0]),
            (b"\x01", [1.0, 1.0]),
            (bytearray(b"\x01"), [1.0, 1.0]),
            ([0.5], "11"),
            ([0.5], b"12"),
            ([0.5], bytearray(b"12")),
        ],
        ids=["survival-str", "survival-bytes", "survival-bytearray",
             "fertility-str", "fertility-bytes", "fertility-bytearray"],
    )
    def test_rejects_text_and_bytes(self, survival, fertility):
        with pytest.raises(ModelError, match="not text or bytes"):
            LeslieModel(survival, fertility)

    def test_rejects_negative_fertility(self):
        with pytest.raises(ModelError):
            LeslieModel((0.5,), (1.0, -1.0))


class TestAssemble:
    def test_single_class(self):
        model = assemble(LeslieModel((), (1.0,)))
        np.testing.assert_array_equal(model.transition, [[0.0]])
        np.testing.assert_array_equal(model.fertility, [[1.0]])

    def test_two_class_placement(self):
        model = assemble(TWO_CLASS)
        np.testing.assert_array_equal(model.transition, [[0.0, 0.0], [0.5, 0.0]])
        np.testing.assert_array_equal(model.fertility, [[1.0, 1.0], [0.0, 0.0]])

    def test_terminal_fertility_gives_cyclic_projection(self):
        model = assemble(LeslieModel((1.0, 1.0), (0.0, 0.0, 1.0)))
        report = analyze_structure(model.projection)
        assert report.irreducible
        assert report.imprimitivity_index == 3
        assert spectral_radius(model.projection) == pytest.approx(1.0, abs=1e-10)

    def test_transition_is_nilpotent(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            model = assemble(random_leslie_model(rng))
            assert spectral_radius(model.transition) == 0.0


class TestQPolyEval:
    def test_two_class_at_one(self):
        assert q_poly_eval(TWO_CLASS, 1.0) == pytest.approx(1.5, abs=1e-14)

    def test_single_class(self):
        assert q_poly_eval(LeslieModel((), (2.0,)), 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ModelError):
            q_poly_eval(TWO_CLASS, 0.0)
        with pytest.raises(ModelError):
            q_poly_eval(TWO_CLASS, -1.0)

    def test_matches_generic_divisor(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            leslie = random_leslie_model(rng, n_max=8)
            model = assemble(leslie)
            s = float(rng.uniform(0.2, 3.0))
            generic = (
                spectral_radius(model.fertility @ resolvent_inverse(model.transition / s)) / s
            )
            assert q_poly_eval(leslie, s) == pytest.approx(generic, abs=1e-10)
            if analyze_structure(model.projection).irreducible:
                scaled = target_growth_scale(model, s)
                assert q_poly_eval(leslie, s) == pytest.approx(scaled.q, abs=1e-10)


class TestLeslieR0:
    def test_two_class(self):
        # By hand: f1 + f2 t1 = 1 + 0.5.
        assert leslie_r0(TWO_CLASS) == pytest.approx(1.5, abs=1e-14)

    def test_single_class(self):
        assert leslie_r0(LeslieModel((), (1.0,))) == 1.0

    def test_terminal_fertility(self):
        assert leslie_r0(LeslieModel((1.0, 1.0), (0.0, 0.0, 1.0))) == pytest.approx(1.0)

    def test_matches_next_generation_radius(self):
        rng = np.random.default_rng(89)
        for _ in range(80):
            leslie = random_leslie_model(rng)
            model = assemble(leslie)
            assert leslie_r0(leslie) == pytest.approx(
                spectral_radius(model.next_generation), abs=1e-10
            )


class TestLeslieGrowthRate:
    def test_two_class_quadratic(self):
        # Root of r^2 - r - 0.5 = 0 by the quadratic formula.
        assert leslie_growth_rate(TWO_CLASS) == pytest.approx(
            (1.0 + math.sqrt(3.0)) / 2.0, abs=1e-12
        )

    def test_single_class(self):
        assert leslie_growth_rate(LeslieModel((), (1.0,))) == pytest.approx(1.0, abs=1e-12)

    def test_cubic_cycle(self):
        # q(r) = r^-3, so the root is exactly 1.
        assert leslie_growth_rate(LeslieModel((1.0, 1.0), (0.0, 0.0, 1.0))) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("f", [1e-100, 1e-200, 1e-290])
    def test_tiny_root_is_exact(self, f):
        # q(s) = f / s, so r = f.
        assert leslie_growth_rate(LeslieModel((), (f,))) == f

    @pytest.mark.parametrize("f", [1e-301, 1e301])
    def test_roots_at_both_ends_of_the_float_range(self, f):
        # A search for the bracket from 1e-8 and 1 gave up before reaching either root.
        leslie = LeslieModel((), (f,))
        assert leslie_growth_rate(leslie) == pytest.approx(assemble(leslie).growth_rate, rel=1e-12)

    @pytest.mark.parametrize(
        "leslie",
        [
            # The root 5e-324 has no float neighbour below it to bisect against.
            LeslieModel((), (5e-324,)),
        ],
    )
    def test_root_off_the_equation_raises(self, leslie):
        with pytest.raises(ConvergenceError, match="root refinement stalled"):
            leslie_growth_rate(leslie)

    def test_root_near_the_largest_float(self):
        # Twice the bracket's upper bound, about 1.5e308, is inf, and the midpoint (lo + hi) / 2 of two
        # ends near the largest float overflows: the capped end and lo + (hi - lo) / 2 bisect to the root.
        leslie = LeslieModel((0.5,), (1.5e308, 1.0))
        root = leslie_growth_rate(leslie)
        exact = _euler_lotka_root(assemble(leslie), root)
        assert abs(root - exact) <= 1e-15 * exact
        assert abs(q_poly_eval(leslie, root) - 1.0) <= ROOT_TOL

    def test_root_of_a_weight_below_the_float_range(self):
        # The one weight, 0.1^399, underflows to 0: q summed from it was 0, and the root raised.
        leslie = LeslieModel((0.1,) * 399, (0.0,) * 399 + (1.0,))
        root = leslie_growth_rate(leslie)
        exact = _euler_lotka_root(assemble(leslie), root)
        assert abs(root - exact) <= 1e-15 * exact
        assert abs(q_poly_eval(leslie, root) - 1.0) <= ROOT_TOL

    def test_root_satisfies_equation(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            leslie = random_leslie_model(rng)
            root = leslie_growth_rate(leslie)
            assert abs(q_poly_eval(leslie, root) - 1.0) <= 1e-10

    def test_agrees_with_generic_spectral_radius(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            leslie = random_leslie_model(rng)
            model = assemble(leslie)
            report = analyze(model)
            assert leslie_growth_rate(leslie) == pytest.approx(
                report.growth_rate, abs=1e-9
            )
            assert leslie_r0(leslie) == pytest.approx(
                report.net_reproductive_rate, abs=1e-9
            )

    def test_long_period_semelparous_model(self):
        # Period 200: power iteration on P + I alone contracts at about
        # cos(pi / 200) per step.
        leslie = LeslieModel((0.9,) * 199, (0.0,) * 199 + (5.0,))
        model = assemble(leslie)
        r = analyze(model).growth_rate
        assert r == pytest.approx(leslie_growth_rate(leslie), rel=1e-9)
        scaled = target_growth_scale(model, 1.05 * r)
        assert scaled.q == pytest.approx(q_poly_eval(leslie, 1.05 * r), rel=1e-9)

    def test_thousand_class_semelparous_model_certifies_from_its_seed(self, power_passes):
        # Period 1000: cold probes of 20,000 iterations contract by about
        # cos(pi / 1000) per step and cannot certify; the seeded pass needs one.
        model = assemble(LeslieModel((0.9,) * 999, (0.0,) * 999 + (5.0,)))
        assert model.growth_rate == pytest.approx((5.0 * 0.9**999) ** (1 / 1000), rel=1e-12)
        assert sum(iterations for _, iterations in power_passes) <= 10

    def test_unit_r0_forces_unit_growth(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            leslie = random_leslie_model(rng)
            r0 = leslie_r0(leslie)
            balanced = LeslieModel(
                leslie.survival, tuple(f / r0 for f in leslie.fertility)
            )
            assert leslie_r0(balanced) == pytest.approx(1.0, abs=1e-12)
            assert leslie_growth_rate(balanced) == pytest.approx(1.0, abs=1e-8)


class TestSemelparousModelsAtFullLength:
    """Long semelparous models, whose R0 and Q entries fall far below any fixed tolerance."""

    @pytest.mark.parametrize("n", [400, 1000])
    def test_analysis_and_scalings_match_closed_forms(self, n):
        leslie = LeslieModel((0.9,) * (n - 1), (0.0,) * (n - 1) + (5.0,))
        model = assemble(leslie)
        report = analyze(model)
        assert report.growth_rate == pytest.approx(leslie_growth_rate(leslie), rel=1e-12)
        assert report.net_reproductive_rate == pytest.approx(leslie_r0(leslie), rel=1e-12)
        assert report.q_pattern.q11_indices == (0,)
        assert stabilizing_scale(model).growth_rate == pytest.approx(1.0, rel=1e-12)
        scaled = target_growth_scale(model, 0.95)
        assert scaled.q == pytest.approx(q_poly_eval(leslie, 0.95), rel=1e-12)
        assert r0_positive(model)


def _euler_lotka_root(model, guess: float) -> mpmath.mpf:
    """The root r of sum_a f_a l_a / r^a = 1 for a model's float entries, to 50 digits.

    l_a is the product of the first a - 1 survival rates.  The sum is
    strictly decreasing in r, so once it is checked to cross 1 within
    1e-9 of the guess, bisection closes in on the only root.
    """
    n = model.n
    with mpmath.workdps(50):
        weights, running = [], mpmath.mpf(1)
        for a in range(n):
            weights.append(mpmath.mpf(float(model.fertility[0, a])) * running)
            if a < n - 1:
                running *= mpmath.mpf(float(model.transition[a + 1, a]))

        def above(r):
            total, u = mpmath.mpf(0), 1 / r
            for w in reversed(weights):
                total = u * (w + total)
            return total > 1

        lo, hi = mpmath.mpf(guess) * (1 - 1e-9), mpmath.mpf(guess) * (1 + 1e-9)
        assert above(lo) and not above(hi)
        # 60 halvings leave a bracket of 2e-9 / 2^60, about 2e-27 relative.
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if above(mid) else (lo, mid)
        return (lo + hi) / 2


def _long_period_leslie(rng, period: int) -> LeslieModel:
    """A random Leslie model of n <= 45 classes, fertile at multiples of period only, period included."""
    n = period * int(rng.integers(1, 45 // period + 1))
    fertility = np.zeros(n)
    ages = np.arange(period, n + 1, period)
    fertility[ages - 1] = rng.uniform(0.2, 5.0, ages.size) * (rng.random(ages.size) < 0.6)
    fertility[[period - 1, n - 1]] = rng.uniform(0.2, 5.0, 2)
    return LeslieModel(tuple(rng.uniform(0.3, 0.99, n - 1)), tuple(fertility))


class TestWeightsBelowTheFloatRange:
    """Roots of models whose weights f_k t_1 ... t_{k-1} fall below 1e-308, against a 50-digit Euler-Lotka root."""

    def test_growth_rates(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            n = int(rng.integers(110, 121))
            survival = 10.0 ** rng.uniform(-6.0, -3.0, n - 1)
            fertility = rng.uniform(0.2, 5.0, n) * (rng.random(n) < rng.uniform(0.0, 0.5))
            fertility[-1] = rng.uniform(0.2, 5.0)
            leslie = LeslieModel(tuple(survival), tuple(fertility))
            # The last weight is below 10^(-3 (n - 1)) <= 1e-327.
            assert fertility[-1] * np.prod(survival) == 0.0
            root = leslie_growth_rate(leslie)
            exact = _euler_lotka_root(assemble(leslie), root)
            assert abs(root - exact) <= 1e-15 * exact
            assert abs(q_poly_eval(leslie, root) - 1.0) <= ROOT_TOL


class TestLongPeriodRootsAgainstEulerLotka:
    """Models of index 3-9 certify r to rounding level, against a 50-digit Euler-Lotka root."""

    @pytest.mark.parametrize("period", range(3, 10))
    def test_growth_rates_and_stability_residual(self, period):
        rng = np.random.default_rng(300 + period)
        eps = np.finfo(float).eps
        for _ in range(6):
            model = assemble(_long_period_leslie(rng, period))
            assert model.structure.imprimitivity_index == period
            report = analyze(model)
            r = _euler_lotka_root(model, report.growth_rate)
            assert abs(report.growth_rate - r) <= 2e-15 * r
            scaled = target_growth_scale(model, float(r) * rng.uniform(0.5, 2.0)).scaled
            s = _euler_lotka_root(scaled, scaled.growth_rate)
            assert abs(scaled.growth_rate - s) <= 2e-15 * s
            # 10 eps before the stationary check started at Q's fertile row, with 16 eps allowed.
            assert report.stability_residual <= 2 * eps
