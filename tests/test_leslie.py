import math

import numpy as np
import pytest

from matpop import (
    LeslieModel,
    ModelError,
    analyze,
    analyze_structure,
    assemble,
    leslie_growth_rate,
    leslie_r0,
    q_poly_eval,
    resolvent_inverse,
    spectral_radius,
    target_growth_scale,
)
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
