import math

import numpy as np
import pytest

from matpop import (
    ConsistencyError,
    Error,
    ModelError,
    MortalityError,
    ScalingError,
    StructureError,
    Trichotomy,
    analyze,
    analyze_structure,
    assemble,
    eventual_limit,
    periodic_limits,
    r0_positive,
    spectral,
    spectral_radius,
    stabilizing_scale,
    structure,
    target_growth_scale,
    validate_model,
)
from matpop import model as model_layer
from matpop.matrices import as_matrix
from helpers import (
    PLANT_F,
    PLANT_Q,
    PLANT_R,
    PLANT_R0,
    PLANT_T,
    plant_q_of_s,
    random_general_model,
    random_irreducible_model,
    random_leslie_model,
    random_primitive_model,
    reference_power_pass,
)

# R0 = 0 fixture: fertility only feeds a class that never reproduces.
DEAD_END_T = np.array([[0.0, 1.0], [0.0, 0.0]])
DEAD_END_F = np.array([[0.0, 1.0], [0.0, 0.0]])


class TestValidateModel:
    def test_plant_is_clean(self, plant):
        assert plant.warnings == ()
        assert plant.n == 5

    def test_column_sum_above_one_warns_only(self):
        t = np.array([[0.0, 0.0], [1.5, 0.0]])  # nilpotent, rho = 0
        f = np.eye(2)
        model = validate_model(t, f)
        assert len(model.warnings) == 1
        assert "column 1" in model.warnings[0]

    def test_identity_transition_rejected(self):
        with pytest.raises(MortalityError):
            validate_model(np.eye(2), np.ones((2, 2)))

    def test_zero_fertility_rejected(self):
        with pytest.raises(ModelError, match="fertility matrix is zero"):
            validate_model(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelError):
            validate_model(np.zeros((2, 2)), np.ones((3, 3)))

    def test_negative_entries_rejected(self):
        with pytest.raises(ModelError):
            validate_model([[-0.1]], [[1.0]])


class TestNextGenerationMatrix:
    def test_plant(self, plant):
        np.testing.assert_allclose(plant.next_generation, PLANT_Q, atol=1e-14)

    def test_zero_transition_gives_fertility(self):
        f = np.array([[1.0, 2.0], [0.5, 0.0]])
        model = validate_model(np.zeros((2, 2)), f)
        np.testing.assert_array_equal(model.next_generation, f)

    def test_dead_end_fixture(self):
        model = validate_model(DEAD_END_T, DEAD_END_F)
        np.testing.assert_allclose(model.next_generation, DEAD_END_F, atol=1e-14)
        assert spectral_radius(model.next_generation) == 0.0


class TestAnalyze:
    def test_plant(self, plant):
        report = analyze(plant)
        assert report.growth_rate == pytest.approx(PLANT_R, abs=1e-9)
        assert report.net_reproductive_rate == pytest.approx(PLANT_R0, abs=1e-10)
        assert report.trichotomy is Trichotomy.DECLINING
        assert report.strict
        assert 0 < report.net_reproductive_rate < report.growth_rate < 1
        assert report.q_pattern is not None
        assert report.stability_residual <= 1e-8

    def test_reducible_stationary(self):
        # P = [[1, 0], [1, 1]] has r = 1, and R0 = 1 for any admissible split.
        t = np.array([[0.0, 0.0], [1.0, 0.0]])
        f = np.eye(2)
        report = analyze(validate_model(t, f))
        assert report.growth_rate == pytest.approx(1.0, abs=1e-12)
        assert report.net_reproductive_rate == pytest.approx(1.0, abs=1e-12)
        assert report.trichotomy is Trichotomy.STATIONARY
        assert not report.strict
        assert report.q_pattern is None
        assert report.stability_residual is None

    def test_growing_two_class(self):
        # Euler-Lotka quadratic: r^2 - r - 0.5 = 0, r = (1 + sqrt(3)) / 2.
        t = np.array([[0.0, 0.0], [0.5, 0.0]])
        f = np.array([[1.0, 1.0], [0.0, 0.0]])
        report = analyze(validate_model(t, f))
        assert report.growth_rate == pytest.approx((1 + math.sqrt(3)) / 2, abs=1e-10)
        assert report.net_reproductive_rate == pytest.approx(1.5, abs=1e-10)
        assert report.trichotomy is Trichotomy.GROWING
        assert report.strict

    def test_strict_trichotomy_on_random_models(self):
        rng = np.random.default_rng(47)
        for _ in range(150):
            model = random_irreducible_model(rng, n_max=8)
            report = analyze(model)
            r, r0 = report.growth_rate, report.net_reproductive_rate
            branches = [
                abs(r - 1) <= 1e-9 and abs(r0 - 1) <= 1e-9,
                1 < r < r0 + 1e-9,
                1e-9 < r0 < r + 1e-9 and r < 1,
            ]
            assert sum(branches) == 1
            assert report.stability_residual <= 1e-8

    def test_weak_trichotomy_on_general_models(self):
        rng = np.random.default_rng(53)
        for _ in range(150):
            model = random_general_model(rng)
            report = analyze(model)
            r, r0 = report.growth_rate, report.net_reproductive_rate
            if report.trichotomy is Trichotomy.STATIONARY:
                assert abs(r - 1) <= 1e-9 and abs(r0 - 1) <= 1e-9
            elif report.trichotomy is Trichotomy.GROWING:
                assert r > 1 and r <= r0 + 1e-9
            else:
                assert r < 1 and r0 <= r + 1e-9


class TestStabilizingScale:
    def test_plant(self, plant):
        scaled = stabilizing_scale(plant)
        np.testing.assert_allclose(scaled.fertility, plant.fertility * 8.0 / 3.0, atol=1e-12)
        assert spectral_radius(scaled.projection) == pytest.approx(1.0, abs=1e-8)

    def test_stationary_model_unchanged(self):
        t = np.array([[0.0, 0.0], [1.0, 0.0]])
        f = np.eye(2)
        model = validate_model(t, f)
        scaled = stabilizing_scale(model)
        np.testing.assert_allclose(scaled.fertility, f, atol=1e-9)

    def test_dead_end_not_scalable(self):
        model = validate_model(DEAD_END_T, DEAD_END_F)
        with pytest.raises(ScalingError):
            stabilizing_scale(model)
        # No scaling moves the spectral radius: T + aF stays nilpotent.
        for a in (1.0, 10.0, 1e6):
            assert spectral_radius(DEAD_END_T + a * DEAD_END_F) == 0.0

    def test_random_models_scale_to_one(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            model = random_irreducible_model(rng, n_max=8)
            scaled = stabilizing_scale(model)
            assert spectral_radius(scaled.projection) == pytest.approx(1.0, abs=1e-8)


class TestTargetGrowthScale:
    def test_plant_closed_form(self, plant):
        for s in (0.5, math.sqrt(2) / 2, 1.0, 2.0):
            result = target_growth_scale(plant, s)
            assert result.q == pytest.approx(plant_q_of_s(s), abs=1e-9)
            assert spectral_radius(result.scaled.projection) == pytest.approx(s, abs=1e-8)

    def test_scaling_by_own_growth_rate_is_identity(self, plant):
        result = target_growth_scale(plant, PLANT_R)
        assert result.q == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(result.scaled.fertility, plant.fertility, atol=1e-9)

    def test_target_below_transition_radius_rejected(self, plant):
        with pytest.raises(ScalingError):
            target_growth_scale(plant, 0.0)
        with pytest.raises(ScalingError):
            target_growth_scale(plant, -1.0)

    def test_reducible_rejected(self):
        model = validate_model(DEAD_END_T, DEAD_END_F)
        with pytest.raises(StructureError):
            target_growth_scale(model, 2.0)

    def test_overflowing_fertility_rejected(self):
        # q(s) is about f_1 / s, so F / q(1e308) overflows.
        model = validate_model([[0.0, 0.0], [0.5, 0.0]], [[0.5, 1.0], [0.0, 0.0]])
        with np.errstate(over="ignore"), pytest.raises(ModelError, match="non-finite"):
            target_growth_scale(model, 1e308)

    @pytest.mark.parametrize("s", [1e8, 1e9, 1e12])
    def test_large_targets_are_met_relative_to_s(self, s):
        # The achieved rate is exact to an ulp, which exceeds 1e-8 absolutely.
        model = validate_model([[0.0, 0.0], [0.5, 0.0]], [[0.5, 1.0], [0.0, 0.0]])
        result = target_growth_scale(model, s)
        assert result.scaled.growth_rate == pytest.approx(s, rel=1e-12)

    def test_q_strictly_decreasing_and_vanishing(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            model = random_irreducible_model(rng, n_max=6)
            rho_t = spectral_radius(model.transition)
            grid = np.linspace(rho_t + 0.05, 3.0, 8)
            values = [target_growth_scale(model, s).q for s in grid]
            assert all(a > b for a, b in zip(values, values[1:]))
            q_at_1024 = target_growth_scale(model, 1024.0).q
            q_at_1 = target_growth_scale(model, max(1.0, rho_t + 0.05)).q
            assert q_at_1024 < 1e-2 * q_at_1

    def test_consistency_on_random_models(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            model = random_irreducible_model(rng, n_max=8)
            rho_t = spectral_radius(model.transition)
            s = rng.uniform(rho_t + 0.05, 3.0)
            result = target_growth_scale(model, s)
            assert spectral_radius(result.scaled.projection) == pytest.approx(s, abs=1e-8)
            r0 = spectral_radius(model.next_generation)
            r0_direct = spectral_radius(result.scaled.next_generation)
            assert result.r0_scaled == pytest.approx(r0 / result.q, abs=1e-12)
            assert r0_direct == pytest.approx(r0 / result.q, abs=1e-10)


class TestScalingContract:
    """Every rescaled model is checked against its target growth rate, whichever caller built it."""

    @pytest.mark.parametrize("caller", [analyze, stabilizing_scale])
    def test_stationary_model_off_one_raises(self, plant, caller):
        # On the plant, F / (R0 + 1e-6) has a growth rate about 1e-6 below 1.
        vars(plant)["r0"] = PLANT_R0 + 1e-6
        with pytest.raises(ConsistencyError):
            caller(plant)

    def test_target_growth_model_off_target_raises(self, plant, monkeypatch):
        radius = model_layer._radius
        # Only the first root, q(s) * s, is off; the scaled model's growth rate is not.
        offsets = iter([1e-6])
        monkeypatch.setattr(
            model_layer,
            "_radius",
            lambda m, report, tol, *kept: radius(m, report, tol, *kept) + next(offsets, 0.0),
        )
        with pytest.raises(ConsistencyError):
            target_growth_scale(plant, 2.0)


class TestR0Positive:
    def test_plant(self, plant):
        assert r0_positive(plant)

    def test_dead_end_fixture(self):
        assert not r0_positive(validate_model(DEAD_END_T, DEAD_END_F))

    def test_reducible_with_positive_r0_found_by_doubling(self):
        # rho(T + F) = rho(T) here, so the certificate needs a > 1.
        t = np.array([[0.5, 0.0], [0.0, 0.0]])
        f = np.array([[0.0, 0.0], [0.0, 0.2]])
        model = validate_model(t, f)
        assert spectral_radius(model.projection) == spectral_radius(model.transition)
        assert r0_positive(model)

    def test_agrees_with_direct_r0_on_random_models(self):
        rng = np.random.default_rng(71)
        for _ in range(150):
            model = random_general_model(rng)
            expected = spectral_radius(model.next_generation) > 1e-9
            assert r0_positive(model) == expected


class TestExactZero:
    """Signs and patterns are read at exactly zero, whatever the scale of F."""

    def test_tiny_fertility_has_positive_r0(self):
        model = validate_model([[0.5]], [[1e-10]])
        report = analyze(model)
        assert report.net_reproductive_rate == pytest.approx(2e-10, rel=1e-12)
        assert report.trichotomy is Trichotomy.DECLINING
        assert stabilizing_scale(model).growth_rate == pytest.approx(1.0, rel=1e-12)
        assert r0_positive(model)

    def test_tiny_next_generation_entry_counts_for_the_column_law(self):
        # Q = [[2, 2e-13], [0, 0]]: column 2 of Q's nonzero row is positive.
        model = validate_model([[0.5, 0.0], [0.3, 0.4]], [[1.0, 1e-13], [0.0, 0.0]])
        pattern = analyze(model).q_pattern
        assert pattern.q11_indices == (0,)
        assert pattern.zero_rows == (1,)

    def test_structurally_zero_r0_is_exactly_zero(self):
        # No cycle of P takes the fertility edge.  I - T needs a row swap, and
        # the pivoted solve can leave a rounding-level Q[1, 1].
        model = validate_model([[0.0, 0.0], [2.0, 0.6]], [[0.0, 0.0], [0.2, 0.0]])
        assert model.r0 == 0.0
        assert not r0_positive(model)
        with pytest.raises(ScalingError):
            stabilizing_scale(model)

    def test_r0_positive_after_analyze_reads_cached_values(self, plant, kernel_calls):
        analyze(plant)
        kernel_calls.clear()
        assert r0_positive(plant)
        assert not kernel_calls["_power_root"]
        assert not kernel_calls["_analyze_pattern"]


class TestBoundTolerances:
    def test_classification_band_is_set_at_validation(self):
        # r almost exactly 1: Growing at the default band, Stationary at 1e-3.
        t = [[0.0, 0.0], [0.5, 0.0]]
        f = [[0.5, 1.0000001], [0.0, 0.0]]
        assert analyze(validate_model(t, f)).trichotomy is Trichotomy.GROWING
        loose = validate_model(t, f, tol_class=1e-3)
        assert analyze(loose).trichotomy is Trichotomy.STATIONARY

    def test_scaled_models_keep_tolerances_and_rho_transition(self, kernel_calls):
        model = validate_model(PLANT_T, PLANT_F, tol_spec=1e-11, tol_class=1e-6)
        for scaled in (stabilizing_scale(model), target_growth_scale(model, 2.0).scaled):
            assert (scaled.tol_spec, scaled.tol_class) == (1e-11, 1e-6)
            assert scaled.transition is model.transition
            assert scaled.warnings == model.warnings
            kernel_calls.clear()
            assert scaled.rho_transition == model.rho_transition
            assert not kernel_calls


class TestComputeOnce:
    def test_target_scaling_after_analyze_reuses_r0(self, plant, kernel_calls):
        analyze(plant)
        q = plant.next_generation
        q_blocks = [q[np.ix_(c, c)] for c in analyze_structure(q).components if len(c) > 1]
        assert q_blocks
        kernel_calls.clear()
        target_growth_scale(plant, 2.0)
        blocks = kernel_calls["_power_root"]
        # Only q(2) and the scaled model's growth rate need a Perron root.
        assert len(blocks) <= 2
        assert not any(np.array_equal(b, qb) for b in blocks for qb in q_blocks)

    def test_model_quantities_coerce_no_matrix_after_validation(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("name", "matrix"))
            return as_matrix(*args, **kwargs)

        for module in (model_layer, spectral, structure):
            monkeypatch.setattr(module, "as_matrix", counted)
        model = validate_model(PLANT_T, PLANT_F)
        assert model.structure.irreducible
        assert model.growth_rate == pytest.approx(PLANT_R)
        assert model.r0 == pytest.approx(PLANT_R0)
        assert calls == ["transition matrix", "fertility matrix"]

    def test_analyze_coerces_no_matrix_after_validation(self, plant, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("name", "matrix"))
            return as_matrix(*args, **kwargs)

        for module in (model_layer, spectral, structure):
            monkeypatch.setattr(module, "as_matrix", counted)
        assert analyze(plant).q_pattern is not None
        assert calls == []

    @pytest.mark.parametrize("s", [0.5, 2.0, 1e6])
    def test_target_growth_scale_coerces_no_matrix_after_validation(self, s, plant, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("name", "matrix"))
            return as_matrix(*args, **kwargs)

        for module in (model_layer, spectral, structure):
            monkeypatch.setattr(module, "as_matrix", counted)
        assert target_growth_scale(plant, s).q == pytest.approx(plant_q_of_s(s), rel=1e-9)
        assert calls == []

    @pytest.mark.parametrize(
        "quantity, t, f",
        [
            # P = T + F overflows where both hold 1e308.
            ("growth_rate", [[0.0, 0.0], [1e308, 0.0]], [[0.0, 1.0], [1e308, 0.0]]),
            # Q = F (I - T)^-1 overflows: (I - T)^-1 has entries up to 4.
            ("r0", [[0.5, 0.0], [0.5, 0.5]], [[0.0, 1e308], [0.0, 0.0]]),
        ],
    )
    def test_overflowing_computed_matrix_rejected(self, quantity, t, f):
        model = validate_model(t, f)
        with np.errstate(over="ignore"), pytest.raises(ModelError, match="non-finite"):
            getattr(model, quantity)

    def test_stabilizing_scale_after_analyze_reuses_stationary_model(self, plant, kernel_calls):
        analyze(plant)
        kernel_calls.clear()
        scaled = stabilizing_scale(plant)
        assert not kernel_calls["_power_root"]
        assert not kernel_calls["_analyze_pattern"]
        assert scaled is plant.stationary


def _answers(t, f):
    """The bits of every answer a model gives, or the error it raises, by call."""
    model = validate_model(t, f)
    x0 = np.arange(1.0, model.n + 1.0)
    s = 1.5 * model.rho_transition + 0.2

    def target():
        result = target_growth_scale(model, s)
        return result.q, result.r0_scaled, result.scaled.fertility

    def eventual():
        result = eventual_limit(model, x0)
        return result.fate, result.limit

    calls = {
        "analyze": lambda: (analyze(model),),
        "stabilizing": lambda: (stabilizing_scale(model).growth_rate, stabilizing_scale(model).fertility),
        "target": target,
        "eventual": eventual,
        "periodic": lambda: periodic_limits(model, x0).limits,
        "perron": lambda: (model.perron.rho, model.perron.right, model.perron.left),
    }
    answers = {}
    for name, call in calls.items():
        try:
            parts = call()
        except Error as exc:
            answers[name] = type(exc).__name__, str(exc)
        else:
            answers[name] = repr(parts), [a.tobytes() for a in parts if isinstance(a, np.ndarray)]
    return answers


def test_model_answers_keep_their_bits_with_the_reference_pass(monkeypatch):
    rng = np.random.default_rng(2024)
    generators = (
        random_irreducible_model,
        random_primitive_model,
        random_general_model,
        lambda rng: assemble(random_leslie_model(rng, n_max=30)),
    )
    models = [generators[k % 4](rng) for k in range(200)]
    pairs = [(m.transition, m.fertility) for m in models]
    chunked = [_answers(t, f) for t, f in pairs]
    monkeypatch.setattr(spectral, "_power_pass", reference_power_pass)
    assert [_answers(t, f) for t, f in pairs] == chunked
