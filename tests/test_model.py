import math

import networkx as nx
import numpy as np
import pytest

from matpop import (
    ConsistencyError,
    ConvergenceError,
    Error,
    LeslieModel,
    ModelError,
    MortalityError,
    ScalingError,
    StructureError,
    Trichotomy,
    analyze,
    analyze_structure,
    assemble,
    eventual_limit,
    perron_pair,
    periodic_limits,
    r0_positive,
    resolvent_inverse,
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
    digraph_of,
    mp_next_generation_radius,
    plant_q_of_s,
    random_cyclic_model,
    random_general_model,
    random_irreducible_model,
    random_leslie_model,
    random_primitive_model,
    random_reducible_model,
    reference_power_pass,
    walk_closure,
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

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ModelError, match="fertility matrix is not a rectangular array"):
            validate_model([[0]], [[10**400]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ModelError):
            validate_model([[-0.1]], [[1.0]])

    @pytest.mark.parametrize(
        "name, value",
        [("tol_spec", 0.0), ("tol_spec", math.nan), ("tol_spec", -1e-12), ("tol_spec", 1.5), ("tol_spec", math.inf),
         ("tol_class", math.nan), ("tol_class", 2.0), ("tol_class", 1.0)],
    )
    def test_tolerance_outside_the_unit_interval_rejected(self, name, value):
        # The CLI's rule for its flags: finite, 0 < tol < 1.  Before, tol_spec = 1.5 read as rho(T) >= 1 and
        # tol_class = 2.0 classified r = 1.1, R0 = 1.2 as Stationary.
        with pytest.raises(ModelError, match=f"{name} must be finite with 0 < tol < 1"):
            validate_model([[0.5]], [[0.6]], **{name: value})

    @pytest.mark.parametrize("name, value", [("tol_spec", 1e-6), ("tol_spec", 0.25), ("tol_class", 5e-324), ("tol_class", 0.5)])
    def test_tolerance_inside_the_unit_interval_kept(self, name, value):
        assert getattr(validate_model([[0.5]], [[0.6]], **{name: value}), name) == value

    def test_column_sum_beyond_the_float_range_warns_without_a_runtime_warning(self):
        t = [[0.0, 0.0, 0.0], [1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0]]  # nilpotent, rho = 0
        model = validate_model(t, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert model.warnings == ("column 1 of the transition matrix sums to inf > 1",)


class TestFloatRange:
    """A value computed past the float range is refused with the error of its check, and no numpy warning.

    Pytest's filter turns a RuntimeWarning into an error, so each case also fails on a leak.
    """

    def test_projection(self):
        model = validate_model([[0.3, 0.0], [1.7e308, 1e-10]], [[1.0, 0.3], [1.7e308, 1.7e308]])
        with pytest.raises(ModelError, match="matrix has non-finite entries"):
            analyze(model)

    def test_next_generation(self):
        with pytest.raises(ModelError, match="matrix has non-finite entries"):
            analyze(validate_model([[0.3]], [[1.7e308]]))

    @pytest.mark.parametrize("scale", [stabilizing_scale, lambda m: target_growth_scale(m, 2.0)], ids=["stationary", "target"])
    def test_rescaled_fertility(self, scale):
        # r is about 0.58 and R0 about 0.34, so F / R0 and F / q(2) pass 1.7e308.
        model = validate_model([[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.7e308], [2e-309, 0.0]])
        with pytest.raises(ModelError, match="fertility matrix has non-finite entries"):
            scale(model)

    def test_transition_over_a_target_below_one(self):
        model = validate_model([[0.0, 0.0], [1.5e308, 0.0]], [[0.0, 1e-308], [0.0, 0.0]])
        with pytest.raises(ModelError, match="matrix has non-finite entries"):
            target_growth_scale(model, 0.5)


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

    def test_subnormal_r0_scales_to_one(self):
        # R0 = 1e-320 / (1 - 1e-5) rounds back to 1e-320, so F / R0 grew at 1.00001; the lifted R0 keeps its bits.
        model = validate_model([[1e-5]], [[1e-320]])
        assert r0_positive(model)
        assert abs(stabilizing_scale(model).growth_rate - 1.0) <= model_layer.STABILITY_TOL

    def test_subnormal_q11_lifts_r0(self):
        # F is normal, but Q11 = [[1e-320]]: the lift reads Q11, and F lift / (R0 lift) grows at 1.
        model = validate_model([[0.0, 0.0], [1e-20, 0.0]], [[0.0, 1e-300], [0.0, 0.0]])
        assert model._lift == 2.0**42
        assert abs(stabilizing_scale(model).growth_rate - 1.0) <= model_layer.STABILITY_TOL

    def test_normal_r0_keeps_the_bits_of_f_over_r0(self):
        # A lift of 64 takes 1e-320 to the normal range; F lift / (R0 lift) rounds as F / R0 does.
        model = validate_model([[0.5, 0.0], [0.5, 0.5]], [[1e-320, 0.01], [0.0, 0.0]])
        assert model._lift == 64.0
        assert np.array_equal(model.stationary.fertility, model.fertility / model.r0)

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

    LIFTS = [
        ([[0.5]], 0, None),
        ([[2.2250738585072014e-308]], 0, None),  # the smallest normal float
        ([[2.225073858507201e-308]], 1, None),  # the largest subnormal one
        ([[1e-320]], 42, None),
        ([[5e-324, 2.0**-30], [0.0, 0.0]], 29, None),  # capped where 2^-30 would pass 1
        ([[5e-324, 0.75], [0.0, 0.0]], 0, None),
        ([[1e-320, 1e300], [0.0, 0.0]], 0, None),  # an entry of 1 or more keeps F as it is
        ([[0.0, 1e-300], [0.0, 0.0]], 42, [[0.0, 0.0], [1e-20, 0.0]]),  # Q11 = [[1e-320]], not F, sets the lift
        ([[0.0, 0.75], [0.0, 0.0]], 0, [[0.0, 0.0], [1e-310, 0.0]]),  # Q11 = [[7.5e-311]], and the cap holds
    ]

    # t None is a zero T; the ids are f's index and the exponent.
    @pytest.mark.parametrize("f, exponent, t", LIFTS, ids=[f"f{k}-{e}" for k, (_, e, _) in enumerate(LIFTS)])
    def test_lift_takes_the_least_entry_to_the_normal_range(self, f, exponent, t):
        assert validate_model(np.zeros((len(f), len(f))) if t is None else t, f)._lift == 2.0**exponent

    def test_subnormal_fertility_beside_a_large_one_keeps_its_scale(self):
        # (I - T/s)^-1 has entries up to 2 here: a lift to 2^27 took row 1 to 1.5 * 2^1023 = inf.
        model = validate_model([[0.5, 0.0], [0.5, 0.5]], [[1e-320, 1e300], [0.0, 0.0]])
        result = target_growth_scale(model, 1.5)
        assert result.q == pytest.approx(5e299, rel=1e-12)
        assert result.r0_scaled == pytest.approx(4.0, rel=1e-12)
        assert result.scaled.fertility == pytest.approx(np.array([[0.0, 2.0], [0.0, 0.0]]), rel=1e-12)
        assert result.scaled.growth_rate == pytest.approx(1.5, rel=1e-12)

    def test_without_a_lapack_proposal_q_comes_from_the_cold_pass(self, plant, monkeypatch):
        failed = []

        def eig(a):
            failed.append(a)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", eig)
        result = target_growth_scale(plant, 2.0)
        assert failed
        assert result.q == pytest.approx(plant_q_of_s(2.0), rel=1e-12)
        assert result.scaled.growth_rate == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("s", [1e8, 1e9, 1e12])
    def test_large_targets_are_met_relative_to_s(self, s):
        # The achieved rate is exact to an ulp, which exceeds 1e-8 absolutely.
        model = validate_model([[0.0, 0.0], [0.5, 0.0]], [[0.5, 1.0], [0.0, 0.0]])
        result = target_growth_scale(model, s)
        assert result.scaled.growth_rate == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize("s", [1e9, 1e12, 1e15, 1e100])
    def test_large_targets_are_classified_relative_to_s(self, s):
        # R0(s) = R0 / q(s) = s, certified relative to s; its trichotomy
        # check raised ConsistencyError at 1e9 with an absolute slack.
        model = validate_model([[0.0]], [[2.0]])
        result = target_growth_scale(model, s)
        assert result.r0_scaled == pytest.approx(s, rel=1e-12)
        assert result.scaled.growth_rate == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize(
        "survival, fertility, s",
        [
            # The check's cold pass and eig-seeded pass ran out 200,000 iterations.
            (
                [0.325, 0.408, 0.389, 0.601, 0.335, 0.622, 0.432],
                [0.0, 2.292, 2.39, 0.0, 0.0, 0.0, 0.0, 1.5],
                1e6,
            ),
            # The check's cold pass stalled after 2,278 iterations.
            ([1e-8] * 39, [1.0] + [0.0] * 38 + [1.0], 2.0),
        ],
    )
    def test_check_certifies_from_the_left_vector(self, survival, fertility, s, power_passes):
        model = assemble(LeslieModel(survival, fertility))
        power_passes.clear()
        result = target_growth_scale(model, s)
        assert result.scaled.growth_rate == pytest.approx(s, rel=1e-12)
        assert [iterations for _, iterations in power_passes] == [1]

    def test_check_that_does_not_certify_takes_the_cold_route(self, power_passes):
        # At tol 1e-30 only a bracket of width 0 certifies: the pass from z stalls, P's cold pass does not.
        model = validate_model([[0.0, 0.0], [0.5, 0.0]], [[0.5, 1.0], [0.0, 0.0]], tol_spec=1e-30)
        power_passes.clear()
        scaled = target_growth_scale(model, 2.0).scaled
        assert power_passes[0][0] is not None and power_passes[-1][0] is None
        assert scaled.growth_rate == spectral_radius(scaled.projection, tol=1e-30)

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


def _handed_left_vectors(monkeypatch) -> list:
    """The list of the left vectors that _rescaled is handed, None included, filled as it is called."""
    handed, rescaled = [], model_layer._rescaled

    def spy(model, fertility, target, left=None):
        handed.append(left)
        return rescaled(model, fertility, target, left)

    monkeypatch.setattr(model_layer, "_rescaled", spy)
    return handed


class TestLeftVectorIdentity:
    """z = v F_f (I - T/s)^-1, v Q11(s)'s left Perron vector, is the left Perron vector of T + F / q(s)."""

    def test_random_models(self, monkeypatch):
        handed = _handed_left_vectors(monkeypatch)
        rng = np.random.default_rng(73)
        leslie = [(1.0, 0.9, 0.7), (0.0, 0.0, 2.0), (0.0, 0.8, 0.0, 1.1), (0.0, 0.0, 0.0, 0.0, 0.0, 3.0)]
        models = [random_irreducible_model(rng, n_max=8) for _ in range(24)]
        models += [random_cyclic_model(rng, period) for period in (2, 3, 4, 5) for _ in range(4)]
        models += [assemble(LeslieModel(rng.uniform(0.2, 0.9, len(f) - 1), f)) for f in leslie for _ in range(3)]
        kinds = set()
        for model in models:
            fertile_rows = int(model.fertility.any(axis=1).sum())
            if not model.structure.irreducible:
                continue
            kinds.add((fertile_rows > 1, min(model.structure.imprimitivity_index, 3)))
            rho_t, r = model.rho_transition, model.growth_rate
            for s in rho_t + (4.0 * r - rho_t) * rng.uniform(0.05, 1.0, 2):
                result = target_growth_scale(model, s)
                z = handed[-1]
                left = perron_pair(result.scaled.projection).left
                assert (z > 0.0).all()
                np.testing.assert_allclose(z, left / left.sum(), rtol=1e-9, atol=0.0)
        assert kinds == {(k, d) for k in (False, True) for d in (1, 2, 3)}

    def test_stationary_check_starts_at_q_fertile_row_of_a_long_period_leslie(self, monkeypatch):
        # At s = 1 a 1 x 1 Q11 is R0 itself and v = [1], so z is Q's fertile row.  Only blocks of
        # index 3 or more, which went to _eig_seed, get it; index 1 and 2 keep their cold probes.
        handed = _handed_left_vectors(monkeypatch)
        rng = np.random.default_rng(79)
        for period in range(1, 7):
            f = np.zeros(3 * period)
            f[period - 1 :: period] = rng.uniform(0.5, 3.0, 3)
            model = assemble(LeslieModel(rng.uniform(0.3, 0.9, 3 * period - 1), f))
            assert model.structure.imprimitivity_index == period
            stationary = stabilizing_scale(model)
            z = handed[-1]
            if period < 3:
                assert z is None
                continue
            q = model.next_generation[0]
            np.testing.assert_array_equal(z, q / q.sum())
            left = perron_pair(stationary.projection).left
            np.testing.assert_allclose(z, left / left.sum(), rtol=1e-9, atol=0.0)
            assert stationary.growth_rate == pytest.approx(1.0, abs=4 * np.finfo(float).eps)

    def test_two_fertile_rows_of_index_3_keep_their_stationary_check(self, monkeypatch):
        # Q11 is 2 x 2, so R0 comes from a pass and z would belong to a slightly different root: the
        # check keeps _eig_seed, and its residual keeps the bits it had before the fertile-row seed.
        handed = _handed_left_vectors(monkeypatch)
        t = np.zeros((6, 6))
        t[2:4, 0:2] = [[0.5, 0.2], [0.3, 0.6]]
        t[4:6, 2:4] = [[0.7, 0.1], [0.2, 0.8]]
        f = np.zeros((6, 6))
        f[0:2, 4:6] = [[1.5, 0.4], [0.9, 2.0]]
        report = analyze(validate_model(t, f))
        assert report.structure.imprimitivity_index == 3 and handed == [None]
        assert report.stability_residual.hex() == "0x1.b000000000000p-45"


def _q11_of_s(model, s):
    """Q11(s) = F_f (I - T/s)^-1 on F's nonzero rows and columns, as target_growth_scale solves it."""
    fertile = model.fertility.any(axis=1)
    t = model.transition / s
    return spectral._resolvent_rows(t, model._t.report, model.fertility[fertile])[:, fertile]


def _old_q_of_s(model, s):
    """q(s) by the route without a left pass: Q11(s)'s own certified root, over its own walk."""
    q11 = _q11_of_s(model, s)
    return spectral._radius(q11, structure._analyze_pattern(q11 > 0), model.tol_spec) / s


def _fertility_cycle(rng, period):
    """T = 0 and a block-cyclic F of the given index, 1-3 classes a step: Q11(s) = F / s is cyclic too."""
    sizes = rng.integers(1, 4, period)
    starts = np.cumsum([0, *sizes])
    f = np.zeros((starts[-1], starts[-1]))
    for c in range(period):
        rows = slice(starts[(c + 1) % period], starts[(c + 1) % period + 1])
        f[rows, starts[c] : starts[c + 1]] = rng.uniform(0.1, 2.0, (sizes[(c + 1) % period], sizes[c]))
    return validate_model(np.zeros_like(f), f)


class TestQOfSPass:
    """q(s) and Q11(s)'s left Perron vector come from one pass on Q11(s)^T seeded at LAPACK's proposal."""

    @staticmethod
    def models(rng, family):
        if family == "index1":
            models = (random_primitive_model(rng, n_max=8) for _ in range(60))
        elif family == "q11-cyclic":
            models = (_fertility_cycle(rng, period) for period in (2, 3, 4, 5, 6) for _ in range(2))
        else:
            periods = {"index2": (2,) * 8, "index3+": (3, 4, 5, 6) * 2}[family]
            models = (random_cyclic_model(rng, period) for period in periods)
        return [m for m in models if m.structure.irreducible and m.fertility.any(axis=1).sum() >= 2][:8]

    @pytest.mark.parametrize("family", ["index1", "index2", "index3+", "q11-cyclic"])
    def test_k2_models_of_each_index(self, family, power_passes):
        rng = np.random.default_rng(["index1", "index2", "index3+", "q11-cyclic"].index(family) + 91)
        models = self.models(rng, family)
        indices = {m.structure.imprimitivity_index for m in models}
        assert len(models) == 8 and indices <= {"index1": {1}, "index2": {2}}.get(family, set(range(2, 7)))
        for model in models:
            model.r0  # R0's own pass on Q11
            rho_t = model.rho_transition
            for s in rho_t + (4.0 * model.growth_rate - rho_t) * rng.uniform(0.05, 1.0, 2):
                power_passes.clear()
                result = target_growth_scale(model, s)
                # q(s)'s pass and the check's: both seeded, none cold.
                assert power_passes and all(start is not None for start, _ in power_passes)
                assert result.q == pytest.approx(_old_q_of_s(model, s), rel=1e-11)
                assert result.scaled.growth_rate == pytest.approx(s, rel=1e-12)
        if family == "q11-cyclic":
            assert {m._q11_structure.imprimitivity_index for m in models} == indices

    def test_q_of_s_matches_mpmath(self):
        rng = np.random.default_rng(97)
        checked = 0
        while checked < 24:
            model = random_irreducible_model(rng, n_max=7)
            if model.fertility.any(axis=1).sum() < 2:
                continue
            rho_t = model.rho_transition
            s = rho_t + (3.0 * model.growth_rate - rho_t) * rng.uniform(0.05, 1.0)
            exact = mp_next_generation_radius(model.transition / s, model.fertility) / s
            assert target_growth_scale(model, s).q == pytest.approx(exact, rel=1e-11)
            checked += 1

    @pytest.mark.parametrize("period", [1, 4])
    def test_without_a_proposal_q_of_s_keeps_the_old_bits(self, period, monkeypatch):
        # Q11(s) of index 4 goes to its cyclic seed, as the kernel routes it.
        rng = np.random.default_rng(5)
        model = _fertility_cycle(rng, 4) if period == 4 else validate_model(PLANT_T, PLANT_F)
        model.r0
        eig_seed, seeds = spectral._eig_seed, []
        monkeypatch.setattr(spectral, "_eig_seed", lambda *args: seeds.append(args[0]) or eig_seed(*args))
        monkeypatch.setattr(model_layer, "_dominant_pair", lambda block: None)
        result = target_growth_scale(model, 2.0)
        # The first seed, if any, is q(s)'s; the check's cold route seeds P of index 4.
        assert [np.array_equal(block, _q11_of_s(model, 2.0)) for block in seeds[:1]] == [True] * (period > 1)
        assert result.q == _old_q_of_s(model, 2.0)
        assert result.scaled.growth_rate == pytest.approx(2.0, rel=1e-12)

    def test_uncertified_seeded_pass_keeps_the_old_bits(self, monkeypatch):
        # At tol 1e-30 only a bracket of width 0 certifies: the seeded pass on
        # Q11(s)^T often stalls, and Q11(s)'s own cold pass then gives q(s).
        power_root, refused = model_layer._power_root, []

        def spy(*args):
            try:
                return power_root(*args)
            except ConvergenceError:
                refused.append(args[0])
                raise

        monkeypatch.setattr(model_layer, "_power_root", spy)
        rng = np.random.default_rng(97)
        fallbacks = 0
        for _ in range(40):
            drawn = random_irreducible_model(rng, n_max=6)
            if drawn.fertility.any(axis=1).sum() < 2:
                continue
            try:
                model = validate_model(drawn.transition, drawn.fertility, tol_spec=1e-30)
                s = 2.0 * drawn.growth_rate + 0.1
                refused.clear()
                result = target_growth_scale(model, s)
            except ConvergenceError:
                continue
            if any(np.array_equal(block, _q11_of_s(model, s)) for block in refused):
                fallbacks += 1
                assert result.q == _old_q_of_s(model, s)
        assert fallbacks >= 3

    def test_q11_of_s_shares_the_walk_of_q11(self, plant, kernel_calls):
        plant.structure, plant.r0
        kernel_calls.clear()
        target_growth_scale(plant, 2.0)
        assert not kernel_calls["_analyze_pattern"]
        q11 = _q11_of_s(plant, 2.0)
        assert structure._analyze_pattern(q11 > 0) == plant._q11_structure

    def test_underflowed_q11_of_s_gets_its_own_walk(self, kernel_calls):
        # T / s underflows the walk 2 -> 3 of weight 1e-300 to 0 at s = 1e30, which empties Q11(s)'s column 2.
        t = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 1e-300, 0.5]]
        f = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        model = validate_model(t, f)
        model.structure, model.r0
        assert model._q11_structure.irreducible
        kernel_calls.clear()
        result = target_growth_scale(model, 1e30)
        [pattern] = kernel_calls["_analyze_pattern"]
        assert pattern.tolist() == [[True, False], [True, False]]
        assert result.q == _old_q_of_s(model, 1e30)


class TestScalingContract:
    """Every rescaled model is checked against its target growth rate, whichever caller built it."""

    @pytest.mark.parametrize("caller", [analyze, stabilizing_scale])
    def test_stationary_model_off_one_raises(self, plant, caller):
        # The divisor is the lifted R0, R0 itself at the plant's lift of 1: F / (R0 + 1e-6) grows about 1e-6 below 1.
        vars(plant)["_lifted_r0"] = PLANT_R0 + 1e-6
        with pytest.raises(ConsistencyError):
            caller(plant)
        # At a lift of 64, F lift / (R0 lift (1 + 1e-6)) does too.
        lifted = validate_model([[0.5, 0.0], [0.5, 0.5]], [[1e-320, 0.01], [0.0, 0.0]])
        assert lifted._lift == 64.0
        vars(lifted)["_lifted_r0"] = lifted._lifted_r0 * (1.0 + 1e-6)
        with pytest.raises(ConsistencyError):
            caller(lifted)

    def test_target_growth_model_off_target_raises(self, plant, monkeypatch):
        power_root = model_layer._power_root
        # Only the first root, q(s) * s from the seeded pass on Q11(s)^T, is off;
        # the scaled model's growth rate is not.
        offsets = iter([1e-6])

        def offset(m, tol, classes=None, kept=None):
            root, vector = power_root(m, tol, classes, kept)
            return root + next(offsets, 0.0), vector

        monkeypatch.setattr(model_layer, "_power_root", offset)
        with pytest.raises(ConsistencyError):
            target_growth_scale(plant, 2.0)


class TestPlantedCaches:
    """A wrong cached value on the plant breaks the identity that each cross-check guards."""

    def test_zero_r0_of_an_irreducible_model_raises(self, plant):
        vars(plant)["r0"] = 0.0
        with pytest.raises(ConsistencyError, match="zero net reproductive rate"):
            analyze(plant)

    def test_pair_off_the_trichotomy_raises(self, plant):
        vars(plant).update(growth_rate=2.0, r0=0.5)
        with pytest.raises(ConsistencyError, match="violate the growth trichotomy"):
            analyze(plant)

    def test_wrong_rho_transition_breaks_the_r0_certificate(self, plant):
        vars(plant._t)["rho"] = 10.0
        with pytest.raises(ConsistencyError, match="disagrees with rho"):
            r0_positive(plant)


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
        # No cycle of P takes the fertility edge.  A pivoted solve of the
        # whole of I - T swaps its rows and left Q[1, 1] = 5.55e-18.
        model = validate_model([[0.0, 0.0], [2.0, 0.6]], [[0.0, 0.0], [0.2, 0.0]])
        assert model.next_generation[1, 1] == 0.0
        np.testing.assert_array_equal(model.next_generation, [[0.0, 0.0], [0.2, 0.0]])
        assert model.r0 == 0.0
        assert not r0_positive(model)
        with pytest.raises(ScalingError):
            stabilizing_scale(model)

    def test_zeros_are_those_of_the_walk_closure(self):
        rng = np.random.default_rng(61)
        models = [random_reducible_model(rng) for _ in range(60)]
        # Edges between T's blocks weigh up to 3, so columns of T sum above 1.
        assert sum(bool(model.warnings) for model in models) >= 30
        for model in models:
            closure = walk_closure(model.transition)
            np.testing.assert_array_equal(resolvent_inverse(model.transition) != 0.0, closure)
            reached = ((model.fertility > 0).astype(np.int64) @ closure.astype(np.int64)) > 0
            np.testing.assert_array_equal(model.next_generation != 0.0, reached)

    def test_r0_is_zero_exactly_without_a_fertile_cycle(self):
        # R0 = 0 exactly when no cycle of P takes an edge of F, that is when
        # no positive F[i, j] joins two classes of one strong component of P.
        rng = np.random.default_rng(67)
        models = [random_reducible_model(rng) for _ in range(40)]
        models += [random_general_model(rng) for _ in range(40)]
        for model in models[:40]:
            # One fertility edge, which often lies on no cycle of P.
            f = np.zeros((model.n, model.n))
            f[int(rng.integers(model.n)), int(rng.integers(model.n))] = rng.uniform(0.5, 1.5)
            models.append(validate_model(model.transition, f))
        zero = 0
        for model in models:
            component = {}
            for k, members in enumerate(nx.strongly_connected_components(digraph_of(model.projection))):
                component.update(dict.fromkeys(members, k))
            rows, cols = np.nonzero(model.fertility)
            fertile_cycle = any(component[i] == component[j] for i, j in zip(rows.tolist(), cols.tolist()))
            assert (model.r0 > 0.0) == fertile_cycle
            assert model.r0 >= 0.0
            zero += not fertile_cycle
        assert zero >= 15

    def test_r0_matches_a_fifty_digit_oracle(self):
        rng = np.random.default_rng(71)
        models = [random_reducible_model(rng) for _ in range(20)]
        models += [random_general_model(rng) for _ in range(20)]
        for model in models:
            expected = mp_next_generation_radius(model.transition, model.fertility)
            if expected == 0.0:
                assert model.r0 == 0.0
            else:
                assert abs(model.r0 - expected) <= 1e-11 * expected

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

    def test_perron_releases_the_kept_pass(self, plant):
        # A target-scaled model keeps its check's pass, on P^T, for its pair's left side to resume.
        models = [plant, plant.stationary, target_growth_scale(plant, 2.0).scaled]
        for model, left in zip(models, [False, False, True]):
            model.growth_rate
            assert model._pass.state and model._pass.left == left
            model.perron
            assert not model._pass.state

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


def _edge_transitions(rng, target):
    """Transition matrices of spectral radius target: irreducible, a reducible one with a block at the
    edge, and a reducible one whose edge is a 1 x 1 diagonal component."""
    def scaled(block, rho):
        return block * (rho / float(np.abs(np.linalg.eigvals(block)).max()))

    irreducible = [scaled(np.array(random_primitive_model(rng).projection), target) for _ in range(2)]
    block = scaled(np.array(random_primitive_model(rng, n_max=5).projection), target)
    k = len(block)
    reducible = np.zeros((k + 2, k + 2))
    reducible[:k, :k] = block
    reducible[k:, k:] = [[0.3, 0.0], [0.2, 0.4]]
    reducible[k, 0] = 0.5
    diagonal = np.zeros((k + 1, k + 1))
    diagonal[:k, :k] = scaled(block, 0.5)
    diagonal[k, k] = target
    diagonal[k, 1] = 0.7
    return [*irreducible, reducible, diagonal]


def _outcome(call):
    """What a call raises, as (type, message), or "ok"."""
    try:
        call()
    except Error as exc:
        return type(exc).__name__, str(exc)
    return "ok"


def _exact_mortality(rho, tol):
    """The exact rule's outcome for a computed rho(T): "ok", or its MortalityError and message."""
    return "ok" if rho < 1.0 - tol else (
        "MortalityError",
        f"rho(T) >= 1: transition matrix spectral radius is {rho:.12g}, the population never dies out",
    )


class TestMortalityBound:
    """Validation proves rho(T) < 1 from a Collatz-Wielandt bound, with the exact rule's decisions."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-14])
    def test_mortality_edge_decides_as_the_exact_rule(self, tol):
        rng = np.random.default_rng(int(-math.log10(tol)))
        for c in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 1e3):
            for t in _edge_transitions(rng, 1.0 - tol * c):
                f = np.zeros_like(t)
                f[0, -1] = 1.0
                rho = spectral._radius(t, structure.analyze_structure(t), tol)
                expected = _exact_mortality(rho, tol)
                assert _outcome(lambda: validate_model(t, f, tol_spec=tol)) == expected
                # resolvent_inverse decides at the spectral tolerance it always uses.
                rho_default = spectral._radius(t, structure.analyze_structure(t), spectral.SPECTRAL_TOL)
                assert _outcome(lambda: resolvent_inverse(t)) == _exact_mortality(rho_default, spectral.SPECTRAL_TOL)
                if expected == "ok":
                    model = validate_model(t, f, tol_spec=tol)
                    # Only an edge too close for the bound to decide computes rho(T) at validation.
                    assert "rho" not in vars(model._t) or c <= 5.0
                    assert model.rho_transition == rho

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-14])
    def test_scaling_edge_decides_as_the_exact_rule(self, tol, monkeypatch):
        rng = np.random.default_rng(40 + int(-math.log10(tol)))
        cases = []
        for _ in range(6):
            m = random_irreducible_model(rng)
            t, f = m.transition, m.fertility
            model = validate_model(t, f, tol_spec=tol)
            rho, bound = model.rho_transition, validate_model(t, f, tol_spec=tol)._t.bound
            edge = bound + tol + spectral._mortality_margin(tol, model.n)
            targets = [rho + tol * c for c in (0.5, 1.0, 2.0, 3.0)]
            targets += [bound, bound * (1.0 - 1e-9), bound * (1.0 + 1e-9)]
            targets += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), edge * (1.0 + 1e-9)]
            targets += [math.nan, math.inf, -1.0]
            for s in targets:
                new = _outcome(lambda: target_growth_scale(validate_model(t, f, tol_spec=tol), s))
                if not math.isfinite(s):
                    assert new == ("ScalingError", f"target growth rate must be finite, got {s:.6g}")
                elif not s > rho + tol:
                    assert new == ("ScalingError", f"target growth rate {s:.6g} must exceed rho(T) = {rho:.6g}")
                cases.append(((t, f, s), new))
        # The exact rule: no bound, rho(T) computed at validation.
        monkeypatch.setattr(spectral, "_radius_below", lambda *args: math.inf)
        for (t, f, s), new in cases:
            assert _outcome(lambda: target_growth_scale(validate_model(t, f, tol_spec=tol), s)) == new

    def test_scaling_below_the_bound_keeps_the_tighter_bound(self):
        model = random_irreducible_model(np.random.default_rng(12))
        rho = float(np.abs(np.linalg.eigvals(model.transition)).max())
        bound = model._t.bound
        s = 0.5 * (rho + bound)
        assert rho < s < bound
        target_growth_scale(model, s)
        assert rho <= model._t.bound < s - model.tol_spec
        assert "rho" not in vars(model._t)

    def test_a_model_and_its_rescalings_share_one_record_of_t(self, monkeypatch, power_passes):
        model = random_irreducible_model(np.random.default_rng(12))
        rho = float(np.abs(np.linalg.eigvals(model.transition)).max())
        s = 0.5 * (rho + model._t.bound)
        calls = []
        radius_below = spectral._radius_below
        monkeypatch.setattr(spectral, "_radius_below", lambda *args: calls.append(args) or radius_below(*args))
        counts = []
        for m in (model.stationary, model):
            target_growth_scale(m, s)
            counts.append(len(calls))
        # Cumulative counts: the stationary model's bounded pass proves s for the whole family, 1 + 0 calls
        # (1 + 1 with a record per model).
        assert counts == [1, 1]
        power_passes.clear()
        r0_positive(model)
        assert power_passes
        power_passes.clear()
        assert model.stationary.rho_transition == model.rho_transition
        assert not power_passes

    def test_model_calls_leave_rho_transition_uncomputed(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            m = random_irreducible_model(rng, rho_cap=0.9)
            model = validate_model(m.transition, m.fertility)
            rho = float(np.abs(np.linalg.eigvals(model.transition)).max())
            r = model.growth_rate
            analyze(model)
            stabilizing_scale(model)
            for s in (0.5 * (rho + r), 2.0):
                target_growth_scale(model, s)
            (eventual_limit if model.structure.primitive else periodic_limits)(model, np.ones(model.n))
            assert "rho" not in vars(model._t)
            assert "rho" not in vars(model.stationary._t)
            # r0_positive reads rho(T), with the bits of the exact pass.
            r0_positive(model)
            assert model.rho_transition == spectral._radius(model.transition, model._t.report, 1e-12)

    def test_validation_computes_few_iterations(self, computed_iterations, power_passes):
        rng = np.random.default_rng(5)
        generators = (random_irreducible_model, random_primitive_model, random_general_model, random_reducible_model)
        pairs = [(m.transition, m.fertility) for m in (generators[k % 4](rng) for k in range(80))]
        computed_iterations[0] = 0
        power_passes.clear()
        for t, f in pairs:
            validate_model(t, f)
        # Certifying rho(T) to 1e-12 computed 7,990 iterations for these models; its bound, 103.
        certified = sum(iterations for _, iterations in power_passes)
        assert certified <= computed_iterations[0] <= 200

    def test_resolvent_inverse_makes_no_certified_pass(self, power_passes):
        # Deciding its MortalityError from rho(T) certified this T in an 80-iteration pass.
        t = random_irreducible_model(np.random.default_rng(4)).transition
        power_passes.clear()
        inverse = resolvent_inverse(t)
        assert sum(iterations for _, iterations in power_passes) < 10
        np.testing.assert_allclose(inverse @ (np.eye(len(t)) - t), np.eye(len(t)), atol=1e-12)

    def test_rescaled_models_make_no_pass_for_the_bound(self, plant, monkeypatch):
        model = random_irreducible_model(np.random.default_rng(8))
        calls = []
        monkeypatch.setattr(spectral, "_radius_below", lambda *args: calls.append(args) or math.inf)
        for m in (model, plant):
            scaled = [stabilizing_scale(m), target_growth_scale(m, 2.0).scaled]
            assert all(x._t.bound == m._t.bound < 1.0 for x in scaled)
        assert not calls
