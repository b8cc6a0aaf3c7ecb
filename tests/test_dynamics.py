import numpy as np
import pytest

from matpop import (
    ConsistencyError,
    Fate,
    LeslieModel,
    assemble,
    ModelError,
    NumericalError,
    PopulationKind,
    StructureError,
    analyze,
    classify_population,
    eventual_limit,
    iterate,
    periodic_limits,
    perron_pair,
    spectral,
    spectral_radius,
    validate_model,
)
from helpers import (
    PLANT_NEWBORN,
    PLANT_R,
    PLANT_STABLE,
    iterated_periodic_limits,
    plant_model,
    random_irreducible_model,
    random_primitive_model,
    reference_power_pass,
)


def jordan_block_model():
    # P = [[1, 0], [1, 1]]: growth rate 1, but populations with a nonzero
    # first class grow linearly without bound.
    t = np.array([[0.0, 0.0], [1.0, 0.0]])
    f = np.eye(2)
    return validate_model(t, f)


def all_ones_model():
    return validate_model(np.zeros((2, 2)), np.ones((2, 2)))


def leslie(n: int, fertile: dict, survival: float = 0.9):
    """Leslie model of n age classes with fertility fertile[a] at each listed 1-based age a."""
    fertility = [fertile.get(age, 0.0) for age in range(1, n + 1)]
    return assemble(LeslieModel([survival] * (n - 1), fertility))


def oracle_cases():
    """(model, x0, index) inputs on which periodic_limits is compared with the iterated oracle."""
    three_cycle = validate_model(np.zeros((3, 3)), np.roll(np.eye(3), 1, axis=0))
    cases = [
        pytest.param(plant_model(), PLANT_NEWBORN, 2, id="plant-newborn"),
        pytest.param(plant_model(), np.ones(5), 2, id="plant-ones"),
        pytest.param(three_cycle, np.array([1.0, 0.0, 0.0]), 3, id="3-cycle"),
    ]
    for d in range(2, 7):
        # Fertile ages d, 2d and 3d make the index gcd(d, 2d, 3d) = d.
        model = leslie(3 * d, {d: 1.0, 2 * d: 2.0, 3 * d: 1.5}, survival=0.8)
        cases.append(pytest.param(model, np.arange(1.0, 3 * d + 1), d, id=f"iteroparous-d{d}"))
    return cases


class TestIterate:
    def test_zero_steps(self, plant):
        trajectory = iterate(plant, [1.0, 0.0, 2.0, 0.0, 0.0], 0)
        assert len(trajectory) == 1
        assert trajectory.shape == (1, 5)
        assert trajectory[0].sum() == 3.0

    def test_returns_read_only_array(self, plant):
        for normalize in (False, True):
            trajectory = iterate(plant, PLANT_NEWBORN, 7, normalize=normalize)
            assert isinstance(trajectory, np.ndarray)
            assert trajectory.dtype == np.float64
            assert trajectory.shape == (8, 5)
            assert not trajectory.flags.writeable
            with pytest.raises(ValueError):
                trajectory[1, 0] = 1.0

    def test_jordan_block_closed_form(self):
        trajectory = iterate(jordan_block_model(), [1.0, 0.0], 5)
        for k, population in enumerate(trajectory):
            np.testing.assert_allclose(population, [1.0, k], atol=1e-12)

    def test_eigenvector_input_scales_exactly(self, plant):
        trajectory = iterate(plant, PLANT_STABLE, 3)
        for k, population in enumerate(trajectory):
            np.testing.assert_allclose(population, PLANT_R**k * PLANT_STABLE, atol=1e-12)

    def test_normalized_eigenvector_is_constant(self, plant):
        trajectory = iterate(plant, PLANT_STABLE, 10, normalize=True)
        for population in trajectory:
            np.testing.assert_allclose(population, PLANT_STABLE, atol=1e-9)

    def test_records_follow_projection(self, plant):
        trajectory = iterate(plant, [1.0, 2.0, 3.0, 4.0, 5.0], 6)
        for before, after in zip(trajectory, trajectory[1:]):
            np.testing.assert_array_equal(after, plant.projection @ before)

    def test_linearity(self):
        rng = np.random.default_rng(107)
        for _ in range(30):
            model = random_irreducible_model(rng, n_max=6)
            x = rng.uniform(0.0, 2.0, model.n)
            y = rng.uniform(0.0, 2.0, model.n)
            x[0] += 0.1
            y[-1] += 0.1
            alpha, beta = rng.uniform(0.1, 2.0, 2)
            combined = iterate(model, alpha * x + beta * y, 8)
            first = iterate(model, x, 8)
            second = iterate(model, y, 8)
            for k in range(9):
                np.testing.assert_allclose(
                    combined[k],
                    alpha * first[k] + beta * second[k],
                    rtol=1e-9,
                    atol=1e-12,
                )

    def test_rejects_zero_start(self, plant):
        with pytest.raises(ModelError):
            iterate(plant, [0.0] * 5, 3)

    def test_rejects_wrong_length(self, plant):
        with pytest.raises(ModelError):
            iterate(plant, [1.0, 2.0], 3)

    def test_rejects_negative_steps(self, plant):
        with pytest.raises(ModelError):
            iterate(plant, PLANT_STABLE, -1)

    def test_rejects_step_count_beyond_memory(self, plant):
        # 4e19 bytes exceed the address space: numpy refuses the shape
        # without allocating anything.
        with pytest.raises(ModelError, match="do not fit in memory"):
            iterate(plant, PLANT_STABLE, 10**18)

    def test_unnormalized_overflow_errors(self):
        model = validate_model(np.zeros((1, 1)), [[1e200]])
        with pytest.raises(NumericalError):
            iterate(model, [1.0], 3)

    @pytest.mark.parametrize("growth, step", [(1.5, 1704), (1.1, 7248)])
    def test_overflow_names_first_step_past_limit(self, growth, step):
        # Steps are checked a block at a time; step 7248 lies beyond the
        # first block of a one-class model.
        model = validate_model(np.zeros((1, 1)), [[growth]])
        with pytest.raises(NumericalError, match=f"overflow at step {step};"):
            iterate(model, [1.0], 10_000)

    def test_steps_and_row_sums_match_per_step_reference(self):
        # iterate steps with np.dot and the CSV totals come from one sum over
        # axis 1; both must give the bits of matmul and row.sum() per row.
        rng = np.random.default_rng(5)
        for n in range(1, 201):
            f = rng.random((n, n)) * (rng.random((n, n)) < 0.3) * 10.0 ** rng.integers(-3, 3, (n, n))
            f[0, 0] += 1.0
            model = validate_model(np.zeros((n, n)), f)
            x0 = rng.random(n) * 10.0 ** rng.integers(-100, 100, n)
            trajectory = iterate(model, x0, 12)
            reference = [np.array(x0, dtype=float)]
            for _ in range(12):
                reference.append(np.matmul(model.projection, reference[-1]))
            assert trajectory.tobytes() == np.array(reference).tobytes()
            totals = np.array([row.sum() for row in trajectory])
            assert trajectory.sum(axis=1).tobytes() == totals.tobytes()

    def test_normalize_rejects_zero_growth(self):
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        model = validate_model(t, t)
        with pytest.raises(ModelError):
            iterate(model, [1.0, 1.0], 3, normalize=True)

    def test_normalize_accepts_tiny_growth(self):
        model = validate_model([[0.0]], [[1e-10]])
        trajectory = iterate(model, [1.0], 3, normalize=True)
        assert trajectory.tolist() == [[1.0]] * 4

    def test_normalize_rejects_growth_rate_whose_inverse_overflows(self):
        # r = 1e-310, so P / r holds 0.5 / 1e-310 = inf.
        model = validate_model([[0.0, 0.0], [0.5, 0.0]], [[1e-310, 0.0], [0.0, 0.0]])
        assert model.growth_rate == 1e-310
        with pytest.raises(ModelError, match="too small to normalize"):
            iterate(model, [1.0, 1.0], 3, normalize=True)


class TestEventualLimit:
    def test_all_ones_model(self):
        # P^k = 2^(k-1) * ones, so x_k / 2^k tends to (0.5, 0.5) from (1, 0).
        result = eventual_limit(all_ones_model(), [1.0, 0.0])
        np.testing.assert_allclose(result.limit, [0.5, 0.5], atol=1e-9)
        assert result.fate is Fate.UNBOUNDED

    def test_eigenvector_is_fixed(self):
        rng = np.random.default_rng(109)
        model = random_primitive_model(rng)
        pair = perron_pair(model.projection)
        result = eventual_limit(model, pair.right)
        np.testing.assert_allclose(result.limit, pair.right, atol=1e-8)

    def test_subcritical_model_goes_extinct(self):
        t = np.array([[0.0, 0.5], [0.5, 0.0]])
        f = 0.1 * np.ones((2, 2))
        model = validate_model(t, f)
        assert spectral_radius(model.projection) < 1
        result = eventual_limit(model, [1.0, 1.0])
        assert result.fate is Fate.EXTINCT
        trajectory = iterate(model, [1.0, 1.0], 200)
        assert trajectory[-1].sum() < 1e-6

    def test_rejects_imprimitive(self, plant):
        with pytest.raises(StructureError):
            eventual_limit(plant, PLANT_STABLE)

    def test_limit_beyond_float_range_raises(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            eventual_limit(all_ones_model(), [1.7e308, 1.7e308])

    def test_slowly_mixing_model_gets_its_closed_form(self):
        # Fertile ages 199 and 200 leave |lambda_2| / r = 0.99999938, so an
        # iterated limit would need about 3e7 steps to settle.
        model = leslie(200, {199: 5.0, 200: 5.0})
        x0 = np.ones(200)
        pair = perron_pair(model.projection)
        result = eventual_limit(model, x0)
        assert result.limit.tobytes() == (float(pair.left @ x0) * pair.right).tobytes()
        assert result.fate is Fate.EXTINCT

    def test_second_call_reuses_the_perron_pair(self, kernel_calls):
        model = all_ones_model()
        first = eventual_limit(model, [1.0, 0.0])
        kernel_calls.clear()
        second = eventual_limit(model, [1.0, 0.0])
        assert not kernel_calls["_power_root"]
        assert second.limit.tobytes() == first.limit.tobytes()

    def test_after_analyze_resumes_the_growth_rate_pass(self, computed_iterations):
        # P's right side goes on from the pass that certified r at tol: past
        # the iterations from tol to tol / 4 it computes at most one chunk.
        rng = np.random.default_rng(131)
        bounds = []
        for _ in range(40):
            model = random_primitive_model(rng, n_max=8)
            p, tol = model.projection, model.tol_spec
            probe = spectral._probe_length(model.n)
            at_tol, at_quarter = (reference_power_pass(p, t, probe) for t in (tol, tol / 4))
            roots = (at_tol[0], at_quarter[0])
            if None in roots or min(roots) < 0.5:
                continue  # P's right side is more than its first cold probe
            analyze(model)
            computed_iterations[0] = 0
            spectral._power_root(p.T, tol / 4, model.structure.cyclic_classes)
            left = computed_iterations[0]
            computed_iterations[0] = 0
            eventual_limit(model, np.ones(model.n))
            bound = at_quarter[4] - at_tol[4] + spectral._CHUNK_ITERATIONS
            assert computed_iterations[0] - left <= bound
            bounds.append(bound < at_quarter[4])
        # Most of them a fresh pass at tol / 4 would break.
        assert sum(bounds) >= 15

    def test_matches_perron_projection_on_random_models(self):
        rng = np.random.default_rng(113)
        for _ in range(30):
            model = random_primitive_model(rng, n_max=7)
            x0 = rng.uniform(0.0, 2.0, model.n)
            x0[int(rng.integers(model.n))] += 0.2
            pair = perron_pair(model.projection)
            result = eventual_limit(model, x0)
            expected = float(pair.left @ x0) * pair.right
            np.testing.assert_allclose(result.limit, expected, atol=1e-9)
            rho = pair.rho
            assert result.fate is (
                Fate.EXTINCT if rho < 1 - 1e-9 else Fate.UNBOUNDED if rho > 1 + 1e-9 else Fate.FINITE
            )


class TestPeriodicLimits:
    def test_plant_newborn_oscillates(self, plant):
        result = periodic_limits(plant, PLANT_NEWBORN)
        assert result.period == 2
        w0, w1 = result.limits
        assert np.max(np.abs(w0 - w1)) > 1e-3
        # Each subsequence limit maps to the other under P / r.
        step = plant.projection / PLANT_R
        np.testing.assert_allclose(step @ w0, w1, atol=1e-8)
        np.testing.assert_allclose(step @ w1, w0, atol=1e-8)

    def test_plant_eigenvector_is_oscillation_free(self, plant):
        result = periodic_limits(plant, PLANT_STABLE)
        assert result.period == 2
        for limit in result.limits:
            np.testing.assert_allclose(limit, PLANT_STABLE, atol=1e-8)

    def test_three_cycle_rotates_coordinates(self):
        t = np.zeros((3, 3))
        f = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        model = validate_model(t, f)
        result = periodic_limits(model, [1.0, 0.0, 0.0])
        assert result.period == 3
        expected = [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
        for limit, want in zip(result.limits, expected):
            np.testing.assert_allclose(limit, want, atol=1e-9)

    def test_primitive_model_delegates(self):
        rng = np.random.default_rng(127)
        model = random_primitive_model(rng)
        x0 = np.ones(model.n)
        result = periodic_limits(model, x0)
        assert result.period == 1
        np.testing.assert_allclose(
            result.limits[0], eventual_limit(model, x0).limit, atol=1e-12
        )

    def test_rejects_reducible(self):
        model = validate_model(np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2))
        with pytest.raises(StructureError):
            periodic_limits(model, [1.0, 1.0])

    @pytest.mark.parametrize("model, x0, index", oracle_cases())
    def test_matches_iterated_oracle(self, model, x0, index):
        result = periodic_limits(model, x0)
        assert result.period == index
        oracle = iterated_periodic_limits(model.projection, x0, index)
        np.testing.assert_allclose(np.array(result.limits), np.array(oracle), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("n", [200, 400])
    def test_semelparous_limits_are_one_cycle(self, n):
        # (P / r)^n = I, so limit i is step i of the normalized trajectory.
        model = leslie(n, {n: 5.0})
        x0 = np.ones(n)
        result = periodic_limits(model, x0)
        assert result.period == n
        trajectory = iterate(model, x0, n - 1, normalize=True)
        np.testing.assert_allclose(np.array(result.limits), trajectory, rtol=1e-10)

    def test_limit_beyond_float_range_raises(self, plant):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            periodic_limits(plant, [1.7e308] * 5)

    def test_wrong_growth_rate_breaks_the_cycle_identity(self):
        model = plant_model()
        vars(model)["growth_rate"] = PLANT_R * (1.0 + 1e-6)
        with pytest.raises(ConsistencyError, match="close the cycle"):
            periodic_limits(model, PLANT_NEWBORN)

    def test_left_perron_functional_is_conserved(self, plant):
        pair = perron_pair(plant.projection)
        x0 = np.array([2.0, 1.0, 0.0, 0.5, 3.0])
        result = periodic_limits(plant, x0)
        for limit in result.limits:
            assert float(pair.left @ limit) == pytest.approx(float(pair.left @ x0), abs=1e-7)


class TestNormalizedPowers:
    def test_normalized_powers_approach_perron_projection(self):
        rng = np.random.default_rng(131)
        for _ in range(15):
            model = random_primitive_model(rng, n_max=6)
            pair = perron_pair(model.projection)
            target = np.outer(pair.right, pair.left)
            power = model.projection / pair.rho
            for _ in range(60):
                power = power @ power
                if np.max(np.abs(power - target)) < 1e-6:
                    break
            assert np.max(np.abs(power - target)) < 1e-6

    def test_irreducible_normalized_trajectory_is_bounded(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            model = random_irreducible_model(rng, n_max=6)
            trajectory = iterate(model, np.ones(model.n), 10_000, normalize=True)
            peak = max(population.max() for population in trajectory)
            assert peak < 1e8


class TestClassifyPopulation:
    def test_plant_stable_population(self, plant):
        result = classify_population(plant, PLANT_STABLE)
        assert result.kind is PopulationKind.STABLE
        assert result.eigenvalue == pytest.approx(PLANT_R, abs=1e-9)
        assert result.residual <= 1e-9

    def test_jordan_block_stationary_population(self):
        result = classify_population(jordan_block_model(), [0.0, 1.0])
        assert result.kind is PopulationKind.STATIONARY
        assert result.eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_jordan_block_growing_population_is_neither(self):
        result = classify_population(jordan_block_model(), [1.0, 0.0])
        assert result.kind is PopulationKind.NEITHER

    def test_tiny_factor_is_stable(self):
        result = classify_population(validate_model([[0.0]], [[1e-10]]), [1.0])
        assert result.kind is PopulationKind.STABLE
        assert result.eigenvalue == 1e-10

    def test_tiny_scale_non_eigenvector_is_neither(self):
        # Every entry of P is at most 1e-10, so |P x - lambda x| is tiny for any x.
        model = validate_model([[0.0, 0.0], [1e-10, 0.0]], [[1e-10, 1e-10], [0.0, 0.0]])
        result = classify_population(model, [1.0, 0.0])
        assert result.kind is PopulationKind.NEITHER
        assert result.residual < 1e-9

    def test_plant_uniform_population_is_neither(self, plant):
        result = classify_population(plant, np.ones(5))
        assert result.kind is PopulationKind.NEITHER
        assert result.residual > 1e-3

    @pytest.mark.parametrize("analyzed", [False, True])
    def test_makes_no_kernel_call(self, plant, analyzed, kernel_calls):
        if analyzed:
            analyze(plant)
        kernel_calls.clear()
        assert classify_population(plant, PLANT_STABLE).kind is PopulationKind.STABLE
        assert not kernel_calls["_power_root"]
        assert not kernel_calls["_analyze_pattern"]

    def test_stationary_after_stabilizing_scale(self):
        rng = np.random.default_rng(139)
        from matpop import stabilizing_scale

        model = stabilizing_scale(random_irreducible_model(rng))
        pair = perron_pair(model.projection)
        result = classify_population(model, pair.right)
        assert result.kind is PopulationKind.STATIONARY
