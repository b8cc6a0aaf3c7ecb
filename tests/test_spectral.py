import math

import numpy as np
import pytest

from matpop import (
    ConvergenceError,
    ModelError,
    MortalityError,
    SpectralPair,
    StructureError,
    as_matrix,
    perron_pair,
    resolvent_inverse,
    spectral,
    spectral_radius,
)
from helpers import (
    PLANT_Q,
    PLANT_STABLE,
    char_poly_spectral_radius,
    neumann_partial_sum,
    plant_model,
    random_irreducible_model,
)


class TestAsMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ModelError):
            as_matrix([[1.0, 2.0]])

    def test_rejects_ragged(self):
        with pytest.raises(ModelError):
            as_matrix([[1.0, 2.0], [3.0]])

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            as_matrix([[1.0, -0.5], [0.0, 1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ModelError):
            as_matrix([[float("nan"), 0.0], [0.0, 1.0]])

    def test_result_is_read_only(self):
        m = as_matrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            m[0, 0] = 2.0


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_plant_lifecycle(self):
        assert spectral_radius(plant_model().projection) == pytest.approx(
            math.sqrt(2.0) / 2.0, abs=1e-9
        )

    def test_antidiagonal(self):
        # Characteristic polynomial x^2 - 6 by the quadratic formula.
        assert spectral_radius([[0.0, 2.0], [3.0, 0.0]]) == pytest.approx(
            math.sqrt(6.0), abs=1e-10
        )

    def test_single_entry(self):
        assert spectral_radius([[0.25]]) == 0.25

    def test_reducible_takes_max_over_blocks(self):
        m = np.array([[0.5, 1.0], [0.0, 2.0]])
        assert spectral_radius(m) == pytest.approx(2.0, abs=1e-12)

    def test_nilpotent_is_zero(self):
        m = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        assert spectral_radius(m) == 0.0

    def test_matches_char_poly_oracle_on_small_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = rng.uniform(0.0, 3.0, (n, n)) * (rng.random((n, n)) < 0.7)
            assert spectral_radius(m) == pytest.approx(
                char_poly_spectral_radius(m), abs=1e-8
            )

    def test_monotone_in_entries(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
            bigger = m + rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.4)
            assert spectral_radius(bigger) >= spectral_radius(m) - 1e-11

    def test_strictly_monotone_for_irreducible(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            model = random_irreducible_model(rng, n_max=6)
            p = np.array(model.projection)
            rho = spectral_radius(p)
            i, j = int(rng.integers(p.shape[0])), int(rng.integers(p.shape[0]))
            p[i, j] += rng.uniform(0.05, 0.5)
            assert spectral_radius(p) > rho + 1e-12

    def test_shift_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(80):
            n = int(rng.integers(1, 8))
            m = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.5)
            assert spectral_radius(m + np.eye(n)) == pytest.approx(
                spectral_radius(m) + 1.0, abs=1e-11
            )

    def test_small_roots_keep_relative_accuracy(self):
        # Swap blocks with tiny weights: rho = sqrt(product of the two entries).
        assert spectral_radius([[0.0, 1e-6], [1e-6, 0.0]]) == pytest.approx(
            1e-6, rel=1e-10
        )
        assert spectral_radius([[0.0, 1.0], [1e-12, 0.0]]) == pytest.approx(
            1e-6, rel=1e-10
        )
        # Six-cycle with five 1e-20 edges: the root is 1e-100 ** (1/6).
        cycle = np.zeros((6, 6))
        cycle[np.arange(1, 6), np.arange(5)] = 1e-20
        cycle[0, 5] = 1.0
        assert spectral_radius(cycle) == pytest.approx(1e-100 ** (1 / 6), rel=1e-9)

    @pytest.mark.parametrize("fertile_ages", [(200,), (199, 200)])
    def test_seed_resolves_widely_scaled_perron_vector(self, fertile_ages):
        # T + F / R0 of a 200-class Leslie model with survival 0.9: root 1,
        # Perron entries down to 0.9 ** 199, period 200 for a semelparous
        # model and 1 with two adjacent fertile ages.  The seeded pass must
        # certify within a few iterations of the single failed probe.
        n = 200
        ages = np.array(fertile_ages)
        m = np.zeros((n, n))
        m[np.arange(1, n), np.arange(n - 1)] = 0.9
        m[0, ages - 1] = 0.9 ** -(ages - 1.0) / len(ages)
        budget = spectral.PROBE_ITERATIONS_PER_ORDER * n + 20
        assert spectral_radius(m, max_iterations=budget) == pytest.approx(1.0, rel=1e-12)
        pair = perron_pair(m, max_iterations=budget)
        assert pair.right == pytest.approx(0.9 ** np.arange(n) * pair.right[0], rel=1e-9)

    def test_iteration_budget_exhaustion_reports_bracket(self):
        m = [[0.0, 2.0], [3.0, 0.0]]
        with pytest.raises(ConvergenceError) as info:
            spectral_radius(m, max_iterations=3)
        lo, hi = info.value.bracket
        assert lo <= math.sqrt(6.0) <= hi


class TestPerronPair:
    def test_constant_matrix(self):
        pair = perron_pair([[1.0, 1.0], [1.0, 1.0]])
        assert pair.rho == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(pair.right, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(pair.left, [1.0, 1.0], atol=1e-12)

    def test_swap_matrix(self):
        pair = perron_pair([[0.0, 1.0], [1.0, 0.0]])
        assert pair.rho == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pair.right, [0.5, 0.5], atol=1e-12)

    def test_plant_stable_population(self):
        pair = perron_pair(plant_model().projection)
        expected = PLANT_STABLE / PLANT_STABLE.sum()
        assert pair.rho == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)
        np.testing.assert_allclose(pair.right, expected, atol=1e-10)

    def test_single_class(self):
        pair = perron_pair([[0.7]])
        assert pair.rho == 0.7
        assert pair.right.tolist() == [1.0]
        assert pair.left.tolist() == [1.0]

    def test_rejects_reducible(self):
        with pytest.raises(StructureError):
            perron_pair([[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_zero_1x1(self):
        with pytest.raises(StructureError):
            perron_pair([[0.0]])

    def test_normalization_and_residuals(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            model = random_irreducible_model(rng, n_max=8)
            p = model.projection
            pair = perron_pair(p)
            tol = 1e-12 * max(1.0, pair.rho)
            assert pair.right.sum() == pytest.approx(1.0, abs=1e-12)
            assert float(pair.left @ pair.right) == pytest.approx(1.0, abs=1e-12)
            assert (pair.right > 0).all() and (pair.left > 0).all()
            assert np.max(np.abs(p @ pair.right - pair.rho * pair.right)) <= tol
            left_scale = max(1.0, float(np.max(pair.left)))
            assert np.max(np.abs(pair.left @ p - pair.rho * pair.left)) <= tol * left_scale


class TestResolventInverse:
    def test_zero_transition_gives_identity(self):
        np.testing.assert_array_equal(resolvent_inverse(np.zeros((3, 3))), np.eye(3))

    def test_scalar_geometric_series(self):
        np.testing.assert_allclose(resolvent_inverse([[0.5]]), [[2.0]], atol=1e-14)

    def test_plant_next_generation(self):
        model = plant_model()
        q = model.fertility @ resolvent_inverse(model.transition)
        np.testing.assert_allclose(q, PLANT_Q, atol=1e-14)

    def test_long_lower_triangular_transition(self):
        # 150 ages surviving 0.9 each, the last with stasis 0.5: N[i, j] is
        # the survival from age j to age i, over 1 - 0.5 in the last row.
        n = 150
        t = np.diag(np.full(n - 1, 0.9), -1)
        t[-1, -1] = 0.5
        i, j = np.indices((n, n))
        expected = np.where(i >= j, 0.9 ** np.maximum(i - j, 0), 0.0)
        expected[-1] /= 0.5
        np.testing.assert_allclose(resolvent_inverse(t), expected, rtol=1e-13, atol=0.0)

    def test_rejects_immortal_transition(self):
        with pytest.raises(MortalityError):
            resolvent_inverse(np.eye(2))

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            t = rng.uniform(0.0, 1.0, (n, n))
            t *= 0.9 / max(t.sum(axis=0).max(), 1e-9)
            assert resolvent_inverse(t).min() >= 0.0

    def test_matches_truncated_series(self):
        # Row sums capped at 0.9 so the tail is bounded by 0.9^(K+1)/0.1.
        rng = np.random.default_rng(29)
        terms = 64
        bound = 0.9 ** (terms + 1) / 0.1
        for _ in range(40):
            n = int(rng.integers(1, 9))
            t = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.7)
            scale = t.sum(axis=1).max()
            if scale > 0:
                t *= 0.9 / scale
            difference = resolvent_inverse(t) - neumann_partial_sum(t, terms)
            assert np.abs(difference).max() <= bound

    def test_frozen_dataclass(self):
        pair = perron_pair([[1.0, 1.0], [1.0, 1.0]])
        assert isinstance(pair, SpectralPair)
        with pytest.raises(AttributeError):
            pair.rho = 3.0
