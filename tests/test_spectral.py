import math
import warnings

import numpy as np
import pytest

from matpop import (
    ConvergenceError,
    ModelError,
    MortalityError,
    SpectralPair,
    StructureError,
    perron_pair,
    resolvent_inverse,
    spectral,
    spectral_radius,
    structure,
)
from matpop.matrices import as_matrix
from helpers import (
    PLANT_F,
    PLANT_Q,
    PLANT_R,
    PLANT_STABLE,
    PLANT_T,
    char_poly_spectral_radius,
    neumann_partial_sum,
    plant_model,
    random_irreducible_model,
    reference_power_pass,
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

    @pytest.mark.parametrize("entry", [spectral_radius, perron_pair])
    def test_kernel_entry_coerces_input_once(self, entry, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return as_matrix(*args, **kwargs)

        monkeypatch.setattr(spectral, "as_matrix", counted)
        monkeypatch.setattr(structure, "as_matrix", counted)
        entry([[0.0, 1.0], [2.0, 0.5]])
        assert len(calls) == 1


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
    def test_seed_resolves_widely_scaled_perron_vector(self, fertile_ages, monkeypatch):
        # T + F / R0 of a 200-class Leslie model with survival 0.9: root 1,
        # Perron entries down to 0.9 ** 199, period 200 for a semelparous
        # model and 1 with two adjacent fertile ages.  The seeded pass must
        # certify within a few iterations of the single failed probe.
        n = 200
        ages = np.array(fertile_ages)
        m = np.zeros((n, n))
        m[np.arange(1, n), np.arange(n - 1)] = 0.9
        m[0, ages - 1] = 0.9 ** -(ages - 1.0) / len(ages)
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", spectral.PROBE_ITERATIONS_PER_ORDER * n + 20)
        assert spectral_radius(m) == pytest.approx(1.0, rel=1e-12)
        pair = perron_pair(m)
        assert pair.right == pytest.approx(0.9 ** np.arange(n) * pair.right[0], rel=1e-9)

    def test_unreachable_tolerance_stops_once_bracket_stalls(self):
        # Double precision cannot narrow the bracket around R0 = 0.375 to
        # 1e-30; the pass must notice the stall instead of spending the
        # whole MAX_ITERATIONS budget.
        with pytest.raises(ConvergenceError) as info:
            spectral_radius(plant_model().next_generation, tol=1e-30)
        lo, hi = info.value.bracket
        assert lo <= 0.375 <= hi
        assert info.value.iterations <= 10 * spectral.PROBE_MIN_ITERATIONS

    def test_iteration_budget_exhaustion_reports_bracket(self, monkeypatch):
        m = [[0.0, 2.0], [3.0, 0.0]]
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", 3)
        with pytest.raises(ConvergenceError) as info:
            spectral_radius(m)
        lo, hi = info.value.bracket
        assert lo <= math.sqrt(6.0) <= hi


def _leslie_projection(n: int, fertile_ages) -> np.ndarray:
    """P of an n-class Leslie model with survival 0.9 and fertility 5 at the given ages."""
    m = np.zeros((n, n))
    m[np.arange(1, n), np.arange(n - 1)] = 0.9
    m[0, np.array(fertile_ages) - 1] = 5.0
    return m


class TestPeriodRouting:
    """A block of index d >= 3 skips its cold probes; blocks of index 1 and 2 start cold."""

    @pytest.mark.parametrize(
        "n, fertile_ages",
        [
            (10, [10]),
            (12, [12]),
            (48, [48]),
            (6, [3, 6]),
            (8, [4, 8]),
            (36, range(6, 37, 6)),
            (9, [9]),
        ],
        ids=["10", "12", "48", "d3", "d4", "iteroparous-d6-n36", "semelparous-d9"],
    )
    def test_long_cycles_make_no_cold_pass(self, n, fertile_ages, power_passes):
        m = _leslie_projection(n, fertile_ages)
        assert structure.analyze_structure(m).imprimitivity_index >= 3
        r = spectral_radius(m)
        # Euler-Lotka: the sum over fertile ages a of 5 * 0.9^(a-1) / r^a is 1.
        assert sum(5.0 * 0.9 ** (a - 1) / r**a for a in fertile_ages) == pytest.approx(1.0, rel=1e-12)
        pair = perron_pair(m)
        assert pair.right == pytest.approx((0.9 / r) ** np.arange(n) * pair.right[0], rel=1e-9)
        # One pass for the root, one for each side of the pair.
        assert len(power_passes) == 3
        assert all(start is not None for start, _ in power_passes)

    @pytest.mark.parametrize(
        "m, period",
        [
            (PLANT_T + PLANT_F, 2),
            ([[0.5, 1.0], [0.25, 0.5]], 1),
        ],
        ids=["plant", "primitive"],
    )
    def test_other_blocks_start_cold_and_keep_their_bits(self, m, period, power_passes):
        m = np.asarray(m)
        assert structure.analyze_structure(m).imprimitivity_index == period
        rho = spectral_radius(m)
        pair = perron_pair(m)
        assert power_passes[0][0] is None
        # Index 1 is the path every block took before the routing.
        tol = spectral.SPECTRAL_TOL
        assert rho == spectral._power_root(m, tol)[0]
        right = spectral._power_root(m, tol / 4.0)[1]
        left = spectral._power_root(m.T, tol / 4.0)[1]
        assert pair.right.tobytes() == right.tobytes()
        assert pair.left.tobytes() == (left / float(left @ right)).tobytes()

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-20], ids=["tol6", "tol12", "tol20"])
    def test_index_three_is_the_boundary_at_every_tolerance(self, tol, power_passes):
        for fertile_ages, period in (([2, 4, 6], 2), ([3, 6], 3)):
            m = _leslie_projection(6, fertile_ages)
            report = structure.analyze_structure(m)
            assert report.imprimitivity_index == period
            power_passes.clear()
            try:
                spectral._power_root(m, tol, report.cyclic_classes)
            except ConvergenceError:
                pass  # 1e-20 is below rounding level; only the first pass matters
            assert (power_passes[0][0] is not None) == (period == 3)

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


def _ratio_bracket(a, x) -> tuple[float, float]:
    """Min and max of (A x)_i / x_i for a positive test vector x."""
    ratios = (np.asarray(a) @ x) / x
    return float(ratios.min()), float(ratios.max())


class TestCollatzWielandtBounds:
    """For irreducible A and positive x, rho(A) lies between min and max of (A x) / x."""

    def test_perron_vector_attains_equality(self):
        lo, hi = _ratio_bracket([[1.0, 1.0], [1.0, 1.0]], np.array([1.0, 1.0]))
        assert lo == pytest.approx(2.0) and hi == pytest.approx(2.0)
        assert spectral_radius([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(2.0, abs=1e-12)

    def test_off_vector_brackets_radius(self):
        lo, hi = _ratio_bracket([[1.0, 1.0], [1.0, 1.0]], np.array([2.0, 1.0]))
        assert lo == pytest.approx(1.5)
        assert hi == pytest.approx(3.0)
        assert lo <= spectral_radius([[1.0, 1.0], [1.0, 1.0]]) <= hi

    def test_plant_stable_population(self):
        p = plant_model().projection
        lo, hi = _ratio_bracket(p, PLANT_STABLE)
        assert lo == pytest.approx(PLANT_R, abs=1e-12)
        assert hi == pytest.approx(PLANT_R, abs=1e-12)
        assert spectral_radius(p) == pytest.approx(PLANT_R, abs=1e-9)

    def test_always_contains_radius(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            model = random_irreducible_model(rng, n_max=8)
            x = rng.uniform(0.1, 2.0, model.n)
            lo, hi = _ratio_bracket(model.projection, x)
            rho = spectral_radius(model.projection)
            assert lo - 1e-10 <= rho <= hi + 1e-10


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


def _cyclic_block(rng, sizes):
    """A random irreducible block whose cyclic classes have the given sizes, so its index is len(sizes)."""
    n = sum(sizes)
    starts = np.cumsum([0, *sizes])
    m = np.zeros((n, n))
    for k, size in enumerate(sizes):
        rows = slice(starts[(k + 1) % len(sizes)], starts[(k + 1) % len(sizes) + 1])
        cols = slice(starts[k], starts[k + 1])
        m[rows, cols] = rng.uniform(0.1, 2.0, (sizes[(k + 1) % len(sizes)], size))
    return m


def _primitive_block(rng, n):
    m = rng.uniform(0.0, 3.0, (n, n)) * (rng.random((n, n)) < 0.3)
    m[np.arange(1, n), np.arange(n - 1)] += 0.5
    m[0, n - 1] += 0.5
    m[0, 0] += 0.1
    return m


class TestChunkedPassKeepsItsBits:
    """_power_pass returns exactly what the step-by-step reference loop returns."""

    @staticmethod
    def assert_same(block, tol, budget, start=None):
        expected = reference_power_pass(block, tol, budget, start)
        got = spectral._power_pass(block, tol, budget, start)
        assert got[0] == expected[0]
        assert got[1].tobytes() == expected[1].tobytes()
        assert got[2:] == expected[2:]
        return got

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 33, 120])
    def test_primitive_blocks(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            block = _primitive_block(rng, n) * math.exp(rng.uniform(-4.0, 4.0))
            assert self.assert_same(block, 1e-12, 200_000)[0] is not None

    @pytest.mark.parametrize("period", [2, 3, 4, 5, 6])
    def test_imprimitive_blocks(self, period):
        rng = np.random.default_rng(100 + period)
        for _ in range(5):
            sizes = rng.integers(1, 5, period).tolist()
            self.assert_same(_cyclic_block(rng, sizes), 1e-12, 200_000)

    def test_seeded_starts_certify_at_the_first_iteration(self):
        rng = np.random.default_rng(7)
        for n in (3, 8, 40):
            block = _primitive_block(rng, n)
            _, vector, *_ = spectral._power_pass(block, 1e-13, 200_000)
            assert self.assert_same(block, 1e-12, 200_000, vector)[4] == 1

    def test_cold_start_on_the_perron_vector(self):
        # Equal row sums make the uniform start the Perron vector.
        block = np.array([[0.2, 0.7, 0.1], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]])
        assert self.assert_same(block, 1e-12, 200_000)[4] == 1

    @pytest.mark.parametrize("budget", [1, 2, 3, 31, 33, 63])
    def test_budgets_that_end_mid_chunk(self, budget):
        rng = np.random.default_rng(budget)
        for block in (_primitive_block(rng, 6), _cyclic_block(rng, [2, 3, 2, 3, 2, 3])):
            root, _, _, _, used = self.assert_same(block, 1e-12, budget)
            assert root is not None or used == budget

    def test_unreachable_tolerance_stops_at_the_stall_window(self):
        rng = np.random.default_rng(11)
        block = _primitive_block(rng, 8)
        root, _, _, _, used = self.assert_same(block, 1e-18, 200_000)
        assert root is None and used < 200_000

    def test_iterates_past_the_certifying_one_warn_nothing(self):
        # The cold pass certifies at iteration 674, mid-chunk, with Perron
        # entries down to 5e-311: a division by an iterate that underflowed
        # after certification would warn.
        n = 95
        block = np.zeros((n, n))
        block[np.arange(1, n), np.arange(n - 1)] = 1e-3
        block[0, :] = 1.0
        block[0, 0] += 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, vector, _, _, used = self.assert_same(block, 1e-12, 200_000)
            assert used == 674
            assert self.assert_same(block, 1e-12, 200_000, vector)[4] == 1


def _seed(block):
    """The _eig_seed (lam, x0) of an irreducible block."""
    return spectral._eig_seed(block, structure.analyze_structure(block).cyclic_classes)


class TestResumedPassKeepsItsBits:
    """A pass certified at tol and then sent tol / 4 answers as a fresh pass at tol / 4 does."""

    @staticmethod
    def assert_resumes(block, tol, budgets, start=None):
        state = []
        answers = []
        for t, budget in zip((tol, tol / 4.0), budgets):
            expected = reference_power_pass(block, t, budget, start)
            got = spectral._power_pass(block, t, budget, start, state)
            assert got[0] == expected[0]
            assert got[1].tobytes() == expected[1].tobytes()
            assert got[2:] == expected[2:]
            answers.append(got)
        return answers

    @pytest.mark.parametrize("n", [2, 5, 10, 33, 120])
    def test_cold_primitive_blocks(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            block = _primitive_block(rng, n) * math.exp(rng.uniform(-4.0, 4.0))
            at_tol, at_quarter = self.assert_resumes(block, 1e-12, (200_000, 200_000))
            assert at_tol[0] is not None and at_quarter[4] >= at_tol[4]

    @pytest.mark.parametrize("period", [2, 3, 4, 5, 6])
    def test_cold_imprimitive_blocks(self, period):
        rng = np.random.default_rng(400 + period)
        for _ in range(5):
            sizes = rng.integers(1, 5, period).tolist()
            self.assert_resumes(_cyclic_block(rng, sizes), 1e-12, (200_000, 200_000))

    @pytest.mark.parametrize("period", [3, 5, 9])
    def test_seeded_starts(self, period):
        rng = np.random.default_rng(500 + period)
        for _ in range(5):
            block = _cyclic_block(rng, rng.integers(1, 4, period).tolist())
            lam, x0 = _seed(block)
            self.assert_resumes(block / lam, 1e-12, (200_000, 200_000), x0)
        # A start off the Perron vector takes more than a chunk.
        block = _leslie_projection(24, [8, 16, 24])
        lam, x0 = _seed(block)
        x0 = x0 * np.linspace(0.5, 1.5, 24)
        at_tol, at_quarter = self.assert_resumes(block / lam, 1e-12, (200_000, 200_000), x0 / x0.sum())
        assert at_tol[4] > spectral._CHUNK_ITERATIONS

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 31, 33, 63, 100])
    def test_budgets_that_end_mid_chunk(self, budget):
        rng = np.random.default_rng(600 + budget)
        for block in (_primitive_block(rng, 6), _cyclic_block(rng, [2, 3, 2, 3, 2, 3])):
            self.assert_resumes(block, 1e-12, (budget, budget))
            # A budget that grows on resumption goes on past the chunk the first one cut short.
            self.assert_resumes(block, 1e-12, (budget, 2 * budget + 5))

    @pytest.mark.parametrize("tol", [1e-15, 4e-16, 2e-16, 1e-18, 0.0])
    def test_stalled_brackets(self, tol):
        rng = np.random.default_rng(11)
        for n in (3, 8, 20):
            block = _primitive_block(rng, n)
            at_tol, at_quarter = self.assert_resumes(block, tol, (200_000, 200_000))
            if at_tol[0] is None:
                assert at_quarter[4] == at_tol[4] < 200_000

    @pytest.mark.parametrize("scale", [1e-300, 1e150, 1e300])
    def test_extreme_scales(self, scale):
        # Widths near 1e300 have logarithms one rounding step apart; none of them may raise or warn.
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (3, 8):
                for tol in (1e-12, 0.0):
                    self.assert_resumes(_primitive_block(rng, n) * scale, tol, (200_000, 200_000))

    @pytest.mark.parametrize(
        "block, start",
        [
            (np.ones((3, 3)), None),
            (np.array([[0.5, 2.0, 1.0], [0.5, 2.0, 1.0], [0.5, 2.0, 1.0]]), None),
            (np.array([[0.0, 1.0], [1.0, 0.0]]), None),
            (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.25, 0.75])),
        ],
        ids=["ones", "constant-columns", "swap", "swap-off-start"],
    )
    def test_brackets_that_reach_width_zero(self, block, start):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tol in (1e-12, 0.0):
                for _, _, lo, hi, _ in self.assert_resumes(block, tol, (200_000, 200_000), start):
                    assert hi - lo == 0.0

    def test_rate_sized_chunks_compute_less_than_doubling(self, computed_iterations):
        # Doubling chunks end at 1, 3, 7, 15, 31, then every 32 iterations.
        ends = [1, 3, 7, 15, 31, *range(63, 200_000, 32)]
        rng = np.random.default_rng(17)
        computed = doubling = 0
        for n in (5, 8, 12, 20, 40):
            block = _primitive_block(rng, n)
            computed_iterations[0] = 0
            used = spectral._power_pass(block, 1e-12, 200_000)[4]
            chunk_end = next(end for end in ends if end >= used)
            assert used <= computed_iterations[0] <= chunk_end
            computed, doubling = computed + computed_iterations[0], doubling + chunk_end
        assert computed < doubling


class TestResumedPowerRoot:
    """_power_root handed back its kept first pass for tol / 4 gives the bits of a fresh call."""

    @staticmethod
    def assert_resumes(block, classes=None):
        tol = spectral.SPECTRAL_TOL
        kept = []
        rho = spectral._power_root(block, tol, classes, kept)[0]
        assert rho == spectral._power_root(block, tol, classes)[0] and kept
        resumed = spectral._power_root(block, tol / 4.0, classes, kept)
        fresh = spectral._power_root(block, tol / 4.0, classes)
        assert resumed[0] == fresh[0]
        assert resumed[1].tobytes() == fresh[1].tobytes()

    @pytest.mark.parametrize(
        "m",
        [
            PLANT_T + PLANT_F,
            [[0.5, 1.0], [0.25, 0.5]],
            # Roots below 0.5 rescale after the first probe; the later probes run fresh.
            [[0.01, 0.02], [0.03, 0.001]],
            _leslie_projection(60, [59, 60]),
        ],
        ids=["plant", "primitive", "small-root", "slow-primitive"],
    )
    def test_cold_route(self, m, power_passes):
        m = np.asarray(m, dtype=float)
        self.assert_resumes(m, structure.analyze_structure(m).cyclic_classes)
        assert power_passes[0][0] is None

    def test_slow_block_falls_back_to_a_fresh_seeded_pass(self, power_passes):
        m = _leslie_projection(60, [59, 60])
        classes = structure.analyze_structure(m).cyclic_classes
        kept = []
        spectral._power_root(m, spectral.SPECTRAL_TOL, classes, kept)
        power_passes.clear()
        spectral._power_root(m, spectral.SPECTRAL_TOL / 4.0, classes, kept)
        # The resumed probe, still uncertified, then one fresh seeded pass.
        assert [start is None for start, _ in power_passes] == [True, False]

    @pytest.mark.parametrize("n, fertile_ages", [(9, [9]), (12, [4, 8, 12]), (200, [200])])
    def test_seeded_route(self, n, fertile_ages, power_passes):
        m = _leslie_projection(n, fertile_ages)
        self.assert_resumes(m, structure.analyze_structure(m).cyclic_classes)
        assert all(start is not None for start, _ in power_passes)

    def test_reducible_blocks(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            self.assert_resumes(_primitive_block(rng, 7) * math.exp(rng.uniform(-3.0, 3.0)))


def _class_ordered_maps(block, classes):
    """The cycle maps as a class-ordered copy of the whole block gives them."""
    order = np.argsort(classes, kind="stable")
    ends = np.cumsum(np.bincount(classes)).tolist()
    spans = [slice(start, end) for start, end in zip([0, *ends], ends)]
    permuted = block[np.ix_(order, order)]
    maps = [permuted[spans[(k + 1) % len(spans)], span].copy() for k, span in enumerate(spans)]
    return [order[span] for span in spans], maps


class TestCycleMaps:
    """_cycle_maps gathers each map alone, with the bits of the class-ordered block's slices."""

    @staticmethod
    def assert_maps(block):
        classes = structure.analyze_structure(block).cyclic_classes
        members, maps = spectral._cycle_maps(block, classes)
        expected_members, expected_maps = _class_ordered_maps(block, classes)
        assert [m.tolist() for m in members] == [m.tolist() for m in expected_members]
        for got, expected in zip(maps, expected_maps, strict=True):
            assert got.flags.c_contiguous and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("period", range(2, 10))
    def test_random_cyclic_blocks(self, period):
        rng = np.random.default_rng(700 + period)
        for _ in range(5):
            block = _cyclic_block(rng, rng.integers(1, 5, period).tolist())
            order = rng.permutation(len(block))
            self.assert_maps(block[np.ix_(order, order)])

    @pytest.mark.parametrize(
        "n, fertile_ages",
        [(9, [9]), (200, [200]), (1000, [1000]), (36, range(6, 37, 6)), (999, [333, 666, 999])],
    )
    def test_leslie_models(self, n, fertile_ages):
        self.assert_maps(_leslie_projection(n, fertile_ages))
