import json
import math
import warnings

import numpy as np
import pytest

from matpop import (
    ConvergenceError,
    ModelError,
    MortalityError,
    NumericalError,
    SpectralPair,
    StructureError,
    analyze,
    perron_pair,
    resolvent_inverse,
    spectral,
    spectral_radius,
    structure,
    validate_model,
)
from matpop.cli import main
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
    random_cyclic_model,
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

    def test_negative_zero_is_stored_as_zero(self):
        m = as_matrix([[-0.0, 1.0], [0.5, -0.0]])
        assert not np.signbit(m).any()

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

    @pytest.mark.parametrize("function", [spectral_radius, perron_pair])
    @pytest.mark.parametrize("tol", [5.0, 1.0, 0.0, -1.0, math.nan, math.inf])
    def test_tolerance_outside_the_unit_interval_rejected(self, function, tol):
        # validate_model's rule.  Before, tol = 5.0 gave 0.9166666666666665 for a root of 0.92622677, and
        # tol = -1 or nan spent 1,002 iterations, then raised ConvergenceError.
        with pytest.raises(ModelError, match=r"^tol must be finite with 0 < tol < 1, got "):
            function([[0.1, 0.9, 0.0], [0.3, 0.2, 0.5], [0.0, 0.7, 0.05]], tol=tol)

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


class TestOneByOneBlock:
    """A 1 x 1 block is read: its entry and the vector [1], with no eig call and no power pass."""

    ENTRIES = [1e-300, *np.exp(np.random.default_rng(29).uniform(-690.0, 690.0, 200)).tolist(), 1.0, 1e300]

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        eig, calls = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        return calls

    def test_entry_and_unit_vector(self, eig_calls, power_passes):
        for a in self.ENTRIES:
            block = np.array([[a]])
            for kept in (None, spectral._Pass(), spectral._Pass(left=True), spectral._Pass((a, np.ones(1)), True)):
                root, vector = spectral._power_root(block, spectral.SPECTRAL_TOL, (0,), kept)
                assert root == a and vector.tolist() == [1.0]
            lam, vector = spectral._dominant_pair(block)
            assert lam == a and vector.tolist() == [1.0]
            pair = perron_pair(block)
            assert pair.rho == a and pair.right.tolist() == [1.0] and pair.left.tolist() == [1.0]
        assert eig_calls == [] and power_passes == []

    def test_zero_entry_has_no_dominant_pair(self, eig_calls):
        assert spectral._dominant_pair(np.zeros((1, 1))) is None
        assert eig_calls == []


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

    def test_unreachable_entry_is_exactly_zero(self):
        # No walk of T leads from class 2 to class 1.  A pivoted solve of the
        # whole of I - T swaps its rows and left 2.8e-17 there.
        inverse = resolvent_inverse([[0.0, 0.0], [2.0, 0.6]])
        assert inverse[0, 1] == 0.0
        np.testing.assert_array_equal(inverse, [[1.0, 0.0], [5.0, 2.5]])

    def test_rejects_immortal_transition(self):
        with pytest.raises(MortalityError):
            resolvent_inverse(np.eye(2))

    def test_unconverged_rho_is_decided_by_the_diagonal(self, monkeypatch):
        def fail(*args):
            raise ConvergenceError("no convergence")

        monkeypatch.setattr(spectral, "_radius", fail)
        with pytest.raises(MortalityError, match="diagonal entry 1,"):
            resolvent_inverse([[1.0, 1.0], [1.0, 0.0]])
        # A diagonal below 1 - tol proves nothing: the failure stands.
        with pytest.raises(ConvergenceError):
            resolvent_inverse([[0.0, 1.0], [1.0, 0.0]])

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


class TestUndefinedBracket:
    """An iterate entry that underflows to 0 stops the pass at the bracket before it, with no numpy warning."""

    def test_pass_stops_at_the_last_finite_bracket(self):
        # A 40-class Leslie matrix whose Perron vector falls by about 1e-11 a class: its ratios went nan.
        block = np.diag(np.full(39, 1e-8), -1)
        block[0, 0] = block[0, -1] = 1000.0
        kept = []
        root, vector, lo, hi, iteration = spectral._power_pass(block, 1e-12, 200_000, None, kept)
        expected = reference_power_pass(block, 1e-12, 200_000)
        assert root is None and expected[0] is None
        assert (lo, hi, iteration) == expected[2:]
        np.testing.assert_array_equal(vector, expected[1])
        assert (vector == 0.0).any() and 0.0 <= lo <= 1000.0 <= hi < math.inf
        assert spectral._power_pass(block, 1e-12 / 4.0, 200_000, None, kept)[2:] == (lo, hi, iteration)

    def test_an_infinite_ratio_certifies_nothing(self):
        # 1 / 5e-324 overflows: the bracket [1, inf] of A + I passed the width test against tol * inf.
        block = np.array([[0.0, 1.0], [1.0, 0.0]])
        start = np.array([1.0, 5e-324])
        result = spectral._power_pass(block, 1e-12, 1000, start)
        assert result[0] is None and result[2:] == (0.0, math.inf, 0)
        assert result[2:] == reference_power_pass(block, 1e-12, 1000, start)[2:]

    def test_root_fails_with_a_finite_bracket(self):
        block = np.diag(np.full(39, 1e-8), -1)
        block[0, 0] = block[0, -1] = 1000.0
        with pytest.raises(ConvergenceError) as info:
            spectral.spectral_radius(block)
        lo, hi = info.value.bracket
        assert 0.0 <= lo <= 1000.0 <= hi < math.inf


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


class TestCeilingStop:
    """A pass given a ceiling stops at the first upper end below it, with the reference loop's bits."""

    @staticmethod
    def ceilings(block):
        rho = float(np.abs(np.linalg.eigvals(block)).max())
        first = float(((block + np.eye(len(block))).sum(axis=1)).max()) - 1.0
        return rho, [rho * 0.5, rho * (1.0 + 1e-9), rho * 1.001, 0.5 * (rho + first), first, first * 2.0]

    @pytest.mark.parametrize("n", [2, 5, 10, 33])
    def test_primitive_and_imprimitive_blocks(self, n):
        rng = np.random.default_rng(800 + n)
        blocks = [_primitive_block(rng, n) * math.exp(rng.uniform(-4.0, 1.0)) for _ in range(4)]
        blocks.append(_cyclic_block(rng, rng.integers(1, 4, 3).tolist()))
        for block in blocks:
            rho, ceilings = self.ceilings(block)
            for ceiling in ceilings:
                got = spectral._power_pass(block, 1e-12, 2000, None, None, ceiling)
                expected = reference_power_pass(block, 1e-12, 2000, None, None, ceiling)
                assert got[0] == expected[0] and got[2:] == expected[2:]
                assert got[1].tobytes() == expected[1].tobytes()
                if got[0] is None and got[3] < ceiling:
                    # The upper end bounds the root, up to the rounding of its ratios.
                    assert rho <= got[3] + 64 * n * np.finfo(float).eps
                    assert got[4] == 1 or reference_power_pass(block, 1e-12, got[4] - 1)[3] >= ceiling

    def test_a_pass_stopped_at_the_ceiling_resumes_with_a_fresh_pass_bits(self):
        rng = np.random.default_rng(9)
        for n in (3, 8, 20):
            block = _primitive_block(rng, n)
            rho, ceilings = self.ceilings(block)
            state = []
            stopped = spectral._power_pass(block, 1e-12, 200_000, None, state, ceilings[2])
            assert stopped[0] is None and stopped[3] < ceilings[2]
            resumed = spectral._power_pass(block, 1e-12, 200_000, None, state)
            fresh = spectral._power_pass(block, 1e-12, 200_000)
            assert resumed[0] == fresh[0] and resumed[2:] == fresh[2:]
            assert resumed[1].tobytes() == fresh[1].tobytes()

    def test_radius_below_reads_components(self):
        # A 2 x 2 block of root 0.6 and a 1 x 1 component at 0.7, joined one way: no bound reaches 0.7.
        t = np.array([[0.0, 0.9, 0.0], [0.4, 0.0, 0.0], [0.3, 0.0, 0.7]])
        report = structure.analyze_structure(t)
        bound = spectral._radius_below(t, report, 1e-12, 0.75)
        assert 0.7 <= bound < 0.75
        assert spectral._radius_below(t, report, 1e-12, 0.7) == math.inf
        assert spectral._radius_below(t, report, 1e-12, 0.65) == math.inf
        assert spectral._radius_below(t[:2, :2], structure.analyze_structure(t[:2, :2]), 1e-12, 0.61) < 0.61


class TestZeroRoot:
    """An irreducible block whose root is below the rounding of the + I shift has a positive root."""

    def test_tiny_cycle(self):
        # The cold probe's bracket of block + I reads [1, 1]: the root came out exactly 0.
        block = np.array([[0.0, 1e-17], [4e-17, 0.0]])
        assert spectral_radius(block) == pytest.approx(2e-17, rel=1e-12, abs=0.0)
        assert spectral._power_root(block, 1e-12, (0, 1))[0] == pytest.approx(2e-17, rel=1e-12, abs=0.0)

    def test_tiny_fertility_of_a_cyclic_model(self, tmp_path):
        # The cold probe of Q's block reads [1, 1]: R0 came out 0 and analyze raised ConsistencyError.
        m = random_cyclic_model(np.random.default_rng(3), 3)
        r0 = {k: analyze(validate_model(m.transition, m.fertility * k)).net_reproductive_rate for k in (1e-14, 1e-17)}
        assert r0[1e-17] == pytest.approx(r0[1e-14] * 1e-3, rel=1e-9, abs=0.0)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"transition": m.transition.tolist(), "fertility": (m.fertility * 1e-17).tolist()}))
        assert main(["analyze", str(path)]) == 0


class TestOverflowingRescale:
    """A rescale past the float range ends the block with ConvergenceError and the bracket so far."""

    def test_small_root_of_a_probe(self):
        # r is about 2.2e-8, and P / r would need an entry of 1e308 / 2.2e-8: two RuntimeWarnings leaked.
        model = validate_model([[0.0, 0.0], [0.0, 0.0]], [[0.0, 1e308], [5e-324, 0.0]])
        with pytest.raises(ConvergenceError, match="overflows the float range") as info:
            analyze(model)
        lo, hi = info.value.bracket
        assert lo <= math.sqrt(1e308 * 5e-324) <= hi

    def test_seed_of_a_long_cycle(self):
        # Index 3 goes straight to its seed, whose root (1e308 * 1e-320)^(1/3) is 1e-4.
        block = [[0.0, 0.0, 1e308], [1e-160, 0.0, 0.0], [0.0, 1e-160, 0.0]]
        with pytest.raises(ConvergenceError, match="overflows the float range") as info:
            spectral_radius(block)
        assert info.value.bracket == (0.0, math.inf) and info.value.iterations == 0


class TestSeedBeyondTheFloatRange:
    """_eig_seed proposes nothing, without a numpy warning, where its numbers leave the float range."""

    def test_carried_vector_overflows(self):
        # Index 3, r about 4.6e-98: carrying M's vector by 1e308 / lam overflows.
        assert _seed(np.array([[0.0, 0.0, 1e-300], [1e308, 0.0, 0.0], [0.0, 1e-300, 0.0]])) is None

    def test_root_beyond_the_largest_float(self):
        # The root exceeds 1.7e308, so exp of its logarithm would raise OverflowError.
        t = np.array([[1.7e308, 1.7e308, 5e-324], [1.7e308, 1e-10, 1.0], [0.9, 1e-10, 1.0]])
        f = np.array([[0.0, 0.0, 0.0], [0.9, 1e10, 0.3], [0.3, 0.9, 1e300]])
        assert _seed(t + f) is None

    def test_partial_product_overflows(self):
        # Index 2 with two classes of 2: A_1 A_0 has entries 2 * 1.7e308 once A_0 is scaled to unit maximum.
        a = np.full((2, 2), 1.7e308)
        zero = np.zeros((2, 2))
        assert _seed(np.block([[zero, a], [a, zero]])) is None

    def test_resolvent_inverse_beyond_the_float_range_raises(self):
        with pytest.raises(NumericalError, match="resolvent inverse overflows the float range"):
            resolvent_inverse([[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [0.0, 1e308, 0.0]])


class TestRareFallbacks:
    """Statements that only a failing LAPACK call, a planted value or a spent budget reaches."""

    def test_failed_elimination_raises(self, monkeypatch):
        def solve(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(NumericalError, match="elimination on I - T failed: Singular matrix"):
            resolvent_inverse([[0.0, 0.5], [0.5, 0.0]])

    def test_inverse_entry_below_the_clamping_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, -2.0 * spectral.CLAMP_TOL))
        with pytest.raises(NumericalError, match="below the clamping tolerance"):
            resolvent_inverse([[0.0, 0.5], [0.5, 0.0]])

    @pytest.mark.parametrize("x", [np.zeros(3), np.array([math.inf, 1.0])], ids=["zero", "inf"])
    def test_unit_of_a_total_off_the_positive_floats_is_none(self, x):
        assert spectral._unit(x) is None

    def test_balanced_pair_keeps_the_first_pair_when_the_second_eig_fails(self, monkeypatch):
        block = np.array([[1.0, 2.0], [3.0, 1.0]])
        first = spectral._dominant_pair(block)
        eig, calls = np.linalg.eig, []

        def second_fails(a):
            calls.append(a)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", second_fails)
        lam, x = spectral._balanced_pair(block)
        assert len(calls) == 2 and lam == first[0]
        np.testing.assert_array_equal(x, first[1])

    def test_budget_spent_by_a_small_root_probe(self, monkeypatch):
        # The first probe certifies the root 0.1 and rescales by it; no iteration is left for the next.
        block = np.array([[0.0, 0.02], [0.5, 0.0]])
        root, _, _, _, k = spectral._power_pass(block, spectral.SPECTRAL_TOL, spectral._probe_length(2))
        assert root == pytest.approx(0.1, rel=1e-12)
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", k)
        with pytest.raises(ConvergenceError, match=f"did not converge in {k} of {k} iterations"):
            spectral._power_root(block, spectral.SPECTRAL_TOL, (0, 1))


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
        kept = spectral._Pass()
        rho = spectral._power_root(block, tol, classes, kept)[0]
        assert rho == spectral._power_root(block, tol, classes)[0] and kept.state
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

    def test_slow_block_resumes_its_seeded_pass(self, power_passes):
        m = _leslie_projection(60, [59, 60])
        classes = structure.analyze_structure(m).cyclic_classes
        kept = spectral._Pass()
        spectral._power_root(m, spectral.SPECTRAL_TOL, classes, kept)
        assert [start is None for start, _ in power_passes] == [True, False]
        power_passes.clear()
        spectral._power_root(m, spectral.SPECTRAL_TOL / 4.0, classes, kept)
        # The seeded pass that took over from the uncertified probe goes on; the
        # probe and a fresh seeded pass ran here before.
        assert [start is None for start, _ in power_passes] == [False] and not kept.state

    def test_probe_without_a_seed_goes_on_where_it_stopped(self, power_passes, monkeypatch):
        # With no seed the fallback pass from the uniform vector repeated the probe's steps.
        m = _leslie_projection(60, [59, 60])
        monkeypatch.setattr(spectral, "_eig_seed", lambda *args: None)
        kept, tol, probe = spectral._Pass(), spectral.SPECTRAL_TOL, spectral._probe_length(60)
        rho, vector = spectral._power_root(m, tol, (0,) * 60, kept)
        root, reference, _, _, iterations = spectral._power_pass(m, tol, spectral.MAX_ITERATIONS)
        assert rho == root and vector.tobytes() == reference.tobytes()
        assert power_passes[:2] == [(None, probe), (None, iterations - probe)]
        # The kept probe went on past a probe's length, and a tighter tol resumes it there: one pass, no probe.
        power_passes.clear()
        resumed = spectral._power_root(m, tol / 4.0, (0,) * 60, kept)
        assert [start for start, _ in power_passes] == [None] and not kept.state
        fresh = spectral._power_root(m, tol / 4.0, (0,) * 60)
        assert resumed[0] == fresh[0] and resumed[1].tobytes() == fresh[1].tobytes()

    @pytest.mark.parametrize("n, fertile_ages", [(9, [9]), (12, [4, 8, 12]), (200, [200])])
    def test_seeded_route(self, n, fertile_ages, power_passes):
        m = _leslie_projection(n, fertile_ages)
        self.assert_resumes(m, structure.analyze_structure(m).cyclic_classes)
        assert all(start is not None for start, _ in power_passes)

    @pytest.mark.parametrize("n, fertile_ages", [(9, [9]), (12, [4, 8, 12]), (60, [59, 60])])
    def test_left_record_runs_on_the_transpose(self, n, fertile_ages):
        # The transpose's cyclic classes run the other way round the cycle.
        m = _leslie_projection(n, fertile_ages)
        report = structure.analyze_structure(m)
        reversed_classes = tuple(-k % report.imprimitivity_index for k in report.cyclic_classes)
        tol, kept = spectral.SPECTRAL_TOL, spectral._Pass(left=True)
        for t in (tol, tol / 4.0):
            left = spectral._power_root(m, t, report.cyclic_classes, kept)
            transposed = spectral._power_root(m.T, t, reversed_classes)
            assert left[0] == transposed[0] and left[1].tobytes() == transposed[1].tobytes()
        assert not kept.state

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
