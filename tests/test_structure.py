import math

import numpy as np
import pytest

from matpop import (
    ConsistencyError,
    analyze_structure,
    next_gen_pattern,
    resolvent_inverse,
)
from matpop.structure import _cyclic_classes
from helpers import (
    PLANT_F,
    PLANT_Q,
    pattern_power_positive,
    plant_model,
    random_irreducible_model,
    simple_cycle_lengths,
)


class TestAnalyzeStructure:
    def test_positive_matrix_is_primitive(self):
        report = analyze_structure(np.full((3, 3), 0.5))
        assert report.irreducible
        assert report.imprimitivity_index == 1
        assert report.primitive
        assert report.components == ((0, 1, 2),)

    def test_cyclic_permutation_has_period_three(self):
        cycle = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        report = analyze_structure(cycle)
        assert report.irreducible
        assert report.imprimitivity_index == 3
        assert not report.primitive

    def test_plant_lifecycle_period_two(self):
        report = analyze_structure(plant_model().projection)
        assert report.irreducible
        assert report.imprimitivity_index == 2
        assert not report.primitive

    def test_1x1_zero_matrix_is_reducible(self):
        report = analyze_structure([[0.0]])
        assert not report.irreducible
        assert report.imprimitivity_index is None
        assert not report.primitive

    def test_1x1_positive_matrix_is_primitive(self):
        report = analyze_structure([[0.3]])
        assert report.irreducible
        assert report.imprimitivity_index == 1
        assert report.primitive

    def test_triangular_condensation_order(self):
        m = np.array(
            [
                [1.0, 0.0, 0.0],
                [1.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
            ]
        )
        report = analyze_structure(m)
        assert not report.irreducible
        # Edges 0 -> 1 and 2 -> 1, so {1} must come after both sources.
        order = {component: rank for rank, component in enumerate(report.components)}
        assert order[(0,)] < order[(1,)]
        assert order[(2,)] < order[(1,)]

    def test_depends_only_on_pattern(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = rng.uniform(0.0, 5.0, (n, n)) * (rng.random((n, n)) < 0.4)
            assert analyze_structure(m) == analyze_structure(np.sign(m))

    def test_primitive_iff_power_positive(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 80:
            n = int(rng.integers(1, 6))
            m = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.5)
            report = analyze_structure(m)
            if not report.irreducible:
                continue
            checked += 1
            assert report.primitive == pattern_power_positive(m, max(1, (n - 1) * n))

    def test_period_is_gcd_of_simple_cycle_lengths(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 80:
            n = int(rng.integers(1, 7))
            m = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.45)
            report = analyze_structure(m)
            if not report.irreducible:
                continue
            checked += 1
            lengths = simple_cycle_lengths(m)
            assert lengths
            assert report.imprimitivity_index == math.gcd(*lengths)
            assert all(length % report.imprimitivity_index == 0 for length in lengths)

    def test_edges_advance_one_cyclic_class(self):
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 80:
            n = int(rng.integers(1, 9))
            m = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.3)
            report = analyze_structure(m)
            if not report.irreducible:
                continue
            checked += 1
            period, classes = _cyclic_classes(m > 0)
            assert period == report.imprimitivity_index
            rows, cols = np.nonzero(m)
            assert ((classes[cols] + 1) % period == classes[rows]).all()
            assert sorted(set(classes.tolist())) == list(range(period))

    def test_plant_cycle_lengths(self):
        lengths = sorted(simple_cycle_lengths(plant_model().projection))
        assert lengths == [2, 4, 4]


class TestNextGenPattern:
    def test_plant_blocks(self):
        report = next_gen_pattern(PLANT_F, PLANT_Q)
        assert report.zero_rows == (1, 3, 4)
        assert report.q11_indices == (0, 2)
        assert report.permutation == (0, 2, 1, 3, 4)
        assert not report.q_irreducible

    def test_all_rows_nonzero_forces_irreducible_q(self):
        f = np.ones((3, 3))
        report = next_gen_pattern(f, f)  # T = 0 means Q = F
        assert report.q_irreducible
        assert report.zero_rows == ()
        assert report.q11_indices == (0, 1, 2)

    def test_three_class_single_newborn_row(self):
        t = np.array([[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0]])
        f = np.zeros((3, 3))
        f[0] = [0.2, 0.3, 0.4]
        q = f @ resolvent_inverse(t)
        report = next_gen_pattern(f, q)
        assert report.zero_rows == (1, 2)
        assert report.q11_indices == (0,)
        assert not report.q_irreducible

    def test_mismatched_zero_rows_raise(self):
        f = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ConsistencyError):
            next_gen_pattern(f, q)

    def test_zero_q_raises(self):
        zero = np.zeros((2, 2))
        with pytest.raises(ConsistencyError):
            next_gen_pattern(zero, zero)

    def test_pattern_laws_on_random_irreducible_models(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            model = random_irreducible_model(rng, n_max=8)
            q = model.next_generation
            report = next_gen_pattern(model.fertility, q)
            f_zero = {int(i) for i in np.flatnonzero(~(model.fertility > 0).any(axis=1))}
            assert set(report.zero_rows) == f_zero
            assert report.q_irreducible == (len(f_zero) == 0)
            live = list(report.q11_indices)
            assert (q[live, :] > 1e-12).any(axis=0).all()
            assert analyze_structure(np.sign(q[np.ix_(live, live)])).irreducible
