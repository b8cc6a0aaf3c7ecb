import math
import sys

import networkx as nx
import numpy as np
import pytest

from matpop import (
    ConsistencyError,
    ModelError,
    analyze_structure,
    next_gen_pattern,
    resolvent_inverse,
    structure,
)
from helpers import (
    PLANT_F,
    PLANT_Q,
    digraph_of,
    pattern_power_positive,
    plant_model,
    random_irreducible_model,
    simple_cycle_lengths,
)


def long_period_patterns(rng):
    """Irreducible patterns of order 100-1,000 and known index, as (pattern, index) pairs."""
    patterns = []
    for period in (2, 7, 60, 150, 300):
        # Maps between consecutive shuffled classes: sparse at random, plus a
        # spine a_0 -> a_1 -> ... joined to all of each class, which makes the
        # pattern irreducible with a cycle of length period.
        n = int(rng.integers(max(100, period), 301))
        sizes = 1 + rng.multinomial(n - period, np.full(period, 1 / period))
        labels = rng.permutation(np.repeat(np.arange(period), sizes))
        consecutive = labels[:, None] == (labels[None, :] + 1) % period
        spine = np.array([np.flatnonzero(labels == k)[0] for k in range(period)])
        m = consecutive & (rng.random((n, n)) < 0.05)
        m[:, spine] |= consecutive[:, spine]
        m[spine, :] |= consecutive[spine, :]
        patterns.append((m, period))
    # Leslie patterns are irreducible when their last age is fertile.
    for ages, period in (((1000,), 1000), ((599, 600), 1), ((600, 1000), 200)):
        n = max(ages)
        leslie = np.zeros((n, n), dtype=bool)
        leslie[np.arange(1, n), np.arange(n - 1)] = True
        leslie[0, np.array(ages) - 1] = True
        patterns.append((leslie, period))
    # A 300-cycle with chords that skip 3 or 6 vertices: DFS from 0 walks
    # the cycle, so a vertex's depth is its position, while BFS takes the
    # chords.  Every cycle length is 300 less a multiple of 3.
    chords = np.zeros((300, 300), dtype=bool)
    chords[(np.arange(300) + 1) % 300, np.arange(300)] = True
    tails = rng.choice(300, 40, replace=False)
    chords[(tails + rng.choice([4, 7], 40)) % 300, tails] = True
    patterns.append((chords, 3))
    return patterns


def walk_inputs(case):
    """Patterns for the strong-component walk: 50 random ones for a seed, or one named pattern.

    "chain" is the path 0 -> 1 -> ... -> 4999 and "cycle" the same path
    closed by 4999 -> 0, both far deeper than the recursion limit.
    "incomparable" has edges from 0 to the cycles {1, 2} and {3, 4} and the
    loop at 5, no two of them joined by a walk, edges from 2 and 4 to 6, and
    a loop at 7 that no walk joins to the rest.
    """
    if case in ("chain", "cycle"):
        n = 5000
        assert n > sys.getrecursionlimit()
        m = np.zeros((n, n), dtype=bool)
        m[np.arange(1, n), np.arange(n - 1)] = True
        m[0, n - 1] = case == "cycle"
        return [m]
    if case == "incomparable":
        m = np.zeros((8, 8))
        for source, target in ((0, 1), (0, 3), (0, 5), (1, 2), (2, 1), (3, 4), (4, 3), (5, 5), (2, 6), (4, 6), (7, 7)):
            m[target, source] = 1.0
        return [m]
    rng = np.random.default_rng(case)
    patterns = []
    for _ in range(50):
        n = int(rng.integers(1, 41))
        patterns.append((rng.random((n, n)) < rng.uniform(0.0, 0.3)).astype(float))
    return patterns


def assert_cyclic_classes(m, report, period):
    """report has index period, puts vertex 0 in class 0, uses every class and advances one class per edge."""
    assert report.imprimitivity_index == period
    classes = np.array(report.cyclic_classes)
    assert classes[0] == 0
    rows, cols = np.nonzero(m)
    assert ((classes[cols] + 1) % period == classes[rows]).all()
    assert sorted(set(classes.tolist())) == list(range(period))


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

    @pytest.mark.parametrize("case", [0, 1, 2, 3, "chain", "cycle", "incomparable"])
    def test_components_and_order_match_networkx(self, case):
        for m in walk_inputs(case):
            # A bool pattern is walked as analyze_structure would walk it, without its float copy.
            report = structure._analyze_pattern(m) if m.dtype == bool else analyze_structure(m)
            graph = digraph_of(m)
            assert {frozenset(c) for c in report.components} == {
                frozenset(c) for c in nx.strongly_connected_components(graph)
            }
            assert all(list(c) == sorted(c) for c in report.components)
            rank = {v: k for k, component in enumerate(report.components) for v in component}
            # Every edge between components runs from an earlier one to a later one.
            assert all(rank[u] <= rank[v] for u, v in graph.edges)
        if case == "cycle":
            assert report.imprimitivity_index == 5000
            assert report.cyclic_classes == tuple(range(5000))
        if case == "incomparable":
            # The sets and the order above allow {7} anywhere and {1, 2}, {3, 4} and {5} in any order.
            assert report.components == ((7,), (0,), (5,), (3, 4), (1, 2), (6,))

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
                assert report.cyclic_classes is None
                continue
            checked += 1
            assert_cyclic_classes(m, report, report.imprimitivity_index)
        for m, period in long_period_patterns(rng):
            assert_cyclic_classes(m, analyze_structure(m), period)

    @pytest.mark.parametrize("period", range(2, 49))
    def test_transpose_classes_run_backwards(self, period):
        # Positive maps between shuffled classes of sizes 1-3, and a Leslie
        # pattern whose fertile ages are multiples of the period.
        rng = np.random.default_rng(period)
        sizes = rng.integers(1, 4, period)
        n = int(sizes.sum())
        labels = rng.permutation(np.repeat(np.arange(period), sizes))
        cyclic = (labels[:, None] == (labels[None, :] + 1) % period).astype(float)
        leslie = np.zeros((3 * period, 3 * period))
        leslie[np.arange(1, 3 * period), np.arange(3 * period - 1)] = 0.9
        leslie[0, [period - 1, 3 * period - 1]] = 5.0
        for m in (cyclic * rng.uniform(0.1, 1.0, (n, n)), leslie):
            report = analyze_structure(m)
            assert report.imprimitivity_index == period
            classes = -np.array(report.cyclic_classes) % period
            assert tuple(classes.tolist()) == analyze_structure(m.T).cyclic_classes

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

    def test_mismatched_orders_raise(self):
        with pytest.raises(ModelError, match="differ in order: 2 vs 3"):
            next_gen_pattern(np.eye(2), np.eye(3))

    def test_pattern_is_read_at_exactly_zero(self):
        # Entries of any size count: 1e-300 keeps column 2 of the nonzero row positive.
        f = np.array([[1.0, 1e-300], [0.0, 0.0]])
        report = next_gen_pattern(f, np.array([[2.0, 1e-300], [0.0, 0.0]]))
        assert report.q11_indices == (0,)
        assert report.zero_rows == (1,)

    @pytest.mark.parametrize(
        "q, message",
        [
            # Row 0 is Q's one nonzero row, and Q11 = [[0]] has no cycle.
            ([[0.0, 1.0], [0.0, 0.0]], "not irreducible"),
            # Q11 = [[0, 1], [1, 0]] is irreducible, but no nonzero row reaches class 3.
            ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "a column .* is zero"),
        ],
    )
    def test_broken_leading_block_raises(self, q, message):
        with pytest.raises(ConsistencyError, match=message):
            next_gen_pattern(q, q)

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
            assert report.q_irreducible == nx.is_strongly_connected(digraph_of(q > 1e-12))
            live = list(report.q11_indices)
            assert (q[live, :] > 1e-12).any(axis=0).all()
            assert analyze_structure(np.sign(q[np.ix_(live, live)])).irreducible
